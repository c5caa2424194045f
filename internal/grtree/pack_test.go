package grtree

import (
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/nodestore"
	"repro/internal/temporal"
)

// dailyRows draws n rows inserted day by day over days from start, as the
// statement benchmark loads its table: valid time starts up to 120 days
// before the insert and half of it tracks NOW, the rest ends within 120 days;
// 30 % of the rows were logically deleted on a later day of the history.
func dailyRows(rng *rand.Rand, start chronon.Instant, days, n int) []BulkItem {
	items := make([]BulkItem, n)
	for i := range items {
		day := start + chronon.Instant(i*days/n)
		vtb := day - chronon.Instant(rng.Int63n(120))
		x := temporal.Extent{TTBegin: day, TTEnd: chronon.UC, VTBegin: vtb, VTEnd: chronon.NOW}
		if rng.Float64() >= 0.5 {
			x.VTEnd = vtb + chronon.Instant(rng.Int63n(120))
		}
		if rng.Float64() < 0.3 {
			x.TTEnd = day + chronon.Instant(rng.Int63n(int64(start)+int64(days)-int64(day)+1))
		}
		items[i] = BulkItem{Extent: x, Payload: Payload(i + 1)}
	}
	return items
}

// TestStartOrderedPackingCutsTimesliceReads: a growing entry's bound reaches
// to now, so it says nothing about how late its entries start, and STR on
// region centres mixes long intervals with short ones. Packed on start time
// first, a bulk-built tree answers a timeslice — a few days of transaction
// time, a short valid-time window after them — reading few nodes beyond the
// leaves that hold its answers.
func TestStartOrderedPackingCutsTimesliceReads(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const start, days, n = chronon.Instant(10000), 300, 100000
	ct := start + days + 30
	tr := newTestTree(t, DefaultConfig())
	if err := tr.BulkLoad(dailyRows(rng, start, days, n), ct); err != nil {
		t.Fatal(err)
	}
	leafOf := make([]nodestore.NodeID, n+1)
	err := tr.Walk(func(id nodestore.NodeID, level int, entries []Entry) error {
		for _, e := range entries {
			if level == 0 {
				leafOf[e.Payload()] = id
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const queries = 200
	var reads uint64
	leaves := 0
	for i := 0; i < queries; i++ {
		tt := start + chronon.Instant(rng.Int63n(days))
		vt := tt + 1 + chronon.Instant(rng.Int63n(30))
		q := temporal.Extent{TTBegin: tt, TTEnd: tt + chronon.Instant(rng.Int63n(6)), VTBegin: vt, VTEnd: vt + 10}
		before := tr.Store().Stats().NodeReads
		got, err := tr.SearchAll(Predicate{Op: OpOverlaps, Query: q}, ct)
		if err != nil {
			t.Fatal(err)
		}
		reads += tr.Store().Stats().NodeReads - before
		hit := make(map[nodestore.NodeID]bool)
		for _, p := range got {
			hit[leafOf[p]] = true
		}
		leaves += len(hit)
	}
	t.Logf("a timeslice reads %.1f nodes, %.1f leaves hold its answers", float64(reads)/queries, float64(leaves)/queries)
	if float64(reads) > 1.3*float64(leaves) {
		t.Fatalf("%d node reads for %d answer leaves: want at most 1.3 per answer leaf", reads, leaves)
	}
}

// TestInsertAllocations: an insert into a 20k-entry tree reuses a pooled
// writer, whose node, entry, path, page and reinsertion buffers the earlier
// inserts grew, so it allocates neither per node read nor per node write. It
// measures 1 allocation (the key class handed to the kernel), plus a split's
// sort buffers on the inserts that split; the bound is that plus 2. A fresh
// node per read measured 28, and a fresh page per node write 33. Under -race
// it measures 6, since the detector drops pooled writers; the bound there is
// 8.
func TestInsertAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const start, days, n = chronon.Instant(10000), 60, 20000
	ct := start + days + 30
	tr := newTestTree(t, DefaultConfig())
	if err := tr.BulkLoad(dailyRows(rng, start, days, n), ct); err != nil {
		t.Fatal(err)
	}
	more := dailyRows(rng, ct, 1, 2000)
	next := 0
	allocs := testing.AllocsPerRun(len(more)-1, func() {
		it := more[next]
		next++
		if err := tr.Insert(it.Extent, Payload(n)+it.Payload, ct); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per insert", allocs)
	limit := 3.0
	if raceEnabled {
		limit = 8
	}
	if allocs > limit {
		t.Fatalf("%.0f allocations per insert, want at most %.0f", allocs, limit)
	}
}

package grtree

import (
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/temporal"
)

// TestExtremeReadsFewerNodesThanCount: a bounding entry's TTBegin is a floor
// on its leaves' TTBegin and its start maximum a ceiling, so MIN and MAX,
// which KeyLess orders on TTBegin first, branch and bound where COUNT must
// read every subtree the window reaches. On aggregate windows shaped like the
// statement benchmark's (Overlaps, a month of transaction time, valid time
// reaching back up to 90 days, 5–15 % of the rows) over a start-packed tree,
// each reads at most half of COUNT's nodes, and answers what a brute-force
// pass over every row answers.
func TestExtremeReadsFewerNodesThanCount(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const start, days, n = chronon.Instant(10000), 300, 100000
	ct := start + days + 30
	items := dailyRows(rng, start, days, n)
	tr := newTestTree(t, DefaultConfig())
	if err := tr.BulkLoad(items, ct); err != nil {
		t.Fatal(err)
	}
	regions := make([]temporal.Region, n)
	shapes := make([]temporal.Shape, n)
	for i, it := range items {
		regions[i] = it.Extent.Region()
		shapes[i] = regions[i].Resolve(ct)
	}
	// share is the part of a sample of the rows that overlaps q.
	share := func(q temporal.Extent) float64 {
		qs, hit := q.Region().Resolve(ct), 0
		for i := 0; i < n; i += 50 {
			if shapes[i].Overlaps(qs) {
				hit++
			}
		}
		return float64(hit) * 50 / n
	}
	// window draws a window and fits its valid-time length to a share of the
	// table between 5 and 15 %; ok is false when no length fits, as late in
	// the history, where the rows valid until NOW alone exceed the band.
	window := func() (q temporal.Extent, ok bool) {
		tt := start + chronon.Instant(rng.Int63n(days-30))
		q = temporal.Extent{TTBegin: tt, TTEnd: tt + chronon.Instant(rng.Int63n(30)), VTBegin: tt - chronon.Instant(rng.Int63n(90))}
		target := 0.05 + 0.1*rng.Float64()
		lo, hi := int64(1), int64(400)
		for lo < hi {
			mid := (lo + hi) / 2
			if q.VTEnd = q.VTBegin + chronon.Instant(mid); share(q) < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		q.VTEnd = q.VTBegin + chronon.Instant(lo)
		sel := share(q)
		return q, sel >= 0.05 && sel <= 0.15
	}
	const queries = 200
	var reads [3]uint64 // COUNT, MIN, MAX
	for done := 0; done < queries; {
		q, ok := window()
		if !ok {
			continue
		}
		pred := Predicate{Op: OpOverlaps, Query: q}
		// The brute force tests every row with the matcher the tree walks
		// take (TestCompiledMatchesReference holds it to LeafMatch), so
		// what it checks is the walk.
		m := pred.compile(ct)
		count := 0
		var lo, hi temporal.Region
		for _, r := range regions {
			if m.Leaf(r) {
				if count == 0 || KeyLess(r, lo) {
					lo = r
				}
				if count == 0 || KeyLess(hi, r) {
					hi = r
				}
				count++
			}
		}
		if sel := float64(count) / n; sel < 0.05 || sel > 0.15 {
			continue
		}
		done++
		before := tr.Store().Stats().NodeReads
		got, ok, err := tr.AggCount(pred, ct)
		if err != nil || !ok || got != int64(count) {
			t.Fatalf("%v: COUNT %d ok=%v err=%v, brute force %d", pred.Query, got, ok, err, count)
		}
		reads[0] += tr.Store().Stats().NodeReads - before
		for i, want := range []temporal.Region{lo, hi} {
			check := func(walk string, got temporal.Region, found, ok bool, err error) {
				if err != nil || !ok || !found || KeyLess(got, want) || KeyLess(want, got) {
					t.Fatalf("%v: %s extreme (max=%v) %v found=%v ok=%v err=%v, brute force %v", pred.Query, walk, i == 1, got, found, ok, err, want)
				}
			}
			before := tr.Store().Stats().NodeReads
			got, found, ok, err := tr.AggExtreme(pred, ct, i == 1)
			check("bounded", got, found, ok, err)
			reads[1+i] += tr.Store().Stats().NodeReads - before
			// Without a span the walk reads every subtree the matcher admits.
			got, found, ok, err = tr.Tree.AggExtreme(m, KeyLess, nil, i == 1)
			check("unbounded", got, found, ok, err)
		}
	}
	per := func(r uint64) float64 { return float64(r) / queries }
	t.Logf("nodes read per aggregate: COUNT %.1f, MIN %.1f, MAX %.1f", per(reads[0]), per(reads[1]), per(reads[2]))
	for i, name := range []string{"MIN", "MAX"} {
		if 2*reads[1+i] > reads[0] {
			t.Errorf("%s read %.1f nodes per window, COUNT %.1f: want at most half", name, per(reads[1+i]), per(reads[0]))
		}
	}
}

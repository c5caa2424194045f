package grtree

import (
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/nodestore"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.MaxEntries = 8
	c.Bound = temporal.BoundPolicy{TimeParam: 30, AllowHidden: true}
	return c
}

func newTestTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := Create(nodestore.NewMem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// randomExtent draws a valid extent as of ct (mirrors the temporal package's
// generator).
func randomExtent(rng *rand.Rand, ct chronon.Instant) temporal.Extent {
	c := int64(ct)
	vtb := rng.Int63n(c + 1)
	ttb := vtb + rng.Int63n(c-vtb+1)
	switch rng.Intn(6) {
	case 0:
		return temporal.Extent{TTBegin: chronon.Instant(ttb), TTEnd: chronon.UC, VTBegin: chronon.Instant(vtb), VTEnd: chronon.Instant(vtb + rng.Int63n(60))}
	case 1:
		tte := ttb + rng.Int63n(c-ttb+1)
		return temporal.Extent{TTBegin: chronon.Instant(ttb), TTEnd: chronon.Instant(tte), VTBegin: chronon.Instant(vtb), VTEnd: chronon.Instant(vtb + rng.Int63n(60))}
	case 2:
		return temporal.Extent{TTBegin: chronon.Instant(vtb), TTEnd: chronon.UC, VTBegin: chronon.Instant(vtb), VTEnd: chronon.NOW}
	case 3:
		tte := vtb + rng.Int63n(c-vtb+1)
		return temporal.Extent{TTBegin: chronon.Instant(vtb), TTEnd: chronon.Instant(tte), VTBegin: chronon.Instant(vtb), VTEnd: chronon.NOW}
	case 4:
		return temporal.Extent{TTBegin: chronon.Instant(ttb), TTEnd: chronon.UC, VTBegin: chronon.Instant(vtb), VTEnd: chronon.NOW}
	default:
		tte := ttb + rng.Int63n(c-ttb+1)
		return temporal.Extent{TTBegin: chronon.Instant(ttb), TTEnd: chronon.Instant(tte), VTBegin: chronon.Instant(vtb), VTEnd: chronon.NOW}
	}
}

func payloadSetEqual(a []Payload, b map[Payload]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for _, p := range a {
		if !b[p] {
			return false
		}
	}
	return true
}

// bruteForce evaluates the predicate over a model map.
func bruteForce(model map[Payload]temporal.Extent, pred Predicate, ct chronon.Instant) map[Payload]bool {
	out := make(map[Payload]bool)
	for p, e := range model {
		if pred.Match(e, ct) {
			out[p] = true
		}
	}
	return out
}

func TestInsertSearchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ct := chronon.Instant(200)
	tr := newTestTree(t, smallConfig())
	model := make(map[Payload]temporal.Extent)

	for i := 0; i < 400; i++ {
		e := randomExtent(rng, ct)
		p := Payload(i + 1)
		if err := tr.Insert(e, p, ct); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		model[p] = e
	}
	if tr.Size() != 400 {
		t.Fatalf("size %d", tr.Size())
	}
	if err := tr.Check(ct); err != nil {
		t.Fatalf("check after inserts: %v", err)
	}
	if tr.Height() < 2 {
		t.Fatalf("tree should have split: height %d", tr.Height())
	}

	// Check all four operators at several current times against brute force.
	for _, at := range []chronon.Instant{ct, ct + 50, ct + 500} {
		for trial := 0; trial < 30; trial++ {
			q := randomExtent(rng, ct)
			for _, op := range []rtree.Op{rtree.OpOverlaps, rtree.OpEqual, rtree.OpContains, rtree.OpContainedIn} {
				pred := Predicate{Op: op, Query: q}
				got, err := tr.SearchAll(pred, at)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteForce(model, pred, at)
				if !payloadSetEqual(got, want) {
					t.Fatalf("at ct+%d, %v(%v): got %d rows, want %d", at-ct, op, q, len(got), len(want))
				}
			}
		}
	}
}

// TestSearchSeesGrowth: a query region ahead of the data matches only after
// the clock advances and the now-relative regions grow into it.
func TestSearchSeesGrowth(t *testing.T) {
	ct := chronon.Instant(100)
	tr := newTestTree(t, smallConfig())
	// A growing stair starting at day 90.
	ext := temporal.Extent{TTBegin: 90, TTEnd: chronon.UC, VTBegin: 90, VTEnd: chronon.NOW}
	if err := tr.Insert(ext, 1, ct); err != nil {
		t.Fatal(err)
	}
	// Query rectangle at tt,vt ∈ [150, 160].
	q := temporal.Extent{TTBegin: 150, TTEnd: 160, VTBegin: 150, VTEnd: 160}
	got, err := tr.SearchAll(Predicate{Op: rtree.OpOverlaps, Query: q}, ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("region must not overlap the future query yet")
	}
	got, err = tr.SearchAll(Predicate{Op: rtree.OpOverlaps, Query: q}, 155)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatal("grown region must overlap the query at ct=155")
	}
}

func TestCheckOverTimeAfterMixedWorkload(t *testing.T) {
	// The structural invariant must keep holding as the clock advances.
	rng := rand.New(rand.NewSource(99))
	clockStart := chronon.Instant(120)
	tr := newTestTree(t, smallConfig())
	model := make(map[Payload]temporal.Extent)
	ct := clockStart
	for i := 0; i < 250; i++ {
		ct++ // time passes between operations
		if rng.Intn(4) != 0 || len(model) == 0 {
			// Insert with proper insertion semantics: TTBegin = ct.
			vtb := ct - chronon.Instant(rng.Int63n(50))
			e := temporal.Extent{TTBegin: ct, TTEnd: chronon.UC, VTBegin: vtb, VTEnd: chronon.NOW}
			if rng.Intn(2) == 0 {
				e.VTEnd = vtb + chronon.Instant(rng.Int63n(40))
			}
			p := Payload(i + 1)
			if err := e.ValidateInsert(ct); err != nil {
				t.Fatal(err)
			}
			if err := tr.Insert(e, p, ct); err != nil {
				t.Fatal(err)
			}
			model[p] = e
		} else {
			// Logical deletion: index delete of old extent + insert of the
			// closed extent (Section 2).
			for p, e := range model {
				if e.TTEnd != chronon.UC {
					continue
				}
				if ok, _, err := tr.Delete(e, p, ct); err != nil || !ok {
					t.Fatalf("delete: %v %v", ok, err)
				}
				closed, err := e.Deleted(ct)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.Insert(closed, p, ct); err != nil {
					t.Fatal(err)
				}
				model[p] = closed
				break
			}
		}
	}
	for _, at := range []chronon.Instant{ct, ct + 100, ct + 1000} {
		if err := tr.Check(at); err != nil {
			t.Fatalf("check at ct+%d: %v", at-ct, err)
		}
	}
	// And searches remain correct far in the future.
	for trial := 0; trial < 20; trial++ {
		q := randomExtent(rng, ct)
		pred := Predicate{Op: rtree.OpOverlaps, Query: q}
		at := ct + 500
		got, err := tr.SearchAll(pred, at)
		if err != nil {
			t.Fatal(err)
		}
		if !payloadSetEqual(got, bruteForce(model, pred, at)) {
			t.Fatalf("future search mismatch (trial %d)", trial)
		}
	}
}

// TestDeletePolicies: DeleteWhere — scan, delete under the cursor, restart
// when the tree condenses — empties the tree under each Section 5.5 policy.
// (The cursor's no-duplicates guarantee is the kernel's test.)
func TestDeletePolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ct := chronon.Instant(150)
	everything := temporal.Extent{TTBegin: 0, TTEnd: chronon.UC, VTBegin: 0, VTEnd: chronon.NOW}
	restartCounts := map[DeletePolicy]int{}
	for _, pol := range []DeletePolicy{RestartOnCondense, RestartAlways, NoCondense} {
		cfg := smallConfig()
		cfg.DeletePolicy = pol
		tr := newTestTree(t, cfg)
		r := rand.New(rand.NewSource(9))
		for i := 0; i < 150; i++ {
			if err := tr.Insert(randomExtent(r, ct), Payload(i+1), ct); err != nil {
				t.Fatal(err)
			}
		}
		removed, restarts, err := tr.DeleteWhere(Predicate{Op: rtree.OpOverlaps, Query: everything}, ct)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if removed != 150 || tr.Size() != 0 {
			t.Fatalf("%v: removed %d, %d remain", pol, removed, tr.Size())
		}
		if err := tr.Check(ct); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		restartCounts[pol] = restarts
		if pol.String() == "" {
			t.Fatal("policy string")
		}
	}
	if restartCounts[RestartOnCondense] == 0 {
		t.Fatal("mass deletion must condense and restart the cursor at least once")
	}
	if restartCounts[RestartAlways] < restartCounts[RestartOnCondense] {
		t.Fatalf("restart-always (%d) must restart at least as often as restart-on-condense (%d)",
			restartCounts[RestartAlways], restartCounts[RestartOnCondense])
	}
	_ = rng
}

func TestStatsAndDump(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ct := chronon.Instant(150)
	tr := newTestTree(t, smallConfig())
	for i := 0; i < 150; i++ {
		if err := tr.Insert(randomExtent(rng, ct), Payload(i+1), ct); err != nil {
			t.Fatal(err)
		}
	}
	st, err := tr.Stats(ct, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.LeafEntries != 150 || st.Height != tr.Height() || st.Nodes < 3 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.PerLevel) != st.Height {
		t.Fatalf("per-level stats: %d levels, height %d", len(st.PerLevel), st.Height)
	}
	if st.DeadSpaceRatio < 0 || st.DeadSpaceRatio > 1 {
		t.Fatalf("dead space ratio %v", st.DeadSpaceRatio)
	}
	dump, err := tr.Dump(ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) == 0 {
		t.Fatal("empty dump")
	}
}

func TestInvalidInputs(t *testing.T) {
	tr := newTestTree(t, smallConfig())
	bad := temporal.Extent{TTBegin: 10, TTEnd: 5, VTBegin: 0, VTEnd: 1}
	if err := tr.Insert(bad, 1, 100); err == nil {
		t.Fatal("invalid extent must not insert")
	}
	if _, err := tr.Search(Predicate{Op: rtree.OpOverlaps, Query: bad}, 100); err == nil {
		t.Fatal("invalid query must fail")
	}
	for _, op := range []rtree.Op{rtree.OpOverlaps, rtree.OpEqual, rtree.OpContains, rtree.OpContainedIn, rtree.Op(99)} {
		_ = op.String()
	}
}

func TestFullCapacityNodes(t *testing.T) {
	// Default capacity: entries per 4 KB page.
	if Capacity < 80 {
		t.Fatalf("capacity %d unexpectedly small", Capacity)
	}
	cfg := DefaultConfig()
	tr := newTestTree(t, cfg)
	ct := chronon.Instant(500)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 3*Capacity; i++ {
		if err := tr.Insert(randomExtent(rng, ct), Payload(i+1), ct); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(ct); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Fatal("default-capacity tree should have split")
	}
}

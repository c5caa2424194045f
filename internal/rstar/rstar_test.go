package rstar

import (
	"math/rand"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/rtree"
)

func smallConfig() Config {
	return Config{MaxEntries: 8, MinFillPct: 40, ReinsertPct: 30}
}

func newTestTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := Create(nodestore.NewMem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func randomRect(rng *rand.Rand, extent int64) Rect {
	x := rng.Int63n(extent)
	y := rng.Int63n(extent)
	return Rect{XMin: x, XMax: x + rng.Int63n(40), YMin: y, YMax: y + rng.Int63n(40)}
}

func bruteForce(model map[Payload]Rect, op rtree.Op, q Rect) map[Payload]bool {
	out := make(map[Payload]bool)
	for p, r := range model {
		if leafTest(op, r, q) {
			out[p] = true
		}
	}
	return out
}

func equalSets(a []Payload, b map[Payload]bool) bool {
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

func TestRectAlgebra(t *testing.T) {
	a := Rect{0, 10, 0, 10}
	b := Rect{5, 15, 5, 15}
	if !a.Overlaps(b) || a.IntersectionArea(b) != 36 {
		t.Fatalf("intersection: %v", a.IntersectionArea(b))
	}
	u := a.Union(b)
	if u != (Rect{0, 15, 0, 15}) {
		t.Fatalf("union: %v", u)
	}
	if !u.Contains(a) || !u.Contains(b) || a.Contains(b) {
		t.Fatal("contains")
	}
	if a.Area() != 121 || a.Margin() != 22 {
		t.Fatalf("area %v margin %v", a.Area(), a.Margin())
	}
	e := Rect{5, 4, 0, 0}
	if !e.Empty() || e.Area() != 0 || e.Margin() != 0 {
		t.Fatal("empty rect")
	}
	if !a.Contains(e) {
		t.Fatal("everything contains empty")
	}
	if a.String() == "" {
		t.Fatal("string")
	}
}

func TestInsertSearchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := newTestTree(t, smallConfig())
	model := make(map[Payload]Rect)
	for i := 0; i < 400; i++ {
		r := randomRect(rng, 500)
		p := Payload(i + 1)
		if err := tr.Insert(r, p); err != nil {
			t.Fatal(err)
		}
		model[p] = r
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 || tr.Size() != 400 {
		t.Fatalf("height %d size %d", tr.Height(), tr.Size())
	}
	for trial := 0; trial < 40; trial++ {
		q := randomRect(rng, 500)
		for _, op := range []rtree.Op{rtree.OpOverlaps, rtree.OpEqual, rtree.OpContains, rtree.OpContainedIn} {
			got, err := tr.SearchAll(op, q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalSets(got, bruteForce(model, op, q)) {
				t.Fatalf("%v(%v) mismatch", op, q)
			}
		}
	}
}

func TestStatsLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := newTestTree(t, smallConfig())
	for i := 0; i < 200; i++ {
		if err := tr.Insert(randomRect(rng, 300), Payload(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	ls, _, err := rtree.Levels(tr.Tree, Keys().Bound, Keys().Resolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != tr.Height() {
		t.Fatalf("levels %d height %d", len(ls), tr.Height())
	}
	total := 0
	for _, l := range ls {
		if l.Level == 0 {
			total = l.Entries
		}
	}
	if total != 200 {
		t.Fatalf("leaf entries %d", total)
	}
}

func TestNoReinsertConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.ReinsertPct = 0
	tr := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(5))
	model := make(map[Payload]Rect)
	for i := 0; i < 200; i++ {
		r := randomRect(rng, 300)
		p := Payload(i + 1)
		if err := tr.Insert(r, p); err != nil {
			t.Fatal(err)
		}
		model[p] = r
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	q := Rect{0, 400, 0, 400}
	got, _ := tr.SearchAll(rtree.OpOverlaps, q)
	if !equalSets(got, bruteForce(model, rtree.OpOverlaps, q)) {
		t.Fatal("no-reinsert tree mismatch")
	}
}

func TestEmptyRectsRejected(t *testing.T) {
	tr := newTestTree(t, smallConfig())
	if err := tr.Insert(Rect{5, 4, 0, 0}, 1); err == nil {
		t.Fatal("empty rect insert must fail")
	}
	if _, err := tr.Search(rtree.OpOverlaps, Rect{5, 4, 0, 0}); err == nil {
		t.Fatal("empty query must fail")
	}
	if err := tr.BulkLoad([]BulkItem{{Rect: Rect{5, 4, 0, 0}, Payload: 1}}); err == nil {
		t.Fatal("empty rect bulk load must fail")
	}
}

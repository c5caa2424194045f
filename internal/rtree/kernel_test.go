package rtree_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/chronon"
	"repro/internal/grtree"
	"repro/internal/nodestore"
	"repro/internal/rstar"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// The kernel's structural behaviour — packing, condensing, restarting,
// partitioning, counting — is asserted once, here, and run over both key
// classes. Each class reaches the kernel the way its callers do: through its
// façade, or through the kernel's entry points with the class's matcher; what
// comes back (trees, cursors, partitionings) are kernel types.
// What is about a class's geometry (growing bounds, stair shapes, rectangle
// algebra) is tested in its own package.

// op numbers the four strategy functions as rtree.Op does: Overlaps, Equal,
// Contains, ContainedIn.
const nOps = 4

// tree is one façade tree seen through kernel types.
type tree[B comparable] struct {
	*rtree.Tree[B]
	insert   func(b B, p rtree.Payload) error
	remove   func(b B, p rtree.Payload) (removed, condensed bool, err error)
	bulk     func(es []rtree.Entry[B]) error
	check    func() error
	search   func(op int, q B) *rtree.Cursor[B]
	parallel func(op int, q B, degree int) (*rtree.ParallelScan[B], error)
	count    func(op int, q B) (int64, bool, error)
	extreme  func(op int, q B, wantMax bool) (best B, found, ok bool, err error)
}

// class is a key class: how to make its trees, draw its bounds, and decide —
// without a tree — what a query must return.
type class[B comparable] struct {
	name       string
	create     func(store nodestore.Store, cfg rtree.Config) (tree[B], error)
	open       func(store nodestore.Store, cfg rtree.Config) (tree[B], error)
	random     func(rng *rand.Rand) B
	everything B                         // a query every drawn bound overlaps
	match      func(op int, b, q B) bool // the strategy function proper
	key        func(b B) [4]int64        // the MIN/MAX order
}

// grtCT is the current time the GR-tree class runs at; the kernel has no
// notion of it.
const grtCT = chronon.Instant(200)

func extentOf(r temporal.Region) temporal.Extent {
	return temporal.Extent{TTBegin: r.TTBegin, TTEnd: r.TTEnd, VTBegin: r.VTBegin, VTEnd: r.VTEnd}
}

func grtTree(t *grtree.Tree, err error) (tree[temporal.Region], error) {
	pred := func(op int, q temporal.Region) grtree.Predicate {
		return grtree.Predicate{Op: rtree.Op(op), Query: extentOf(q)}
	}
	if err != nil {
		return tree[temporal.Region]{}, err
	}
	return tree[temporal.Region]{
		Tree: t.Tree,
		insert: func(r temporal.Region, p rtree.Payload) error {
			return t.Insert(extentOf(r), p, grtCT)
		},
		remove: func(r temporal.Region, p rtree.Payload) (bool, bool, error) {
			return t.Delete(extentOf(r), p, grtCT)
		},
		bulk: func(es []rtree.Entry[temporal.Region]) error {
			items := make([]grtree.BulkItem, len(es))
			for i, e := range es {
				items[i] = grtree.BulkItem{Extent: extentOf(e.Bound), Payload: e.Payload()}
			}
			return t.BulkLoad(items, grtCT)
		},
		check: func() error { return t.Check(grtCT) },
		search: func(op int, q temporal.Region) *rtree.Cursor[temporal.Region] {
			return t.Tree.Search(reference{pred(op, q)})
		},
		parallel: func(op int, q temporal.Region, degree int) (*rtree.ParallelScan[temporal.Region], error) {
			return t.ParallelScan(pred(op, q), grtCT, degree)
		},
		count: func(op int, q temporal.Region) (int64, bool, error) { return t.AggCount(pred(op, q), grtCT) },
		extreme: func(op int, q temporal.Region, wantMax bool) (temporal.Region, bool, bool, error) {
			return t.AggExtreme(pred(op, q), grtCT, wantMax)
		},
	}, nil
}

// reference searches with a GR-tree predicate's reference evaluation at
// grtCT, entry by entry, as the kernel searches with any matcher that cannot
// be compiled.
type reference struct{ p grtree.Predicate }

func (m reference) Leaf(r temporal.Region) bool     { return m.p.LeafMatch(r, grtCT) }
func (m reference) Internal(r temporal.Region) bool { return m.p.InternalMatch(r, grtCT) }

func grtConfig(cfg rtree.Config) grtree.Config {
	return grtree.Config{
		Bound:      temporal.BoundPolicy{TimeParam: 30, AllowHidden: true},
		MaxEntries: cfg.MaxEntries, MinFillPct: cfg.MinFillPct, ReinsertPct: cfg.ReinsertPct,
		DeletePolicy: cfg.DeletePolicy,
	}
}

// grtRandom draws one of the six valid extent shapes (Figure 2) as of grtCT.
func grtRandom(rng *rand.Rand) temporal.Region {
	c := int64(grtCT)
	vtb := rng.Int63n(c + 1)
	ttb := vtb + rng.Int63n(c-vtb+1)
	e := temporal.Extent{TTBegin: chronon.Instant(ttb), TTEnd: chronon.UC, VTBegin: chronon.Instant(vtb), VTEnd: chronon.NOW}
	kind := rng.Intn(6)
	if kind == 2 || kind == 3 {
		e.TTBegin, ttb = e.VTBegin, vtb
	}
	if kind%2 == 1 {
		e.TTEnd = chronon.Instant(ttb + rng.Int63n(c-ttb+1))
	}
	if kind < 2 {
		e.VTEnd = chronon.Instant(vtb + rng.Int63n(60))
	}
	return e.Region()
}

var grtClass = class[temporal.Region]{
	name: "grtree",
	create: func(store nodestore.Store, cfg rtree.Config) (tree[temporal.Region], error) {
		return grtTree(grtree.Create(store, grtConfig(cfg)))
	},
	open: func(store nodestore.Store, cfg rtree.Config) (tree[temporal.Region], error) {
		return grtTree(grtree.Open(store, grtConfig(cfg)))
	},
	random:     grtRandom,
	everything: temporal.Extent{TTBegin: 0, TTEnd: chronon.UC, VTBegin: 0, VTEnd: chronon.NOW}.Region(),
	match: func(op int, b, q temporal.Region) bool {
		return grtree.Predicate{Op: rtree.Op(op), Query: extentOf(q)}.Match(extentOf(b), grtCT)
	},
	key: func(r temporal.Region) [4]int64 {
		return [4]int64{int64(r.TTBegin), int64(r.TTEnd), int64(r.VTBegin), int64(r.VTEnd)}
	},
}

// rstQuery is the kernel matcher of an R*-tree query; the classes draw no
// empty query rectangles.
func rstQuery(op int, q rstar.Rect) rtree.Matcher[rstar.Rect] {
	m, err := rstar.Query(rtree.Op(op), q)
	if err != nil {
		panic(err)
	}
	return m
}

func rstTree(t *rstar.Tree, err error) (tree[rstar.Rect], error) {
	if err != nil {
		return tree[rstar.Rect]{}, err
	}
	return tree[rstar.Rect]{
		Tree:   t.Tree,
		insert: t.Insert,
		remove: t.Delete,
		bulk: func(es []rtree.Entry[rstar.Rect]) error {
			items := make([]rstar.BulkItem, len(es))
			for i, e := range es {
				items[i] = rstar.BulkItem{Rect: e.Bound, Payload: e.Payload()}
			}
			return t.BulkLoad(items)
		},
		check: t.Check,
		search: func(op int, q rstar.Rect) *rtree.Cursor[rstar.Rect] {
			return t.Tree.Search(rstQuery(op, q))
		},
		parallel: func(op int, q rstar.Rect, degree int) (*rtree.ParallelScan[rstar.Rect], error) {
			return t.Tree.ParallelScan(rstQuery(op, q), degree)
		},
		count: func(op int, q rstar.Rect) (int64, bool, error) { return t.Tree.AggCount(rstQuery(op, q)) },
		extreme: func(op int, q rstar.Rect, wantMax bool) (rstar.Rect, bool, bool, error) {
			return t.Tree.AggExtreme(rstQuery(op, q), rstar.KeyLess, rstar.KeySpan, wantMax)
		},
	}, nil
}

func rstConfig(cfg rtree.Config) rstar.Config {
	return rstar.Config{MaxEntries: cfg.MaxEntries, MinFillPct: cfg.MinFillPct, ReinsertPct: cfg.ReinsertPct}
}

var rstClass = class[rstar.Rect]{
	name: "rstar",
	create: func(store nodestore.Store, cfg rtree.Config) (tree[rstar.Rect], error) {
		return rstTree(rstar.Create(store, rstConfig(cfg)))
	},
	open: func(store nodestore.Store, cfg rtree.Config) (tree[rstar.Rect], error) {
		return rstTree(rstar.Open(store, rstConfig(cfg)))
	},
	random: func(rng *rand.Rand) rstar.Rect {
		x, y := rng.Int63n(500), rng.Int63n(500)
		return rstar.Rect{XMin: x, XMax: x + rng.Int63n(40), YMin: y, YMax: y + rng.Int63n(40)}
	},
	everything: rstar.Rect{XMin: 0, XMax: 1 << 40, YMin: 0, YMax: 1 << 40},
	match: func(op int, r, q rstar.Rect) bool {
		switch rtree.Op(op) {
		case rtree.OpOverlaps:
			return r.Overlaps(q)
		case rtree.OpEqual:
			return r == q
		case rtree.OpContains:
			return r.Contains(q)
		}
		return q.Contains(r)
	},
	key: func(r rstar.Rect) [4]int64 { return [4]int64{r.XMin, r.XMax, r.YMin, r.YMax} },
}

// both runs one generic test over the two key classes.
func both(t *testing.T, grt func(*testing.T, class[temporal.Region]), rst func(*testing.T, class[rstar.Rect])) {
	t.Run(grtClass.name, func(t *testing.T) { grt(t, grtClass) })
	t.Run(rstClass.name, func(t *testing.T) { rst(t, rstClass) })
}

// small forces deep trees.
var small = rtree.Config{MaxEntries: 8, MinFillPct: 40, ReinsertPct: 30}

func mustCreate[B comparable](t testing.TB, c class[B], cfg rtree.Config) tree[B] {
	t.Helper()
	tr, err := c.create(nodestore.NewMem(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// entries draws n entries with payloads 1..n.
func entries[B comparable](c class[B], rng *rand.Rand, n int) []rtree.Entry[B] {
	es := make([]rtree.Entry[B], n)
	for i := range es {
		es[i] = rtree.Entry[B]{Bound: c.random(rng), Ref: uint64(i + 1)}
	}
	return es
}

func insertAll[B comparable](t testing.TB, tr tree[B], es []rtree.Entry[B]) {
	t.Helper()
	for _, e := range es {
		if err := tr.insert(e.Bound, e.Payload()); err != nil {
			t.Fatalf("insert %d: %v", e.Ref, err)
		}
	}
}

func sorted(ps []rtree.Payload) []rtree.Payload {
	sort.Slice(ps, func(a, b int) bool { return ps[a] < ps[b] })
	return ps
}

// want is the oracle: the payloads of the live entries the strategy function
// accepts, ascending.
func want[B comparable](c class[B], live map[rtree.Payload]B, op int, q B) []rtree.Payload {
	var out []rtree.Payload
	for p, b := range live {
		if c.match(op, b, q) {
			out = append(out, p)
		}
	}
	return sorted(out)
}

// agree checks a tree against the oracle: every operator over drawn queries,
// and the whole content.
func agree[B comparable](t testing.TB, c class[B], tr tree[B], live map[rtree.Payload]B, rng *rand.Rand, trials int) {
	t.Helper()
	if tr.Size() != len(live) {
		t.Fatalf("size %d, want %d", tr.Size(), len(live))
	}
	if err := tr.check(); err != nil {
		t.Fatalf("check: %v", err)
	}
	for trial := 0; trial <= trials; trial++ {
		q := c.everything
		if trial > 0 {
			q = c.random(rng)
		}
		for op := 0; op < nOps; op++ {
			got, err := tr.search(op, q).All()
			if err != nil {
				t.Fatal(err)
			}
			if w := want(c, live, op, q); fmt.Sprint(sorted(got)) != fmt.Sprint(w) {
				t.Fatalf("op %d over %v: got %d payloads, want %d", op, q, len(got), len(w))
			}
		}
	}
}

func liveOf[B comparable](es []rtree.Entry[B]) map[rtree.Payload]B {
	live := make(map[rtree.Payload]B, len(es))
	for _, e := range es {
		live[e.Payload()] = e.Bound
	}
	return live
}

// TestBulkLoad: STR packing at awkward cardinalities (empty, single item,
// exactly one node, one over, a full level, one over, big) leaves a tree that
// passes Check, fills its leaves to the 80 % target and no further (at most
// one extra node per slab), answers
// every operator as the oracle and as an insert-built twin does, stays
// mutable, and refuses a second load.
func TestBulkLoad(t *testing.T) {
	both(t, testBulkLoad[temporal.Region], testBulkLoad[rstar.Rect])
}

func testBulkLoad[B comparable](t *testing.T, c class[B]) {
	fill := small.MaxEntries * 4 / 5
	for _, n := range []int{0, 1, 2, fill, fill + 1, fill * fill, fill*fill + 1, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		es := entries(c, rng, n)
		tr := mustCreate(t, c, small)
		if err := tr.bulk(es); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		live := liveOf(es)
		agree(t, c, tr, live, rng, 5)
		leaves := 0
		err := tr.Walk(func(id nodestore.NodeID, level int, entries []rtree.Entry[B]) error {
			if level == 0 {
				leaves++
				if len(entries) > fill {
					t.Errorf("n=%d: leaf %d holds %d entries, packing target is %d", n, id, len(entries), fill)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Each of the √nodes slabs may round its last run up to a node.
		tight := (n + fill - 1) / fill
		if slabs := int(math.Ceil(math.Sqrt(float64(tight)))); n > 0 && (leaves < tight || leaves > tight+slabs) {
			t.Errorf("n=%d: %d leaves, a tight packing has %d and STR at most %d", n, leaves, tight, tight+slabs)
		}
		if n < 1000 {
			continue
		}
		twin := mustCreate(t, c, small)
		insertAll(t, twin, es)
		agree(t, c, twin, live, rng, 5)
		// A bulk-loaded tree remains mutable.
		for _, e := range es[:50] {
			if removed, _, err := tr.remove(e.Bound, e.Payload()); err != nil || !removed {
				t.Fatalf("delete %d: removed=%v err=%v", e.Ref, removed, err)
			}
			delete(live, e.Payload())
		}
		agree(t, c, tr, live, rng, 5)
		if err := tr.bulk(es); err == nil {
			t.Fatal("bulk load into a non-empty tree must fail")
		}
	}
}

// FuzzBulkLoad drives packLevel through BulkLoad at arbitrary sizes and
// seeds, over both key classes.
func FuzzBulkLoad(f *testing.F) {
	f.Add(0, int64(1))
	f.Add(1, int64(2))
	f.Add(6, int64(3))  // exactly one ~80%-filled node for MaxEntries=8
	f.Add(7, int64(4))  // one over
	f.Add(36, int64(5)) // one full level
	f.Add(500, int64(6))
	f.Fuzz(func(t *testing.T, n int, seed int64) {
		if n < 0 || n > 2000 {
			t.Skip()
		}
		fuzzBulkLoad(t, grtClass, n, seed)
		fuzzBulkLoad(t, rstClass, n, seed)
	})
}

func fuzzBulkLoad[B comparable](t *testing.T, c class[B], n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	es := entries(c, rng, n)
	tr := mustCreate(t, c, small)
	if err := tr.bulk(es); err != nil {
		t.Fatalf("%s: BulkLoad(%d items): %v", c.name, n, err)
	}
	agree(t, c, tr, liveOf(es), rng, 0)
}

// TestDeleteAndCondense: under each Section 5.5 policy, deleting a random
// half keeps the tree consistent and searchable, a phantom delete finds
// nothing, and deleting the rest shrinks the tree back to a lone leaf root.
func TestDeleteAndCondense(t *testing.T) {
	both(t, testDeleteAndCondense[temporal.Region], testDeleteAndCondense[rstar.Rect])
}

func testDeleteAndCondense[B comparable](t *testing.T, c class[B]) {
	for _, policy := range []rtree.DeletePolicy{rtree.RestartOnCondense, rtree.RestartAlways, rtree.NoCondense} {
		cfg := small
		cfg.DeletePolicy = policy
		rng := rand.New(rand.NewSource(7))
		es := entries(c, rng, 300)
		tr := mustCreate(t, c, cfg)
		insertAll(t, tr, es)
		live := liveOf(es)
		agree(t, c, tr, live, rng, 10)
		if tr.Height() < 3 {
			t.Fatalf("%v: 300 entries at fanout 8 must be three levels deep, got %d", policy, tr.Height())
		}
		condensed := false
		order := rng.Perm(len(es))
		for _, ix := range order[:150] {
			removed, cond, err := tr.remove(es[ix].Bound, es[ix].Payload())
			if err != nil || !removed {
				t.Fatalf("%v: delete %d: removed=%v err=%v", policy, es[ix].Ref, removed, err)
			}
			condensed = condensed || cond
			delete(live, es[ix].Payload())
		}
		if !condensed && policy != rtree.NoCondense {
			t.Errorf("%v: 150 deletions never condensed the tree", policy)
		}
		agree(t, c, tr, live, rng, 10)
		if removed, _, err := tr.remove(es[order[200]].Bound, 99999); err != nil || removed {
			t.Fatalf("%v: phantom delete: removed=%v err=%v", policy, removed, err)
		}
		if removed, _, err := tr.remove(es[order[0]].Bound, es[order[0]].Payload()); err != nil || removed {
			t.Fatalf("%v: second delete of the same entry: removed=%v err=%v", policy, removed, err)
		}
		for _, ix := range order[150:] {
			if removed, _, err := tr.remove(es[ix].Bound, es[ix].Payload()); err != nil || !removed {
				t.Fatalf("%v: final delete %d: removed=%v err=%v", policy, es[ix].Ref, removed, err)
			}
		}
		if tr.Size() != 0 || tr.Height() != 1 {
			t.Fatalf("%v: emptied tree has size %d height %d", policy, tr.Size(), tr.Height())
		}
		if err := tr.check(); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
	}
}

// TestCursorRestartsWithoutDuplicates: the deletion procedure of Section 5.5
// — scan, delete each qualifying entry under the cursor — returns every entry
// exactly once although the tree condenses under it; the cursor restarts when
// it does, and at least as often when told to restart always.
func TestCursorRestartsWithoutDuplicates(t *testing.T) {
	both(t, testCursorRestarts[temporal.Region], testCursorRestarts[rstar.Rect])
}

func testCursorRestarts[B comparable](t *testing.T, c class[B]) {
	restarts := map[rtree.DeletePolicy]int{}
	for _, policy := range []rtree.DeletePolicy{rtree.RestartOnCondense, rtree.RestartAlways, rtree.NoCondense} {
		cfg := small
		cfg.DeletePolicy = policy
		es := entries(c, rand.New(rand.NewSource(8)), 200)
		tr := mustCreate(t, c, cfg)
		insertAll(t, tr, es)
		cur := tr.search(0, c.everything)
		seen := make(map[rtree.Payload]bool)
		for {
			e, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if seen[e.Payload()] {
				t.Fatalf("%v: payload %d returned twice", policy, e.Payload())
			}
			seen[e.Payload()] = true
			if removed, _, err := tr.remove(e.Bound, e.Payload()); err != nil || !removed {
				t.Fatalf("%v: delete under the cursor: removed=%v err=%v", policy, removed, err)
			}
		}
		if len(seen) != len(es) || tr.Size() != 0 {
			t.Fatalf("%v: scan-and-delete saw %d of %d entries, %d remain", policy, len(seen), len(es), tr.Size())
		}
		if err := tr.check(); err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		restarts[policy] = cur.Restarts()
	}
	if restarts[rtree.RestartOnCondense] == 0 {
		t.Error("mass deletion must condense and restart the cursor at least once")
	}
	if restarts[rtree.RestartAlways] < restarts[rtree.RestartOnCondense] {
		t.Errorf("restart-always (%d) must restart at least as often as restart-on-condense (%d)",
			restarts[rtree.RestartAlways], restarts[rtree.RestartOnCondense])
	}
}

// TestCursorRestartsOnSplits: inserts that split nodes between Next calls
// restart a serial cursor as condensation does. Every entry present when the
// cursor was created comes back exactly once, and no payload comes back
// twice. The cursor holds no latch between calls: a leaked read latch would
// self-deadlock the inserts' write latches.
func TestCursorRestartsOnSplits(t *testing.T) {
	both(t, testCursorRestartsOnSplits[temporal.Region], testCursorRestartsOnSplits[rstar.Rect])
}

func testCursorRestartsOnSplits[B comparable](t *testing.T, c class[B]) {
	rng := rand.New(rand.NewSource(13))
	es := entries(c, rng, 200)
	tr := mustCreate(t, c, small)
	insertAll(t, tr, es)
	more := entries(c, rng, 400)
	for i := range more {
		more[i].Ref += uint64(len(es))
	}
	height := tr.Height()
	cur := tr.search(0, c.everything)
	seen := make(map[rtree.Payload]bool)
	for {
		e, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seen[e.Payload()] {
			t.Fatalf("payload %d returned twice", e.Payload())
		}
		seen[e.Payload()] = true
		n := min(2, len(more))
		insertAll(t, tr, more[:n])
		more = more[n:]
	}
	for _, e := range es {
		if !seen[e.Payload()] {
			t.Fatalf("payload %d, present when the cursor was created, never came back", e.Payload())
		}
	}
	if tr.Height() <= height {
		t.Fatalf("400 inserts left the tree at height %d", tr.Height())
	}
	if cur.Restarts() == 0 {
		t.Fatal("splits under the cursor must restart it")
	}
	t.Logf("%d restarts, %d payloads returned", cur.Restarts(), len(seen))
}

// TestCursorBatchesAndRescans: NextBatch at any batch size produces what Next
// produces, in the same order; an exhausted cursor stays exhausted; Reset
// (am_rescan) produces everything again.
func TestCursorBatchesAndRescans(t *testing.T) {
	both(t, testCursorBatches[temporal.Region], testCursorBatches[rstar.Rect])
}

func testCursorBatches[B comparable](t *testing.T, c class[B]) {
	rng := rand.New(rand.NewSource(9))
	tr := mustCreate(t, c, small)
	insertAll(t, tr, entries(c, rng, 150))
	q := c.random(rng)
	serial, err := tr.search(0, q).All()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 3, 64, 1000} {
		cur := tr.search(0, q)
		for pass := 0; pass < 2; pass++ {
			var got []rtree.Payload
			buf := make([]rtree.Entry[B], size)
			for {
				n, err := cur.NextBatch(buf)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range buf[:n] {
					got = append(got, e.Payload())
				}
				if n < size {
					break
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(serial) {
				t.Fatalf("batch %d pass %d: %d payloads, Next gives %d (or another order)", size, pass, len(got), len(serial))
			}
			if n, err := cur.NextBatch(buf); n != 0 || err != nil {
				t.Fatalf("batch %d: exhausted cursor produced %d more (%v)", size, n, err)
			}
			cur.Reset()
		}
	}
}

// TestPersistence: a tree reopened from its store is the tree that was
// written; a store that holds none is refused.
func TestPersistence(t *testing.T) {
	both(t, testPersistence[temporal.Region], testPersistence[rstar.Rect])
}

func testPersistence[B comparable](t *testing.T, c class[B]) {
	store := nodestore.NewMem()
	tr, err := c.create(store, small)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	es := entries(c, rng, 120)
	insertAll(t, tr, es)
	again, err := c.open(store, small)
	if err != nil {
		t.Fatal(err)
	}
	if again.Height() != tr.Height() {
		t.Fatalf("reopened height %d, written %d", again.Height(), tr.Height())
	}
	agree(t, c, again, liveOf(es), rng, 5)
	if _, err := c.open(nodestore.NewMem(), small); err == nil {
		t.Fatal("open of an empty store must fail")
	}
}

// TestOpenRefusesForeignStore: the meta magic keeps one key class from
// opening another's pages.
func TestOpenRefusesForeignStore(t *testing.T) {
	if _, err := grtClass.open(mustCreate(t, rstClass, small).Store(), small); err == nil {
		t.Error("grtree opened an rstar store")
	}
	if _, err := rstClass.open(mustCreate(t, grtClass, small).Store(), small); err == nil {
		t.Error("rstar opened a grtree store")
	}
}

// TestParallelScanPartitions: the root fan-out partitions are disjoint and
// their union is the serial result set, with concurrent workers (this is the
// latch-crabbing path; run under -race); a rescan re-seeds the queue; shallow
// trees, degree 1 and single-subtree queries are declined; a structural
// change under a live scan is an error, not a wrong answer.
func TestParallelScanPartitions(t *testing.T) {
	both(t, testParallelScan[temporal.Region], testParallelScan[rstar.Rect])
}

func testParallelScan[B comparable](t *testing.T, c class[B]) {
	rng := rand.New(rand.NewSource(11))
	tr := mustCreate(t, c, small)
	if ps, err := tr.parallel(0, c.everything, 4); ps != nil || err != nil {
		t.Fatalf("a lone leaf root must decline: %v %v", ps, err)
	}
	es := entries(c, rng, 600)
	insertAll(t, tr, es)
	if ps, err := tr.parallel(0, c.everything, 1); ps != nil || err != nil {
		t.Fatalf("degree 1 must decline: %v %v", ps, err)
	}
	ps, err := tr.parallel(0, c.everything, 4)
	if err != nil || ps == nil {
		t.Fatalf("a %d-level tree must accept: %v %v", tr.Height(), ps, err)
	}
	if ps.Parts() < 2 {
		t.Fatalf("%d work units", ps.Parts())
	}
	serial, err := tr.search(0, c.everything).All()
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*rtree.Cursor[B], 4)
	for i := range workers {
		workers[i] = ps.Cursor()
	}
	for pass := 0; pass < 2; pass++ {
		parts := make([][]rtree.Payload, len(workers))
		var wg sync.WaitGroup
		for i, w := range workers {
			wg.Add(1)
			go func(i int, w *rtree.Cursor[B]) {
				defer wg.Done()
				buf := make([]rtree.Entry[B], 16)
				for {
					n, err := w.NextBatch(buf)
					if err != nil {
						t.Error(err)
						return
					}
					for _, e := range buf[:n] {
						parts[i] = append(parts[i], e.Payload())
					}
					if n < len(buf) {
						return
					}
				}
			}(i, w)
		}
		wg.Wait()
		var union []rtree.Payload
		seen := make(map[rtree.Payload]int)
		for i, part := range parts {
			for _, p := range part {
				if j, dup := seen[p]; dup {
					t.Fatalf("pass %d: payload %d in partitions %d and %d", pass, p, j, i)
				}
				seen[p] = i
			}
			union = append(union, part...)
		}
		if fmt.Sprint(sorted(union)) != fmt.Sprint(sorted(serial)) {
			t.Fatalf("pass %d: partitions hold %d payloads, the serial scan %d", pass, len(union), len(serial))
		}
		if ps.Parts() != 0 {
			t.Fatalf("pass %d: %d work units left behind", pass, ps.Parts())
		}
		if err := ps.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	// Splits bump the epoch; the live partitioning must notice.
	insertAll(t, tr, entries(c, rng, 100))
	if _, err := workers[0].NextBatch(make([]rtree.Entry[B], 4)); err == nil {
		t.Fatal("a parallel scan over a reorganised tree must fail")
	}
}

// TestAggregatesAgreeWithDrain: COUNT equals the number of entries the
// cursor drains, and MIN/MAX the extremes of what it drains, for every
// operator — whether a subtree was counted whole (covered) or entry by entry.
func TestAggregatesAgreeWithDrain(t *testing.T) {
	both(t, testAggregates[temporal.Region], testAggregates[rstar.Rect])
}

func testAggregates[B comparable](t *testing.T, c class[B]) {
	rng := rand.New(rand.NewSource(12))
	es := entries(c, rng, 800)
	tr := mustCreate(t, c, small)
	insertAll(t, tr, es)
	live := liveOf(es)
	less := func(a, b B) bool {
		ka, kb := c.key(a), c.key(b)
		for i := range ka {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	}
	for trial := 0; trial < 30; trial++ {
		q := c.everything
		if trial > 0 {
			q = c.random(rng)
		}
		for op := 0; op < nOps; op++ {
			w := want(c, live, op, q)
			n, ok, err := tr.count(op, q)
			if err != nil || !ok || int(n) != len(w) {
				t.Fatalf("op %d over %v: count %d ok=%v err=%v, the drain has %d", op, q, n, ok, err, len(w))
			}
			for _, wantMax := range []bool{false, true} {
				best, found, ok, err := tr.extreme(op, q, wantMax)
				if err != nil || !ok || found != (len(w) > 0) {
					t.Fatalf("op %d over %v: extreme found=%v ok=%v err=%v, the drain has %d", op, q, found, ok, err, len(w))
				}
				for _, p := range w {
					if b := live[p]; (wantMax && less(best, b)) || (!wantMax && less(b, best)) {
						t.Fatalf("op %d over %v: extreme (max=%v) %v is beaten by %v", op, q, wantMax, best, b)
					}
				}
			}
		}
	}
	if n, ok, err := tr.count(0, c.everything); err != nil || !ok || int(n) != tr.Size() {
		t.Fatalf("count of everything %d ok=%v err=%v, size %d", n, ok, err, tr.Size())
	}
	leaves := 0
	if err := tr.WalkLeaves(func(rtree.Entry[B]) error { leaves++; return nil }); err != nil || leaves != tr.Size() {
		t.Fatalf("WalkLeaves visited %d of %d entries (%v)", leaves, tr.Size(), err)
	}
}

// TestOpNames: every operator class names its strategy functions as SQL does.
func TestOpNames(t *testing.T) {
	for op, want := range map[rtree.Op]string{
		rtree.OpOverlaps: "Overlaps", rtree.OpEqual: "Equal", rtree.OpContains: "Contains",
		rtree.OpContainedIn: "ContainedIn", rtree.Op(-1): "?", rtree.Op(nOps): "?",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), got, want)
		}
	}
}

package grtree

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/nodestore"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// roundTrip codes entries onto a page as a node at the given level and reads
// them back.
func roundTrip(t *testing.T, es []Entry, leaf bool) []Entry {
	t.Helper()
	buf := make([]byte, len(es)*entrySize)
	format.Put(buf, es, leaf)
	got := make([]Entry, len(es))
	format.Get(buf, got, leaf)
	for i := range es {
		if got[i] != es[i] {
			t.Fatalf("entry %d: put %v (maxima %d, %d), got %v (maxima %d, %d)", i,
				es[i].Bound, es[i].Bound.LateTT, es[i].Bound.LateVT, got[i].Bound, got[i].Bound.LateTT, got[i].Bound.LateVT)
		}
	}
	return got
}

// unknown returns the bound with its start maxima forgotten, as a page
// written before they were kept decodes.
func unknown(r temporal.Region) temporal.Region {
	r.LateTT, r.LateVT = temporal.LateUnknown, temporal.LateUnknown
	return r
}

// soundLeaf draws a leaf for the soundness test: one of the six extent cases
// as of a time up to 40 chronons after ct (so growing ones may be empty at
// ct), now and then one so far back that a bound's start deltas saturate.
func soundLeaf(rng *rand.Rand, ct chronon.Instant) temporal.Extent {
	if rng.Intn(20) == 0 {
		far := -chronon.Instant(temporal.LateUnknown) - chronon.Instant(rng.Int63n(1000))
		return temporal.Extent{TTBegin: far, TTEnd: far + 5, VTBegin: far - 3, VTEnd: far + 2}
	}
	return randomExtent(rng, ct+chronon.Instant(rng.Int63n(40)))
}

// TestStartMaximaAreSound: a bound's start maxima never prune a subtree
// holding an answer. Random leaves — all six extent cases, shapes empty at
// the query time, starts far enough apart to saturate a delta — are bounded
// into children (some with their maxima forgotten, as on an old page, and
// Hidden bounds among them) and the children into a parent at a time when
// every leaf has started, each coded onto a page and read back. For every
// leaf and query:
//   - every operator, at every query time: Internal(bound) holds wherever the
//     leaf matches and the test without maxima held — the maxima prune
//     nothing that holds an answer. Before the bounds' time this covers the
//     leaves empty at ct, which ContainedIn matches whatever the query;
//   - Equal and ContainedIn, from the bounds' time on: Leaf(leaf) implies
//     Internal(bound) for both bounds;
//   - the check's Covers holds from parent to child to leaf.
func TestStartMaximaAreSound(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const base = chronon.Instant(200)
	const ctB = base + 40 // the bounds' time: every leaf has started
	k := keys{pol: temporal.BoundPolicy{TimeParam: 30, AllowHidden: true}, ct: ctB}
	var cases, pruned, hidden, saturated int
	for trial := 0; trial < 800; trial++ {
		var leaves []temporal.Extent
		children := make([]Entry, 1+rng.Intn(4))
		under := make([][]temporal.Extent, len(children))
		for c := range children {
			es := make([]Entry, 1+rng.Intn(6))
			for i := range es {
				x := soundLeaf(rng, base)
				es[i] = Entry{Bound: x.Region(), Ref: uint64(len(leaves) + 1)}
				leaves = append(leaves, x)
				under[c] = append(under[c], x)
			}
			roundTrip(t, es, true)
			children[c] = Entry{Bound: k.Bound(es), Ref: uint64(c + 1)}
			if rng.Intn(4) == 0 {
				children[c].Bound = unknown(children[c].Bound)
			}
			for _, e := range es {
				if !k.Covers(children[c].Bound, e.Bound) {
					t.Fatalf("child %v does not cover leaf %v", children[c].Bound, e.Bound)
				}
			}
		}
		children = roundTrip(t, children, false)
		parent := roundTrip(t, []Entry{{Bound: k.Bound(children), Ref: 1}}, false)[0].Bound
		for _, c := range children {
			if !k.Covers(parent, c.Bound) {
				t.Fatalf("parent %v does not cover child %v", parent, c.Bound)
			}
		}
		if parent.Hidden {
			hidden++
		}
		if parent.LateTT == temporal.LateUnknown || parent.LateVT == temporal.LateUnknown {
			saturated++
		}

		cts := []chronon.Instant{base, base + 20, ctB, ctB + 1, ctB + 45}
		if parent.Hidden {
			cts = append(cts, parent.VTEnd, parent.VTEnd+1)
		}
		for c, child := range children {
			for _, x := range under[c] {
				d := chronon.Instant(rng.Int63n(4))
				queries := []temporal.Extent{
					x, // Equal holds
					{TTBegin: x.TTBegin - d, TTEnd: x.TTEnd, VTBegin: x.VTBegin - d, VTEnd: x.VTEnd}, // contains x
					{TTBegin: x.TTBegin + d, TTEnd: x.TTEnd, VTBegin: x.VTBegin + d, VTEnd: x.VTEnd}, // starts later
					randomExtent(rng, base),
				}
				for _, q := range queries {
					if !q.Valid() {
						continue
					}
					for _, ct := range cts {
						for op := rtree.OpOverlaps; op <= rtree.OpContainedIn; op++ {
							m := Predicate{Op: op, Query: q}.compile(ct)
							if !m.Leaf(x.Region()) {
								continue
							}
							cases++
							for _, b := range []temporal.Region{child.Bound, parent} {
								got, without := m.Internal(b), m.Internal(unknown(b))
								if without && !got {
									t.Fatalf("%v %v at %d: the maxima of %v (%d, %d) prune leaf %v", op, q, ct, b, b.LateTT, b.LateVT, x)
								}
								must := ct >= ctB && (op == rtree.OpEqual || op == rtree.OpContainedIn)
								if must && !got {
									t.Fatalf("%v %v at %d: bound %v (maxima %d, %d) prunes matching leaf %v", op, q, ct, b, b.LateTT, b.LateVT, x)
								}
							}
						}
						// What the maxima cut: a query no leaf under the
						// child answers, which the test without them keeps.
						for _, op := range []rtree.Op{rtree.OpEqual, rtree.OpContainedIn} {
							m := Predicate{Op: op, Query: q}.compile(ct)
							if m.Internal(unknown(child.Bound)) && !m.Internal(child.Bound) {
								pruned++
							}
						}
					}
				}
			}
		}
	}
	if pruned == 0 || hidden == 0 || saturated == 0 {
		t.Fatalf("%d matching cases, %d prunings by the maxima, %d hidden parents, %d saturated ones: the test drew too little", cases, pruned, hidden, saturated)
	}
	t.Logf("%d matching cases; the maxima pruned %d subtrees; %d hidden and %d saturated parents", cases, pruned, hidden, saturated)
}

// forgetMaxima zeroes the start-maximum bytes of every bounding entry in the
// store, turning its internal pages into the format written before maxima
// were kept. It reports whether every leaf entry's pad bytes were zero, and
// whether some internal entry's were not.
func forgetMaxima(t *testing.T, st nodestore.Store) (leavesZero, internalsSet bool) {
	t.Helper()
	mem := st.(*nodestore.MemStore)
	leavesZero = true
	buf := make([]byte, nodestore.NodeSize)
	for id, seen := nodestore.NodeID(1), 0; seen < mem.NodeCount(); id++ {
		if err := nodestore.Read(mem, id, buf); errors.Is(err, nodestore.ErrNoSuchNode) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		seen++
		leaf := buf[4]&1 != 0
		count := int(buf[6])<<8 | int(buf[7])
		for i := 0; i < count; i++ {
			pad := buf[rtree.HeaderSize+i*entrySize+33 : rtree.HeaderSize+i*entrySize+40]
			for j := range pad {
				if leaf && pad[j] != 0 {
					leavesZero = false
				}
				if !leaf && pad[j] != 0 {
					internalsSet = true
				}
				pad[j] = 0
			}
		}
		if err := mem.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return leavesZero, internalsSet
}

// TestZeroPadReadsAsUnknown: a tree whose internal pages carry zero pad bytes
// (every page written before start maxima were kept) decodes every bounding
// entry's maxima as unknown, passes the check, and answers Equal exactly.
// Leaf pages never carry maxima.
func TestZeroPadReadsAsUnknown(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	const ct = chronon.Instant(300)
	tr := newTestTree(t, smallConfig())
	model := make(map[Payload]temporal.Extent)
	for i := 1; i <= 600; i++ {
		x := randomExtent(rng, ct)
		if err := tr.Insert(x, Payload(i), ct); err != nil {
			t.Fatal(err)
		}
		model[Payload(i)] = x
	}
	leavesZero, internalsSet := forgetMaxima(t, tr.Store())
	if !leavesZero || !internalsSet {
		t.Fatalf("leaf pads all zero: %v (want true); some internal pad set: %v (want true)", leavesZero, internalsSet)
	}
	if err := tr.Walk(func(id nodestore.NodeID, level int, es []Entry) error {
		for _, e := range es {
			if level > 0 && (e.Bound.LateTT != temporal.LateUnknown || e.Bound.LateVT != temporal.LateUnknown) {
				t.Fatalf("node %d: bound %v decodes maxima (%d, %d) from zero pad bytes", id, e.Bound, e.Bound.LateTT, e.Bound.LateVT)
			}
			if level == 0 && (e.Bound.LateTT != 0 || e.Bound.LateVT != 0) {
				t.Fatalf("node %d: leaf %v decodes maxima", id, e.Bound)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(ct); err != nil {
		t.Fatal(err)
	}
	for p, x := range model {
		pred := Predicate{Op: rtree.OpEqual, Query: x}
		got, err := tr.SearchAll(pred, ct+7)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce(model, pred, ct+7); !payloadSetEqual(got, want) || !want[p] {
			t.Fatalf("Equal(%v): got %v, want %v", x, got, want)
		}
	}
	// Inserting into the old tree writes maxima again where it rebounds.
	if err := tr.Insert(randomExtent(rng, ct), 601, ct); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(ct); err != nil {
		t.Fatal(err)
	}
}

// TestStartMaximaCutEqualReads is the node-read regression on an
// ingest-shaped tree: 20k rows inserted day by day over 60 days (half valid
// until NOW, 30 % closed later) are bulk loaded, then rows arrive one at a
// time on later days. Equal on a current row — the target of an UPDATE —
// must read at most a third of the nodes it reads with the maxima forgotten.
func TestStartMaximaCutEqualReads(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const start, days = chronon.Instant(10000), 60
	newExtent := func(day chronon.Instant) temporal.Extent {
		vtb := day - chronon.Instant(rng.Int63n(120))
		x := temporal.Extent{TTBegin: day, TTEnd: chronon.UC, VTBegin: vtb, VTEnd: chronon.NOW}
		if rng.Float64() >= 0.5 {
			x.VTEnd = vtb + chronon.Instant(rng.Int63n(120))
		}
		return x
	}
	const n = 20000
	items := make([]BulkItem, n)
	for i := range items {
		day := start + chronon.Instant(i*days/n)
		x := newExtent(day)
		if rng.Float64() < 0.3 {
			x.TTEnd = day + chronon.Instant(rng.Int63n(int64(start)+days-int64(day)+1))
		}
		items[i] = BulkItem{Extent: x, Payload: Payload(i + 1)}
	}
	ct := start + days + 30
	tr := newTestTree(t, DefaultConfig())
	if err := tr.BulkLoad(items, ct); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 10; d++ {
		ct++
		for i := 0; i < 100; i++ {
			it := BulkItem{Extent: newExtent(ct), Payload: Payload(len(items) + 1)}
			if err := tr.Insert(it.Extent, it.Payload, ct); err != nil {
				t.Fatal(err)
			}
			items = append(items, it)
		}
	}
	var current []temporal.Extent
	for _, it := range items {
		if it.Extent.TTEnd == chronon.UC {
			current = append(current, it.Extent)
		}
	}
	targets := make([]temporal.Extent, 100)
	for i := range targets {
		targets[i] = current[rng.Intn(len(current))]
	}
	reads := func() uint64 {
		before := tr.Store().Stats().NodeReads
		for _, x := range targets {
			got, err := tr.SearchAll(Predicate{Op: rtree.OpEqual, Query: x}, ct)
			if err != nil || len(got) == 0 {
				t.Fatalf("Equal(%v): %v, %v", x, got, err)
			}
		}
		return tr.Store().Stats().NodeReads - before
	}
	with := reads()
	forgetMaxima(t, tr.Store())
	without := reads()
	t.Logf("Equal on a current row reads %.1f nodes, %.1f with the maxima forgotten", float64(with)/100, float64(without)/100)
	if 3*with > without {
		t.Fatalf("Equal reads %d nodes with start maxima, %d without: want at most a third", with, without)
	}
}

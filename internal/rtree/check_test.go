package rtree_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/gist"
	"repro/internal/grtree"
	"repro/internal/nodestore"
	"repro/internal/rstar"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// lying is a key class whose nodes get the bounds bound gives them: an
// insertion through it rewrites the bound of every node on its path with a
// bound the honest key class would not choose.
type lying[B comparable, S rtree.Shape[S]] struct {
	rtree.Keys[B, S]
	bound func(es []rtree.Entry[B]) B
}

func (k lying[B, S]) Bound(es []rtree.Entry[B]) B { return k.bound(es) }

// escape inserts e through a lying key class into a tree that passes the
// check under keys.Covers, and requires the check to fail afterwards with the
// parent/child invariant.
func escape[B comparable, S rtree.Shape[S]](t *testing.T, tr *rtree.Tree[B], keys rtree.Keys[B, S], bound func([]rtree.Entry[B]) B, e rtree.Entry[B]) {
	t.Helper()
	if tr.Height() < 2 {
		t.Fatalf("height %d: no parent bounds to break", tr.Height())
	}
	if err := tr.Check(keys.Covers); err != nil {
		t.Fatalf("before: %v", err)
	}
	if err := rtree.Insert(tr, lying[B, S]{keys, bound}, e); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(keys.Covers); err == nil || !strings.Contains(err.Error(), "escapes parent bound") {
		t.Fatalf("check after a child escaped its parent: %v", err)
	}
}

// first bounds a node by its first entry alone: the node's other entries
// escape it.
func first[B comparable](es []rtree.Entry[B]) B { return es[0].Bound }

// TestCheckCatchesAnEscapingChild: am_check is the kernel's Check under the
// key class's Covers, and a child its parent does not cover fails it, in
// every key class. The GR-tree case is the one Contains would miss: a static
// rectangle holding a growing child contains it now, but not once the child
// has grown; and a bound whose start maxima lie below a child's start, which
// would let Equal prune a subtree holding its answer.
func TestCheckCatchesAnEscapingChild(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	t.Run("grtree", func(t *testing.T) {
		g, err := grtree.Create(nodestore.NewMem(), grtConfig(small))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 60; i++ {
			if err := g.Insert(extentOf(grtRandom(rng)), rtree.Payload(i), grtCT); err != nil {
				t.Fatal(err)
			}
		}
		keys := g.Keys(grtCT)
		// static keeps the honest bound's start maxima, so that the check
		// under Contains below still asks only "contains now".
		static := func(es []rtree.Entry[temporal.Region]) temporal.Region {
			honest := keys.Bound(es)
			bb := honest.Resolve(grtCT).BoundingBox()
			return temporal.Region{
				TTBegin: chronon.Instant(bb.TTBegin), TTEnd: chronon.Instant(bb.TTEnd),
				VTBegin: chronon.Instant(bb.VTBegin), VTEnd: chronon.Instant(bb.VTEnd),
				LateTT: uint16(int64(honest.TTBegin) + int64(honest.LateTT) - bb.TTBegin),
				LateVT: uint16(int64(honest.VTBegin) + int64(honest.LateVT) - bb.VTBegin),
			}
		}
		growing := temporal.Extent{TTBegin: 10, TTEnd: chronon.UC, VTBegin: 10, VTEnd: chronon.NOW}.Region()
		escape(t, g.Tree, keys, static, rtree.Entry[temporal.Region]{Bound: growing, Ref: 61})
		if err := g.Check(grtCT); err == nil {
			t.Fatal("the façade's check passed a static bound over a growing child")
		}
		if err := g.Tree.Check(keys.Contains); err != nil {
			t.Fatalf("every parent contains its children now, yet: %v", err)
		}
	})
	t.Run("grtree-maxima", func(t *testing.T) {
		g, err := grtree.Create(nodestore.NewMem(), grtConfig(small))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 60; i++ {
			if err := g.Insert(extentOf(grtRandom(rng)), rtree.Payload(i), grtCT); err != nil {
				t.Fatal(err)
			}
		}
		// A bound whose start maxima claim that nothing under it starts
		// later than its lower corner: Equal would prune the entries that do.
		keys := g.Keys(grtCT)
		low := func(es []rtree.Entry[temporal.Region]) temporal.Region {
			b := keys.Bound(es)
			b.LateTT, b.LateVT = 0, 0
			return b
		}
		late := temporal.Extent{TTBegin: grtCT, TTEnd: chronon.UC, VTBegin: grtCT, VTEnd: chronon.NOW}.Region()
		escape(t, g.Tree, keys, low, rtree.Entry[temporal.Region]{Bound: late, Ref: 61})
	})
	t.Run("rstar", func(t *testing.T) {
		r, err := rstar.Create(nodestore.NewMem(), rstConfig(small))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 60; i++ {
			if err := r.Insert(rstClass.random(rng), rtree.Payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		far := rstar.Rect{XMin: 10000, XMax: 10001, YMin: 10000, YMax: 10001}
		escape(t, r.Tree, rstar.Keys(), first[rstar.Rect], rtree.Entry[rstar.Rect]{Bound: far, Ref: 61})
	})
	t.Run("gist", func(t *testing.T) {
		g, err := gist.Create(nodestore.NewMem(), gist.IntervalClass{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 400; i++ {
			lo := rng.Int63n(1000)
			if err := g.Insert(gist.IntervalKey(lo, lo+rng.Int63n(50)), rtree.Payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		far := gist.IntervalKey(1e6, 1e6+1)
		escape(t, g.Tree, g.Keys(), first[string], rtree.Entry[string]{Bound: far, Ref: 401})
	})
}

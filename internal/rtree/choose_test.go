package rtree_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/gist"
	"repro/internal/grtree"
	"repro/internal/nodestore"
	"repro/internal/rstar"
	"repro/internal/rtree"
)

// exhaustiveChoice is the leaf-parent overlap pass without branch and bound:
// every lead candidate sums its overlap enlargement against every sibling,
// and the first strictly smallest sum wins. It reports the pick and the
// first negative term it met (ok false), and how many candidates a bound on
// the partial sum could have cut short.
func exhaustiveChoice(order []int, k int, term func(i, j int) float64) (pick int, ok bool, cut int) {
	best, bestOverlap := 0, math.Inf(1)
	ok = true
	for c := 0; c < k; c++ {
		i := order[c]
		var delta float64
		reached := false
		for j := range order {
			if j == i {
				continue
			}
			d := term(i, j)
			if d < 0 {
				ok = false
			}
			delta += d
			reached = reached || delta >= bestOverlap
		}
		if reached {
			cut++
		}
		if delta < bestOverlap {
			bestOverlap, best = delta, c
		}
	}
	return order[best], ok, cut
}

// TestChooseSubtreeIsExhaustive drives random insert sequences, with forced
// reinsertion on, through every key class — GR-tree, R*-tree, and the GiST's
// interval and GR classes — at fanout 8 and at page capacity, and holds every
// leaf-parent ChooseSubtree to the exhaustive loop: the same pick, and no
// negative overlap term (the property the branch and bound rests on).
func TestChooseSubtreeIsExhaustive(t *testing.T) {
	var calls, stopped, cut int
	remove := rtree.SetLeafChoiceCheck(func(order []int, k, tried int, term func(i, j int) float64, pick int) {
		calls++
		want, ok, c := exhaustiveChoice(order, k, term)
		if !ok {
			t.Fatalf("a negative overlap term among %d entries", len(order))
		}
		if pick != want {
			t.Fatalf("picked entry %d of %d, the exhaustive loop picks %d", pick, len(order), want)
		}
		if tried < k {
			stopped++
		}
		cut += c
	})
	defer remove()

	rng := rand.New(rand.NewSource(37))
	for _, fanout := range []int{8, 0} { // 0: the format's capacity
		cfg := small
		cfg.MaxEntries = fanout
		n, size := 600, "8"
		if fanout == 0 {
			n, size = 2500, "capacity"
		}

		t.Run("grtree-"+size, func(t *testing.T) {
			g, err := grtree.Create(nodestore.NewMem(), grtConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			cts := []chronon.Instant{grtCT, grtCT + 30, grtCT + 400}
			for i := 0; i < n; i++ {
				if err := g.Insert(extentOf(grtRandom(rng)), rtree.Payload(i+1), cts[i*len(cts)/n]); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Run("rstar-"+size, func(t *testing.T) {
			r, err := rstar.Create(nodestore.NewMem(), rstConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := r.Insert(rstClass.random(rng), rtree.Payload(i+1)); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Run("gist-interval-"+size, func(t *testing.T) {
			insert := gistInserter(t, gist.IntervalClass{}, fanout)
			for i := 0; i < n; i++ {
				lo := rng.Int63n(5000)
				insert(gist.IntervalKey(lo, lo+rng.Int63n(200)), rtree.Payload(i+1))
			}
		})
		t.Run("gist-gr-"+size, func(t *testing.T) {
			clock := chronon.NewVirtualClock(grtCT)
			insert := gistInserter(t, gist.NewGRKeyClass(clock), fanout)
			for i := 0; i < n; i++ {
				if i == n/3 || i == 2*n/3 {
					clock.Advance(90)
				}
				insert(gist.GRExtentKey(extentOf(grtRandom(rng))), rtree.Payload(i+1))
			}
		})
	}
	if calls == 0 || stopped == 0 || cut == 0 {
		t.Fatalf("%d leaf-parent choices, %d stopped at a zero score, %d candidates cut short: the bound went unexercised", calls, stopped, cut)
	}
	t.Logf("%d leaf-parent choices; %d stopped at a zero score; %d candidates cut short", calls, stopped, cut)
}

// gistInserter returns an insert into a GiST tree of class kc, at the given
// fanout: the GiST's own tree at capacity (fanout 0), or a kernel tree with a
// test codec for the class's keys, which the GiST façade cannot narrow.
func gistInserter(t *testing.T, kc gist.KeyClass, fanout int) func(key string, p rtree.Payload) {
	g, err := gist.Create(nodestore.NewMem(), kc)
	if err != nil {
		t.Fatal(err)
	}
	if fanout == 0 {
		return func(key string, p rtree.Payload) {
			if err := g.Insert(key, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	ks := kc.KeySize()
	f := &rtree.Format[string]{
		Name: "gist-test", NodeMagic: 0x47535454, MetaMagic: 0x4753544D, EntrySize: ks + 8,
		Put: func(buf []byte, entries []rtree.Entry[string], _ bool) {
			for i, e := range entries {
				copy(buf[i*(ks+8):], e.Bound)
				binary.BigEndian.PutUint64(buf[i*(ks+8)+ks:], e.Ref)
			}
		},
		Get: func(buf []byte, entries []rtree.Entry[string], _ bool) {
			for i := range entries {
				b := buf[i*(ks+8):]
				entries[i] = rtree.Entry[string]{Bound: string(b[:ks]), Ref: binary.BigEndian.Uint64(b[ks:])}
			}
		},
	}
	tr, err := rtree.Create(nodestore.NewMem(), f, rtree.Config{MaxEntries: fanout, MinFillPct: 40, ReinsertPct: 30})
	if err != nil {
		t.Fatal(err)
	}
	return func(key string, p rtree.Payload) {
		if err := rtree.Insert(tr, g.Keys(), rtree.Entry[string]{Bound: key, Ref: uint64(p)}); err != nil {
			t.Fatal(err)
		}
	}
}

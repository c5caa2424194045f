package rstar

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/nodestore"
	"repro/internal/rtree"
)

// The structure pin, as in grtree: a seeded workload must leave
// byte-identical node pages, return its answers in the same order and read
// the same number of nodes as when the constants were recorded (at the commit
// before the shared R-tree kernel was extracted). The bulk rows were
// re-recorded when STR began to cut whole-node slabs and to break sort ties
// on entry order: both have fewer nodes, and each scenario returns the same
// answer set in another order.

type pinned struct {
	pages   string // SHA-256 over meta + every live node page in id order
	height  int
	nodes   int
	answers string // SHA-256 over the payload lists of the seeded predicates
	reads   uint64 // node reads those predicates cost
}

var rstPins = map[string]pinned{
	"bulk/102":   {"a49210cf611e4096b41b20520dee1bae69ad0aaf32ce0f2545b0a0c07cc197ea", 2, 39, "47e2e1b24c5e3565bb414ea9211e0a21ee0c1556fbe429d11101db884f454639", 446},
	"bulk/8":     {"dc1861fba9afe3dda6c415d9885193a2bcf78bf690c521b028d07a204ff3f91e", 5, 602, "c4b84e15d97e0e01aa0d3c5f50f1234d6620842f3e6e833e0d287865cbb6809f", 2716},
	"insert/102": {"f008ad4add6baa49b87a2930f0ee159b1c8ba755909a757e81953221d77157d0", 2, 34, "db9d765bbd689f29374ed1f06c4204a54e35e24042b3c128e016d7830c2ad341", 342},
	"insert/8":   {"2097bef7144826e401bfb0de4beb07187b98fa6217929e781789d7102a8385d1", 5, 546, "62dc148fd8f9d8d4719fe2bf10b7fdcee45bd46581913ab8b2c39fc2987db3f3", 2624},
}

// pinStore digests a MemStore: meta, then each live page prefixed by its id.
func pinStore(t *testing.T, st nodestore.Store) (string, int) {
	t.Helper()
	mem := st.(*nodestore.MemStore)
	h := sha256.New()
	meta, err := mem.Meta()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(meta)
	buf := make([]byte, nodestore.NodeSize)
	nodes := mem.NodeCount()
	for id, seen := nodestore.NodeID(1), 0; seen < nodes; id++ {
		if err := nodestore.Read(mem, id, buf); errors.Is(err, nodestore.ErrNoSuchNode) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		seen++
		binary.Write(h, binary.BigEndian, uint64(id))
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nodes
}

// pinRect draws a rectangle; three in ten reach the rstblade's maximum
// timestamp on one or both axes, as substituted UC/NOW ends do.
func pinRect(rng *rand.Rand) Rect {
	r := randomRect(rng, 2000)
	const maxTS = 2932896 // 9999-12-31 in days
	switch rng.Intn(10) {
	case 0:
		r.XMax = maxTS
	case 1:
		r.YMax = maxTS
	case 2:
		r.XMax, r.YMax = maxTS, maxTS
	}
	return r
}

// pinTree measures everything a pinned record holds.
func pinTree(t *testing.T, tr *Tree) pinned {
	t.Helper()
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	h := sha256.New()
	before := tr.Store().Stats().NodeReads
	for i := 0; i < 50; i++ {
		got, err := tr.SearchAll(rtree.Op(i%4), pinRect(rng))
		if err != nil {
			t.Fatal(err)
		}
		binary.Write(h, binary.BigEndian, int64(len(got)))
		for _, p := range got {
			binary.Write(h, binary.BigEndian, uint64(p))
		}
	}
	p := pinned{height: tr.Height(), answers: fmt.Sprintf("%x", h.Sum(nil))}
	p.reads = tr.Store().Stats().NodeReads - before
	p.pages, p.nodes = pinStore(t, tr.Store())
	return p
}

func TestStructurePin(t *testing.T) {
	got := make(map[string]pinned)
	for _, maxEntries := range []int{8, Capacity} {
		cfg := DefaultConfig()
		cfg.MaxEntries = maxEntries
		tr := newTestTree(t, cfg)
		rng := rand.New(rand.NewSource(7))
		items := make([]BulkItem, 3000)
		for i := range items {
			items[i] = BulkItem{Rect: pinRect(rng), Payload: Payload(i + 1)}
			if err := tr.Insert(items[i].Rect, items[i].Payload); err != nil {
				t.Fatal(err)
			}
		}
		for _, ix := range rng.Perm(len(items))[:900] {
			removed, _, err := tr.Delete(items[ix].Rect, items[ix].Payload)
			if err != nil || !removed {
				t.Fatalf("delete %d: removed=%v err=%v", ix, removed, err)
			}
		}
		got[fmt.Sprintf("insert/%d", maxEntries)] = pinTree(t, tr)

		tr = newTestTree(t, cfg)
		if err := tr.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("bulk/%d", maxEntries)] = pinTree(t, tr)
	}
	for name, want := range rstPins {
		if got[name] != want {
			t.Errorf("%q: {%q, %d, %d, %q, %d},", name, got[name].pages, got[name].height, got[name].nodes, got[name].answers, got[name].reads)
		}
	}
	if len(got) != len(rstPins) {
		t.Errorf("%d scenarios ran, %d are pinned", len(got), len(rstPins))
	}
}

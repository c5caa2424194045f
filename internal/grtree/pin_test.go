package grtree

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/nodestore"
	"repro/internal/rtree"
)

// The structure pin: a seeded workload must leave byte-identical node pages,
// return its answers in the same order and read the same number of nodes as
// it did when the constants below were recorded. Heights, node counts and
// answers date from the commit before the shared R-tree kernel was
// extracted; pages and reads were re-recorded when bounding entries began to
// carry start maxima, which fill their pad bytes and let Equal and
// ContainedIn prune (every scenario reads fewer nodes). The bulk rows were
// re-recorded again when STR began to sort on pack keys (start of
// transaction time, end and start of valid time) and to cut whole-node
// slabs: fewer nodes, fewer reads, and the same answer set in each scenario
// in another order. It pins the on-disk format, the
// ChooseSubtree/split/reinsert/STR tie-breaks and the traversal's I/O count;
// a change that moves any of them on purpose re-records the constants and
// says why.

type pinned struct {
	pages   string // SHA-256 over meta + every live node page in id order
	height  int
	nodes   int
	answers string // SHA-256 over the payload lists of the seeded predicates
	reads   uint64 // node reads those predicates cost
}

var grtPins = map[string]pinned{
	"bulk/8":                        {"a20ee0b89fe1f63ed05cb6c26b3acdb8c961372d177dbbc67f475068af5df134", 5, 602, "8a964b1157d468934e91e8f7de10e95a378ec9353acc5f0708c39e7fd9ccb229", 7371},
	"bulk/85":                       {"e52c04e427f9d8ea3186a1b636fb620837ba71fd8de5a0ed9d4490165c0a292a", 2, 46, "daae5207cc28acc9c88ca3ee39bd5e35c08c01066bc6c0c56978be6a2f0e52ac", 768},
	"insert/8/no-condense":          {"0efb791acbffd6ad06c0f37c7a68e007176ad8c2a2bcece35c49ebb24f91d86e", 5, 698, "e3af0e40475d5265f492d7c7fc7b3acd03d02c8b36a0fdaaaf79b24f4ab678ed", 7973},
	"insert/8/restart-always":       {"2d6e6ef408d317d61c1dbb3212ab725dad2b227da5ec1b1ecf6d87004a211cad", 5, 562, "7167415c2e3522e0f1605393328e682cbbb1e1298b2bb04da518b7da1576f903", 6784},
	"insert/8/restart-on-condense":  {"2d6e6ef408d317d61c1dbb3212ab725dad2b227da5ec1b1ecf6d87004a211cad", 5, 562, "7167415c2e3522e0f1605393328e682cbbb1e1298b2bb04da518b7da1576f903", 6784},
	"insert/85/no-condense":         {"45d1a0b1baaec142405aacb4fa6b501ffd9eff83287ceeac760fa0e9b250f994", 2, 51, "7f5104925567279b04cf5fa300540bf0063ae294e5c0e08457a396165a649859", 761},
	"insert/85/restart-always":      {"c9d7cde735eef69b25924af1564b1dfe9d4adf7f5dba07112001768080a5ee7f", 2, 41, "4809725b12ea528fa5d7ed461daf32d99c93cef83e7b217bef49c8063382196b", 620},
	"insert/85/restart-on-condense": {"c9d7cde735eef69b25924af1564b1dfe9d4adf7f5dba07112001768080a5ee7f", 2, 41, "4809725b12ea528fa5d7ed461daf32d99c93cef83e7b217bef49c8063382196b", 620},
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

// pinTree measures everything a pinned record holds.
func pinTree(t *testing.T, tr *Tree, ct chronon.Instant) pinned {
	t.Helper()
	if err := tr.Check(ct); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	h := sha256.New()
	before := tr.Store().Stats().NodeReads
	for i := 0; i < 50; i++ {
		pred := Predicate{Op: rtree.Op(i % 4), Query: randomExtent(rng, ct)}
		at := ct + chronon.Instant(100*(i%3))
		got, err := tr.SearchAll(pred, at)
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
		var items []BulkItem
		var ct chronon.Instant
		for _, policy := range []DeletePolicy{RestartOnCondense, RestartAlways, NoCondense} {
			cfg := DefaultConfig()
			cfg.MaxEntries = maxEntries
			cfg.DeletePolicy = policy
			tr := newTestTree(t, cfg)
			rng := rand.New(rand.NewSource(7))
			items = items[:0]
			ct = 200
			// 3000 inserts over four clock values, so bounds computed at one
			// time are enlarged, split and re-bounded at later ones.
			for i := 0; i < 3000; i++ {
				if i > 0 && i%750 == 0 {
					ct += 60
				}
				it := BulkItem{Extent: randomExtent(rng, ct), Payload: Payload(i + 1)}
				if err := tr.Insert(it.Extent, it.Payload, ct); err != nil {
					t.Fatal(err)
				}
				items = append(items, it)
			}
			ct += 45
			for _, ix := range rng.Perm(len(items))[:900] {
				removed, _, err := tr.Delete(items[ix].Extent, items[ix].Payload, ct)
				if err != nil || !removed {
					t.Fatalf("delete %d: removed=%v err=%v", ix, removed, err)
				}
			}
			got[fmt.Sprintf("insert/%d/%v", maxEntries, policy)] = pinTree(t, tr, ct)
		}
		cfg := DefaultConfig()
		cfg.MaxEntries = maxEntries
		tr := newTestTree(t, cfg)
		if err := tr.BulkLoad(items, ct); err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("bulk/%d", maxEntries)] = pinTree(t, tr, ct)
	}
	for name, want := range grtPins {
		if got[name] != want {
			t.Errorf("%q: {%q, %d, %d, %q, %d},", name, got[name].pages, got[name].height, got[name].nodes, got[name].answers, got[name].reads)
		}
	}
	if len(got) != len(grtPins) {
		t.Errorf("%d scenarios ran, %d are pinned", len(got), len(grtPins))
	}
}

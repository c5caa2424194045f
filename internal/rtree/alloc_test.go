package rtree_test

import (
	"math/rand"
	"testing"

	"repro/internal/grtree"
	"repro/internal/lock"
	"repro/internal/nodestore"
	"repro/internal/sbspace"
	"repro/internal/storage"
)

// loTree bulk-loads n drawn extents into a three-level GR-tree stored in one
// sbspace large object, over a pool that holds every page.
func loTree(t *testing.T, n int) *grtree.Tree {
	t.Helper()
	space := sbspace.New(1, "spc", storage.NewBufferPool(storage.NewMemPager(), 512), lock.New())
	store, _, err := nodestore.CreateLO(space, 1, lock.CommittedRead, nodestore.SingleLO)
	if err != nil {
		t.Fatal(err)
	}
	cfg := grtree.DefaultConfig()
	cfg.MaxEntries = 8
	tr, err := grtree.Create(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	items := make([]grtree.BulkItem, n)
	for i := range items {
		items[i] = grtree.BulkItem{Extent: extentOf(grtRandom(rng)), Payload: grtree.Payload(i + 1)}
	}
	if err := tr.BulkLoad(items, grtCT); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 3 {
		t.Fatalf("%d entries built a tree of height %d, want 3", n, tr.Height())
	}
	return tr
}

// TestNodeVisitsDoNotAllocate: a warm scan decodes every node it visits into
// buffers it already owns, so the allocations of a serial Cursor drain, a
// parallel scan's Cursor drain and an AggCount do not grow with the number of
// nodes they read.
func TestNodeVisitsDoNotAllocate(t *testing.T) {
	all := grtree.Predicate{Op: grtree.OpOverlaps, Query: extentOf(grtClass.everything)}
	const batch = 16
	fill := func(fill func(int) ([]grtree.Entry, error)) func() {
		return func() {
			for {
				es, err := fill(batch)
				if err != nil {
					t.Fatal(err)
				}
				if len(es) < batch {
					return
				}
			}
		}
	}
	scans := map[string]func(tr *grtree.Tree) func(){
		"Cursor.Fill": func(tr *grtree.Tree) func() {
			cur, err := tr.Search(all, grtCT)
			if err != nil {
				t.Fatal(err)
			}
			drain := fill(cur.Fill)
			return func() { cur.Reset(); drain() }
		},
		"PartCursor.Fill": func(tr *grtree.Tree) func() {
			ps, err := tr.ParallelScan(all, grtCT, 2)
			if err != nil || ps == nil {
				t.Fatalf("parallel scan: %v, %v", ps, err)
			}
			drain := fill(ps.Cursor().Fill)
			return func() {
				if err := ps.Reset(); err != nil {
					t.Fatal(err)
				}
				drain()
			}
		},
		"AggCount": func(tr *grtree.Tree) func() {
			return func() {
				if _, ok, err := tr.AggCount(all, grtCT); !ok || err != nil {
					t.Fatalf("AggCount: ok %v, %v", ok, err)
				}
			}
		},
	}
	small, large := loTree(t, 60), loTree(t, 200)
	for name, scan := range scans {
		t.Run(name, func(t *testing.T) {
			var allocs [2]float64
			var reads [2]uint64
			for i, tr := range []*grtree.Tree{small, large} {
				run := scan(tr)
				run() // warm: buffers grown, pages pinned once
				before := tr.Store().Stats().NodeReads
				run()
				reads[i] = tr.Store().Stats().NodeReads - before
				allocs[i] = testing.AllocsPerRun(10, run)
			}
			t.Logf("%v allocations reading %v nodes", allocs, reads)
			if reads[1] < 2*reads[0] {
				t.Fatalf("the larger tree read %d nodes, the smaller %d", reads[1], reads[0])
			}
			if allocs[1] != allocs[0] {
				t.Fatalf("%v allocations reading %v nodes: they grow with the nodes visited", allocs, reads)
			}
		})
	}
}

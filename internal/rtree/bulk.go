package rtree

import "slices"

// BulkLoad builds the tree from scratch using sort-tile-recursive packing
// (the "bulk loading algorithm" Section 5.5 recommends for vacuuming: drop
// the index and recreate it in one pass), in as many dimensions as the key
// class has pack keys (Keys.PackKeys). With k keys and a level of n nodes,
// the entries are sorted on the first key and cut into ⌈n^(1/k)⌉ slabs, each
// a whole number of nodes (a tail shorter than a node joins the last slab);
// each slab is tiled the same way on the remaining keys, and the last key
// cuts node-sized runs. Ties on a key keep the order of entries. The tree
// must be empty.
func BulkLoad[B comparable, S Shape[S]](t *Tree[B], k Keys[B, S], entries []Entry[B]) error {
	if t.size != 0 {
		return t.errorf("bulk load into non-empty tree (%d entries)", t.size)
	}
	if len(entries) == 0 {
		return nil
	}
	fill := t.cfg.MaxEntries * 4 / 5 // pack to ~80%; even runs stay above min fill
	if fill < 2 {
		fill = 2
	}
	w := newWriter(t, k)
	oldRoot, size := t.root, len(entries)
	for level := 0; ; level++ {
		parents, err := w.packLevel(entries, level, fill)
		if err != nil {
			return err
		}
		if len(parents) == 1 {
			t.root = parents[0].Child()
			t.height = level + 1
			t.size = size
			t.epoch++
			if err := t.store.Free(oldRoot); err != nil {
				return err
			}
			return t.saveMeta()
		}
		entries = parents
	}
}

// evenPartition splits n items into runs of at most maxRun, with run sizes
// as equal as possible (so no run falls below half of maxRun).
func evenPartition(n, maxRun int) []int {
	k := (n + maxRun - 1) / maxRun
	if k < 1 {
		k = 1
	}
	base := n / k
	extra := n % k
	runs := make([]int, k)
	for i := range runs {
		runs[i] = base
		if i < extra {
			runs[i]++
		}
	}
	return runs
}

// packLevel tiles the entries into nodes of the given level and returns the
// parent entries for the next level up.
func (w *writer[B, S]) packLevel(entries []Entry[B], level, fill int) ([]Entry[B], error) {
	var keys []float64
	for _, e := range entries {
		keys = w.k.PackKeys(keys, w.k.Resolve(e.Bound))
	}
	dims := len(keys) / len(entries)
	order := make([]packRef, len(entries))
	for i := range order {
		order[i].ix = i
	}
	var parents []Entry[B]
	var tile func(run []packRef, d int) error
	tile = func(run []packRef, d int) error {
		for i := range run {
			run[i].key = keys[run[i].ix*dims+d]
		}
		slices.SortFunc(run, packRef.compare)
		if d < dims-1 {
			nodes := (len(run) + fill - 1) / fill
			slabs := ceilRoot(nodes, dims-d)
			perSlab := (nodes + slabs - 1) / slabs * fill
			for len(run) > 0 {
				n := perSlab
				if len(run)-n < fill {
					n = len(run) // a short tail joins the last slab
				}
				if err := tile(run[:n], d+1); err != nil {
					return err
				}
				run = run[n:]
			}
			return nil
		}
		for _, runLen := range evenPartition(len(run), fill) {
			id, err := w.store.Alloc()
			if err != nil {
				return err
			}
			n := &node[B]{id: id, level: level, entries: make([]Entry[B], runLen)}
			for i, r := range run[:runLen] {
				n.entries[i] = entries[r.ix]
			}
			run = run[runLen:]
			if err := w.writeNode(n); err != nil {
				return err
			}
			parents = append(parents, w.parentEntry(n))
		}
		return nil
	}
	return parents, tile(order, 0)
}

// packRef is an entry's index and the pack key a tile sorts it on, kept
// side by side so that the sort reads no other memory.
type packRef struct {
	key float64
	ix  int
}

// compare orders on the key, then on the index: a total order, so an
// unstable sort is repeatable.
func (a packRef) compare(b packRef) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return a.ix - b.ix
}

// ceilRoot returns the least s with s^k >= n.
func ceilRoot(n, k int) int {
	for s := 1; ; s++ {
		p := 1
		for range k {
			p *= s
		}
		if p >= n {
			return s
		}
	}
}

package rtree

import (
	"math"
	"sort"
)

// BulkLoad builds the tree from scratch using sort-tile-recursive packing
// (the "bulk loading algorithm" Section 5.5 recommends for vacuuming: drop
// the index and recreate it in one pass): entries are sorted by the first
// centre coordinate, tiled into √n slabs, each slab sorted by the second
// coordinate and cut into node-sized runs. The tree must be empty.
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
// parent entries for the next level up (sort-tile-recursive).
func (w *writer[B, S]) packLevel(entries []Entry[B], level, fill int) ([]Entry[B], error) {
	centres := make([][2]float64, len(entries))
	for i, e := range entries {
		centres[i][0], centres[i][1] = w.k.Centre(w.k.Resolve(e.Bound))
	}
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return centres[order[a]][0] < centres[order[b]][0] })

	nNodes := (len(entries) + fill - 1) / fill
	nSlabs := int(math.Ceil(math.Sqrt(float64(nNodes))))
	slabSizes := evenPartition(len(entries), (len(entries)+nSlabs-1)/nSlabs)

	var parents []Entry[B]
	pos := 0
	for _, slabLen := range slabSizes {
		slab := append([]int(nil), order[pos:pos+slabLen]...)
		pos += slabLen
		sort.SliceStable(slab, func(a, b int) bool { return centres[slab[a]][1] < centres[slab[b]][1] })
		r := 0
		for _, runLen := range evenPartition(len(slab), fill) {
			id, err := w.store.Alloc()
			if err != nil {
				return nil, err
			}
			n := &node[B]{id: id, level: level}
			for _, ix := range slab[r : r+runLen] {
				n.entries = append(n.entries, entries[ix])
			}
			r += runLen
			if err := w.writeNode(n); err != nil {
				return nil, err
			}
			parents = append(parents, w.parentEntry(n))
		}
	}
	return parents, nil
}

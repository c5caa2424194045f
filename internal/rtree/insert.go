package rtree

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/nodestore"
)

// writer is one mutating operation in flight: the tree, the key class the
// caller built for it, and the R* once-per-level reinsertion record.
type writer[B comparable, S Shape[S]] struct {
	*Tree[B]
	k          Keys[B, S]
	reinserted map[int]bool
	// chooseSubtree's scratch, reused by every descent of the operation.
	shapes, grown []S
	cands         []cand
	// page is the buffer every node write of the operation encodes into.
	page []byte
}

func newWriter[B comparable, S Shape[S]](t *Tree[B], k Keys[B, S]) *writer[B, S] {
	return &writer[B, S]{Tree: t, k: k, reinserted: make(map[int]bool)}
}

// writeNode writes n through the writer's page buffer.
func (w *writer[B, S]) writeNode(n *node[B]) error {
	if w.page == nil {
		w.page = make([]byte, nodestore.NodeSize)
	}
	return w.Tree.writeNode(n, w.page)
}

// Insert adds a leaf entry.
func Insert[B comparable, S Shape[S]](t *Tree[B], k Keys[B, S], e Entry[B]) error {
	if err := newWriter(t, k).insertAtLevel(e, 0); err != nil {
		return err
	}
	t.size++
	return t.saveMeta()
}

// pathStep records one step of a root-to-target descent.
type pathStep[B any] struct {
	n   *node[B]
	idx int // child index taken in n
}

// parentEntry is the entry a parent holds for n.
func (w *writer[B, S]) parentEntry(n *node[B]) Entry[B] {
	return Entry[B]{Bound: w.k.Bound(n.entries), Ref: uint64(n.id)}
}

// insertAtLevel inserts an entry at the given level (0 = leaf), applying
// R* overflow treatment (forced reinsertion once per level per top-level
// insertion, then splitting).
func (w *writer[B, S]) insertAtLevel(e Entry[B], level int) error {
	// Descend to a node at `level`, recording the path.
	var path []pathStep[B]
	n, err := w.readNode(w.root)
	if err != nil {
		return err
	}
	for n.level > level {
		idx := w.chooseSubtree(n, e.Bound)
		path = append(path, pathStep[B]{n: n, idx: idx})
		if n, err = w.readNode(n.entries[idx].Child()); err != nil {
			return err
		}
	}
	n.entries = append(n.entries, e)

	// Overflow treatment, bubbling up the path.
	for {
		if len(n.entries) <= w.cfg.MaxEntries {
			if err := w.writeNode(n); err != nil {
				return err
			}
			return w.adjustPath(path, n)
		}
		isRoot := n.id == w.root
		if !isRoot && !w.reinserted[n.level] && w.cfg.ReinsertPct > 0 {
			w.reinserted[n.level] = true
			return w.forcedReinsert(path, n)
		}
		left, right, err := w.split(n)
		if err != nil {
			return err
		}
		w.epoch++
		if isRoot {
			return w.growRoot(left, right)
		}
		// Replace the parent's entry for n with the two halves.
		last := path[len(path)-1]
		path = path[:len(path)-1]
		last.n.entries[last.idx] = w.parentEntry(left)
		last.n.entries = append(last.n.entries, w.parentEntry(right))
		n = last.n
	}
}

// adjustPath rewrites bounds along the recorded path after n changed.
func (w *writer[B, S]) adjustPath(path []pathStep[B], n *node[B]) error {
	child := n
	for i := len(path) - 1; i >= 0; i-- {
		step := path[i]
		step.n.entries[step.idx] = w.parentEntry(child)
		if err := w.writeNode(step.n); err != nil {
			return err
		}
		child = step.n
	}
	return nil
}

// growRoot installs a new root over the two halves of a root split.
func (w *writer[B, S]) growRoot(left, right *node[B]) error {
	id, err := w.store.Alloc()
	if err != nil {
		return err
	}
	root := &node[B]{id: id, level: left.level + 1, entries: []Entry[B]{w.parentEntry(left), w.parentEntry(right)}}
	if err := w.writeNode(root); err != nil {
		return err
	}
	w.root = id
	w.height++
	return w.saveMeta()
}

// chooseSubtree picks the child of n to descend into for bound r: at the
// level just above the leaves it minimises overlap enlargement; higher up,
// area enlargement — both on resolved shapes, which is where the GR-tree's
// time parameter enters (Section 3: "a time parameter, capturing the
// development over time of entries, is introduced in these algorithms").
//
// The overlap pass is an exact branch and bound. Every term of a candidate's
// sum is non-negative, because the grown bound contains the bound, and float
// addition of non-negative terms never decreases; so a partial sum that
// reaches the best so far cannot win, and once a candidate scores zero no
// later one can beat it. The pick is the exhaustive loop's, bit for bit.
func (w *writer[B, S]) chooseSubtree(n *node[B], r B) int {
	if cap(w.cands) < len(n.entries) {
		size := max(len(n.entries), w.cfg.MaxEntries)
		w.shapes, w.grown, w.cands = make([]S, 0, size), make([]S, 0, size), make([]cand, 0, size)
	}
	w.shapes, w.grown = w.shapes[:0], w.grown[:0] // each entry's bound, and the same enlarged to cover r
	w.cands = w.cands[:0]
	for i, e := range n.entries {
		shape, grown := w.k.Resolve(e.Bound), w.k.Resolve(w.k.Union(e.Bound, r))
		w.shapes, w.grown = append(w.shapes, shape), append(w.grown, grown)
		area := shape.Area()
		w.cands = append(w.cands, cand{idx: i, enlarge: grown.Area() - area, area: area})
	}
	cands, shapes, grown := w.cands, w.shapes, w.grown
	slices.SortFunc(cands, func(a, b cand) int {
		if a.enlarge != b.enlarge {
			return cmp.Compare(a.enlarge, b.enlarge)
		}
		return cmp.Compare(a.area, b.area)
	})
	if n.level != 1 {
		return cands[0].idx
	}
	// Leaf parent: among the (up to) 16 least-enlarging candidates, pick the
	// one whose enlargement increases overlap with siblings the least (R*).
	k := min(len(cands), 16)
	best, bestOverlap := 0, math.Inf(1)
	c := 0
	for ; c < k && bestOverlap > 0; c++ {
		i := cands[c].idx
		var delta float64
		for j := 0; j < len(shapes) && delta < bestOverlap; j++ {
			if j != i {
				delta += grown[i].IntersectionArea(shapes[j]) - shapes[i].IntersectionArea(shapes[j])
			}
		}
		if delta < bestOverlap {
			bestOverlap, best = delta, c
		}
	}
	if leafChoiceCheck != nil {
		order := make([]int, len(cands))
		for x := range order {
			order[x] = cands[x].idx
		}
		leafChoiceCheck(order, k, c, func(i, j int) float64 {
			return grown[i].IntersectionArea(shapes[j]) - shapes[i].IntersectionArea(shapes[j])
		}, cands[best].idx)
	}
	return cands[best].idx
}

// cand is one child chooseSubtree scores: its index and its area before and
// after enlargement.
type cand struct {
	idx     int
	enlarge float64
	area    float64
}

// leafChoiceCheck, set only by tests, sees every leaf-parent choice: every
// entry in candidate order, how many lead candidates the R* pass considers
// and how many it tried, the overlap term of entry i against sibling j, and
// the pick.
var leafChoiceCheck func(order []int, k, tried int, term func(i, j int) float64, pick int)

// split performs the R* topological split: the axis is chosen by minimum
// margin sum over the candidate distributions, the distribution by minimum
// overlap area then minimum total area, all on resolved shapes. The left
// half reuses n's node id; the right half gets a fresh node.
func (w *writer[B, S]) split(n *node[B]) (*node[B], *node[B], error) {
	m, M := w.minFill(), len(n.entries)
	keys := make([][4]int64, M)
	for i, e := range n.entries {
		keys[i] = w.k.SplitKeys(w.k.Resolve(e.Bound))
	}
	// Four sortings of the entries: by low and high key on each axis.
	var sortings [4][]Entry[B]
	for s := range sortings {
		perm := make([]int, M)
		for i := range perm {
			perm[i] = i
		}
		sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]][s] < keys[perm[b]][s] })
		sortings[s] = make([]Entry[B], M)
		for i, ix := range perm {
			sortings[s][i] = n.entries[ix]
		}
	}
	halves := func(sorted []Entry[B], k int) (S, S) {
		return w.k.Resolve(w.k.Bound(sorted[:k])), w.k.Resolve(w.k.Bound(sorted[k:]))
	}

	// Choose the split axis by minimum margin sum.
	var axisMargin [2]float64
	for s, sorted := range sortings {
		for k := m; k <= M-m; k++ {
			b1, b2 := halves(sorted, k)
			axisMargin[s/2] += b1.Margin() + b2.Margin()
		}
	}
	axis := 0
	if axisMargin[1] < axisMargin[0] {
		axis = 1
	}

	// Choose the distribution on that axis by min overlap, then min area.
	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	var bestSorted []Entry[B]
	bestK := -1
	for _, sorted := range sortings[2*axis : 2*axis+2] {
		for k := m; k <= M-m; k++ {
			b1, b2 := halves(sorted, k)
			ov, ar := b1.IntersectionArea(b2), b1.Area()+b2.Area()
			if ov < bestOverlap || (ov == bestOverlap && ar < bestArea) {
				bestOverlap, bestArea, bestSorted, bestK = ov, ar, sorted, k
			}
		}
	}
	if bestK < 0 {
		return nil, nil, w.errorf("split of node %d found no distribution", n.id)
	}

	rid, err := w.store.Alloc()
	if err != nil {
		return nil, nil, err
	}
	left := &node[B]{id: n.id, level: n.level, entries: bestSorted[:bestK:bestK]}
	right := &node[B]{id: rid, level: n.level, entries: bestSorted[bestK:]}
	if err := w.writeNode(left); err != nil {
		return nil, nil, err
	}
	if err := w.writeNode(right); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// forcedReinsert removes the ReinsertPct entries farthest from the node's
// centre, repairs bounds, and re-inserts them from the top (R* forced
// reinsertion, close-reinsert order).
func (w *writer[B, S]) forcedReinsert(path []pathStep[B], n *node[B]) error {
	k := len(n.entries) * w.cfg.ReinsertPct / 100
	if k < 1 {
		k = 1
	}
	cx, cy := w.k.Centre(w.k.Resolve(w.k.Bound(n.entries)))
	type dist struct {
		idx int
		d   float64
	}
	ds := make([]dist, len(n.entries))
	for i, e := range n.entries {
		ex, ey := w.k.Centre(w.k.Resolve(e.Bound))
		ds[i] = dist{idx: i, d: (ex-cx)*(ex-cx) + (ey-cy)*(ey-cy)}
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a].d > ds[b].d })
	removed := make([]Entry[B], 0, k)
	drop := make(map[int]bool, k)
	for _, d := range ds[:k] {
		removed = append(removed, n.entries[d.idx])
		drop[d.idx] = true
	}
	kept := n.entries[:0:0]
	for i, e := range n.entries {
		if !drop[i] {
			kept = append(kept, e)
		}
	}
	n.entries = kept
	if err := w.writeNode(n); err != nil {
		return err
	}
	if err := w.adjustPath(path, n); err != nil {
		return err
	}
	w.epoch++
	// Close reinsert: nearest first.
	for i := len(removed) - 1; i >= 0; i-- {
		if err := w.insertAtLevel(removed[i], n.level); err != nil {
			return err
		}
	}
	return nil
}

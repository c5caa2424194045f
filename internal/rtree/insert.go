package rtree

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/nodestore"
)

// writer is one mutating operation in flight: the tree, the key class the
// caller built for it, the R* once-per-level reinsertion record, and the
// buffers its node reads and writes reuse. Writers are pooled per key-class
// format (newWriter, done), so an operation allocates little once its
// buffers have grown.
type writer[B comparable, S Shape[S]] struct {
	*Tree[B]
	k Keys[B, S]
	// reinserted has bit l set once level l has had its forced
	// reinsertion in this operation.
	reinserted uint64
	// chooseSubtree's scratch, reused by every descent of the operation.
	shapes, grown []S
	cands         []cand
	// page is the buffer every node write of the operation encodes into.
	page []byte
	// path is insertAtLevel's descent: a descent's path is dead once
	// adjustPath has rewritten it, so the next descent reuses it.
	path []pathStep[B]
	// free holds nodes the operation has finished with; readNode decodes
	// into them before it allocates.
	free []*node[B]
	// forcedReinsert's scratch. ds and drop are used before its
	// re-insertions; removed is a stack, each call's entries above those of
	// the calls it runs within.
	ds      []dist
	drop    []bool
	removed []Entry[B]
	// reading is the node readNode is decoding, for decodeFn, which is
	// built once so that passing it to Store.View allocates nothing.
	reading  *node[B]
	decodeFn func(page []byte) error
}

// dist is a forced-reinsertion candidate: an entry's index and its squared
// distance from the node's centre.
type dist struct {
	idx int
	d   float64
}

// newWriter takes a writer for t and k from t's format pool, or builds one.
func newWriter[B comparable, S Shape[S]](t *Tree[B], k Keys[B, S]) *writer[B, S] {
	w, ok := t.f.writers.Get().(*writer[B, S])
	if !ok {
		w = &writer[B, S]{page: make([]byte, nodestore.NodeSize)}
		w.decodeFn = func(page []byte) (err error) {
			n := w.reading
			n.level, n.entries, err = w.decode(n.id, page, n.entries)
			return err
		}
	}
	w.Tree, w.k, w.reinserted = t, k, 0
	return w
}

// done returns w to its format's pool; the operation must not use it again.
func (w *writer[B, S]) done() {
	f := w.f
	w.Tree, w.k = nil, nil
	w.removed = w.removed[:0] // a failed operation may leave its stack
	f.writers.Put(w)
}

// readNode decodes node id into a node the writer owns until it releases
// it: one from the free list when there is one, with room for an overflow
// entry.
func (w *writer[B, S]) readNode(id nodestore.NodeID) (*node[B], error) {
	var n *node[B]
	if k := len(w.free); k > 0 {
		n, w.free = w.free[k-1], w.free[:k-1]
	} else {
		n = new(node[B])
	}
	if cap(n.entries) <= w.cfg.MaxEntries {
		n.entries = make([]Entry[B], 0, w.cfg.MaxEntries+1)
	}
	n.id, w.reading = id, n
	w.latches.RLock(id)
	err := w.store.View(id, w.decodeFn)
	w.latches.RUnlock(id)
	w.reading = nil
	if err != nil {
		w.free = append(w.free, n)
		return nil, err
	}
	return n, nil
}

// release hands a finished descent's nodes, the path's and n, to the free
// list. Nothing may hold them afterwards: their entries are rewritten by the
// next readNode.
func (w *writer[B, S]) release(path []pathStep[B], n *node[B]) {
	for _, step := range path {
		w.free = append(w.free, step.n)
	}
	w.free = append(w.free, n)
}

// writeNode writes n through the writer's page buffer.
func (w *writer[B, S]) writeNode(n *node[B]) error {
	return w.Tree.writeNode(n, w.page)
}

// Insert adds a leaf entry.
func Insert[B comparable, S Shape[S]](t *Tree[B], k Keys[B, S], e Entry[B]) error {
	w := newWriter(t, k)
	defer w.done()
	if err := w.insertAtLevel(e, 0); err != nil {
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
	path := w.path[:0]
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
	w.path = path
	n.entries = append(n.entries, e)

	// Overflow treatment, bubbling up the path.
	for {
		if len(n.entries) <= w.cfg.MaxEntries {
			if err := w.writeNode(n); err != nil {
				return err
			}
			if err := w.adjustPath(path, n); err != nil {
				return err
			}
			w.release(path, n)
			return nil
		}
		isRoot := n.id == w.root
		bit := uint64(1) << n.level
		if !isRoot && w.reinserted&bit == 0 && w.cfg.ReinsertPct > 0 {
			w.reinserted |= bit
			return w.forcedReinsert(path, n)
		}
		left, right, err := w.split(n)
		if err != nil {
			return err
		}
		w.free = append(w.free, n) // split copied its entries out
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
	ds := w.ds[:0]
	for i, e := range n.entries {
		ex, ey := w.k.Centre(w.k.Resolve(e.Bound))
		ds = append(ds, dist{idx: i, d: (ex-cx)*(ex-cx) + (ey-cy)*(ey-cy)})
	}
	slices.SortFunc(ds, func(a, b dist) int { return cmp.Compare(b.d, a.d) })
	w.ds = ds
	drop := append(w.drop[:0], make([]bool, len(n.entries))...)
	w.drop = drop
	base := len(w.removed)
	for _, d := range ds[:k] {
		w.removed = append(w.removed, n.entries[d.idx])
		drop[d.idx] = true
	}
	kept := n.entries[:0]
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
	level := n.level
	w.release(path, n)
	w.epoch++
	// Close reinsert: nearest first. A re-insertion may run a forced
	// reinsertion of its own, which pushes its entries above these and pops
	// them before it returns.
	for i := base + k - 1; i >= base; i-- {
		if err := w.insertAtLevel(w.removed[i], level); err != nil {
			return err
		}
	}
	w.removed = w.removed[:base]
	return nil
}

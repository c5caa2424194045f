package rtree

import (
	"math"

	"repro/internal/nodestore"
)

// Index-only aggregation (am_aggregate): COUNT is answered by traversing
// internal nodes and leaves without ever resolving payloads to heap tuples,
// and MIN/MAX by a branch-and-bound descent to the boundary leaf entry under
// the qualification.
// The traversal is structure-sensitive — a concurrent split or condensation
// bumps the tree epoch and the result can no longer be trusted — so every
// entry point returns ok=false when the epoch moved, and the caller falls
// back to an ordinary tuple drain.

// stable runs a traversal and reports whether the tree kept its shape
// throughout. An error met after the structure moved is a symptom, not a
// verdict: it is dropped, and the caller declines.
func (t *Tree[B]) stable(traverse func() error) (bool, error) {
	epoch := t.epoch
	err := traverse()
	if t.epoch != epoch {
		return false, nil
	}
	return err == nil, err
}

// AggCount counts the leaf entries satisfying m without visiting tuples.
// When m implements Covered, subtrees it covers are summed without
// per-entry evaluation; other subtrees descend with the internal pruning
// test and evaluate leaves exactly. ok is false when the tree changed
// structurally during the traversal.
func (t *Tree[B]) AggCount(m Matcher[B]) (count int64, ok bool, err error) {
	r := t.newReader()
	covered, _ := m.(interface{ Covered(B) bool })
	// countAll sums the leaf entries of a fully-covered subtree, skipping
	// predicate evaluation entirely.
	countAll := func(_ nodestore.NodeID, level int, entries []Entry[B]) error {
		if level == 0 {
			count += int64(len(entries))
		}
		return nil
	}
	var visit func(id nodestore.NodeID, depth int) error
	visit = func(id nodestore.NodeID, depth int) error {
		level, entries, err := r.read(id, depth)
		if err != nil {
			return err
		}
		for _, e := range entries {
			switch {
			case level == 0:
				if m.Leaf(e.Bound) {
					count++
				}
			case !m.Internal(e.Bound):
			case covered != nil && covered.Covered(e.Bound):
				if err := r.walk(e.Child(), depth+1, countAll); err != nil {
					return err
				}
			default:
				if err := visit(e.Child(), depth+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	ok, err = t.stable(func() error { return visit(t.root, 0) })
	return count, ok, err
}

// Span bounds, over the leaves under a bound b, the first key a key class's
// Less compares: every such leaf has lo ≤ key, and key ≤ hi when hiKnown. On
// a leaf's own bound lo is that key. It is the §5.2 internal test turned into
// an order: a subtree whose span cannot reach past the best leaf found so far
// holds no better one, so AggExtreme need not read it.
type Span[B any] func(b B) (lo, hi int64, hiKnown bool)

// rank is an internal entry's place in AggExtreme's descent.
type rank struct {
	key int64 // sorts ascending; see AggExtreme's key
	i   int   // the entry's index in its node
}

// AggExtreme returns the minimum (wantMax=false) or maximum (wantMax=true)
// qualifying leaf bound under less — which the key class makes the total
// order the server's tuple-drain comparator applies, so that pushed MIN/MAX
// agree exactly with the fallback. found is false when no entry qualifies; ok
// is false when the tree changed structurally.
//
// With a span, the walk branches and bounds: an internal node's entries are
// visited in the order of their spans' ends on the extreme's side, and the
// visit stops at the first one whose span lies wholly beyond the best leaf
// so far (a tie descends, since less breaks it on later keys). A leaf entry
// is tested against the best before the matcher runs. Without a span (a key
// class that sets none), every subtree the matcher admits is visited.
func (t *Tree[B]) AggExtreme(m Matcher[B], less func(a, b B) bool, span Span[B], wantMax bool) (best B, found, ok bool, err error) {
	r := t.newReader()
	var ranks [][]rank // per depth, as the reader's entry buffers
	var bestKey int64  // key(best, true), once found
	better := func(b B) bool {
		if wantMax {
			return less(best, b)
		}
		return less(b, best)
	}
	// key is the end of a bound's span on the extreme's side, as a key that
	// sorts ascending: lo for MIN, ^hi for MAX (the complement reverses the
	// order without overflow), and the lowest key of all for an unknown hi.
	// A leaf's span ends at its own key, lo. Without a span every key is 0,
	// so entries keep their order and no entry lies beyond the best.
	key := func(b B, leaf bool) int64 {
		if span == nil {
			return 0
		}
		lo, hi, known := span(b)
		if leaf {
			hi, known = lo, true
		}
		switch {
		case !wantMax:
			return lo
		case known:
			return ^hi
		}
		return math.MinInt64
	}
	var visit func(id nodestore.NodeID, depth int) error
	visit = func(id nodestore.NodeID, depth int) error {
		level, entries, err := r.read(id, depth)
		if err != nil {
			return err
		}
		if level == 0 {
			for _, e := range entries {
				if (!found || better(e.Bound)) && m.Leaf(e.Bound) {
					best, found = e.Bound, true
				}
			}
			if found {
				bestKey = key(best, true)
			}
			return nil
		}
		for len(ranks) <= depth {
			ranks = append(ranks, nil)
		}
		// An insertion sort, which allocates nothing and is quick on
		// STR-packed nodes: they arrive nearly in start order.
		order := ranks[depth][:0]
		for i, e := range entries {
			k := rank{key: key(e.Bound, false), i: i}
			order = append(order, k)
			j := len(order) - 1
			for ; j > 0 && order[j-1].key > k.key; j-- {
				order[j] = order[j-1]
			}
			order[j] = k
		}
		ranks[depth] = order
		for _, k := range order {
			if found && k.key > bestKey {
				break
			}
			if e := entries[k.i]; m.Internal(e.Bound) {
				if err := visit(e.Child(), depth+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	ok, err = t.stable(func() error { return visit(t.root, 0) })
	return best, found, ok, err
}

// WalkLeaves visits every leaf entry (UPDATE STATISTICS histogram
// collection). The walk is unordered and not epoch-checked — statistics are
// estimates, not answers.
func (t *Tree[B]) WalkLeaves(fn func(Entry[B]) error) error {
	return t.Walk(func(_ nodestore.NodeID, level int, entries []Entry[B]) error {
		if level > 0 {
			return nil
		}
		for _, e := range entries {
			if err := fn(e); err != nil {
				return err
			}
		}
		return nil
	})
}

package rtree

import "repro/internal/nodestore"

// Index-only aggregation (am_aggregate): COUNT is answered by traversing
// internal nodes and leaves without ever resolving payloads to heap tuples,
// and MIN/MAX by locating the boundary leaf entry under the qualification.
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

// AggExtreme returns the minimum (wantMax=false) or maximum (wantMax=true)
// qualifying leaf bound under less — which the key class makes the total
// order the server's tuple-drain comparator applies, so that pushed MIN/MAX
// agree exactly with the fallback. found is false when no entry qualifies; ok
// is false when the tree changed structurally.
func (t *Tree[B]) AggExtreme(m Matcher[B], less func(a, b B) bool, wantMax bool) (best B, found, ok bool, err error) {
	r := t.newReader()
	var visit func(id nodestore.NodeID, depth int) error
	visit = func(id nodestore.NodeID, depth int) error {
		level, entries, err := r.read(id, depth)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if level > 0 {
				if m.Internal(e.Bound) {
					if err := visit(e.Child(), depth+1); err != nil {
						return err
					}
				}
			} else if m.Leaf(e.Bound) && (!found || (wantMax && less(best, e.Bound)) || (!wantMax && less(e.Bound, best))) {
				best, found = e.Bound, true
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

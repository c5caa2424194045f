package rtree

// Delete removes the leaf entry holding exactly this bound and payload. It
// reports whether an entry was removed and whether the tree was condensed
// (entries re-inserted because a node underflowed) — the signal grt_delete
// uses to decide whether the scan cursor must be reset (Section 5.5, Table 5
// step 5).
func Delete[B comparable, S Shape[S]](t *Tree[B], k Keys[B, S], target B, payload Payload) (removed, condensed bool, err error) {
	w := newWriter(t, k)
	defer w.done()
	root, err := w.readNode(t.root)
	if err != nil {
		return false, false, err
	}
	path, leaf, at, err := w.findLeaf(root, w.path[:0], Entry[B]{Bound: target, Ref: uint64(payload)})
	if err != nil || leaf == nil {
		if err == nil {
			w.free = append(w.free, root)
		}
		return false, false, err
	}
	leaf.entries = append(leaf.entries[:at], leaf.entries[at+1:]...)
	t.size--
	if t.cfg.DeletePolicy == RestartAlways {
		t.epoch++
	}
	condensed, err = w.condense(path, leaf)
	if err != nil {
		return true, condensed, err
	}
	return true, condensed, t.saveMeta()
}

// findLeaf locates the leaf holding the target entry and its index there,
// descending only into children whose bounds contain the target's. The leaf
// is nil when no such entry exists. A child whose subtree does not hold the
// entry goes back to the free list.
func (w *writer[B, S]) findLeaf(n *node[B], path []pathStep[B], target Entry[B]) ([]pathStep[B], *node[B], int, error) {
	for idx, e := range n.entries {
		if n.level == 0 {
			if e == target {
				return path, n, idx, nil
			}
			continue
		}
		if !w.k.Contains(e.Bound, target.Bound) {
			continue
		}
		child, err := w.readNode(e.Child())
		if err != nil {
			return nil, nil, 0, err
		}
		p, leaf, at, err := w.findLeaf(child, append(path, pathStep[B]{n: n, idx: idx}), target)
		if err != nil || leaf != nil {
			return p, leaf, at, err
		}
		w.free = append(w.free, child)
	}
	return nil, nil, 0, nil
}

// condense repairs the tree after a removal: underfull nodes are unlinked
// and their surviving entries re-inserted at their levels (R* CondenseTree
// adapted); under NoCondense only empty nodes are unlinked. It reports
// whether any structural change happened.
func (w *writer[B, S]) condense(path []pathStep[B], n *node[B]) (bool, error) {
	type orphan struct {
		e     Entry[B]
		level int
	}
	var orphans []orphan
	structural := false

	leaf := n
	for i := len(path); n.id != w.root; i-- {
		parent := path[i-1].n
		under := len(n.entries) < w.minFill()
		if w.cfg.DeletePolicy == NoCondense {
			under = len(n.entries) == 0
		}
		if under {
			// Unlink n from its parent and orphan its entries. The path is
			// only walked upward, so the shift of the parent's later child
			// indexes does not matter.
			idx := path[i-1].idx
			parent.entries = append(parent.entries[:idx], parent.entries[idx+1:]...)
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e: e, level: n.level})
			}
			if err := w.store.Free(n.id); err != nil {
				return structural, err
			}
			structural = true
		} else {
			// Node survives: rewrite it and refresh the parent's bound. Its
			// index may have shifted if an earlier sibling was unlinked, so
			// locate it by id.
			if err := w.writeNode(n); err != nil {
				return structural, err
			}
			for j := range parent.entries {
				if parent.entries[j].Child() == n.id {
					parent.entries[j] = w.parentEntry(n)
					break
				}
			}
		}
		n = parent
	}
	if err := w.writeNode(n); err != nil {
		return structural, err
	}

	// Shrink the root while it is an internal node with a single child.
	for {
		root, err := w.readNode(w.root)
		if err != nil {
			return structural, err
		}
		if root.level == 0 || len(root.entries) != 1 {
			w.free = append(w.free, root)
			break
		}
		w.root = root.entries[0].Child()
		w.free = append(w.free, root)
		w.height--
		if err := w.store.Free(root.id); err != nil {
			return structural, err
		}
		structural = true
	}

	if structural {
		w.epoch++
	}
	// The descent is dead: the orphans' re-insertions reuse its nodes (and
	// the path's steps, which are w.path's).
	w.release(path, leaf)

	// Re-insert orphans at their original levels, as one R* operation.
	for _, o := range orphans {
		if err := w.insertAtLevel(o.e, o.level); err != nil {
			return structural, err
		}
	}
	return structural, w.saveMeta()
}

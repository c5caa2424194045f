package rtree

import "repro/internal/nodestore"

// Cursor stores a query qualification and tree-traversal information;
// qualifying entries are retrieved by calling Next (Appendix A). Node
// contents are decoded into the cursor's own per-depth buffers as visited, so
// in-node deletions by the owning scan are safe; structural changes (splits,
// condensation) bump the tree epoch and make the cursor restart, skipping
// already-returned entries (Section 5.5).
type Cursor[B comparable] struct {
	t     *Tree[B]
	match Matcher[B]

	r        *reader[B]
	stack    []frame[B]
	epoch    uint64
	started  bool
	returned map[Payload]bool
	restarts int
	buf      []Entry[B] // Fill's batch buffer
}

type frame[B any] struct {
	entries []Entry[B]
	level   int
	idx     int
}

// Search creates a cursor for the qualification (Tree.search() of
// Appendix A).
func (t *Tree[B]) Search(m Matcher[B]) *Cursor[B] {
	return &Cursor[B]{t: t, match: m, r: t.newReader(), epoch: t.epoch, returned: make(map[Payload]bool)}
}

// Matcher returns the qualification the cursor was created for, so that an
// am_parallelscan offer arriving after am_beginscan can partition the same
// search.
func (c *Cursor[B]) Matcher() Matcher[B] { return c.match }

// Restarts reports how often the cursor restarted due to tree condensation
// (experiment P4's measurement).
func (c *Cursor[B]) Restarts() int { return c.restarts }

// Reset rewinds the cursor, forgetting returned-entry bookkeeping
// (am_rescan).
func (c *Cursor[B]) Reset() {
	c.restart()
	clear(c.returned)
	c.restarts = 0
}

// restart re-seeds the traversal after a structural change, keeping the
// returned set so qualifying entries are not produced twice.
func (c *Cursor[B]) restart() {
	c.stack = c.stack[:0]
	c.started = false
	c.epoch = c.t.epoch
	c.restarts++
}

// push reads node id into the buffer of the depth its frame takes.
func (c *Cursor[B]) push(id nodestore.NodeID) error {
	level, entries, err := c.r.read(id, len(c.stack))
	if err != nil {
		return err
	}
	c.stack = append(c.stack, frame[B]{entries: entries, level: level})
	return nil
}

// unseen records a payload as produced and reports whether it was new.
func (c *Cursor[B]) unseen(p Payload) bool {
	if c.returned[p] {
		return false
	}
	c.returned[p] = true
	return true
}

// Next returns the next qualifying entry (Cursor.next() of Appendix A).
// ok is false when the scan is exhausted.
func (c *Cursor[B]) Next() (Entry[B], bool, error) {
	var none Entry[B]
	if c.epoch != c.t.epoch {
		c.restart()
	}
	if !c.started {
		c.started = true
		if err := c.push(c.t.root); err != nil {
			return none, false, err
		}
	}
	for len(c.stack) > 0 {
		fr := &c.stack[len(c.stack)-1]
		if fr.idx >= len(fr.entries) {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		e := fr.entries[fr.idx]
		fr.idx++
		if fr.level == 0 {
			if c.match.Leaf(e.Bound) && c.unseen(e.Payload()) {
				return e, true, nil
			}
			continue
		}
		if c.match.Internal(e.Bound) {
			if err := c.push(e.Child()); err != nil {
				return none, false, err
			}
			// Re-check epoch: push read a node; if the tree changed between
			// frames (scan-interleaved deletes), restart cleanly.
			if c.epoch != c.t.epoch {
				c.restart()
				c.started = true
				if err := c.push(c.t.root); err != nil {
					return none, false, err
				}
			}
		}
	}
	return none, false, nil
}

// NextBatch fills dst with the next qualifying entries — the blade's
// am_getmulti service. The matches of each visited leaf node are drained in
// one pass over its snapshot (instead of re-entering the traversal per
// entry); the slow path delegates to Next for descent, restart and
// returned-entry bookkeeping. It returns the number filled; fewer than
// len(dst) means the scan is exhausted.
func (c *Cursor[B]) NextBatch(dst []Entry[B]) (int, error) {
	n := 0
	for n < len(dst) {
		// Fast path: the top of the stack is a leaf frame and the tree has
		// not changed shape — drain its matches in one visit.
		if len(c.stack) > 0 && c.epoch == c.t.epoch {
			if fr := &c.stack[len(c.stack)-1]; fr.level == 0 {
				for fr.idx < len(fr.entries) && n < len(dst) {
					e := fr.entries[fr.idx]
					fr.idx++
					if c.match.Leaf(e.Bound) && c.unseen(e.Payload()) {
						dst[n] = e
						n++
					}
				}
				if n == len(dst) {
					return n, nil
				}
				// Frame exhausted; fall through to Next to pop and descend.
			}
		}
		e, ok, err := c.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		dst[n] = e
		n++
	}
	return n, nil
}

// Fill is NextBatch into a buffer the cursor owns, allocated on the first
// call and reused by every later one (am_getmulti is called once per batch,
// with the same capacity, for the life of the scan). The entries are valid
// until the next Fill.
func (c *Cursor[B]) Fill(n int) ([]Entry[B], error) {
	if cap(c.buf) < n {
		c.buf = make([]Entry[B], n)
	}
	n, err := c.NextBatch(c.buf[:n])
	return c.buf[:n], err
}

// All drains the cursor and returns the payloads in traversal order
// (convenience for tests and benchmarks).
func (c *Cursor[B]) All() ([]Payload, error) {
	var out []Payload
	for {
		e, ok, err := c.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, e.Payload())
	}
}

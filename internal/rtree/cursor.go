package rtree

import (
	"sync"

	"repro/internal/nodestore"
)

// ParallelScan is the work queue of a search: subtrees awaiting a Cursor.
// A serial cursor owns a queue holding the root. A parallel scan partitions
// a search by root fan-out: every matching root child is one unit of work in
// a queue its cursors share, and each worker drives one cursor that claims
// subtrees from it. Because every leaf entry lives under exactly one root
// child, the partitions' result sets are disjoint and their union equals the
// serial cursor's result set — no cross-partition deduplication is needed.
//
// Parallel scans are read-only: the server only offers parallelism to
// non-mutating statements, so the Section 5.5 restart-on-condense machinery
// does not apply to a shared queue. A structural change under a live
// parallel scan is a protocol violation and surfaces as an error (epoch
// check), never as a silently wrong result.
type ParallelScan[B comparable] struct {
	t     *Tree[B]
	match Matcher[B]

	mu    sync.Mutex
	queue []nodestore.NodeID // subtrees to drain; queue[next:] are unclaimed
	next  int
	epoch uint64 // the tree epoch the queue was seeded at

	cursors []*Cursor[B]
}

// ParallelScan offers the qualification a root fan-out partitioning. It
// returns nil (declining, no error) when the tree is too shallow or the
// qualification prunes the root down to fewer than two matching children — a
// serial scan is then at least as good.
func (t *Tree[B]) ParallelScan(m Matcher[B], degree int) (*ParallelScan[B], error) {
	if degree < 2 || t.height < 2 {
		return nil, nil
	}
	ps := &ParallelScan[B]{t: t, match: m}
	if err := ps.build(); err != nil {
		return nil, err
	}
	if len(ps.queue) < 2 {
		return nil, nil
	}
	return ps, nil
}

// build seeds the work queue with the root's matching children. Caller must
// hold ps.mu (or be the only goroutine, at construction/rescan time).
func (ps *ParallelScan[B]) build() error {
	root, err := ps.t.readNode(ps.t.root)
	if err != nil {
		return err
	}
	ps.queue, ps.next = ps.queue[:0], 0
	if root.level == 0 {
		// The root became a leaf (possible only across a rescan): a single
		// work unit keeps the scan correct, just not parallel.
		ps.queue = append(ps.queue, root.id)
	} else {
		for _, e := range root.entries {
			if ps.match.Internal(e.Bound) {
				ps.queue = append(ps.queue, e.Child())
			}
		}
	}
	ps.epoch = ps.t.epoch
	return nil
}

// seedRoot makes the queue the whole tree, unread: a serial cursor's queue.
func (ps *ParallelScan[B]) seedRoot() {
	ps.queue, ps.next = append(ps.queue[:0], ps.t.root), 0
	ps.epoch = ps.t.epoch
}

// Parts returns the number of independent work units — the server caps the
// worker count here (more workers than subtrees would idle).
func (ps *ParallelScan[B]) Parts() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.queue) - ps.next
}

// Cursor hands out one worker's cursor over the shared queue.
func (ps *ParallelScan[B]) Cursor() *Cursor[B] {
	c := &Cursor[B]{q: ps, r: ps.t.newReader()}
	ps.mu.Lock()
	ps.cursors = append(ps.cursors, c)
	ps.mu.Unlock()
	return c
}

// claim takes one subtree from the queue.
func (ps *ParallelScan[B]) claim() (nodestore.NodeID, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.next == len(ps.queue) {
		return nodestore.NilNode, false
	}
	ps.next++
	return ps.queue[ps.next-1], true
}

// Reset re-seeds the work queue and rewinds every handed-out cursor
// (am_rescan). The server guarantees all workers have stopped.
func (ps *ParallelScan[B]) Reset() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, c := range ps.cursors {
		c.Reset()
	}
	return ps.build()
}

// Cursor stores a query qualification and tree-traversal information;
// qualifying entries are retrieved by calling Next or NextBatch (Appendix A).
// It drains the subtrees it claims from its work queue; distinct cursors on
// one shared queue are safe to drive concurrently. The descent is read-latch
// crabbed — the child's latch is acquired before the parent's is released,
// so a node is never decoded while a writer holds it — and every latch is
// released before a call returns. Node contents are decoded into the
// cursor's own per-depth buffers as visited, so in-node deletions by the
// owning scan between calls are safe; structural changes (splits,
// condensation) bump the tree epoch and make a serial cursor restart,
// skipping already-returned entries (Section 5.5).
type Cursor[B comparable] struct {
	q     *ParallelScan[B]
	r     *reader[B]
	stack []frame[B]
	held  nodestore.NodeID // node whose read latch is currently held
	// A serial cursor, the one that owns its queue and restarts, must not
	// produce a payload again after a restart. Until its first restart it
	// yields each entry once (every path that moves an entry between nodes
	// — a split, a forced reinsertion, a condensation, a bulk load — bumps
	// the epoch first), so it only lists what it produced; the restart turns
	// the list into the returned set, which it consults from then on.
	serial   bool
	produced []Payload
	returned map[Payload]bool
	restarts int
	one      [1]Entry[B] // Next's batch
	buf      []Entry[B]  // Fill's batch buffer
}

type frame[B any] struct {
	entries []Entry[B]
	level   int
	idx     int
}

// Search creates a cursor for the qualification (Tree.search() of
// Appendix A): a cursor over a queue of its own, holding the root.
func (t *Tree[B]) Search(m Matcher[B]) *Cursor[B] {
	q := &ParallelScan[B]{t: t, match: m}
	q.seedRoot()
	return &Cursor[B]{q: q, r: t.newReader(), serial: true}
}

// Matcher returns the qualification the cursor was created for, so that an
// am_parallelscan offer arriving after am_beginscan can partition the same
// search.
func (c *Cursor[B]) Matcher() Matcher[B] { return c.q.match }

// Restarts reports how often the cursor restarted due to tree condensation
// (experiment P4's measurement).
func (c *Cursor[B]) Restarts() int { return c.restarts }

// Reset rewinds a serial cursor, forgetting returned-entry bookkeeping
// (am_rescan). A cursor on a shared queue only drops its traversal; its
// ParallelScan's Reset re-seeds the queue.
func (c *Cursor[B]) Reset() {
	c.stack = c.stack[:0]
	if c.serial {
		c.q.seedRoot()
		c.produced, c.returned = c.produced[:0], nil
		c.restarts = 0
	}
}

// push reads node id under the crabbing protocol and pushes its frame.
func (c *Cursor[B]) push(id nodestore.NodeID) error {
	if c.held == nodestore.NilNode {
		c.q.t.latches.RLock(id)
	} else {
		c.q.t.latches.Crab(c.held, id)
	}
	c.held = id
	level, entries, err := c.r.load(id, len(c.stack))
	if err != nil {
		c.unlatch()
		return err
	}
	c.stack = append(c.stack, frame[B]{entries: entries, level: level})
	return nil
}

func (c *Cursor[B]) unlatch() {
	if c.held != nodestore.NilNode {
		c.q.t.latches.RUnlock(c.held)
		c.held = nodestore.NilNode
	}
}

// unseen reports whether a payload may be produced, recording it when the
// cursor is serial.
func (c *Cursor[B]) unseen(p Payload) bool {
	switch {
	case c.returned != nil:
		if c.returned[p] {
			return false
		}
		c.returned[p] = true
	case c.serial:
		c.produced = append(c.produced, p)
	}
	return true
}

// NextBatch fills dst with the next qualifying entries — the blade's
// am_getmulti service. It claims a subtree, descends it, and drains the
// matches of each visited leaf node in one pass over its snapshot. It
// returns the number filled; fewer than len(dst) means the queue is drained
// and the scan (or the worker's share of it) is done.
func (c *Cursor[B]) NextBatch(dst []Entry[B]) (int, error) {
	q := c.q
	if q.epoch != q.t.epoch {
		if !c.serial {
			return 0, q.t.errorf("tree reorganised under a parallel scan")
		}
		if c.returned == nil {
			c.returned = make(map[Payload]bool, len(c.produced))
			for _, p := range c.produced {
				c.returned[p] = true
			}
			c.produced = c.produced[:0]
		}
		c.stack = c.stack[:0]
		q.seedRoot()
		c.restarts++
	}
	n := 0
	for n < len(dst) {
		if len(c.stack) == 0 {
			c.unlatch()
			id, ok := q.claim()
			if !ok {
				break
			}
			if err := c.push(id); err != nil {
				return n, err
			}
			continue
		}
		fr := &c.stack[len(c.stack)-1]
		if fr.idx >= len(fr.entries) {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		if fr.level == 0 {
			for fr.idx < len(fr.entries) && n < len(dst) {
				e := fr.entries[fr.idx]
				fr.idx++
				if q.match.Leaf(e.Bound) && c.unseen(e.Payload()) {
					dst[n] = e
					n++
				}
			}
			continue
		}
		e := fr.entries[fr.idx]
		fr.idx++
		if q.match.Internal(e.Bound) {
			if err := c.push(e.Child()); err != nil {
				return n, err
			}
		}
	}
	c.unlatch()
	return n, nil
}

// Next returns the next qualifying entry (Cursor.next() of Appendix A).
// ok is false when the scan is exhausted.
func (c *Cursor[B]) Next() (Entry[B], bool, error) {
	if n, err := c.NextBatch(c.one[:]); n == 0 || err != nil {
		return Entry[B]{}, false, err
	}
	return c.one[0], true, nil
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

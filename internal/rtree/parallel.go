package rtree

import (
	"sync"

	"repro/internal/nodestore"
)

// ParallelScan partitions a search by root fan-out: every matching root
// child is one unit of work in a shared queue, and each worker drives a
// PartCursor that claims subtrees from the queue and drains them with
// read-latch crabbing. Because every leaf entry lives under exactly one root
// child, the partitions' result sets are disjoint and their union equals the
// serial cursor's result set — no cross-partition deduplication is needed.
//
// Parallel scans are read-only: the server only offers parallelism to
// non-mutating statements, so the Section 5.5 restart-on-condense machinery
// does not apply here. A structural change under a live parallel scan is a
// protocol violation and surfaces as an error (epoch check), never as a
// silently wrong result.
type ParallelScan[B comparable] struct {
	t     *Tree[B]
	match Matcher[B]

	mu    sync.Mutex
	queue []nodestore.NodeID // matching root-child subtrees awaiting a worker
	epoch uint64

	cursors []*PartCursor[B]
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
	ps.queue = ps.queue[:0]
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

// Parts returns the number of independent work units — the server caps the
// worker count here (more workers than subtrees would idle).
func (ps *ParallelScan[B]) Parts() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.queue)
}

// Cursor hands out one worker's partition cursor.
func (ps *ParallelScan[B]) Cursor() *PartCursor[B] {
	c := &PartCursor[B]{ps: ps, r: ps.t.newReader()}
	ps.mu.Lock()
	ps.cursors = append(ps.cursors, c)
	ps.mu.Unlock()
	return c
}

// claim pops one subtree from the shared queue.
func (ps *ParallelScan[B]) claim() (nodestore.NodeID, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if len(ps.queue) == 0 {
		return nodestore.NilNode, false
	}
	id := ps.queue[0]
	ps.queue = ps.queue[1:]
	return id, true
}

// Reset re-seeds the work queue and rewinds every handed-out partition
// cursor (am_rescan). The server guarantees all workers have stopped.
func (ps *ParallelScan[B]) Reset() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, c := range ps.cursors {
		c.unlatch()
		c.stack = c.stack[:0]
	}
	return ps.build()
}

// PartCursor drains subtrees claimed from a ParallelScan's queue. Each
// worker owns one; distinct PartCursors are safe to drive concurrently. The
// descent is read-latch crabbed: the child's latch is acquired before the
// parent's is released, so a node is never decoded while a writer holds it.
// All latches are released before NextBatch returns. Like a Cursor, it
// decodes nodes into its own per-depth buffers.
type PartCursor[B comparable] struct {
	ps    *ParallelScan[B]
	r     *reader[B]
	stack []frame[B]
	held  nodestore.NodeID // node whose read latch is currently held
	buf   []Entry[B]       // Fill's batch buffer
}

// push reads node id under the crabbing protocol and pushes its frame.
func (c *PartCursor[B]) push(id nodestore.NodeID) error {
	t := c.ps.t
	if c.held == nodestore.NilNode {
		t.latches.RLock(id)
	} else {
		t.latches.Crab(c.held, id)
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

func (c *PartCursor[B]) unlatch() {
	if c.held != nodestore.NilNode {
		c.ps.t.latches.RUnlock(c.held)
		c.held = nodestore.NilNode
	}
}

// NextBatch fills dst with the next qualifying entries from this worker's
// partitions; fewer than len(dst) means the shared queue is drained and the
// worker is done.
func (c *PartCursor[B]) NextBatch(dst []Entry[B]) (int, error) {
	if c.ps.t.epoch != c.ps.epoch {
		c.unlatch()
		return 0, c.ps.t.errorf("tree reorganised under a parallel scan")
	}
	n := 0
	for n < len(dst) {
		if len(c.stack) == 0 {
			c.unlatch()
			id, ok := c.ps.claim()
			if !ok {
				return n, nil
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
				if c.ps.match.Leaf(e.Bound) {
					dst[n] = e
					n++
				}
			}
			continue
		}
		e := fr.entries[fr.idx]
		fr.idx++
		if c.ps.match.Internal(e.Bound) {
			if err := c.push(e.Child()); err != nil {
				return n, err
			}
		}
	}
	c.unlatch()
	return n, nil
}

// Fill is NextBatch into a buffer the partition cursor owns; see Cursor.Fill.
func (c *PartCursor[B]) Fill(n int) ([]Entry[B], error) {
	if cap(c.buf) < n {
		c.buf = make([]Entry[B], n)
	}
	n, err := c.NextBatch(c.buf[:n])
	return c.buf[:n], err
}

package nodestore

import "sync"

// latchStripes is the number of lock stripes in a LatchTable. Striping keeps
// the table allocation-free and bounded: two distinct nodes may share a
// stripe (false sharing costs a little concurrency, never correctness).
const latchStripes = 64

// LatchTable provides per-node read/write latches for concurrent tree
// traversal — the crabbing protocol of every tree cursor. Readers take RLock
// on a node before decoding it and hold it until the child's latch is
// acquired (latch-coupling), so a concurrent structural modification under
// the write latch can never be observed half-applied.
//
// Latches are striped sync.RWMutexes keyed by NodeID. They are not
// re-entrant: a holder must not re-acquire the same node, and because two
// node ids may map to one stripe, a goroutine must never hold more than one
// read latch except during the parent→child crab (parent and child on the
// same stripe would self-deadlock under Lock, so writers latch one node at a
// time, and the read-side crab compares stripes and keeps a shared one).
type LatchTable struct {
	stripes [latchStripes]sync.RWMutex
}

// NewLatchTable returns an empty latch table.
func NewLatchTable() *LatchTable { return &LatchTable{} }

func (lt *LatchTable) stripe(id NodeID) *sync.RWMutex {
	return &lt.stripes[uint64(id)%latchStripes]
}

// RLock read-latches a node.
func (lt *LatchTable) RLock(id NodeID) { lt.stripe(id).RLock() }

// RUnlock releases a read latch.
func (lt *LatchTable) RUnlock(id NodeID) { lt.stripe(id).RUnlock() }

// Lock write-latches a node (structural modification).
func (lt *LatchTable) Lock(id NodeID) { lt.stripe(id).Lock() }

// Unlock releases a write latch.
func (lt *LatchTable) Unlock(id NodeID) { lt.stripe(id).Unlock() }

// Crab performs the read-latch crabbing step of a descent: it acquires the
// child's read latch before releasing the parent's, so the reader never
// observes the subtree without at least one latch held. When parent and
// child share a stripe the latch is simply retained (a stripe's RWMutex is
// not re-entrant, and the shared stripe already covers both nodes).
func (lt *LatchTable) Crab(parent, child NodeID) {
	ps, cs := lt.stripe(parent), lt.stripe(child)
	if ps == cs {
		return // same stripe: the held read latch already covers the child
	}
	cs.RLock()
	ps.RUnlock()
}

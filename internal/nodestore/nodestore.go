// Package nodestore provides page-sized node storage for tree-based access
// methods (the R*-tree and the GR-tree). A tree node occupies exactly one
// page (Section 3); the store maps dense node ids to pages.
//
// Two implementations exist: an in-memory store for unit tests and
// algorithm benchmarks, and an sbspace-backed store whose node-to-large-
// object placement policy is configurable — the whole index in one large
// object (the paper's choice), one LO per node, or one LO per fixed-size
// node group ("subtrees") — reproducing the design space of Section 5.3.
package nodestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// NodeID identifies a node within one store. 0 is never a valid node.
type NodeID uint64

// NilNode is the invalid node id.
const NilNode NodeID = 0

// NodeSize is the size of a serialized node: one page.
const NodeSize = storage.PageSize

// Store is the node storage interface trees are written against.
type Store interface {
	// Alloc returns a fresh node id backed by zeroed storage.
	Alloc() (NodeID, error)
	// View calls fn with the node's page (NodeSize bytes) in place: no copy
	// is made, so fn decodes what it needs and must neither retain the page
	// nor call back into the store.
	View(id NodeID, fn func(page []byte) error) error
	// Write stores buf (NodeSize bytes) as the node's contents.
	Write(id NodeID, buf []byte) error
	// Free releases the node.
	Free(id NodeID) error
	// Meta returns the tree metadata blob (root pointer, height, ...).
	Meta() ([]byte, error)
	// SetMeta stores the tree metadata blob (at most MetaSize bytes).
	SetMeta([]byte) error
	// Stats reports accumulated node I/O counts.
	Stats() Stats
	// ResetStats zeroes the counters.
	ResetStats()
}

// MetaSize is the maximum metadata blob size.
const MetaSize = 256

// Stats counts logical node accesses. For sbspace stores the underlying
// buffer-pool stats additionally capture physical page I/O.
type Stats struct {
	NodeReads  uint64
	NodeWrites uint64
	NodeAllocs uint64
	NodeFrees  uint64
}

// Sub returns s - o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		NodeReads:  s.NodeReads - o.NodeReads,
		NodeWrites: s.NodeWrites - o.NodeWrites,
		NodeAllocs: s.NodeAllocs - o.NodeAllocs,
		NodeFrees:  s.NodeFrees - o.NodeFrees,
	}
}

// Read copies a node's page into buf (NodeSize bytes) through View, for
// tests that compare or digest whole pages.
func Read(s Store, id NodeID, buf []byte) error {
	return s.View(id, func(page []byte) error {
		copy(buf, page)
		return nil
	})
}

// ErrNoSuchNode is returned for reads of unallocated nodes.
var ErrNoSuchNode = errors.New("nodestore: no such node")

// MemStore is an in-memory node store.
type MemStore struct {
	mu    sync.Mutex
	nodes map[NodeID][]byte
	next  NodeID
	free  []NodeID
	meta  []byte
	stats Stats
}

// NewMem returns an empty in-memory store.
func NewMem() *MemStore {
	return &MemStore{nodes: make(map[NodeID][]byte), next: 1}
}

// Alloc implements Store.
func (m *MemStore) Alloc() (NodeID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var id NodeID
	if n := len(m.free); n > 0 {
		id = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		id = m.next
		m.next++
	}
	m.nodes[id] = make([]byte, NodeSize)
	m.stats.NodeAllocs++
	return id, nil
}

// View implements Store: fn sees the store's own slice, under the store's
// mutex.
func (m *MemStore) View(id NodeID, fn func(page []byte) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchNode, id)
	}
	m.stats.NodeReads++
	return fn(n)
}

// Write implements Store.
func (m *MemStore) Write(id NodeID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchNode, id)
	}
	copy(n, buf)
	m.stats.NodeWrites++
	return nil
}

// Free implements Store.
func (m *MemStore) Free(id NodeID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.nodes[id]; !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchNode, id)
	}
	delete(m.nodes, id)
	m.free = append(m.free, id)
	m.stats.NodeFrees++
	return nil
}

// Meta implements Store.
func (m *MemStore) Meta() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.meta...), nil
}

// SetMeta implements Store.
func (m *MemStore) SetMeta(b []byte) error {
	if len(b) > MetaSize {
		return fmt.Errorf("nodestore: metadata too large (%d)", len(b))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.meta = append([]byte(nil), b...)
	return nil
}

// Stats implements Store.
func (m *MemStore) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ResetStats implements Store.
func (m *MemStore) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = Stats{}
}

// NodeCount returns the number of live nodes (tests).
func (m *MemStore) NodeCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.nodes)
}

// be64/putBE64 helpers for meta encoding convenience.
func be64(b []byte) uint64       { return binary.BigEndian.Uint64(b) }
func putBE64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }

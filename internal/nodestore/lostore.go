package nodestore

import (
	"fmt"
	"sync"

	"repro/internal/lock"
	"repro/internal/sbspace"
)

// Placement selects how index nodes map onto sbspace large objects
// (Section 5.3): the whole index in a single large object (the paper's
// prototype choice, least concurrency), one LO per node (fat handles, many
// opens/closes), or one LO per fixed-size group of nodes ("subtrees", the
// in-between the paper suggests investigating).
type Placement struct {
	// GroupSize is the number of nodes per large object; 0 means the whole
	// index lives in the anchor large object.
	GroupSize int
}

// SingleLO places every node in the anchor large object.
var SingleLO = Placement{GroupSize: 0}

// PerNodeLO places every node in its own large object.
var PerNodeLO = Placement{GroupSize: 1}

// PerSubtreeLO places groups of n nodes per large object.
func PerSubtreeLO(n int) Placement { return Placement{GroupSize: n} }

// Anchor large-object layout:
//
//	[0:8)        magic
//	[8:8+256)    tree metadata blob
//	[264:272)    next node id
//	[272:280)    free-list head
//	[280:288)    group size
//	[288:...)    directory: group -> LO handle, 16 bytes each (grouped mode)
//
// In single-LO mode node n's bytes live in the anchor at offset n*NodeSize
// (node ids start at 1, so the first node starts one node-size in, past the
// header region).
const (
	loStoreMagic = 0x4752414E // "GRAN"
	metaOff      = 8
	nextIDOff    = metaOff + MetaSize
	freeHeadOff  = nextIDOff + 8
	groupSizeOff = freeHeadOff + 8
	dirOff       = groupSizeOff + 8
)

// LOStore is a node store backed by sbspace large objects. All operations
// are serialised on an internal mutex: parallel scan workers read nodes
// concurrently, and both the one-slot group-LO cache and the stats tallies
// are shared state a per-node latch cannot protect.
type LOStore struct {
	mu        sync.Mutex
	space     *sbspace.Space
	tx        lock.TxID
	iso       lock.IsolationLevel
	mode      sbspace.OpenMode
	anchor    *sbspace.LargeObject
	handle    sbspace.Handle
	groupSize int

	nextID   NodeID
	freeHead NodeID
	dir      []sbspace.Handle // group -> handle (grouped mode, cached)
	stats    Stats

	// One-slot cache of the most recently opened group large object:
	// consecutive accesses within the same group (a subtree) reuse the open
	// LO instead of paying an open/close per node — the benefit of the
	// "several nodes per large object" design Section 5.3 suggests
	// investigating.
	cachedGroup int
	cachedLO    *sbspace.LargeObject
	cachedMode  sbspace.OpenMode
}

// CreateLO creates a new index storage anchor in the space and returns the
// open store plus the anchor handle (which the access method records in its
// table, per grt_create step 6).
func CreateLO(space *sbspace.Space, tx lock.TxID, iso lock.IsolationLevel, pl Placement) (*LOStore, sbspace.Handle, error) {
	h, err := space.Create(tx)
	if err != nil {
		return nil, sbspace.NilHandle, err
	}
	lo, err := space.Open(tx, h, sbspace.ReadWrite, iso)
	if err != nil {
		return nil, sbspace.NilHandle, err
	}
	s := &LOStore{
		space: space, tx: tx, iso: iso, mode: sbspace.ReadWrite,
		anchor: lo, handle: h, groupSize: pl.GroupSize, nextID: 1,
	}
	var hdr [dirOff]byte
	putBE64(hdr[0:8], loStoreMagic)
	putBE64(hdr[nextIDOff:nextIDOff+8], uint64(s.nextID))
	putBE64(hdr[freeHeadOff:freeHeadOff+8], uint64(s.freeHead))
	putBE64(hdr[groupSizeOff:groupSizeOff+8], uint64(s.groupSize))
	if _, err := lo.WriteAt(hdr[:], 0); err != nil {
		return nil, sbspace.NilHandle, err
	}
	return s, h, nil
}

// OpenLO opens an existing index anchor (grt_open steps 3–4).
func OpenLO(space *sbspace.Space, tx lock.TxID, iso lock.IsolationLevel, h sbspace.Handle, mode sbspace.OpenMode) (*LOStore, error) {
	lo, err := space.Open(tx, h, mode, iso)
	if err != nil {
		return nil, err
	}
	var hdr [dirOff]byte
	if _, err := lo.ReadAt(hdr[:], 0); err != nil {
		lo.Close()
		return nil, err
	}
	if be64(hdr[0:8]) != loStoreMagic {
		lo.Close()
		return nil, fmt.Errorf("nodestore: %v is not an index anchor", h)
	}
	s := &LOStore{
		space: space, tx: tx, iso: iso, mode: mode, anchor: lo, handle: h,
		nextID:    NodeID(be64(hdr[nextIDOff:])),
		freeHead:  NodeID(be64(hdr[freeHeadOff:])),
		groupSize: int(be64(hdr[groupSizeOff:])),
	}
	if s.groupSize > 0 {
		groups := s.groupCount()
		buf := make([]byte, sbspace.HandleSize)
		for g := 0; g < groups; g++ {
			if _, err := lo.ReadAt(buf, int64(dirOff+g*sbspace.HandleSize)); err != nil {
				lo.Close()
				return nil, err
			}
			s.dir = append(s.dir, sbspace.DecodeHandle(buf))
		}
	}
	return s, nil
}

// Handle returns the anchor handle.
func (s *LOStore) Handle() sbspace.Handle { return s.handle }

// Close closes the anchor large object (grt_close step 2) and any cached
// group object.
func (s *LOStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropCache()
	return s.anchor.Close()
}

func (s *LOStore) dropCache() {
	if s.cachedLO != nil {
		s.cachedLO.Close()
		s.cachedLO = nil
	}
}

// openGroup returns an open large object for the group, reusing the cached
// one when the group and mode allow.
func (s *LOStore) openGroup(group int, mode sbspace.OpenMode) (*sbspace.LargeObject, error) {
	if s.cachedLO != nil && s.cachedGroup == group &&
		(s.cachedMode == sbspace.ReadWrite || mode == sbspace.ReadOnly) {
		return s.cachedLO, nil
	}
	s.dropCache()
	lo, err := s.space.Open(s.tx, s.dir[group], mode, s.iso)
	if err != nil {
		return nil, err
	}
	s.cachedLO = lo
	s.cachedGroup = group
	s.cachedMode = mode
	return lo, nil
}

// Drop drops every large object used by the index (grt_drop step 2).
func (s *LOStore) Drop() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropCache()
	for _, h := range s.dir {
		if h != sbspace.NilHandle {
			if err := s.space.Drop(s.tx, h); err != nil {
				return err
			}
		}
	}
	s.anchor.Close()
	return s.space.Drop(s.tx, s.handle)
}

func (s *LOStore) groupCount() int {
	if s.groupSize <= 0 {
		return 0
	}
	n := int(s.nextID) - 1
	return (n + s.groupSize - 1) / s.groupSize
}

func (s *LOStore) persistHeader() error {
	var buf [8]byte
	putBE64(buf[:], uint64(s.nextID))
	if _, err := s.anchor.WriteAt(buf[:], nextIDOff); err != nil {
		return err
	}
	putBE64(buf[:], uint64(s.freeHead))
	_, err := s.anchor.WriteAt(buf[:], freeHeadOff)
	return err
}

// Alloc implements Store.
func (s *LOStore) Alloc() (NodeID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.NodeAllocs++
	if s.freeHead != NilNode {
		id := s.freeHead
		var next [8]byte
		if err := s.readRaw(id, next[:], 0); err != nil {
			return NilNode, err
		}
		s.freeHead = NodeID(be64(next[:]))
		zero := make([]byte, NodeSize)
		if err := s.writeRaw(id, zero); err != nil {
			return NilNode, err
		}
		return id, s.persistHeader()
	}
	id := s.nextID
	s.nextID++
	if s.groupSize > 0 {
		group := int(id-1) / s.groupSize
		for len(s.dir) <= group {
			h, err := s.space.Create(s.tx)
			if err != nil {
				return NilNode, err
			}
			// Size the group LO eagerly so node offsets are stable.
			glo, err := s.space.Open(s.tx, h, sbspace.ReadWrite, s.iso)
			if err != nil {
				return NilNode, err
			}
			if err := glo.Truncate(int64(s.groupSize) * NodeSize); err != nil {
				glo.Close()
				return NilNode, err
			}
			glo.Close()
			buf := make([]byte, sbspace.HandleSize)
			h.Encode(buf)
			if _, err := s.anchor.WriteAt(buf, int64(dirOff+len(s.dir)*sbspace.HandleSize)); err != nil {
				return NilNode, err
			}
			s.dir = append(s.dir, h)
		}
	}
	zero := make([]byte, NodeSize)
	if err := s.writeRaw(id, zero); err != nil {
		return NilNode, err
	}
	return id, s.persistHeader()
}

// View implements Store. A node is exactly one page of its large object, so
// fn sees that page pinned in the buffer pool, under the frame's read latch.
func (s *LOStore) View(id NodeID, fn func(page []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.NodeReads++
	lo, page, err := s.locate(id, s.mode)
	if err != nil {
		return err
	}
	return lo.View(page, fn)
}

// Write implements Store.
func (s *LOStore) Write(id NodeID, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.NodeWrites++
	return s.writeRaw(id, buf[:NodeSize])
}

// Free implements Store.
func (s *LOStore) Free(id NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.NodeFrees++
	var next [8]byte
	putBE64(next[:], uint64(s.freeHead))
	if err := s.writeRawAt(id, next[:], 0); err != nil {
		return err
	}
	s.freeHead = id
	return s.persistHeader()
}

// Meta implements Store.
func (s *LOStore) Meta() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := make([]byte, MetaSize)
	if _, err := s.anchor.ReadAt(buf, metaOff); err != nil {
		return nil, err
	}
	return buf, nil
}

// SetMeta implements Store.
func (s *LOStore) SetMeta(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(b) > MetaSize {
		return fmt.Errorf("nodestore: metadata too large (%d)", len(b))
	}
	buf := make([]byte, MetaSize)
	copy(buf, b)
	_, err := s.anchor.WriteAt(buf, metaOff)
	return err
}

// Stats implements Store.
func (s *LOStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats implements Store.
func (s *LOStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// locate returns the large object holding node id, opened in mode, and the
// node's page within it: page id of the anchor under single-LO placement,
// else its slot in its group's object. Caller holds s.mu.
func (s *LOStore) locate(id NodeID, mode sbspace.OpenMode) (*sbspace.LargeObject, int64, error) {
	if s.groupSize <= 0 {
		return s.anchor, int64(id), nil
	}
	group := int(id-1) / s.groupSize
	if group >= len(s.dir) {
		return nil, 0, fmt.Errorf("%w: %d (group %d of %d)", ErrNoSuchNode, id, group, len(s.dir))
	}
	glo, err := s.openGroup(group, mode)
	return glo, int64(id-1) % int64(s.groupSize), err
}

// readRaw reads len(buf) bytes from node id starting at off within the node.
func (s *LOStore) readRaw(id NodeID, buf []byte, off int64) error {
	lo, page, err := s.locate(id, s.mode)
	if err != nil {
		return err
	}
	_, err = lo.ReadAt(buf, page*NodeSize+off)
	return err
}

func (s *LOStore) writeRaw(id NodeID, buf []byte) error { return s.writeRawAt(id, buf, 0) }

func (s *LOStore) writeRawAt(id NodeID, buf []byte, off int64) error {
	lo, page, err := s.locate(id, sbspace.ReadWrite)
	if err != nil {
		return err
	}
	_, err = lo.WriteAt(buf, page*NodeSize+off)
	return err
}

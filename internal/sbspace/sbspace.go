// Package sbspace implements smart-blob spaces: the Informix storage option
// the paper's DataBlade uses for its indices (Section 5.3). An sbspace
// stores large objects ("smart blobs") striped over pages, addressed by
// handles, with the server's automatic two-phase locking at the
// large-object level:
//
//   - opening a large object acquires a shared (read) or exclusive (write)
//     lock on the whole object;
//   - exclusive locks are held to transaction end;
//   - shared locks are released on close under Committed Read, but only at
//     transaction end under Repeatable Read — exactly the inflexibility the
//     paper criticises ("it is not possible to unlock a large object storing
//     some internal node while traversing a tree").
//
// The developer "may vary the number of large objects used for storing
// index data" — one LO for the whole index, one per node, or one per
// subtree; the grtree package exposes that placement choice, and experiment
// P3 measures it.
package sbspace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/lock"
	"repro/internal/storage"
)

// Handle identifies a large object within a space. ID is a space-unique
// generation stamp that detects dangling handles after a drop reuses the
// header page. The paper notes large-object handles "are relatively large"
// for storing in index nodes; HandleSize reflects that in our simulation.
type Handle struct {
	Space  uint32
	Header storage.PageID
	ID     uint32
}

// HandleSize is the serialized size of a Handle in bytes. (Informix LO
// handles are 72+ bytes; we carry 16 to keep the relative cost visible
// without caricature.)
const HandleSize = 16

// NilHandle is the zero Handle.
var NilHandle = Handle{}

// Encode serializes the handle.
func (h Handle) Encode(buf []byte) {
	binary.BigEndian.PutUint32(buf[0:4], h.Space)
	binary.BigEndian.PutUint64(buf[4:12], uint64(h.Header))
	binary.BigEndian.PutUint32(buf[12:16], h.ID)
}

// DecodeHandle deserializes a handle.
func DecodeHandle(buf []byte) Handle {
	return Handle{
		Space:  binary.BigEndian.Uint32(buf[0:4]),
		Header: storage.PageID(binary.BigEndian.Uint64(buf[4:12])),
		ID:     binary.BigEndian.Uint32(buf[12:16]),
	}
}

func (h Handle) String() string { return fmt.Sprintf("lo(%d:%d#%d)", h.Space, h.Header, h.ID) }

// Resource is the lock the object's opens and drops take.
func (h Handle) Resource() lock.Resource {
	return lock.Resource{Kind: lock.KindLargeObject, A: uint64(h.Space), B: uint64(h.Header)}
}

// OpenMode selects read-only or read-write access.
type OpenMode int

const (
	// ReadOnly opens with a shared lock.
	ReadOnly OpenMode = iota
	// ReadWrite opens with an exclusive lock.
	ReadWrite
)

// Stats counts sbspace operations; experiment P3 reports them.
type Stats struct {
	Creates uint64
	Opens   uint64
	Closes  uint64
	Drops   uint64
}

// ErrClosed is returned when using a closed large object.
var ErrClosed = errors.New("sbspace: large object is closed")

// Large-object header page layout:
//
//	[0:4)   magic
//	[4:12)  logical size in bytes
//	[12:20) page id of first indirect page (0 = none)
//	[20:24) number of direct slots used
//	[24:28) large-object id (handle generation stamp)
//	[28:32) reserved
//	[32:)   direct data-page ids, 8 bytes each
//
// Indirect page layout: [0:8) next indirect page id, then data-page ids.
const (
	loMagic       = 0x534C4F42 // "SLOB"
	loHeaderFixed = 32
	directSlots   = (storage.PageSize - loHeaderFixed) / 8
	indirectSlots = (storage.PageSize - 8) / 8
)

// Space metadata page (always page 1 of the space's pager):
//
//	[0:4) magic, [4:8) next large-object id
const spaceMetaMagic = 0x53504D54 // "SPMT"

// Space is one smart-blob space.
type Space struct {
	ID   uint32
	Name string

	mu      sync.Mutex
	bp      *storage.BufferPool
	locks   *lock.Manager
	dropped map[lock.TxID][]Handle // drops waiting for their transaction's end

	// The operation counters are atomic, so Stats takes no lock that a
	// statement's opens and closes contend on.
	creates, opens, closes, drops atomic.Uint64
}

// New creates a space over the buffer pool with the given lock manager.
// Every page change goes through the pool's Edit, so the pool's journal, if
// any, logs it.
func New(id uint32, name string, bp *storage.BufferPool, locks *lock.Manager) *Space {
	return &Space{ID: id, Name: name, bp: bp, locks: locks, dropped: make(map[lock.TxID][]Handle)}
}

// Pool returns the space's buffer pool (I/O statistics live there).
func (s *Space) Pool() *storage.BufferPool { return s.bp }

// Stats returns a snapshot of the operation counters.
func (s *Space) Stats() Stats {
	return Stats{Creates: s.creates.Load(), Opens: s.opens.Load(), Closes: s.closes.Load(), Drops: s.drops.Load()}
}

// nextLOID mints a space-unique large-object id, persisted in the space
// metadata page so dangling handles are detected across restarts. The page
// is formatted and the counter advanced redo-only (transaction 0): a
// generation stamp never goes back, so a rolled-back creation cannot undo
// the advance of a concurrent one.
func (s *Space) nextLOID() (uint32, error) {
	if s.bp.Pager().NumPages() < 2 {
		f, err := s.bp.Allocate() // becomes page 1
		if err != nil {
			return 0, err
		}
		s.bp.Unpin(f, true)
		err = s.bp.Edit(0, f.ID, func(page []byte) error {
			binary.BigEndian.PutUint32(page[0:4], spaceMetaMagic)
			binary.BigEndian.PutUint32(page[4:8], 1)
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	var id uint32
	err := s.bp.Edit(0, 1, func(page []byte) error {
		if binary.BigEndian.Uint32(page[0:4]) != spaceMetaMagic {
			return fmt.Errorf("sbspace: space %d has no metadata page", s.ID)
		}
		id = binary.BigEndian.Uint32(page[4:8])
		binary.BigEndian.PutUint32(page[4:8], id+1)
		return nil
	})
	return id, err
}

// Create allocates a new, empty large object owned by tx (exclusively
// locked until transaction end).
func (s *Space) Create(tx lock.TxID) (Handle, error) {
	id, err := s.nextLOID()
	if err != nil {
		return NilHandle, err
	}
	f, err := s.bp.Allocate()
	if err != nil {
		return NilHandle, err
	}
	s.bp.Unpin(f, true)
	err = s.bp.Edit(uint64(tx), f.ID, func(page []byte) error {
		binary.BigEndian.PutUint32(page[0:4], loMagic)
		binary.BigEndian.PutUint32(page[24:28], id)
		return nil
	})
	if err != nil {
		return NilHandle, err
	}
	h := Handle{Space: s.ID, Header: f.ID, ID: id}
	if err := s.locks.Acquire(tx, h.Resource(), lock.Exclusive); err != nil {
		return NilHandle, err
	}
	s.creates.Add(1)
	return h, nil
}

// Open opens the large object in the given mode under the transaction's
// isolation level, acquiring the automatic LO-level lock.
func (s *Space) Open(tx lock.TxID, h Handle, mode OpenMode, iso lock.IsolationLevel) (*LargeObject, error) {
	if h.Space != s.ID {
		return nil, fmt.Errorf("sbspace: handle %v belongs to another space (this is %d)", h, s.ID)
	}
	lockMode := lock.Shared
	if mode == ReadWrite {
		lockMode = lock.Exclusive
	}
	locked := false
	if mode == ReadWrite || iso != lock.DirtyRead {
		if err := s.locks.Acquire(tx, h.Resource(), lockMode); err != nil {
			return nil, err
		}
		locked = true
	}
	// Validate the header.
	f, err := s.bp.Fetch(h.Header)
	if err != nil {
		if locked {
			s.locks.Release(tx, h.Resource())
		}
		return nil, err
	}
	magic := binary.BigEndian.Uint32(f.Data[0:4])
	loID := binary.BigEndian.Uint32(f.Data[24:28])
	s.bp.Unpin(f, false)
	if magic != loMagic || loID != h.ID {
		if locked {
			s.locks.Release(tx, h.Resource())
		}
		return nil, fmt.Errorf("sbspace: %v is not a (live) large object", h)
	}
	s.opens.Add(1)
	return &LargeObject{space: s, h: h, tx: tx, mode: mode, iso: iso, locked: locked}, nil
}

// Drop deletes the large object. Its header is unmarked through the pool's
// Edit under tx, so undoing tx brings the object back. Without a journal
// nothing can undo the drop, and the pages are freed at once; with one, they
// are freed by EndTx when tx commits.
func (s *Space) Drop(tx lock.TxID, h Handle) error {
	if err := s.locks.Acquire(tx, h.Resource(), lock.Exclusive); err != nil {
		return err
	}
	lo := &LargeObject{space: s, h: h, tx: tx}
	if err := lo.edit(h.Header, func(page []byte) { binary.BigEndian.PutUint32(page[0:4], 0) }); err != nil {
		return err
	}
	s.drops.Add(1)
	s.mu.Lock()
	if !slices.Contains(s.dropped[tx], h) {
		s.dropped[tx] = append(s.dropped[tx], h)
	}
	s.mu.Unlock()
	if !s.bp.Journaled() {
		return s.EndTx(tx, true)
	}
	return nil
}

// EndTx ends tx's drops: at commit it frees the pages of every object tx
// dropped that an undo did not bring back; at rollback it forgets them.
func (s *Space) EndTx(tx lock.TxID, commit bool) error {
	s.mu.Lock()
	hs := s.dropped[tx]
	delete(s.dropped, tx)
	s.mu.Unlock()
	if !commit {
		return nil
	}
	for _, h := range hs {
		f, err := s.bp.Fetch(h.Header)
		if err != nil {
			return err
		}
		live := binary.BigEndian.Uint32(f.Data[0:4]) == loMagic
		s.bp.Unpin(f, false)
		if live {
			continue
		}
		if err := s.free(h); err != nil {
			return err
		}
	}
	return nil
}

// free returns a dropped object's pages to the pager.
func (s *Space) free(h Handle) error {
	lo := &LargeObject{space: s, h: h, mode: ReadWrite}
	pages, err := lo.dataPages()
	if err != nil {
		return err
	}
	for _, pid := range pages {
		if pid != storage.InvalidPage {
			if err := s.bp.Free(pid); err != nil {
				return err
			}
		}
	}
	// Free indirect chain.
	next, err := lo.firstIndirect()
	if err != nil {
		return err
	}
	for next != storage.InvalidPage {
		f, err := s.bp.Fetch(next)
		if err != nil {
			return err
		}
		following := storage.PageID(binary.BigEndian.Uint64(f.Data[0:8]))
		s.bp.Unpin(f, false)
		if err := s.bp.Free(next); err != nil {
			return err
		}
		next = following
	}
	return s.bp.Free(h.Header)
}

// ReleaseTxLocks is invoked by the engine's transaction-end callback.
// (The lock manager's ReleaseAll covers it too; this exists for tests that
// drive the space without an engine.)
func (s *Space) ReleaseTxLocks(tx lock.TxID) { s.locks.ReleaseAll(tx) }

// LargeObject is an open smart blob.
type LargeObject struct {
	space  *Space
	h      Handle
	tx     lock.TxID
	mode   OpenMode
	iso    lock.IsolationLevel
	locked bool
	closed bool
}

// Handle returns the object's handle.
func (lo *LargeObject) Handle() Handle { return lo.h }

// Close closes the object. Under Committed Read a shared lock is released
// now; exclusive locks (and, under Repeatable Read, shared locks) persist to
// transaction end — Informix's behaviour per Section 5.3.
func (lo *LargeObject) Close() error {
	if lo.closed {
		return ErrClosed
	}
	lo.closed = true
	s := lo.space
	s.closes.Add(1)
	// Read locks release at close except under REPEATABLE READ, which keeps
	// them to transaction end so a re-traversal sees the same tree
	// (Section 5.3: "it is not possible to unlock a large object ... while
	// traversing a tree"). SNAPSHOT releases here too: its read stability
	// comes from MVCC visibility at rid resolution, and the LO lock only
	// protects the physical traversal of the statement in progress.
	if lo.locked && lo.mode == ReadOnly && lo.iso != lock.RepeatableRead {
		s.locks.Release(lo.tx, lo.h.Resource())
	}
	return nil
}

// Size returns the logical size in bytes.
func (lo *LargeObject) Size() (int64, error) {
	if lo.closed {
		return 0, ErrClosed
	}
	f, err := lo.space.bp.Fetch(lo.h.Header)
	if err != nil {
		return 0, err
	}
	size := int64(binary.BigEndian.Uint64(f.Data[4:12]))
	lo.space.bp.Unpin(f, false)
	return size, nil
}

// ReadAt reads len(buf) bytes at offset off; reads past the end are
// zero-filled (sparse semantics) up to the logical size and return io-style
// short counts beyond it.
func (lo *LargeObject) ReadAt(buf []byte, off int64) (int, error) {
	if lo.closed {
		return 0, ErrClosed
	}
	size, err := lo.Size()
	if err != nil {
		return 0, err
	}
	if off >= size {
		return 0, nil
	}
	n := len(buf)
	if off+int64(n) > size {
		n = int(size - off)
	}
	read := 0
	for read < n {
		pageIdx := (off + int64(read)) / storage.PageSize
		inPage := int((off + int64(read)) % storage.PageSize)
		chunk := storage.PageSize - inPage
		if chunk > n-read {
			chunk = n - read
		}
		pid, err := lo.pageAt(pageIdx, false)
		if err != nil {
			return read, err
		}
		if pid == storage.InvalidPage {
			for i := 0; i < chunk; i++ {
				buf[read+i] = 0
			}
		} else {
			f, err := lo.space.bp.Fetch(pid)
			if err != nil {
				return read, err
			}
			copy(buf[read:read+chunk], f.Data[inPage:inPage+chunk])
			lo.space.bp.Unpin(f, false)
		}
		read += chunk
	}
	return n, nil
}

// View calls fn with logical page idx of the object, pinned and under the
// frame's read latch, without copying it. fn must not retain the page or call
// back into the space. A page never written is an error.
func (lo *LargeObject) View(idx int64, fn func(page []byte) error) error {
	if lo.closed {
		return ErrClosed
	}
	pid, err := lo.pageAt(idx, false)
	if err != nil {
		return err
	}
	if pid == storage.InvalidPage {
		return fmt.Errorf("sbspace: %v has no page %d", lo.h, idx)
	}
	f, err := lo.space.bp.Fetch(pid)
	if err != nil {
		return err
	}
	f.RLatch()
	err = fn(f.Data)
	f.RUnlatch()
	lo.space.bp.Unpin(f, false)
	return err
}

// WriteAt writes buf at offset off, extending the object as needed. The
// object must be open ReadWrite. Data pages and the size field change
// through the pool's Edit under the object's transaction.
func (lo *LargeObject) WriteAt(buf []byte, off int64) (int, error) {
	if lo.closed {
		return 0, ErrClosed
	}
	if lo.mode != ReadWrite {
		return 0, fmt.Errorf("sbspace: write to read-only large object %v", lo.h)
	}
	written := 0
	for written < len(buf) {
		pageIdx := (off + int64(written)) / storage.PageSize
		inPage := int((off + int64(written)) % storage.PageSize)
		chunk := storage.PageSize - inPage
		if chunk > len(buf)-written {
			chunk = len(buf) - written
		}
		pid, err := lo.pageAt(pageIdx, true)
		if err != nil {
			return written, err
		}
		err = lo.edit(pid, func(page []byte) {
			copy(page[inPage:inPage+chunk], buf[written:written+chunk])
		})
		if err != nil {
			return written, err
		}
		written += chunk
	}
	// Extend the logical size. A write inside the object, a node rewrite's,
	// leaves the header alone rather than pay an edit that changes nothing.
	end := uint64(off + int64(len(buf)))
	if size, err := lo.Size(); err != nil || end <= uint64(size) {
		return written, err
	}
	return written, lo.edit(lo.h.Header, func(page []byte) {
		if end > binary.BigEndian.Uint64(page[4:12]) {
			binary.BigEndian.PutUint64(page[4:12], end)
		}
	})
}

// Truncate sets the logical size (shrinking does not free pages; vacuuming
// drops and recreates objects instead, mirroring Section 5.5's advice).
func (lo *LargeObject) Truncate(size int64) error {
	if lo.closed {
		return ErrClosed
	}
	if lo.mode != ReadWrite {
		return fmt.Errorf("sbspace: truncate of read-only large object")
	}
	return lo.edit(lo.h.Header, func(page []byte) {
		binary.BigEndian.PutUint64(page[4:12], uint64(size))
	})
}

// edit changes page id of the object under the object's transaction.
func (lo *LargeObject) edit(id storage.PageID, fn func(page []byte)) error {
	return lo.space.bp.Edit(uint64(lo.tx), id, func(page []byte) error { fn(page); return nil })
}

// firstIndirect returns the first indirect page id.
func (lo *LargeObject) firstIndirect() (storage.PageID, error) {
	f, err := lo.space.bp.Fetch(lo.h.Header)
	if err != nil {
		return storage.InvalidPage, err
	}
	id := storage.PageID(binary.BigEndian.Uint64(f.Data[12:20]))
	lo.space.bp.Unpin(f, false)
	return id, nil
}

// dataPages lists all allocated data page ids (for Drop).
func (lo *LargeObject) dataPages() ([]storage.PageID, error) {
	var out []storage.PageID
	f, err := lo.space.bp.Fetch(lo.h.Header)
	if err != nil {
		return nil, err
	}
	used := binary.BigEndian.Uint32(f.Data[20:24])
	for i := uint32(0); i < used && i < directSlots; i++ {
		out = append(out, storage.PageID(binary.BigEndian.Uint64(f.Data[loHeaderFixed+8*i:])))
	}
	next := storage.PageID(binary.BigEndian.Uint64(f.Data[12:20]))
	lo.space.bp.Unpin(f, false)
	for next != storage.InvalidPage {
		fi, err := lo.space.bp.Fetch(next)
		if err != nil {
			return nil, err
		}
		for i := 0; i < indirectSlots; i++ {
			pid := storage.PageID(binary.BigEndian.Uint64(fi.Data[8+8*i:]))
			if pid != storage.InvalidPage {
				out = append(out, pid)
			}
		}
		next = storage.PageID(binary.BigEndian.Uint64(fi.Data[0:8]))
		lo.space.bp.Unpin(fi, false)
	}
	return out, nil
}

// pageAt maps a logical page index to a data page, optionally allocating.
// Direct slots live in the header; the rest in a chain of indirect pages.
func (lo *LargeObject) pageAt(idx int64, alloc bool) (storage.PageID, error) {
	if idx < directSlots {
		return lo.link(lo.h.Header, loHeaderFixed+8*int(idx), alloc, uint32(idx)+1)
	}
	rel := idx - directSlots
	cur, err := lo.link(lo.h.Header, 12, alloc, 0)
	for hop := rel / indirectSlots; hop > 0 && err == nil && cur != storage.InvalidPage; hop-- {
		cur, err = lo.link(cur, 0, alloc, 0)
	}
	if err != nil || cur == storage.InvalidPage {
		return storage.InvalidPage, err
	}
	return lo.link(cur, 8+8*int(rel%indirectSlots), alloc, 0)
}

// link reads the page id stored at off of page id. When it is unset and
// alloc is true, link allocates a page and stores its id there; used, when
// nonzero, is the header's new minimum count of direct slots in use.
func (lo *LargeObject) link(id storage.PageID, off int, alloc bool, used uint32) (storage.PageID, error) {
	bp := lo.space.bp
	f, err := bp.Fetch(id)
	if err != nil {
		return storage.InvalidPage, err
	}
	pid := storage.PageID(binary.BigEndian.Uint64(f.Data[off:]))
	bp.Unpin(f, false)
	if pid != storage.InvalidPage || !alloc {
		return pid, nil
	}
	nf, err := bp.Allocate()
	if err != nil {
		return storage.InvalidPage, err
	}
	pid = nf.ID
	bp.Unpin(nf, true)
	return pid, lo.edit(id, func(page []byte) {
		binary.BigEndian.PutUint64(page[off:], uint64(pid))
		if used > binary.BigEndian.Uint32(page[20:24]) {
			binary.BigEndian.PutUint32(page[20:24], used)
		}
	})
}

package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Stats counts page-level I/O through a buffer pool. All benchmark numbers
// (search I/O, insertion I/O) are reported from these counters.
type Stats struct {
	Reads     uint64 // physical page reads (misses)
	Writes    uint64 // physical page writes (evictions + flushes)
	Hits      uint64 // logical fetches satisfied from the pool
	Fetches   uint64 // all logical fetches
	Evictions uint64
}

// Sub returns the difference s - o, for measuring an operation window.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:     s.Reads - o.Reads,
		Writes:    s.Writes - o.Writes,
		Hits:      s.Hits - o.Hits,
		Fetches:   s.Fetches - o.Fetches,
		Evictions: s.Evictions - o.Evictions,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("fetches=%d hits=%d reads=%d writes=%d evictions=%d",
		s.Fetches, s.Hits, s.Reads, s.Writes, s.Evictions)
}

// ErrPoolFull is returned when every frame of the page's shard is pinned
// and a new page is requested.
var ErrPoolFull = errors.New("storage: buffer pool exhausted (all frames pinned)")

// Frame is a pinned page in the buffer pool. Data is valid until Unpin.
//
// The embedded latch protects Data for components whose readers run without
// any higher-level lock: MVCC heap scans read pages concurrently with
// writers, so every change to Data goes through BufferPool.Edit, which holds
// the write latch, and readers hold the read latch over decoding. The pool's
// own flusher takes the read latch, so eviction and checkpoint writes never
// race a writer.
type Frame struct {
	ID   PageID
	Data []byte
	pins int
	// dirty is atomic because Edit sets it under the frame's latch, before
	// the edit's journal record exists, while the flusher reads it under
	// the shard mutex.
	dirty atomic.Bool
	// prev and next link the frame into its shard's LRU ring from its first
	// unpin until eviction or Free (next is nil while unlisted). A frame
	// stays listed while pinned again (eviction skips it), so an unpin only
	// relinks it. The shard mutex guards both.
	prev, next *Frame
	latch      sync.RWMutex
}

// Latch acquires the frame's write latch (exclusive access to Data).
func (f *Frame) Latch() { f.latch.Lock() }

// Unlatch releases the write latch.
func (f *Frame) Unlatch() { f.latch.Unlock() }

// RLatch acquires the frame's read latch (shared access to Data).
func (f *Frame) RLatch() { f.latch.RLock() }

// RUnlatch releases the read latch.
func (f *Frame) RUnlatch() { f.latch.RUnlock() }

// shard is one independently locked partition of the pool: its own frame
// table, its own LRU list, its own mutex. Pages are assigned to shards by a
// PageID hash, so concurrent scans over disjoint page sets never contend.
type shard struct {
	mu       sync.Mutex
	capacity int
	frames   map[PageID]*Frame
	// lru is the sentinel of the ring of frames by last unpin: lru.next is
	// the most recent, lru.prev the least.
	lru Frame
}

func newShard(capacity int) *shard {
	sh := &shard{capacity: capacity, frames: make(map[PageID]*Frame)}
	sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
	return sh
}

// unlink takes a listed frame out of the ring.
func (sh *shard) unlink(f *Frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// pushFront links an unlisted frame in as the most recently unpinned.
func (sh *shard) pushFront(f *Frame) {
	f.prev, f.next = &sh.lru, sh.lru.next
	sh.lru.next.prev = f
	sh.lru.next = f
}

// BufferPool caches pages of one Pager with pin-counted LRU replacement.
// The pool is split into shards (each with its own mutex and LRU) so that
// concurrent batched scans from multiple sessions do not serialise on a
// single global lock; I/O counters are atomic and never taken under any
// shard mutex. Callers serialise access to a frame's Data through
// higher-level latching (the engine latches at the tree/table level).
type BufferPool struct {
	pager  Pager
	shards []*shard

	reads, writes, hits, fetches, evictions atomic.Uint64

	// unsynced is set when a page write reached the pager without a
	// following Sync (evictions write lazily); FlushAll uses it to skip the
	// pager fsync when the pool is fully clean, which keeps the background
	// checkpointer's sweep over idle pools free.
	unsynced atomic.Bool

	// FlushHook, when set, is called with (id, data) before a dirty page is
	// written back; the WAL installs itself here to honour write-ahead
	// ordering. Set it before the pool sees concurrent use.
	FlushHook func(id PageID, data []byte) error

	// Journal, when set, receives every change Edit makes, one call per
	// changed run: the editing transaction, the page, and the run's offset
	// with its before and after images. Both images are valid only during
	// the call (the before image is a pooled buffer, the after image the
	// page itself); a journal that keeps them must copy them. Transaction 0
	// marks a redo-only edit (formatting a freshly allocated page). Set it
	// before the pool sees concurrent use.
	Journal func(tx uint64, id PageID, off int, before, after []byte) error

	// JournalRuns, when set, is called instead of Journal, once per edit
	// with all of the edit's runs in page order, so that a log can append
	// them together. The engine attaches the WAL here for the pool's space.
	// The runs and their images are valid only during the call.
	JournalRuns func(tx uint64, id PageID, runs []Run) error
}

// Run is one changed run of an edited page: the bytes at Off held Before
// and now hold After. Each run starts and ends on a changed byte.
type Run struct {
	Off           int
	Before, After []byte
}

// defaultShards picks the shard count for a capacity: pools below 128
// frames stay single-shard (exact global-LRU semantics, which the
// experiment harnesses with tiny pools rely on), larger pools get one
// shard per 64 frames up to 8.
func defaultShards(capacity int) int {
	if capacity < 128 {
		return 1
	}
	n := capacity / 64
	if n > 8 {
		n = 8
	}
	return n
}

// NewBufferPool wraps pager with a pool of the given frame capacity,
// sharded by the default heuristic (small pools stay single-shard).
func NewBufferPool(pager Pager, capacity int) *BufferPool {
	return NewShardedBufferPool(pager, capacity, defaultShards(max(capacity, 1)))
}

// NewShardedBufferPool wraps pager with an explicit shard count; capacity
// is the total frame budget, divided evenly across shards.
func NewShardedBufferPool(pager Pager, capacity, shards int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	bp := &BufferPool{pager: pager, shards: make([]*shard, shards)}
	per := capacity / shards
	extra := capacity % shards
	for i := range bp.shards {
		c := per
		if i < extra {
			c++
		}
		bp.shards[i] = newShard(c)
	}
	return bp
}

// shardFor maps a page to its shard (Fibonacci hash so that both
// sequential and clustered PageID patterns spread evenly).
func (bp *BufferPool) shardFor(id PageID) *shard {
	if len(bp.shards) == 1 {
		return bp.shards[0]
	}
	h := uint64(id) * 0x9E3779B97F4A7C15
	return bp.shards[(h>>32)%uint64(len(bp.shards))]
}

// Pager returns the underlying pager.
func (bp *BufferPool) Pager() Pager { return bp.pager }

// Shards returns the number of independently locked pool partitions.
func (bp *BufferPool) Shards() int { return len(bp.shards) }

// Stats returns a snapshot of the I/O counters (atomic; callable
// concurrently with fetches without taking any pool lock).
func (bp *BufferPool) Stats() Stats {
	return Stats{
		Reads:     bp.reads.Load(),
		Writes:    bp.writes.Load(),
		Hits:      bp.hits.Load(),
		Fetches:   bp.fetches.Load(),
		Evictions: bp.evictions.Load(),
	}
}

// Allocate allocates a fresh page and returns it pinned and dirty.
func (bp *BufferPool) Allocate() (*Frame, error) {
	id, err := bp.pager.Allocate()
	if err != nil {
		return nil, err
	}
	sh := bp.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := bp.ensureRoom(sh); err != nil {
		return nil, err
	}
	f := &Frame{ID: id, Data: make([]byte, PageSize), pins: 1}
	f.dirty.Store(true)
	sh.frames[id] = f
	return f, nil
}

// Fetch pins the page, reading it from the pager on a miss. Only the
// page's shard is locked — fetches on different shards proceed in
// parallel.
func (bp *BufferPool) Fetch(id PageID) (*Frame, error) {
	sh := bp.shardFor(id)
	bp.fetches.Add(1)
	sh.mu.Lock()
	if f, ok := sh.frames[id]; ok {
		bp.hits.Add(1)
		f.pins++
		sh.mu.Unlock()
		return f, nil
	}
	if err := bp.ensureRoom(sh); err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	bp.reads.Add(1)
	f := &Frame{ID: id, Data: make([]byte, PageSize), pins: 1}
	sh.frames[id] = f
	// Read inside the shard lock: releasing it here would race with a
	// concurrent Fetch of the same page; the read is cheap relative to
	// simplicity, and only this shard is held up.
	err := bp.pager.ReadPage(id, f.Data)
	if err != nil {
		delete(sh.frames, id)
		sh.mu.Unlock()
		return nil, err
	}
	sh.mu.Unlock()
	return f, nil
}

// Unpin releases one pin; dirty marks the frame as modified.
func (bp *BufferPool) Unpin(f *Frame, dirty bool) {
	sh := bp.shardFor(f.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if dirty {
		f.dirty.Store(true)
	}
	if f.pins > 0 {
		f.pins--
	}
	if f.pins > 0 || sh.lru.next == f {
		return
	}
	if f.next != nil {
		sh.unlink(f)
	}
	sh.pushFront(f)
}

// Edit is the one way to change a page: it applies fn to page id's bytes
// under the frame's write latch, so lock-free readers never see a
// half-applied edit, journals each changed run under tx, and leaves the page
// dirty. fn must return its error before it touches the page: a failed edit
// changes nothing and journals nothing.
func (bp *BufferPool) Edit(tx uint64, id PageID, fn func(page []byte) error) error {
	return bp.edit(tx, id, bp.Journaled(), fn)
}

// Journaled reports whether the pool journals its edits.
func (bp *BufferPool) Journaled() bool { return bp.Journal != nil || bp.JournalRuns != nil }

// Apply writes img at off of page id, extending the pager when the page's
// allocation was lost in a crash. It is redo and undo's page write and
// journals nothing, because recovery logs its own compensation records.
func (bp *BufferPool) Apply(id uint64, off uint16, img []byte) error {
	if err := bp.pager.EnsurePages(id + 1); err != nil {
		return err
	}
	return bp.edit(0, PageID(id), false, func(page []byte) error { return applyImage(page, id, off, img) })
}

// applyImage copies a logged image into page. The image is input read from
// the log, so one that overflows the page is refused, not trusted.
func applyImage(page []byte, id uint64, off uint16, img []byte) error {
	if int(off)+len(img) > len(page) {
		return fmt.Errorf("storage: image overflows page %d (offset %d, len %d)", id, off, len(img))
	}
	copy(page[off:], img)
	return nil
}

// editScratch is a journaled edit's before image and run list. It is pooled,
// so an edit allocates neither, and returned when the edit ends: the images
// a journal receives are valid only during its call.
type editScratch struct {
	before [PageSize]byte
	runs   []Run
}

var editScratchPool = sync.Pool{New: func() any { return new(editScratch) }}

func (bp *BufferPool) edit(tx uint64, id PageID, journaled bool, fn func([]byte) error) error {
	f, err := bp.Fetch(id)
	if err != nil {
		return err
	}
	f.Latch()
	var s *editScratch
	if journaled {
		s = editScratchPool.Get().(*editScratch)
		copy(s.before[:], f.Data)
	}
	if err = fn(f.Data); err == nil {
		// Dirty before the record exists: a checkpoint cut after the record
		// then finds the page dirty and writes it before truncating the log.
		f.dirty.Store(true)
		if s != nil {
			err = bp.journal(tx, id, s, f.Data)
		}
	}
	f.Unlatch()
	bp.Unpin(f, false)
	if s != nil {
		clear(s.runs) // keep no page reachable from the pool
		s.runs = s.runs[:0]
		editScratchPool.Put(s)
	}
	return err
}

// journal hands the changed runs of one edit, diffed against s's before
// image, to the pool's journal.
func (bp *BufferPool) journal(tx uint64, id PageID, s *editScratch, page []byte) error {
	s.runs = changedRuns(s.runs[:0], s.before[:len(page)], page)
	runs := s.runs
	if tx == 0 && len(runs) > 1 {
		// A redo-only edit is never undone, so it stays one record: a torn
		// tail between two of its runs would leave half of it redone.
		lo, last := runs[0].Off, runs[len(runs)-1]
		hi := last.Off + len(last.After)
		runs = append(runs[:0], Run{Off: lo, Before: s.before[lo:hi], After: page[lo:hi]})
	}
	if len(runs) == 0 {
		return nil
	}
	if bp.JournalRuns != nil {
		return bp.JournalRuns(tx, id, runs)
	}
	for _, r := range runs {
		if err := bp.Journal(tx, id, r.Off, r.Before, r.After); err != nil {
			return err
		}
	}
	return nil
}

// mergeGap is the fewest unchanged bytes between two changes of one edit
// that puts them in separate runs, and so in separate log records. A record
// carries about 59 bytes besides its images (length and CRC, type,
// transaction, prevLSN, space, page, offset, two image lengths, undoNext,
// active count), so a gap shorter than that is not worth a record, an
// append and an undo step of its own; 64 rounds it up to the diff's block.
const mergeGap = 64

// diffBlock is the unit the diff compares with bytes.Equal.
const diffBlock = 64

// changedRuns appends to runs the changed runs of after against before
// (pages of equal length), in page order. Two changes share a run unless at
// least mergeGap unchanged bytes lie between them. The diff finds each
// changed 64-byte block with bytes.Equal over growing spans (nextChanged),
// and searches only a changed block, a word at a time from each end, for its
// first and last changed byte; no byte loop runs over a page.
func changedRuns(runs []Run, before, after []byte) []Run {
	lo, hi := -1, 0 // the open run, [lo, hi)
	n := len(after)
	for off := nextChanged(before, after, 0); off < n; off = nextChanged(before, after, off+diffBlock) {
		end := min(off+diffBlock, n)
		first := firstDiff(before, after, off, end)
		if lo >= 0 && first-hi >= mergeGap {
			runs = append(runs, Run{Off: lo, Before: before[lo:hi], After: after[lo:hi]})
			lo = -1
		}
		if lo < 0 {
			lo = first
		}
		hi = lastDiff(before, after, first, end)
	}
	if lo >= 0 {
		runs = append(runs, Run{Off: lo, Before: before[lo:hi], After: after[lo:hi]})
	}
	return runs
}

// nextChanged returns the start of the first diffBlock-aligned block at or
// after off (itself aligned) in which a and b differ, or len(a). It gallops:
// equal spans of 64, 128, 256, ... bytes are skipped with one bytes.Equal
// each, and the first unequal span is halved down to its changed block, so
// finding a change d bytes on costs O(log d) calls.
func nextChanged(a, b []byte, off int) int {
	n := len(a)
	for span := diffBlock; off < n; span *= 2 {
		end := min(off+span, n)
		if bytes.Equal(a[off:end], b[off:end]) {
			off = end
			continue
		}
		for end-off > diffBlock {
			mid := off + max(diffBlock, (end-off)/2/diffBlock*diffBlock)
			if bytes.Equal(a[off:mid], b[off:mid]) {
				off = mid
			} else {
				end = mid
			}
		}
		return off
	}
	return n
}

// firstDiff returns the first index in [lo, hi) at which a and b differ, or
// hi.
func firstDiff(a, b []byte, lo, hi int) int {
	for lo+8 <= hi && binary.LittleEndian.Uint64(a[lo:]) == binary.LittleEndian.Uint64(b[lo:]) {
		lo += 8
	}
	for lo < hi && a[lo] == b[lo] {
		lo++
	}
	return lo
}

// lastDiff returns one past the last index in [lo, hi) at which a and b
// differ, or lo.
func lastDiff(a, b []byte, lo, hi int) int {
	for hi-8 >= lo && binary.LittleEndian.Uint64(a[hi-8:]) == binary.LittleEndian.Uint64(b[hi-8:]) {
		hi -= 8
	}
	for hi > lo && a[hi-1] == b[hi-1] {
		hi--
	}
	return hi
}

// ensureRoom evicts the least recently unpinned frame that is not pinned
// again when the shard is at capacity. Caller holds sh.mu.
func (bp *BufferPool) ensureRoom(sh *shard) error {
	for len(sh.frames) >= sh.capacity {
		victim := sh.lru.prev
		for victim != &sh.lru && victim.pins > 0 {
			victim = victim.prev
		}
		if victim == &sh.lru {
			return ErrPoolFull
		}
		sh.unlink(victim)
		if victim.dirty.Load() {
			if err := bp.flushLocked(victim); err != nil {
				return err
			}
		}
		delete(sh.frames, victim.ID)
		bp.evictions.Add(1)
	}
	return nil
}

// flushLocked writes one dirty frame back. Caller holds the frame's shard
// mutex (stat counters are atomic, not shard state). The frame's read latch
// is taken around the write so a latching mutator never races the flush;
// this cannot deadlock because latch holders release the latch before
// re-entering the pool (Unpin).
func (bp *BufferPool) flushLocked(f *Frame) error {
	f.latch.RLock()
	defer f.latch.RUnlock()
	if bp.FlushHook != nil {
		if err := bp.FlushHook(f.ID, f.Data); err != nil {
			return err
		}
	}
	bp.writes.Add(1)
	if err := bp.pager.WritePage(f.ID, f.Data); err != nil {
		return err
	}
	f.dirty.Store(false)
	bp.unsynced.Store(true)
	return nil
}

// FlushAll writes every dirty frame back to the pager and syncs it. The
// sync is skipped when no write has reached the pager since the last
// FlushAll, so sweeping a clean pool costs no I/O.
func (bp *BufferPool) FlushAll() error {
	for _, sh := range bp.shards {
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.dirty.Load() {
				if err := bp.flushLocked(f); err != nil {
					sh.mu.Unlock()
					return err
				}
			}
		}
		sh.mu.Unlock()
	}
	if !bp.unsynced.Swap(false) {
		return nil
	}
	if err := bp.pager.Sync(); err != nil {
		bp.unsynced.Store(true)
		return err
	}
	return nil
}

// Free flushes nothing and returns the page to the pager's free list; the
// page must be unpinned.
func (bp *BufferPool) Free(id PageID) error {
	sh := bp.shardFor(id)
	sh.mu.Lock()
	if f, ok := sh.frames[id]; ok {
		if f.pins > 0 {
			sh.mu.Unlock()
			return fmt.Errorf("storage: freeing pinned page %d", id)
		}
		if f.next != nil {
			sh.unlink(f)
		}
		delete(sh.frames, id)
	}
	sh.mu.Unlock()
	return bp.pager.Free(id)
}

// Close flushes and closes the underlying pager.
func (bp *BufferPool) Close() error {
	if err := bp.FlushAll(); err != nil {
		bp.pager.Close()
		return err
	}
	return bp.pager.Close()
}

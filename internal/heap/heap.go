// Package heap implements heap tables: slotted-page tuple storage with
// rowids, WAL-logged mutations, multi-version tuples, and full scans. Rowids
// are the values index leaf entries point at ("a pointer to the actual
// bitemporal data stored in the database", Section 3); grt_getnext returns
// them to the server, which fetches the tuple here.
//
// Versioning: every slot holds one tuple VERSION — a fixed header (creator
// and deleter transaction ids and their commit stamps) followed by the
// encoded row. Insert appends a new version; Delete stamps the deleter onto
// the version instead of removing the slot; Update ends the old version and
// appends the replacement at a new rowid. Readers carry a Snapshot and apply
// one visibility predicate, so scans never block on writers and never take
// locks; the engine stamps its commit clock at transaction commit and a
// vacuum pass reclaims versions no live snapshot can see.
//
// Concurrency: writers are serialised by the engine's table-level exclusive
// locks (strict two-phase), but readers take no locks at all — page bytes
// are protected by per-frame latches (storage.Frame), and version headers
// make torn logical states invisible. The paper's concurrency discussion
// concerns the index side (large-object locks, Section 5.3); the heap's
// version chains are deliberately the same machinery its transaction-time
// dimension needs, so AS OF reads fall out of the stamp comparison.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/types"
)

// RowID identifies a tuple version: page number (high 48 bits) and slot
// (low 16). The paper's rowids carry a fragment id as well; this engine
// keeps every table in a single fragment.
type RowID uint64

// maxSlot is the largest slot number a RowID can carry (16-bit field).
const maxSlot = 0xFFFF

// MakeRowID packs a page and slot.
func MakeRowID(page storage.PageID, slot int) RowID {
	return RowID(uint64(page)<<16 | uint64(slot)&maxSlot)
}

// Page returns the page number.
func (r RowID) Page() storage.PageID { return storage.PageID(r >> 16) }

// Slot returns the slot number.
func (r RowID) Slot() int { return int(r & maxSlot) }

func (r RowID) String() string { return fmt.Sprintf("rid(%d:%d)", r.Page(), r.Slot()) }

// ErrNoSuchRow is returned for missing rowids.
var ErrNoSuchRow = errors.New("heap: no such row")

// ErrSlotOverflow is returned when a page would hand out a slot number that
// does not fit the RowID's 16-bit slot field. With 4 KiB pages this is
// unreachable (a page holds at most ~1020 slots), but the guard keeps a
// larger page size from silently corrupting page ids.
var ErrSlotOverflow = errors.New("heap: slot number exceeds rowid slot field")

// Table header page (page 1): magic, version format marker. The magic
// changed ("HEAP" → "HEA2") when slots became version cells and again
// ("HEA3") when the version header lost its successor link; older pages are
// not readable.
const (
	tableMagic = 0x48454133 // "HEA3"
)

// Version cell layout: a fixed header followed by the encoded row.
//
//	[0:8)   beginTx  — creator transaction id
//	[8:16)  beginLSN — creator's commit stamp (0 while uncommitted)
//	[16:24) endTx    — deleter transaction id (0 = not ended)
//	[24:32) endLSN   — deleter's commit stamp (0 while uncommitted)
const verHeaderSize = 32

// verHeader is a decoded version-cell header.
type verHeader struct {
	beginTx, beginLSN uint64
	endTx, endLSN     uint64
}

func parseHeader(cell []byte) verHeader {
	return verHeader{
		beginTx:  binary.BigEndian.Uint64(cell[0:8]),
		beginLSN: binary.BigEndian.Uint64(cell[8:16]),
		endTx:    binary.BigEndian.Uint64(cell[16:24]),
		endLSN:   binary.BigEndian.Uint64(cell[24:32]),
	}
}

// Snapshot is an MVCC read view: every version whose creator committed
// before ReadLSN (and is not in Active) and whose deleter did not is
// visible. The engine captures ReadLSN and Active atomically against
// commits, so a transaction's versions appear all-or-nothing. The nil
// *Snapshot reads "latest" state: every version not yet ended, committed or
// not (index builds and row counts under the writers' table lock).
type Snapshot struct {
	// ReadLSN is the cut point: stamps strictly below it are committed for
	// this snapshot. Stamps are the engine's commit clock values, not log
	// positions.
	ReadLSN uint64
	// Active holds the transactions that were uncommitted at capture; their
	// stamps are ignored even when below ReadLSN.
	Active map[uint64]struct{}
	// Tx is the reading transaction: its own uncommitted versions are
	// visible, and versions it ended are not.
	Tx uint64
	// Dirty selects DIRTY READ semantics: the newest un-ended version wins,
	// committed or not, and the stamp fields are ignored.
	Dirty bool
}

// Visible reports whether the version is part of this read view.
func (s *Snapshot) visible(h verHeader) bool {
	if s == nil || s.Dirty {
		return h.endTx == 0
	}
	// Begin side: own writes are always visible; otherwise the creator must
	// have a commit stamp below the cut and must not have been active.
	if h.beginTx != s.Tx {
		if h.beginLSN == 0 || h.beginLSN >= s.ReadLSN {
			return false
		}
		if _, act := s.Active[h.beginTx]; act {
			return false
		}
	}
	// End side: a version this transaction ended is gone for it; an end by
	// another transaction counts only once committed below the cut.
	if h.endTx != 0 {
		if h.endTx == s.Tx {
			return false
		}
		if h.endLSN != 0 && h.endLSN < s.ReadLSN {
			if _, act := s.Active[h.endTx]; !act {
				return false
			}
		}
	}
	return true
}

// Stamp targets for StampVersion.
const (
	// StampBegin sets the version's creator commit stamp.
	StampBegin uint8 = 1 << iota
	// StampEnd sets the version's deleter commit stamp.
	StampEnd
)

// Table is one heap table over its own pager.
type Table struct {
	Name    string
	SpaceID uint32

	bp     *storage.BufferPool
	schema []types.Type
	last   storage.PageID // insertion hint
	obs    *obs.Registry

	// dead counts version cells that are reclaimable-in-principle: ended by
	// a committed transaction, or garbage left by an aborted NoWAL creator.
	// Index maintenance is deferred (DELETE and UPDATE leave index entries
	// in place; the vacuum removes entry and cell together), so a non-zero
	// count means some index entry may resolve to an invisible version —
	// the signal am_aggregate's visibility gate declines on. The engine
	// maintains it at commit/rollback and the vacuum subtracts what it
	// reclaims; Open seeds it by scanning.
	dead atomic.Int64
}

// Create initialises a table in an empty buffer pool. The header page is
// formatted redo-only (transaction 0), as page allocation is never undone
// and the engine never reuses a table's space.
func Create(name string, spaceID uint32, bp *storage.BufferPool, schema []types.Type) (*Table, error) {
	f, err := bp.Allocate() // page 1: header
	if err != nil {
		return nil, err
	}
	bp.Unpin(f, true)
	if f.ID != 1 {
		return nil, fmt.Errorf("heap: table pager not empty (header at %d)", f.ID)
	}
	err = bp.Edit(0, 1, func(page []byte) error {
		binary.BigEndian.PutUint32(page[0:4], tableMagic)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{Name: name, SpaceID: spaceID, bp: bp, schema: schema}, nil
}

// Open attaches to an existing table. Its pool must already be recovered:
// Open reads the header and seeds the dead count from the pages.
func Open(name string, spaceID uint32, bp *storage.BufferPool, schema []types.Type) (*Table, error) {
	f, err := bp.Fetch(1)
	if err != nil {
		return nil, fmt.Errorf("heap: open %s: %w", name, err)
	}
	f.RLatch()
	magic := binary.BigEndian.Uint32(f.Data[0:4])
	f.RUnlatch()
	bp.Unpin(f, false)
	if magic != tableMagic {
		return nil, fmt.Errorf("heap: %s is not a heap table", name)
	}
	t := &Table{Name: name, SpaceID: spaceID, bp: bp, schema: schema}
	n, err := t.countDead()
	if err != nil {
		return nil, fmt.Errorf("heap: open %s: %w", name, err)
	}
	t.dead.Store(n)
	return t, nil
}

// AddDead adjusts the pending-reclamation count (see the dead field).
func (t *Table) AddDead(n int64) { t.dead.Add(n) }

// DeadCount returns the number of version cells awaiting reclamation.
// Zero proves every index entry on this table resolves to a live version.
func (t *Table) DeadCount() int64 { return t.dead.Load() }

// countDead scans for cells a vacuum pass would eventually reclaim: ended
// with a commit stamp, or created without one by a finished transaction.
// Open uses it to seed the dead count — after recovery no transaction is
// in flight, so endLSN != 0 means a committed end and beginLSN == 0 means
// an aborted creation.
func (t *Table) countDead() (int64, error) {
	var dead int64
	n := storage.PageID(t.bp.Pager().NumPages())
	for id := storage.PageID(2); id < n; id++ {
		err := t.readPage(id, func(buf []byte) error {
			if binary.BigEndian.Uint16(buf[12:14]) == 0 {
				return nil // never-initialised page
			}
			p := storage.SlottedPage{Buf: buf}
			for s := 0; s < p.NumSlots(); s++ {
				raw, ok := p.Read(s)
				if !ok || len(raw) < verHeaderSize {
					continue
				}
				h := parseHeader(raw)
				if (h.endTx != 0 && h.endLSN != 0) || h.beginLSN == 0 {
					dead++
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return dead, nil
}

// readPage applies fn to the page bytes under a shared latch.
func (t *Table) readPage(id storage.PageID, fn func(buf []byte) error) error {
	f, err := t.bp.Fetch(id)
	if err != nil {
		return err
	}
	f.RLatch()
	err = fn(f.Data)
	f.RUnlatch()
	t.bp.Unpin(f, false)
	return err
}

// SetObs attaches the registry that counts version-chain activity: versions
// created by Insert and Update, rejected by a snapshot read, and reclaimed
// by Vacuum. Call before concurrent use.
func (t *Table) SetObs(reg *obs.Registry) { t.obs = reg }

// Schema returns the column types.
func (t *Table) Schema() []types.Type { return t.schema }

// Pool exposes the buffer pool (statistics).
func (t *Table) Pool() *storage.BufferPool { return t.bp }

// Count returns the number of latest-state tuples (by scanning).
func (t *Table) Count() (int, error) {
	n := 0
	err := t.Scan(func(RowID, []types.Datum) (bool, error) { n++; return true, nil })
	return n, err
}

// Insert stores the row as a new version created by tx and returns its
// rowid. The version's commit stamp stays zero until the engine stamps it
// at commit (StampVersion).
func (t *Table) Insert(tx uint64, row []types.Datum) (RowID, error) {
	data, err := types.EncodeRow(t.schema, row)
	if err != nil {
		return 0, err
	}
	if len(data)+verHeaderSize > storage.PageSize/2 {
		return 0, fmt.Errorf("heap: tuple of %d bytes exceeds page budget", len(data))
	}
	cell := make([]byte, verHeaderSize+len(data))
	binary.BigEndian.PutUint64(cell[0:8], tx)
	copy(cell[verHeaderSize:], data)
	// Try the hint page, then newer pages, then allocate.
	tryPage := func(id storage.PageID) (RowID, bool, error) {
		var rid RowID
		ok := false
		err := t.bp.Edit(tx, id, func(buf []byte) error {
			p := storage.SlottedPage{Buf: buf}
			if p.FreeSpace() < len(cell) {
				return nil
			}
			if p.NextSlot() > maxSlot {
				// Would not round-trip through the RowID's 16-bit slot
				// field: fail loudly before touching the page, so the
				// error path leaves nothing for the WAL to miss.
				return ErrSlotOverflow
			}
			slot, err := p.Insert(cell)
			if err != nil {
				return nil // treat as full
			}
			rid = MakeRowID(id, slot)
			ok = true
			return nil
		})
		return rid, ok, err
	}
	if t.last > 1 {
		rid, ok, err := tryPage(t.last)
		if err != nil {
			return 0, err
		}
		if ok {
			t.obs.Inc(obs.MvccVersionsCreated)
			return rid, nil
		}
	}
	n := storage.PageID(t.bp.Pager().NumPages())
	for id := n - 1; id > 1; id-- {
		if id == t.last {
			continue
		}
		rid, ok, err := tryPage(id)
		if err != nil {
			return 0, err
		}
		if ok {
			t.last = id
			t.obs.Inc(obs.MvccVersionsCreated)
			return rid, nil
		}
		break // only probe the most recent page before extending
	}
	// A fresh page is formatted redo-only, like the allocation itself.
	f, err := t.bp.Allocate()
	if err != nil {
		return 0, err
	}
	id := f.ID
	t.bp.Unpin(f, true)
	if err := t.bp.Edit(0, id, func(page []byte) error { storage.InitSlotted(page); return nil }); err != nil {
		return 0, err
	}
	t.last = id
	rid, ok, err := tryPage(id)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("heap: fresh page rejected %d-byte tuple", len(data))
	}
	t.obs.Inc(obs.MvccVersionsCreated)
	return rid, nil
}

// readCell applies fn to the version cell at rid under the page's read
// latch; the cell is the page's own bytes, valid only inside fn. A missing
// page or slot is ErrNoSuchRow.
func (t *Table) readCell(rid RowID, fn func(cell []byte) error) error {
	f, err := t.bp.Fetch(rid.Page())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoSuchRow, rid)
	}
	f.RLatch()
	p := storage.SlottedPage{Buf: f.Data}
	if raw, ok := p.Read(rid.Slot()); ok && len(raw) >= verHeaderSize {
		err = fn(raw)
	} else {
		err = fmt.Errorf("%w: %v", ErrNoSuchRow, rid)
	}
	f.RUnlatch()
	t.bp.Unpin(f, false)
	return err
}

// GetVersion fetches the version at rid and applies the snapshot's
// visibility predicate: ok reports whether the version is part of the read
// view (a rowid obtained from an index may resolve to a version the
// snapshot cannot see — too new, uncommitted, or deleted). A missing slot
// is ErrNoSuchRow. The row is decoded straight from the latched page into
// arena, the caller's batch arena when it passes one (at most one), or
// memory of the row's own; DecodeRow copies whatever bytes it keeps.
func (t *Table) GetVersion(rid RowID, snap *Snapshot, arena ...*types.Arena) ([]types.Datum, bool, error) {
	var a *types.Arena
	if len(arena) > 0 {
		a = arena[0]
	}
	var row []types.Datum
	visible := false
	err := t.readCell(rid, func(cell []byte) (err error) {
		if visible = snap.visible(parseHeader(cell)); visible {
			row, err = types.DecodeRow(t.schema, cell[verHeaderSize:], a)
		}
		return err
	})
	if err != nil {
		return nil, false, err
	}
	if !visible {
		t.obs.Inc(obs.MvccVersionsSkipped)
	}
	return row, visible, nil
}

// Get fetches the row at rid in latest state (nil-snapshot semantics: the
// version must not be ended). Deleted rows report ErrNoSuchRow.
func (t *Table) Get(rid RowID) ([]types.Datum, error) {
	row, ok, err := t.GetVersion(rid, nil)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchRow, rid)
	}
	return row, nil
}

// Delete ends the version at rid: the deleter's transaction id is stamped
// onto the version (the slot stays until vacuum). It reports false when the
// version is missing or already ended.
func (t *Table) Delete(tx uint64, rid RowID) (bool, error) {
	deleted := false
	err := t.bp.Edit(tx, rid.Page(), func(buf []byte) error {
		p := storage.SlottedPage{Buf: buf}
		raw, ok := p.Read(rid.Slot())
		if !ok || len(raw) < verHeaderSize || parseHeader(raw).endTx != 0 {
			return nil
		}
		binary.BigEndian.PutUint64(raw[16:24], tx)
		deleted = true
		return nil
	})
	return deleted, err
}

// Update replaces the row at rid: the replacement is appended as a new
// version (always at a new rowid — the engine drives am_update with
// distinct old and new rowids, per Table 5) and the old version is ended
// by tx.
func (t *Table) Update(tx uint64, rid RowID, row []types.Datum) (RowID, error) {
	var h verHeader
	if err := t.readCell(rid, func(cell []byte) error { h = parseHeader(cell); return nil }); err != nil {
		return 0, err
	}
	if h.endTx != 0 {
		return 0, fmt.Errorf("%w: %v", ErrNoSuchRow, rid)
	}
	newRid, err := t.Insert(tx, row)
	if err != nil {
		return 0, err
	}
	if ended, err := t.Delete(tx, rid); err != nil {
		return 0, err
	} else if !ended {
		return 0, fmt.Errorf("%w: %v", ErrNoSuchRow, rid)
	}
	return newRid, nil
}

// StampVersion writes the commit stamp into the version's begin and/or end
// fields (kind is a StampBegin|StampEnd mask). The engine calls it for
// every version a committing transaction created or ended, before the
// commit record is appended, so the stamps are WAL-protected under the same
// transaction.
func (t *Table) StampVersion(tx uint64, rid RowID, kind uint8, stamp uint64) error {
	return t.bp.Edit(tx, rid.Page(), func(buf []byte) error {
		p := storage.SlottedPage{Buf: buf}
		raw, ok := p.Read(rid.Slot())
		if !ok || len(raw) < verHeaderSize {
			return fmt.Errorf("%w: %v", ErrNoSuchRow, rid)
		}
		if kind&StampBegin != 0 {
			binary.BigEndian.PutUint64(raw[8:16], stamp)
		}
		if kind&StampEnd != 0 {
			binary.BigEndian.PutUint64(raw[24:32], stamp)
		}
		return nil
	})
}

// Unwrite takes back tx's own write to the version at rid, for an engine
// without a log to undo from. A version tx created (kind StampBegin) gets tx
// as its ender as well, so no read view sees it and the vacuum reclaims it
// as an aborted creation; a version tx ended (StampEnd) loses its end
// stamp.
func (t *Table) Unwrite(tx uint64, rid RowID, kind uint8) error {
	return t.bp.Edit(tx, rid.Page(), func(buf []byte) error {
		p := storage.SlottedPage{Buf: buf}
		raw, ok := p.Read(rid.Slot())
		if !ok || len(raw) < verHeaderSize {
			return fmt.Errorf("%w: %v", ErrNoSuchRow, rid)
		}
		if kind&StampBegin != 0 {
			binary.BigEndian.PutUint64(raw[16:24], tx)
		} else {
			binary.BigEndian.PutUint64(raw[16:24], 0)
		}
		return nil
	})
}

// Victim is one version cell the vacuum will reclaim: its rowid and decoded
// row, handed to the caller before the slot is freed. Index maintenance is
// deferred — DELETE and UPDATE leave entries in place so concurrent index
// scans under older snapshots keep seeing every rowid they are entitled to —
// which makes the vacuum the single point where entry and cell die together:
// the caller removes the dependent index entries from the victims' projected
// rows, then Vacuum frees the slots.
type Victim struct {
	Rid RowID
	Row []types.Datum
}

// Vacuum reclaims version cells no snapshot at or above horizon can see:
// versions ended with a commit stamp below horizon by a transaction that is
// no longer active, and creations of transactions that finished without
// stamping them (beginLSN still zero: a NoWAL abort or failed statement, see
// Unwrite). The caller serialises Vacuum against writers (table exclusive
// lock) and guarantees horizon ≤ every live snapshot's ReadLSN; page edits
// run under tx so they are WAL-logged like any other mutation.
//
// The pass runs in three phases: collect the victims under shared latches,
// hand them to reclaim (no latches held — it performs index page edits of
// its own), then free the slots. A reclaim error aborts the pass before any
// slot is freed, so a WAL rollback restores the already-removed index
// entries and nothing dangles.
func (t *Table) Vacuum(tx uint64, horizon uint64, active func(uint64) bool, reclaim func([]Victim) error) (int, error) {
	var victims []Victim
	n := storage.PageID(t.bp.Pager().NumPages())
	for id := storage.PageID(2); id < n; id++ {
		err := t.readPage(id, func(buf []byte) error {
			if binary.BigEndian.Uint16(buf[12:14]) == 0 {
				return nil // never-initialised page
			}
			p := storage.SlottedPage{Buf: buf}
			first := len(victims)
			for s := 0; s < p.NumSlots(); s++ {
				raw, ok := p.Read(s)
				if !ok || len(raw) < verHeaderSize {
					continue
				}
				h := parseHeader(raw)
				dead := h.endTx != 0 && h.endLSN != 0 && h.endLSN < horizon && !active(h.endTx)
				aborted := h.beginLSN == 0 && !active(h.beginTx)
				if dead || aborted {
					victims = append(victims, Victim{Rid: MakeRowID(id, s)})
				}
			}
			page := victims[first:]
			arena := types.NewArena(len(page))
			for i := range page {
				raw, _ := p.Read(page[i].Rid.Slot())
				row, err := types.DecodeRow(t.schema, raw[verHeaderSize:], arena)
				if err != nil {
					return err
				}
				page[i].Row = row
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	if reclaim != nil && len(victims) > 0 {
		if err := reclaim(victims); err != nil {
			return 0, err
		}
	}
	// Free the slots page by page (victims are in page order). The caller's
	// table lock excludes writers and commit stamping, so the headers read
	// in phase one are still current.
	removed := 0
	for len(victims) > 0 {
		id, k := victims[0].Rid.Page(), 1
		for k < len(victims) && victims[k].Rid.Page() == id {
			k++
		}
		err := t.bp.Edit(tx, id, func(buf []byte) error {
			p := storage.SlottedPage{Buf: buf}
			for _, v := range victims[:k] {
				p.Delete(v.Rid.Slot())
				removed++
			}
			return nil
		})
		if err != nil {
			return removed, err
		}
		victims = victims[k:]
	}
	t.obs.Add(obs.MvccVacuumed, uint64(removed))
	return removed, nil
}

// RowBatch is one batch of sequentially scanned tuples (parallel slices).
type RowBatch struct {
	RowIDs []RowID
	Rows   [][]types.Datum
}

// Scanner is a pull-based sequential scan yielding the snapshot's visible
// tuples in batches — the heap-side counterpart of am_getmulti. A page is
// decoded in one latched visit and its tuples buffered, so batch pulls
// never hold a page pin across calls. The page count is snapshotted at
// creation; versions appended to earlier pages afterwards are rejected by
// the snapshot's stamps, so a scan is stable against concurrent writers.
type Scanner struct {
	t        *Table
	snap     *Snapshot
	next     storage.PageID
	end      storage.PageID
	pendRids []RowID
	pendRows [][]types.Datum
	pos      int
}

// NewScanner starts a sequential scan at the first data page under the
// given read view (nil = latest state).
func (t *Table) NewScanner(snap *Snapshot) *Scanner {
	return &Scanner{t: t, snap: snap, next: 2, end: storage.PageID(t.bp.Pager().NumPages())}
}

// NewRangeScanner starts a sequential scan over the half-open data-page
// range [start, end) — the partition unit of a parallel seqscan. Page ids
// below the first data page (2) are clamped; end is capped at the current
// page count. Distinct range scanners touch disjoint pages, so they are safe
// to drive from distinct goroutines (the buffer pool is already sharded),
// and partitions sharing one snapshot see one consistent cut.
func (t *Table) NewRangeScanner(snap *Snapshot, start, end storage.PageID) *Scanner {
	if start < 2 {
		start = 2
	}
	if max := storage.PageID(t.bp.Pager().NumPages()); end > max {
		end = max
	}
	return &Scanner{t: t, snap: snap, next: start, end: end}
}

// NextBatch returns up to maxRows tuples in storage order, or nil when the
// scan is exhausted. A short batch does not imply exhaustion.
func (sc *Scanner) NextBatch(maxRows int) (*RowBatch, error) {
	if maxRows < 1 {
		maxRows = 1
	}
	rb := &RowBatch{
		RowIDs: make([]RowID, 0, maxRows),
		Rows:   make([][]types.Datum, 0, maxRows),
	}
	for len(rb.RowIDs) < maxRows {
		if sc.pos >= len(sc.pendRids) {
			if sc.next >= sc.end {
				break
			}
			if err := sc.fillPage(); err != nil {
				return nil, err
			}
			continue
		}
		take := maxRows - len(rb.RowIDs)
		if rest := len(sc.pendRids) - sc.pos; rest < take {
			take = rest
		}
		rb.RowIDs = append(rb.RowIDs, sc.pendRids[sc.pos:sc.pos+take]...)
		rb.Rows = append(rb.Rows, sc.pendRows[sc.pos:sc.pos+take]...)
		sc.pos += take
	}
	if len(rb.RowIDs) == 0 {
		return nil, nil
	}
	return rb, nil
}

// fillPage decodes the next data page's visible versions into the pending
// buffer (which may stay empty for pages without visible tuples), all into
// one arena of the page's own. The page is read under the frame's read
// latch, so concurrent writers never tear a cell; the visibility predicate
// is the single point deciding what this scan sees.
func (sc *Scanner) fillPage() error {
	id := sc.next
	sc.next++
	sc.pendRids = sc.pendRids[:0]
	sc.pendRows = sc.pendRows[:0]
	sc.pos = 0
	skipped := 0
	err := sc.t.readPage(id, func(buf []byte) error {
		// Skip never-initialised pages (e.g., zero pages materialised by
		// recovery): an initialised slotted page has a nonzero free end.
		if binary.BigEndian.Uint16(buf[12:14]) == 0 {
			return nil
		}
		p := storage.SlottedPage{Buf: buf}
		for s := 0; s < p.NumSlots(); s++ {
			raw, ok := p.Read(s)
			if !ok || len(raw) < verHeaderSize {
				continue
			}
			if !sc.snap.visible(parseHeader(raw)) {
				skipped++
				continue
			}
			sc.pendRids = append(sc.pendRids, MakeRowID(id, s))
		}
		arena := types.NewArena(len(sc.pendRids))
		for _, rid := range sc.pendRids {
			raw, _ := p.Read(rid.Slot())
			row, err := types.DecodeRow(sc.t.schema, raw[verHeaderSize:], arena)
			if err != nil {
				sc.pendRids, sc.pendRows = sc.pendRids[:0], sc.pendRows[:0]
				return err
			}
			sc.pendRows = append(sc.pendRows, row)
		}
		return nil
	})
	if skipped > 0 {
		sc.t.obs.Add(obs.MvccVersionsSkipped, uint64(skipped))
	}
	return err
}

// scanBatchRows is the internal batch size of the callback Scan.
const scanBatchRows = 64

// Scan iterates all latest-state rows in storage order; fn returning false
// stops. (A batched wrapper over Scanner — fn still sees one row at a time.)
func (t *Table) Scan(fn func(RowID, []types.Datum) (bool, error)) error {
	sc := t.NewScanner(nil)
	for {
		rb, err := sc.NextBatch(scanBatchRows)
		if err != nil {
			return err
		}
		if rb == nil {
			return nil
		}
		for i := range rb.RowIDs {
			cont, err := fn(rb.RowIDs[i], rb.Rows[i])
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
		}
	}
}

// Pages returns the number of data pages (the seqscan cost input).
func (t *Table) Pages() int {
	n := int(t.bp.Pager().NumPages())
	if n < 2 {
		return 0
	}
	return n - 2
}

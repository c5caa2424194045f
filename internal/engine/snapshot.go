package engine

import (
	"errors"

	"repro/internal/am"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/obs"
)

// MVCC snapshot machinery. Commit stamps come from one logical clock on
// every engine (mvccClock), seeded at Open above every stamp an earlier
// incarnation can have written; the log records page changes and
// transaction outcomes only. One mutex — mvccMu — orders the four
// operations whose interleaving decides visibility: transaction-id
// allocation, snapshot capture, commit-time deactivation, and the vacuum
// horizon read. The invariant it buys: a snapshot's (ReadLSN, Active) pair
// is consistent — every transaction that deactivated before capture has all
// of its commit stamps strictly below ReadLSN (the clock ticks before the
// stamps are written, and deactivation happens after), and every
// transaction still stamping at capture time is in Active, so its
// partially-stamped versions stay invisible as a unit. That makes commit
// visibility atomic without any read-side locking.

// heldSnap is a registered read view: the snapshot plus its registry key.
// Registered snapshots pin the vacuum horizon; a Dirty view reads page
// heads only and is never registered (id 0).
type heldSnap struct {
	snap *heap.Snapshot
	id   uint64
}

// verStamp is one version a transaction created or ended, remembered so
// commitTx can write the commit stamp into it.
type verStamp struct {
	table *heap.Table
	rid   heap.RowID
	kind  uint8
}

// mvccBegin allocates a transaction id and marks it active. Allocation and
// registration are one critical section so the vacuum horizon capture
// (active set + max allocated id) can never miss a transaction in between.
func (e *Engine) mvccBegin() uint64 {
	e.mvccMu.Lock()
	e.nextTx++
	tx := e.nextTx
	e.mvccActive[tx] = struct{}{}
	e.mvccMu.Unlock()
	return tx
}

// mvccEnd deactivates a transaction. For commits this must run after its
// stamps are written and its commit record appended: every stamp it wrote
// sits below any future snapshot's ReadLSN, so dropping it from Active
// flips all of its versions visible atomically.
func (e *Engine) mvccEnd(tx uint64) {
	e.mvccMu.Lock()
	delete(e.mvccActive, tx)
	e.mvccMu.Unlock()
}

// readPointLocked returns the current snapshot cut: the last stamp handed
// out is Load(), and +1 puts it strictly below the cut while the next
// commit's stamp (Add(1)) is not. Caller holds mvccMu.
func (e *Engine) readPointLocked() uint64 {
	return e.mvccClock.Load() + 1
}

// captureSnapshot builds the read view for tx: the cut point and the
// transactions active right now, atomically against commits. Registered
// views pin the vacuum horizon until released. dirty selects the
// unregistered DIRTY READ view (page heads, no stamps consulted).
func (e *Engine) captureSnapshot(tx uint64, dirty bool) *heldSnap {
	if dirty {
		return &heldSnap{snap: &heap.Snapshot{Tx: tx, Dirty: true}}
	}
	e.mvccMu.Lock()
	defer e.mvccMu.Unlock()
	readLSN := e.readPointLocked()
	act := make(map[uint64]struct{}, len(e.mvccActive))
	for id := range e.mvccActive {
		act[id] = struct{}{}
	}
	e.mvccSnapSeq++
	id := e.mvccSnapSeq
	snap := &heap.Snapshot{ReadLSN: readLSN, Active: act, Tx: tx}
	e.mvccSnaps[id] = snap
	return &heldSnap{snap: snap, id: id}
}

// releaseSnapshot unpins a read view from the vacuum horizon.
func (e *Engine) releaseSnapshot(h *heldSnap) {
	if h == nil || h.id == 0 {
		return
	}
	e.mvccMu.Lock()
	delete(e.mvccSnaps, h.id)
	e.mvccMu.Unlock()
}

// nextStamp ticks the commit clock for a committing transaction that wrote
// versions. The stamp is strictly below the read point of any snapshot
// captured after this commit deactivates. Only writing commits tick, so a
// read-only commit moves no snapshot's cut.
func (e *Engine) nextStamp() uint64 {
	return e.mvccClock.Add(1)
}

// stmtSnapshot returns the read view for the statement being executed,
// capturing it lazily. Write statements (UPDATE/DELETE target scans) always
// get a fresh committed view captured after their table X lock — under any
// isolation level — so they never act on data another transaction replaced
// before the lock was granted (writers are serialised by 2PL; the
// isolation levels govern readers only). Read statements follow the
// session's level: DIRTY READ takes the unregistered head view, COMMITTED
// READ a per-statement view, and REPEATABLE READ / SNAPSHOT one view per
// transaction, captured at its first read.
func (s *Session) stmtSnapshot(write bool) *heap.Snapshot {
	if write {
		if s.curSnap == nil {
			s.curSnap = s.e.captureSnapshot(s.tx, false)
		}
		return s.curSnap.snap
	}
	switch s.vars.Isolation() {
	case lock.DirtyRead:
		if s.curSnap == nil {
			s.curSnap = s.e.captureSnapshot(s.tx, true)
		}
		return s.curSnap.snap
	case lock.RepeatableRead, lock.Snapshot:
		if s.txSnap == nil {
			s.txSnap = s.e.captureSnapshot(s.tx, false)
		}
		return s.txSnap.snap
	default: // CommittedRead
		if s.curSnap == nil {
			s.curSnap = s.e.captureSnapshot(s.tx, false)
		}
		return s.curSnap.snap
	}
}

// releaseStmtSnap drops the statement-scoped read view at statement end.
func (s *Session) releaseStmtSnap() {
	if s.curSnap != nil {
		s.e.releaseSnapshot(s.curSnap)
		s.curSnap = nil
	}
}

// releaseTxSnap drops the transaction-scoped read view at commit/rollback.
func (s *Session) releaseTxSnap() {
	if s.txSnap != nil {
		s.e.releaseSnapshot(s.txSnap)
		s.txSnap = nil
	}
}

// aggGate decides whether an index's am_aggregate answer may stand in for a
// tuple drain under the statement's read view. The index carries one entry
// per heap row regardless of version visibility, so the slot's answer is the
// drain's answer only when every indexed entry is visible to snap. That is
// provable when (a) the table has no dead cells pending reclamation —
// deferred index maintenance means a committed DELETE's entry lingers until
// the vacuum, and a lingering entry resolves to a version this (current)
// snapshot cannot see; (b) the session itself has no pending end-writes —
// its own deletes' entries linger too, and its own snapshot hides the ended
// versions; (c) no transaction other than the session's own is active —
// nobody else's uncommitted index entries exist, and our own inserts are
// visible to our own snapshot; (d) the snapshot's own Active set carries no
// foreign transaction — commitTx ticks the commit clock (advancing the
// read point) before deactivating, so a view captured inside that window
// treats the committer's already-indexed rows as invisible while (c) and
// (e) both pass; (e) the commit clock has not ticked since the snapshot's
// cut — no writing transaction committed after the view was captured (a
// read-only commit, an abort and a checkpoint leave it alone); and (f)
// the snapshot is a real registered view (a DIRTY READ view proves nothing).
// The returned fence is the transaction-id high-water mark; aggGateHolds
// re-checks it after the index traversal, catching transactions that began
// (and possibly inserted, or aborted leaving NoWAL residue) mid-walk — and
// the vacuum, which runs under a transaction of its own, so the dead count
// checked here cannot move unnoticed either. refused names the clause that
// failed (its agg.fallback.<clause> counter), or is gateHolds.
func (e *Engine) aggGate(s *Session, t *heap.Table, snap *heap.Snapshot) (fence uint64, refused obs.ID) {
	if snap == nil || snap.Dirty || snap.ReadLSN == 0 {
		return 0, fallbackGateView
	}
	if t.DeadCount() != 0 {
		return 0, fallbackGateDead
	}
	for _, w := range s.writes {
		if w.kind&heap.StampEnd != 0 && w.table == t {
			return 0, fallbackGateOwnEnds
		}
	}
	for id := range snap.Active {
		if id != s.tx {
			return 0, fallbackGateViewTx
		}
	}
	e.mvccMu.Lock()
	defer e.mvccMu.Unlock()
	for id := range e.mvccActive {
		if id != s.tx {
			return 0, fallbackGateActive
		}
	}
	if e.readPointLocked() > snap.ReadLSN {
		return 0, fallbackGateReadPoint
	}
	return e.nextTx, gateHolds
}

// aggGateHolds re-verifies the gate after the aggregate traversal: the
// world must look exactly as it did at aggGate time — no commit stamped
// since the cut, no foreign activity, and no transaction allocated since
// the fence. It names the refusing clause, or returns gateHolds.
func (e *Engine) aggGateHolds(s *Session, snap *heap.Snapshot, fence uint64) obs.ID {
	e.mvccMu.Lock()
	defer e.mvccMu.Unlock()
	for id := range e.mvccActive {
		if id != s.tx {
			return fallbackHoldsActive
		}
	}
	if e.nextTx != fence || e.readPointLocked() > snap.ReadLSN {
		return fallbackHoldsMoved
	}
	return gateHolds
}

// recordWrite remembers a version the transaction created or ended, for
// commit-time stamping.
func (s *Session) recordWrite(table *heap.Table, rid heap.RowID, kind uint8) {
	s.writes = append(s.writes, verStamp{table: table, rid: rid, kind: kind})
}

// Version vacuum ------------------------------------------------------------

// VacuumNow runs one version-vacuum pass over every table and returns how
// many version cells were reclaimed. The horizon is the oldest registered
// snapshot's cut (or the current read point when none is live); the active
// set is captured consistently with the maximum allocated transaction id,
// so a transaction between allocation and its first write can never have a
// fresh version judged as aborted garbage. Transactions carried in a
// registered snapshot's Active set count as live too: a deleter that
// committed inside such a snapshot's capture window has its end stamp below
// that snapshot's ReadLSN, yet the snapshot still sees the row — the
// endLSN-vs-horizon comparison alone would reclaim it out from under the
// registered reader.
func (e *Engine) VacuumNow() (int, error) {
	e.mvccMu.Lock()
	horizon := e.readPointLocked()
	active := make(map[uint64]struct{}, len(e.mvccActive))
	for id := range e.mvccActive {
		active[id] = struct{}{}
	}
	for _, sn := range e.mvccSnaps {
		if sn.ReadLSN < horizon {
			horizon = sn.ReadLSN
		}
		for id := range sn.Active {
			active[id] = struct{}{}
		}
	}
	maxTx := e.nextTx
	e.mvccMu.Unlock()
	isActive := func(id uint64) bool {
		if id > maxTx {
			return true // allocated after the capture: treat as live
		}
		_, ok := active[id]
		return ok
	}
	e.mu.Lock()
	tables := make([]*heap.Table, 0, len(e.tables))
	for _, t := range e.tables {
		tables = append(tables, t)
	}
	e.mu.Unlock()
	total := 0
	for _, t := range tables {
		if t.DeadCount() == 0 {
			// Nothing to reclaim. Skipping the pass keeps the vacuum's own
			// transaction out of a read-only table's snapshots, where it
			// would refuse every aggregate pushdown (aggGate's clause d).
			continue
		}
		n, err := e.vacuumTable(t, horizon, isActive)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// vacuumTable reclaims one table's dead versions in a short transaction of
// its own session, run as a statement runs: beginTx, the indexes closed,
// then commitTx; Close rolls back a failed or skipped pass. Ending the
// transaction ends its mi context, so transaction-end callbacks run. The
// table X lock keeps writers out (readers need nothing — the horizon
// already proves no registered snapshot can see the victims, and page
// latches keep concurrent decoding safe), and the page edits are WAL-logged
// like any other mutation so recovery's physical redo stays coherent. A
// busy table is skipped rather than waited on.
//
// Because index maintenance is deferred, the vacuum is also where index
// entries die: it opens the table's READY indexes and removes each victim's
// entries (am_delete over the victim's projected row) before the heap slots
// are freed. The index LO locks are taken before the table TryAcquire — a
// writer mid-statement holds the table lock and may be waiting on an index
// LO, so acquiring in the opposite order could deadlock; TryAcquire never
// waits, it just skips the table this tick. A missing entry (am.ErrNoEntry)
// is tolerated: cells dead before an index was built never had one, and a
// NoWAL abort of a half-failed pass may have removed entries it could not
// reclaim cells for.
func (e *Engine) vacuumTable(t *heap.Table, horizon uint64, isActive func(uint64) bool) (int, error) {
	vs := e.NewSession()
	defer vs.Close()
	if err := vs.beginTx(false); err != nil {
		return 0, err
	}
	idxs, closeAll, err := vs.openIndexes(t.Name, false, "")
	if err != nil {
		return 0, err
	}
	if !e.lm.TryAcquire(lock.TxID(vs.tx), lock.Resource{Kind: lock.KindTable, A: uint64(t.SpaceID)}, lock.Exclusive) {
		closeAll()
		return 0, nil
	}
	reclaim := func(victims []heap.Victim) error {
		for _, v := range victims {
			for _, oi := range idxs {
				if oi.ps.Delete == nil {
					// The AM cannot remove entries; they dangle until the
					// index is rebuilt. Scans stay exact (rid resolution
					// skips reclaimed slots) and such AMs are barred from
					// am_aggregate (agg.go), so nothing over-counts.
					continue
				}
				vs.amCall(obs.AmDelete, oi.desc.Name)
				err := oi.ps.Delete(vs.ctx, oi.desc, projectIndexed(oi.desc, v.Row), v.Rid)
				vs.ctx.EndFunction()
				if err != nil && !errors.Is(err, am.ErrNoEntry) {
					return err
				}
			}
		}
		return nil
	}
	n, err := t.Vacuum(vs.tx, horizon, isActive, reclaim)
	closeAll()
	if err == nil {
		err = vs.commitTx()
	}
	if err != nil && e.log != nil {
		return 0, err // Close rolls the pass back
	}
	t.AddDead(-int64(n)) // without a log, freed slots stay free
	return n, err
}

package engine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/wal"
)

// MVCC acceptance tests: snapshot-isolated reads take zero locks, return the
// pre-commit state while writers commit mid-scan (serial and parallel), the
// isolation levels map to the right read views, version chains survive crash
// recovery, and the vacuum reclaims only what no live snapshot can see.

// lockAcquires reads the engine-global lock.acquires counter.
func lockAcquires(e *Engine) uint64 {
	return e.Obs().Counter("lock.acquires").Load()
}

// seedRows creates table mv(a INTEGER, pad VARCHAR(64)) with n committed rows.
func seedRows(t *testing.T, s *Session, n int) {
	t.Helper()
	exec(t, s, `CREATE TABLE mv (a INTEGER, pad VARCHAR(64))`)
	exec(t, s, `BEGIN WORK`)
	for i := 0; i < n; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO mv VALUES (%d, 'padding-%d-abcdefghijklmnopqrstuvwxyz')`, i, i))
	}
	exec(t, s, `COMMIT WORK`)
}

// runMidScanCommit is the acceptance scenario: a reader opens a heap scan,
// pulls the first batch, then a writer session inserts and deletes rows and
// commits — all before the reader finishes. The reader must (a) never touch
// the lock manager and (b) return exactly the pre-commit row count.
func runMidScanCommit(t *testing.T, workers int) {
	t.Helper()
	e := memEngine(t)
	w := e.NewSession()
	defer w.Close()
	const n = 600
	seedRows(t, w, n)

	r := e.NewSession()
	defer r.Close()
	tb, err := r.catTable("mv")
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Table("mv")
	if err != nil {
		t.Fatal(err)
	}

	r.ec = obs.NewExecContext(e.Obs())
	defer func() { r.ec = nil }()
	h := e.captureSnapshot(0, false)
	defer e.releaseSnapshot(h)

	before := lockAcquires(e)
	it, err := r.openBatchScan(tb, table, table.Schema(), nil, accessPath{}, &Plan{}, workers, h.snap)
	if err != nil {
		t.Fatal(err)
	}
	defer it.close()
	count := 0
	rb, err := it.next()
	if err != nil {
		t.Fatal(err)
	}
	if rb == nil {
		t.Fatal("empty first batch")
	}
	count += len(rb.rows)
	if got := lockAcquires(e); got != before {
		t.Fatalf("reader acquired %d locks opening the scan", got-before)
	}

	// Writer commits mid-scan: new rows, and deletions inside the scanned
	// range. Auto-commit statements, fully durable before the reader resumes.
	exec(t, w, `INSERT INTO mv VALUES (10000, 'post-snapshot')`)
	exec(t, w, `DELETE FROM mv WHERE a < 50`)
	afterWriter := lockAcquires(e)

	for {
		rb, err := it.next()
		if err != nil {
			t.Fatal(err)
		}
		if rb == nil {
			break
		}
		count += len(rb.rows)
	}
	if count != n {
		t.Fatalf("snapshot scan saw %d rows, want pre-commit %d", count, n)
	}
	if got := lockAcquires(e); got != afterWriter {
		t.Fatalf("reader acquired %d locks finishing the scan", got-afterWriter)
	}

	// A fresh statement-level read observes the committed writes.
	res := exec(t, w, `SELECT COUNT(*) FROM mv`)
	if got := res.Rows[0][0].(int64); got != n+1-50 {
		t.Fatalf("post-commit count %d, want %d", got, n+1-50)
	}
}

func TestSnapshotScanLockFreeSerial(t *testing.T) { runMidScanCommit(t, 1) }

func TestSnapshotScanLockFreeParallel(t *testing.T) {
	forceParallel(t)
	runMidScanCommit(t, 4)
}

// TestSelectTakesNoLocks proves the SQL-level read path is lock-free: the
// lock.acquires delta across SELECT statements is zero.
func TestSelectTakesNoLocks(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	seedRows(t, s, 40)

	before := lockAcquires(e)
	for i := 0; i < 5; i++ {
		res := exec(t, s, `SELECT COUNT(*) FROM mv WHERE a >= 0`)
		if got := res.Rows[0][0].(int64); got != 40 {
			t.Fatalf("count %d", got)
		}
	}
	if got := lockAcquires(e); got != before {
		t.Fatalf("SELECTs acquired %d locks, want 0", got-before)
	}
}

// TestIsolationLevels exercises the level → read-view mapping end to end
// through SQL on two sessions.
func TestIsolationLevels(t *testing.T) {
	e := memEngine(t)
	w := e.NewSession()
	defer w.Close()
	seedRows(t, w, 10)
	r := e.NewSession()
	defer r.Close()

	countR := func() int64 {
		res := exec(t, r, `SELECT COUNT(*) FROM mv`)
		return res.Rows[0][0].(int64)
	}

	// SNAPSHOT: the transaction's first read fixes the view for its whole
	// lifetime, regardless of concurrent commits.
	exec(t, r, `SET ISOLATION TO SNAPSHOT`)
	if r.Isolation() != lock.Snapshot {
		t.Fatalf("iso = %v", r.Isolation())
	}
	exec(t, r, `BEGIN WORK`)
	if got := countR(); got != 10 {
		t.Fatalf("snapshot first read: %d", got)
	}
	exec(t, w, `INSERT INTO mv VALUES (100, 'new')`)
	if got := countR(); got != 10 {
		t.Fatalf("SNAPSHOT tx saw concurrent commit: %d", got)
	}
	exec(t, r, `COMMIT WORK`)
	if got := countR(); got != 11 {
		t.Fatalf("after SNAPSHOT tx end: %d", got)
	}

	// REPEATABLE READ behaves the same on the read side (one view per tx).
	exec(t, r, `SET ISOLATION TO REPEATABLE READ`)
	exec(t, r, `BEGIN WORK`)
	if got := countR(); got != 11 {
		t.Fatalf("rr first read: %d", got)
	}
	exec(t, w, `INSERT INTO mv VALUES (101, 'newer')`)
	if got := countR(); got != 11 {
		t.Fatalf("REPEATABLE READ tx saw concurrent commit: %d", got)
	}
	exec(t, r, `ROLLBACK WORK`)

	// COMMITTED READ: each statement gets a fresh view, so the second read
	// sees the commit; uncommitted writes stay invisible.
	exec(t, r, `SET ISOLATION TO COMMITTED READ`)
	if got := countR(); got != 12 {
		t.Fatalf("committed read: %d", got)
	}
	exec(t, w, `BEGIN WORK`)
	exec(t, w, `INSERT INTO mv VALUES (102, 'uncommitted')`)
	if got := countR(); got != 12 {
		t.Fatalf("COMMITTED READ saw uncommitted row: %d", got)
	}

	// DIRTY READ sees the uncommitted insert.
	exec(t, r, `SET ISOLATION TO DIRTY READ`)
	if got := countR(); got != 13 {
		t.Fatalf("DIRTY READ missed uncommitted row: %d", got)
	}
	exec(t, w, `ROLLBACK WORK`)
	exec(t, r, `SET ISOLATION TO COMMITTED READ`)
	if got := countR(); got != 12 {
		t.Fatalf("after rollback: %d", got)
	}
}

// TestSnapshotWriteConflictVisibility: a SNAPSHOT transaction's own writes
// are visible to itself before commit and stamped atomically at commit.
func TestOwnWritesVisible(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	seedRows(t, s, 5)
	other := e.NewSession()
	defer other.Close()

	exec(t, s, `SET ISOLATION TO SNAPSHOT`)
	exec(t, s, `BEGIN WORK`)
	exec(t, s, `INSERT INTO mv VALUES (50, 'mine')`)
	exec(t, s, `UPDATE mv SET pad = 'changed' WHERE a = 0`)
	res := exec(t, s, `SELECT COUNT(*) FROM mv`)
	if got := res.Rows[0][0].(int64); got != 6 {
		t.Fatalf("own insert invisible: %d", got)
	}
	res = exec(t, s, `SELECT pad FROM mv WHERE a = 0`)
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "changed" {
		t.Fatalf("own update invisible: %+v", res.Rows)
	}
	// Another session sees nothing until commit.
	res = exec(t, other, `SELECT COUNT(*) FROM mv`)
	if got := res.Rows[0][0].(int64); got != 5 {
		t.Fatalf("uncommitted writes leaked: %d", got)
	}
	exec(t, s, `COMMIT WORK`)
	res = exec(t, other, `SELECT pad FROM mv WHERE a = 0`)
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "changed" {
		t.Fatalf("committed update not visible: %+v", res.Rows)
	}
}

// TestVersionChainCrashRecovery: committed version chains survive a crash;
// an in-flight transaction's versions are rolled back by recovery.
func TestVersionChainCrashRecovery(t *testing.T) {
	for _, mode := range crashModes {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := chronon.NewVirtualClock(chronon.MustParse("9/97"))
			e, err := Open(Options{Dir: dir, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			s := e.NewSession()
			seedRows(t, s, 20)
			exec(t, s, `UPDATE mv SET pad = 'v2' WHERE a < 5`)
			exec(t, s, `DELETE FROM mv WHERE a >= 15`)
			// Leave a transaction in flight at the crash: it must disappear.
			exec(t, s, `BEGIN WORK`)
			exec(t, s, `INSERT INTO mv VALUES (999, 'loser')`)
			exec(t, s, `UPDATE mv SET pad = 'loser' WHERE a = 6`)
			mode.crash(e)

			e2, err := Open(Options{Dir: dir, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			s2 := e2.NewSession()
			defer s2.Close()
			res := exec(t, s2, `SELECT COUNT(*) FROM mv`)
			if got := res.Rows[0][0].(int64); got != 15 {
				t.Fatalf("recovered count %d, want 15", got)
			}
			res = exec(t, s2, `SELECT COUNT(*) FROM mv WHERE pad = 'v2'`)
			if got := res.Rows[0][0].(int64); got != 5 {
				t.Fatalf("recovered updated rows %d, want 5", got)
			}
			res = exec(t, s2, `SELECT COUNT(*) FROM mv WHERE pad = 'loser'`)
			if got := res.Rows[0][0].(int64); got != 0 {
				t.Fatalf("loser transaction visible after recovery: %d", got)
			}
			// The recovered heap accepts new versions on the existing chains.
			exec(t, s2, `UPDATE mv SET pad = 'v3' WHERE a = 0`)
			res = exec(t, s2, `SELECT pad FROM mv WHERE a = 0`)
			if len(res.Rows) != 1 || res.Rows[0][0].(string) != "v3" {
				t.Fatalf("post-recovery update: %+v", res.Rows)
			}
		})
	}
}

// TestVacuumReclaimsDeadVersions: the vacuum frees versions below the oldest
// snapshot and leaves pinned ones alone.
func TestVacuumReclaimsDeadVersions(t *testing.T) {
	e := memEngine(t)
	w := e.NewSession()
	defer w.Close()
	seedRows(t, w, 20)

	// Pin a snapshot, then kill half the rows.
	r := e.NewSession()
	defer r.Close()
	exec(t, r, `SET ISOLATION TO SNAPSHOT`)
	exec(t, r, `BEGIN WORK`)
	res := exec(t, r, `SELECT COUNT(*) FROM mv`)
	if got := res.Rows[0][0].(int64); got != 20 {
		t.Fatalf("pinned count %d", got)
	}
	exec(t, w, `DELETE FROM mv WHERE a < 10`)

	vacBase := e.Obs().Counter("mvcc.vacuumed").Load()
	n, err := e.VacuumNow()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("vacuum reclaimed %d versions pinned by a live snapshot", n)
	}
	// The pinned snapshot still sees all 20 rows.
	res = exec(t, r, `SELECT COUNT(*) FROM mv`)
	if got := res.Rows[0][0].(int64); got != 20 {
		t.Fatalf("pinned snapshot after vacuum: %d", got)
	}
	exec(t, r, `COMMIT WORK`)

	// Snapshot released: the dead versions fall below the horizon.
	n, err = e.VacuumNow()
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("vacuum reclaimed %d versions, want 10", n)
	}
	if got := e.Obs().Counter("mvcc.vacuumed").Load() - vacBase; got != 10 {
		t.Fatalf("mvcc.vacuumed delta %d, want 10", got)
	}
	res = exec(t, w, `SELECT COUNT(*) FROM mv`)
	if got := res.Rows[0][0].(int64); got != 10 {
		t.Fatalf("post-vacuum count %d", got)
	}
	// Idempotent: nothing left to reclaim.
	if n, _ := e.VacuumNow(); n != 0 {
		t.Fatalf("second vacuum reclaimed %d", n)
	}
}

// TestMvccCounters: versions_created moves on INSERT/UPDATE, versions_skipped
// on snapshot scans over invisible versions.
func TestMvccCounters(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	created := e.Obs().Counter("mvcc.versions_created")
	base := created.Load()
	seedRows(t, s, 8)
	if got := created.Load() - base; got != 8 {
		t.Fatalf("versions_created after seed: %d", got)
	}
	exec(t, s, `UPDATE mv SET pad = 'x' WHERE a = 1`)
	if got := created.Load() - base; got != 9 {
		t.Fatalf("versions_created after update: %d", got)
	}

	skipped := e.Obs().Counter("mvcc.versions_skipped")
	sbase := skipped.Load()
	exec(t, s, `DELETE FROM mv WHERE a = 2`)
	exec(t, s, `SELECT COUNT(*) FROM mv`) // scans past the dead version
	if got := skipped.Load() - sbase; got == 0 {
		t.Fatal("versions_skipped did not move over a dead version")
	}
}

// TestExplainSnapshotLine: EXPLAIN SELECT renders the read view's cut.
func TestExplainSnapshotLine(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	seedRows(t, s, 3)
	res := exec(t, s, `EXPLAIN SELECT a FROM mv WHERE a = 1`)
	if res.Plan == nil || res.Plan.SnapshotLSN == 0 {
		t.Fatalf("EXPLAIN captured no snapshot: %+v", res.Plan)
	}
	var text strings.Builder
	for _, row := range res.Rows {
		text.WriteString(row[0].(string))
		text.WriteByte('\n')
	}
	want := fmt.Sprintf("snapshot=%d", res.Plan.SnapshotLSN)
	if !strings.Contains(text.String(), want) {
		t.Fatalf("EXPLAIN output missing %q:\n%s", want, text.String())
	}
}

// TestSnapshotIsolationUnknownLevelRejected keeps the error path intact.
func TestSetIsolationSnapshotRoundTrip(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	for stmt, want := range map[string]lock.IsolationLevel{
		`SET ISOLATION TO DIRTY READ`:      lock.DirtyRead,
		`SET ISOLATION TO COMMITTED READ`:  lock.CommittedRead,
		`SET ISOLATION TO REPEATABLE READ`: lock.RepeatableRead,
		`SET ISOLATION SNAPSHOT`:           lock.Snapshot,
	} {
		exec(t, s, stmt)
		if s.Isolation() != want {
			t.Fatalf("%s: iso %v, want %v", stmt, s.Isolation(), want)
		}
	}
}

// TestVacuumSparesSnapshotActiveWindow reproduces the commit-window race: a
// snapshot captured after a deleter wrote its commit stamps (and its commit
// record) but before its deactivation carries the deleter in Active, so it
// still sees the deleted row even though the stamp sits below the snapshot's
// ReadLSN. The vacuum must treat every transaction pinned in a registered
// snapshot's Active set as live, or it reclaims the row out from under the
// registered reader.
func TestVacuumSparesSnapshotActiveWindow(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	seedRows(t, s, 1)
	table, err := e.Table("mv")
	if err != nil {
		t.Fatal(err)
	}
	var rid heap.RowID
	if err := table.Scan(func(r heap.RowID, _ []types.Datum) (bool, error) { rid = r; return false, nil }); err != nil {
		t.Fatal(err)
	}

	// Deleter, driven through commitTx's exact sequence but paused inside
	// the window between CommitWith and mvccEnd.
	tx := e.mvccBegin()
	if _, err := e.log.Begin(tx); err != nil {
		t.Fatal(err)
	}
	if ok, err := table.Delete(tx, rid); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if err := table.StampVersion(tx, rid, heap.StampEnd, e.nextStamp()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.log.CommitWith(tx, wal.CommitGroup); err != nil {
		t.Fatal(err)
	}
	table.AddDead(1)                 // commitTx counts the ended version before mvccEnd
	h := e.captureSnapshot(0, false) // captured inside the window
	defer e.releaseSnapshot(h)
	e.mvccEnd(tx)

	if _, ok := h.snap.Active[tx]; !ok {
		t.Fatal("setup: snapshot must carry the committing deleter in Active")
	}
	if _, ok, err := table.GetVersion(rid, h.snap); err != nil || !ok {
		t.Fatalf("snapshot must still see the deleted row: %v %v", ok, err)
	}
	if n, err := e.VacuumNow(); err != nil || n != 0 {
		t.Fatalf("vacuum reclaimed %d versions visible to a registered snapshot (err %v)", n, err)
	}
	if _, ok, err := table.GetVersion(rid, h.snap); err != nil || !ok {
		t.Fatalf("row vanished under the registered snapshot: %v %v", ok, err)
	}

	// Released, the version falls below the horizon and is reclaimed.
	e.releaseSnapshot(h)
	if n, err := e.VacuumNow(); err != nil || n != 1 {
		t.Fatalf("post-release vacuum reclaimed %d, want 1 (err %v)", n, err)
	}
}

// TestNoWALRollbackStampRepair: a NoWAL ROLLBACK cannot physically undo the
// aborted deleter's end stamp; a following DELETE/UPDATE must repair the
// abandoned stamp inline instead of reading the row as "already ended" (a
// silent 0-row DELETE, an ErrNoSuchRow UPDATE) until the next vacuum pass.
func TestNoWALRollbackStampRepair(t *testing.T) {
	e, err := Open(Options{
		Clock:          chronon.NewVirtualClock(chronon.MustParse("9/97")),
		NoWAL:          true,
		VacuumInterval: -1, // no daemon: nothing repairs the stamps for us
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	s := e.NewSession()
	defer s.Close()
	seedRows(t, s, 2)

	exec(t, s, `BEGIN WORK`)
	exec(t, s, `DELETE FROM mv WHERE a = 0`)
	exec(t, s, `UPDATE mv SET pad = 'doomed' WHERE a = 1`)
	exec(t, s, `ROLLBACK WORK`)

	// The rows are still visible...
	res := exec(t, s, `SELECT COUNT(*) FROM mv`)
	if got := res.Rows[0][0].(int64); got != 2 {
		t.Fatalf("post-rollback count %d, want 2", got)
	}
	// ...and immediately writable again.
	if res := exec(t, s, `UPDATE mv SET pad = 'second try' WHERE a = 0`); res.Affected != 1 {
		t.Fatalf("update after rollback affected %d rows, want 1", res.Affected)
	}
	if res := exec(t, s, `DELETE FROM mv WHERE a = 1`); res.Affected != 1 {
		t.Fatalf("delete after rollback affected %d rows, want 1", res.Affected)
	}
	res = exec(t, s, `SELECT pad FROM mv WHERE a = 0`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "second try" {
		t.Fatalf("post-repair row: %+v", res.Rows)
	}
}

// noWALEngine opens a log-less memory engine with the vacuum off, so every
// version a rollback or failed statement leaves behind stays in the heap.
func noWALEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(Options{
		Clock:          chronon.NewVirtualClock(chronon.MustParse("9/97")),
		NoWAL:          true,
		VacuumInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestNoWALUndoFailedStatement: without a log, a failed statement of an
// explicit transaction still takes back the rows it wrote before failing,
// its garbage counts as dead for the aggregate gate, and the transaction's
// earlier work commits.
func TestNoWALUndoFailedStatement(t *testing.T) {
	e := noWALEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER, b VARCHAR(8))`)
	exec(t, s, `INSERT INTO t VALUES (7, 'k')`)
	exec(t, s, `BEGIN WORK`)
	exec(t, s, `UPDATE t SET b = 'u' WHERE a = 7`)
	if _, err := s.Exec(`INSERT INTO t VALUES (1, 'x'), ('bad', 'y')`); err == nil {
		t.Fatal("a non-integer value must fail the INSERT")
	}
	if _, err := s.Exec(`UPDATE t SET a = 'bad' WHERE a = 7`); err == nil {
		t.Fatal("a non-integer value must fail the UPDATE")
	}
	if got := e.tables["t"].DeadCount(); got != 1 {
		t.Fatalf("dead count after the failed INSERT: %d, want 1 (its first row)", got)
	}
	if res := exec(t, s, `SELECT a, b FROM t`); fmt.Sprint(res.Rows) != "[[7 u]]" {
		t.Fatalf("inside the transaction: %v, want [[7 u]]", res.Rows)
	}
	exec(t, s, `COMMIT WORK`)
	if res := exec(t, s, `SELECT a, b FROM t`); fmt.Sprint(res.Rows) != "[[7 u]]" {
		t.Fatalf("after COMMIT: %v, want [[7 u]]", res.Rows)
	}
	// The same failure outside BEGIN WORK rolls the whole statement back.
	if _, err := s.Exec(`INSERT INTO t VALUES (1, 'x'), ('bad', 'y')`); err == nil {
		t.Fatal("a non-integer value must fail the INSERT")
	}
	if res := exec(t, s, `SELECT COUNT(*) FROM t`); res.Rows[0][0] != int64(1) {
		t.Fatalf("after a failed autocommit INSERT: %v rows, want 1", res.Rows[0][0])
	}
	if n, err := e.VacuumNow(); err != nil || n != 3 {
		t.Fatalf("vacuum reclaimed %d versions (err %v), want 3: the old (7, k) and two taken-back (1, x)", n, err)
	}
	if got := e.tables["t"].DeadCount(); got != 0 {
		t.Fatalf("dead count after the vacuum: %d, want 0", got)
	}
}

// TestNoWALUndoDirtyRead: a log-less ROLLBACK takes back its own versions,
// so even a DIRTY READ, which ignores commit stamps, sees the rows as they
// were before the transaction: not its insert, and still the row it deleted.
func TestNoWALUndoDirtyRead(t *testing.T) {
	e := noWALEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER)`)
	exec(t, s, `INSERT INTO t VALUES (1), (2)`)
	exec(t, s, `BEGIN WORK`)
	exec(t, s, `INSERT INTO t VALUES (3)`)
	exec(t, s, `DELETE FROM t WHERE a = 1`)
	exec(t, s, `ROLLBACK WORK`)

	r := e.NewSession()
	defer r.Close()
	exec(t, r, `SET ISOLATION TO DIRTY READ`)
	if res := exec(t, r, `SELECT a FROM t`); fmt.Sprint(res.Rows) != "[[1] [2]]" {
		t.Fatalf("DIRTY READ after ROLLBACK: %v, want [[1] [2]]", res.Rows)
	}
	if res := exec(t, s, `SELECT a FROM t`); fmt.Sprint(res.Rows) != "[[1] [2]]" {
		t.Fatalf("COMMITTED READ after ROLLBACK: %v, want [[1] [2]]", res.Rows)
	}
}

// TestTxIDsDoNotRepeatAfterReadOnlyTraffic: Open seeds the transaction ids
// and the commit clock above every id and stamp a previous incarnation took,
// including the ids of the read-only autocommit statements that ended its
// run. The run takes more ids than the log holds bytes, so a seed that
// counted only what the log grew by would repeat ids here if read-only
// statements stopped appending BEGIN and COMMIT, and a version header could
// name two transactions.
func TestTxIDsDoNotRepeatAfterReadOnlyTraffic(t *testing.T) {
	opts := Options{Dir: t.TempDir(), Clock: chronon.NewVirtualClock(chronon.MustParse("9/97")),
		CheckpointInterval: -1, VacuumInterval: -1}
	// taken is the highest transaction id and commit stamp handed out.
	taken := func(e *Engine) (tx, stamp uint64) {
		e.mvccMu.Lock()
		defer e.mvccMu.Unlock()
		return e.nextTx, e.mvccClock.Load()
	}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	exec(t, s, `CREATE TABLE t (a INTEGER)`)
	exec(t, s, `INSERT INTO t VALUES (1)`)
	writeTx, writeStamp := taken(e)
	logged := uint64(e.log.Size())
	// ASYNC: the reads wait for no flush, which keeps the run short.
	exec(t, s, `SET COMMIT TO ASYNC`)
	for i := uint64(0); i < logged+1000; i++ {
		exec(t, s, `SELECT a FROM t`)
	}
	s.Close()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	lastTx, lastStamp := taken(e)
	if lastTx <= logged || lastStamp != writeStamp {
		t.Fatalf("the reads after the write (tx %d, stamp %d, %d log bytes) ended at tx %d, stamp %d: want ids past the log's size, no stamp",
			writeTx, writeStamp, logged, lastTx, lastStamp)
	}

	e2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	seedTx, seedStamp := taken(e2)
	if seedTx < lastTx || seedStamp < lastStamp {
		t.Fatalf("reopened at tx %d, stamp %d: the last incarnation took tx %d, stamp %d", seedTx, seedStamp, lastTx, lastStamp)
	}
	s2 := e2.NewSession()
	defer s2.Close()
	exec(t, s2, `INSERT INTO t VALUES (2)`)
	if tx, stamp := taken(e2); tx <= lastTx || stamp <= lastStamp {
		t.Fatalf("a write after the reopen took tx %d, stamp %d: not above tx %d, stamp %d", tx, stamp, lastTx, lastStamp)
	}
	if res := exec(t, s2, `SELECT a FROM t`); len(res.Rows) != 2 {
		t.Fatalf("after the reopen the table holds %v, want both rows", res.Rows)
	}
}

package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/lock"
	"repro/internal/types"
)

func memEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(Options{Clock: chronon.NewVirtualClock(chronon.MustParse("9/97"))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func exec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return res
}

func TestTableLifecycle(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE emp (id INTEGER, name VARCHAR(32), hired DATE, pay FLOAT, active BOOLEAN)`)
	exec(t, s, `INSERT INTO emp VALUES (1, 'ann', '1997-03-01', 100.5, true)`)
	exec(t, s, `INSERT INTO emp (name, id) VALUES ('bob', 2)`)
	res := exec(t, s, `SELECT id, name, hired, pay, active FROM emp WHERE id = 1`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row[0] != int64(1) || row[1] != "ann" || row[2] != chronon.FromDate(1997, 3, 1) ||
		row[3] != 100.5 || row[4] != true {
		t.Fatalf("row: %v", row)
	}
	// Partial insert leaves NULLs.
	res = exec(t, s, `SELECT pay FROM emp WHERE id = 2`)
	if res.Rows[0][0] != nil {
		t.Fatalf("null: %v", res.Rows[0][0])
	}
	// Comparisons, AND/OR/NOT, date-vs-string harmonisation.
	res = exec(t, s, `SELECT name FROM emp WHERE hired >= '1997-01-01' AND pay > 50`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "ann" {
		t.Fatalf("filter: %v", res.Rows)
	}
	res = exec(t, s, `SELECT name FROM emp WHERE NOT id = 1 OR pay < 0`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "bob" {
		t.Fatalf("not/or: %v", res.Rows)
	}
	// Update and delete.
	exec(t, s, `UPDATE emp SET pay = 200.0 WHERE name = 'ann'`)
	res = exec(t, s, `SELECT pay FROM emp WHERE id = 1`)
	if res.Rows[0][0] != 200.0 {
		t.Fatalf("update: %v", res.Rows[0][0])
	}
	res = exec(t, s, `DELETE FROM emp WHERE id = 2`)
	if res.Affected != 1 {
		t.Fatal("delete")
	}
	res = exec(t, s, `SELECT COUNT(*) FROM emp`)
	if res.Rows[0][0] != int64(1) {
		t.Fatalf("count: %v", res.Rows[0][0])
	}
	exec(t, s, `DROP TABLE emp`)
	if _, err := s.Exec(`SELECT * FROM emp`); err == nil {
		t.Fatal("select from dropped table must fail")
	}
}

func TestErrors(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER)`)
	// A row must exist for per-row WHERE evaluation errors to surface.
	exec(t, s, `INSERT INTO t VALUES (42)`)
	for _, bad := range []string{
		`CREATE TABLE t (a INTEGER)`,            // duplicate
		`CREATE TABLE u (a NOSUCHTYPE)`,         // unknown type
		`INSERT INTO t VALUES (1, 2)`,           // arity
		`INSERT INTO missing VALUES (1)`,        // missing table
		`INSERT INTO t (nope) VALUES (1)`,       // missing column
		`INSERT INTO t VALUES ('not an int')`,   // coercion
		`SELECT nope FROM t`,                    // missing column
		`SELECT a FROM t WHERE a`,               // non-boolean where
		`SELECT a FROM t WHERE nosuchfn(a, 1)`,  // missing function
		`UPDATE t SET nope = 1`,                 // missing column
		`COMMIT`,                                // no tx
		`ROLLBACK`,                              // no tx
		`SET ISOLATION TO NONSENSE LEVEL HERE`,  // bad level
		`CHECK INDEX missing`,                   // missing index
		`UPDATE STATISTICS FOR INDEX missing`,   // missing index
		`DROP INDEX missing`,                    //
		`DROP TABLE missing`,                    //
		`CREATE INDEX i ON t(a)`,                // no access method
		`CREATE INDEX i ON t(a) USING nosucham`, // unknown am
	} {
		if _, err := s.Exec(bad); err == nil {
			t.Errorf("%s: expected error", bad)
		}
	}
}

func TestExplicitTransactions(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER)`)

	exec(t, s, `BEGIN WORK`)
	exec(t, s, `INSERT INTO t VALUES (1)`)
	exec(t, s, `INSERT INTO t VALUES (2)`)
	if !s.InTx() {
		t.Fatal("must be in tx")
	}
	exec(t, s, `ROLLBACK`)
	res := exec(t, s, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0] != int64(0) {
		t.Fatalf("rollback left %v rows", res.Rows[0][0])
	}

	exec(t, s, `BEGIN`)
	exec(t, s, `INSERT INTO t VALUES (3)`)
	exec(t, s, `COMMIT`)
	res = exec(t, s, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0] != int64(1) {
		t.Fatalf("commit: %v", res.Rows[0][0])
	}
	// Nested BEGIN fails.
	exec(t, s, `BEGIN`)
	if _, err := s.Exec(`BEGIN`); err == nil {
		t.Fatal("nested BEGIN must fail")
	}
	exec(t, s, `COMMIT`)
}

func TestRollbackOfUpdatesAndDeletes(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER, b VARCHAR(16))`)
	exec(t, s, `INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')`)

	exec(t, s, `BEGIN`)
	exec(t, s, `UPDATE t SET b = 'changed' WHERE a = 1`)
	exec(t, s, `DELETE FROM t WHERE a = 2`)
	exec(t, s, `ROLLBACK`)

	res := exec(t, s, `SELECT b FROM t WHERE a = 1`)
	if res.Rows[0][0] != "one" {
		t.Fatalf("update not rolled back: %v", res.Rows[0][0])
	}
	res = exec(t, s, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0] != int64(3) {
		t.Fatalf("delete not rolled back: %v", res.Rows[0][0])
	}
}

func TestSessionCloseRollsBack(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	exec(t, s, `CREATE TABLE t (a INTEGER)`)
	exec(t, s, `BEGIN`)
	exec(t, s, `INSERT INTO t VALUES (1)`)
	s.Close()
	s2 := e.NewSession()
	defer s2.Close()
	res := exec(t, s2, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0] != int64(0) {
		t.Fatalf("session close must roll back: %v", res.Rows[0][0])
	}
}

func TestWriteLockBlocksSecondWriter(t *testing.T) {
	e := memEngine(t)
	s1 := e.NewSession()
	defer s1.Close()
	exec(t, s1, `CREATE TABLE t (a INTEGER)`)
	exec(t, s1, `BEGIN`)
	exec(t, s1, `INSERT INTO t VALUES (1)`)

	s2 := e.NewSession()
	defer s2.Close()
	done := make(chan error, 1)
	go func() {
		_, err := s2.Exec(`INSERT INTO t VALUES (2)`)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("second writer not blocked (err=%v)", err)
	default:
	}
	exec(t, s1, `COMMIT`)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	res := exec(t, s1, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0] != int64(2) {
		t.Fatalf("count: %v", res.Rows[0][0])
	}
}

func TestDirtyReadSkipsLocks(t *testing.T) {
	e := memEngine(t)
	s1 := e.NewSession()
	defer s1.Close()
	exec(t, s1, `CREATE TABLE t (a INTEGER)`)
	exec(t, s1, `BEGIN`)
	exec(t, s1, `INSERT INTO t VALUES (1)`)

	s2 := e.NewSession()
	defer s2.Close()
	exec(t, s2, `SET ISOLATION TO DIRTY READ`)
	res := exec(t, s2, `SELECT COUNT(*) FROM t`) // must not block
	if res.Rows[0][0] != int64(1) {
		t.Fatalf("dirty read: %v", res.Rows[0][0])
	}
	exec(t, s1, `ROLLBACK`)
	if s2.Isolation() != lock.DirtyRead {
		t.Fatal("isolation not set")
	}
}

// crashModes are the two ways a test abandons an engine: with every buffer
// pool written back (the worst case for undo), and with none written back
// (the worst case for redo).
var crashModes = []struct {
	name  string
	crash func(*Engine)
}{
	{"written back", (*Engine).CrashForTesting},
	{"pages lost", (*Engine).CrashLosingPagesForTesting},
}

func TestCrashRecovery(t *testing.T) {
	for _, mode := range crashModes {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			clock := chronon.NewVirtualClock(chronon.MustParse("9/97"))
			e, err := Open(Options{Dir: dir, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			s := e.NewSession()
			exec(t, s, `CREATE TABLE t (a INTEGER, b VARCHAR(8))`)
			exec(t, s, `INSERT INTO t VALUES (1, 'keep')`)
			// An uncommitted transaction must be undone by recovery, whether its
			// pages reached the pager or not. Simulate a crash by abandoning the
			// engine without commit or clean close.
			exec(t, s, `BEGIN`)
			exec(t, s, `INSERT INTO t VALUES (2, 'lose')`)
			mode.crash(e) // abandon without Close

			e2, err := Open(Options{Dir: dir, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			s2 := e2.NewSession()
			defer s2.Close()
			res := exec(t, s2, `SELECT b FROM t`)
			if len(res.Rows) != 1 || res.Rows[0][0] != "keep" {
				t.Fatalf("recovery: %v", res.Rows)
			}
		})
	}
}

// TestCreateTableSurvivesLostPages: a table created and filled by committed
// statements, with no checkpoint since, reopens after a crash that wrote no
// page back. Its header and rows are redone from the log, and the recovered
// header is what Open reads.
func TestCreateTableSurvivesLostPages(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Clock: chronon.NewVirtualClock(chronon.MustParse("9/97")), CheckpointInterval: -1}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	exec(t, s, `CREATE TABLE t (a INTEGER)`)
	exec(t, s, `INSERT INTO t VALUES (1), (2)`)
	e.CrashLosingPagesForTesting()

	e2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	s2 := e2.NewSession()
	defer s2.Close()
	if res := exec(t, s2, `SELECT COUNT(*) FROM t`); res.Rows[0][0] != int64(2) {
		t.Fatalf("after recovery: %v rows, want 2", res.Rows[0][0])
	}
}

// TestRolledBackCreateTableReopens: CREATE TABLE joins its transaction, so
// a rolled-back one is gone, after a reopen too, and the name is free again.
func TestRolledBackCreateTableReopens(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Clock: chronon.NewVirtualClock(chronon.MustParse("9/97"))}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	exec(t, s, `BEGIN WORK`)
	exec(t, s, `CREATE TABLE x (a INTEGER)`)
	exec(t, s, `ROLLBACK WORK`)
	s.Close()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	s2 := e2.NewSession()
	defer s2.Close()
	if _, err := s2.Exec(`INSERT INTO x VALUES (1)`); err == nil {
		t.Fatal("a rolled-back table is still there after a reopen")
	}
	exec(t, s2, `CREATE TABLE x (a INTEGER)`)
	exec(t, s2, `INSERT INTO x VALUES (1)`)
	if res := exec(t, s2, `SELECT COUNT(*) FROM x`); res.Rows[0][0] != int64(1) {
		t.Fatalf("the recreated table counts %v rows, want 1", res.Rows[0][0])
	}
}

// TestCrashRecoveryWithASmallPool: redo writes through buffer pools too small
// for the pages it touches, so its writes evict dirty pages, and each
// eviction forces the log while recovery is still scanning it.
func TestCrashRecoveryWithASmallPool(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Clock: chronon.NewVirtualClock(chronon.MustParse("9/97")),
		PoolPages: 16, CheckpointInterval: -1, VacuumInterval: -1}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	exec(t, s, `CREATE TABLE t (a INTEGER, pad VARCHAR(200))`)
	const n = 2000
	pad := strings.Repeat("x", 200)
	for i := 0; i < n; i += 100 {
		values := make([]string, 100)
		for j := range values {
			values[j] = fmt.Sprintf("(%d, '%s')", i+j, pad)
		}
		exec(t, s, `INSERT INTO t VALUES `+strings.Join(values, ", "))
	}
	e.CrashForTesting()

	type opened struct {
		e   *Engine
		err error
	}
	done := make(chan opened, 1)
	go func() {
		e2, err := Open(opts)
		done <- opened{e2, err}
	}()
	var e2 *Engine
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		e2 = o.e
	case <-time.After(60 * time.Second):
		t.Fatal("recovery deadlocked: an eviction's log flush waited on the redo scan")
	}
	defer e2.Close()
	s2 := e2.NewSession()
	defer s2.Close()
	if res := exec(t, s2, `SELECT COUNT(*) FROM t`); res.Rows[0][0] != int64(n) {
		t.Fatalf("after recovery: %v rows, want %d", res.Rows[0][0], n)
	}
}

func TestMultiSessionVisibility(t *testing.T) {
	e := memEngine(t)
	s1 := e.NewSession()
	defer s1.Close()
	exec(t, s1, `CREATE TABLE t (a INTEGER)`)
	exec(t, s1, `INSERT INTO t VALUES (7)`)
	s2 := e.NewSession()
	defer s2.Close()
	res := exec(t, s2, `SELECT a FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(7) {
		t.Fatalf("cross-session visibility: %v", res.Rows)
	}
}

func TestLargeVolumeAndMultiPage(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER, pad VARCHAR(64))`)
	for i := 0; i < 500; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, '%s')`, i, strings.Repeat("x", 60)))
	}
	res := exec(t, s, `SELECT COUNT(*) FROM t WHERE a >= 250`)
	if res.Rows[0][0] != int64(250) {
		t.Fatalf("count: %v", res.Rows[0][0])
	}
	res = exec(t, s, `DELETE FROM t WHERE a < 100`)
	if res.Affected != 100 {
		t.Fatalf("deleted %d", res.Affected)
	}
	res = exec(t, s, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0] != int64(400) {
		t.Fatalf("count after delete: %v", res.Rows[0][0])
	}
}

func TestFormatResult(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER, b VARCHAR(8))`)
	exec(t, s, `INSERT INTO t VALUES (1, 'x')`)
	res := exec(t, s, `SELECT * FROM t`)
	out := e.FormatResult(res)
	if !strings.Contains(out, "a | b") || !strings.Contains(out, "1 | x") {
		t.Fatalf("format: %q", out)
	}
	if e.FormatResult(nil) != "" {
		t.Fatal("nil result")
	}
	msg := e.FormatResult(&Result{Message: "hello"})
	if !strings.Contains(msg, "hello") {
		t.Fatal("message format")
	}
}

func TestExecScriptStopsOnError(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	_, err := s.ExecScript(`CREATE TABLE t (a INTEGER); INSERT INTO t VALUES ('bad'); INSERT INTO t VALUES (1)`)
	if err == nil {
		t.Fatal("script error must propagate")
	}
	res := exec(t, s, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0] != int64(0) {
		t.Fatal("statements after the failure must not run")
	}
}

func TestTypesHookError(t *testing.T) {
	_, err := Open(Options{Types: func(*types.Registry) error { return fmt.Errorf("boom") }})
	if err == nil {
		t.Fatal("types hook error must propagate")
	}
}

func TestNoWALEngine(t *testing.T) {
	e, err := Open(Options{NoWAL: true, Clock: chronon.Fixed(100)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER)`)
	exec(t, s, `INSERT INTO t VALUES (1)`)
	res := exec(t, s, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0] != int64(1) {
		t.Fatal("no-WAL engine basic flow")
	}
}

package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/chronon"
	"repro/internal/lock"
	"repro/internal/mi"
	"repro/internal/sbspace"
	"repro/internal/storage"
	"repro/internal/wal"
)

// registerRecordingAM registers the in-memory access method recam whose
// am_create also stores an access-method record for the index and whose
// am_drop deletes it: the catalog's AM-record path, driven as a blade
// drives it.
func registerRecordingAM(t *testing.T, e *Engine) {
	t.Helper()
	registerMemEq(t, e)
	registerBuildMemAM(t, e, "recam", "rec", true)
	e.mu.Lock()
	lib := e.libs["usr/functions/rec.bld"]
	e.mu.Unlock()
	create, drop := lib["rec_create"].(am.AmIndexFunc), lib["rec_drop"].(am.AmIndexFunc)
	lib["rec_create"] = am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error {
		if err := create(ctx, id); err != nil {
			return err
		}
		return id.Services.AMRecordPut("recam", id.Name, []byte("handle of "+id.Name))
	})
	lib["rec_drop"] = am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error {
		if err := drop(ctx, id); err != nil {
			return err
		}
		return id.Services.AMRecordDelete("recam", id.Name)
	})
}

func image(t *testing.T, e *Engine) []byte {
	t.Helper()
	raw, err := e.Catalog().Image()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCatalogObjectHandle pins where the catalog image lives: the first
// large object of the system sbspace, space 0, which SQL cannot name.
func TestCatalogObjectHandle(t *testing.T) {
	if want := (sbspace.Handle{Space: 0, Header: 2, ID: 1}); catHandle != want {
		t.Fatalf("catalog handle %v, want %v", catHandle, want)
	}
	e := memEngine(t)
	lo, err := e.catSpace.Open(0, catHandle, sbspace.ReadOnly, lock.DirtyRead)
	if err != nil {
		t.Fatal(err)
	}
	lo.Close()
	if _, err := e.Space(""); err == nil {
		t.Fatal("the system sbspace must not resolve by name")
	}
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER)`)
	if tb, _ := e.Catalog().TableByName("t"); tb.SpaceID != 1 {
		t.Fatalf("the first table got space %d, want 1", tb.SpaceID)
	}
}

// TestRolledBackDropTableKeepsRows: DROP TABLE joins its transaction, so a
// rollback brings the table back with its rows.
func TestRolledBackDropTableKeepsRows(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE y (a INTEGER)`)
	exec(t, s, `INSERT INTO y VALUES (1), (2)`)
	exec(t, s, `BEGIN WORK`)
	exec(t, s, `DROP TABLE y`)
	exec(t, s, `ROLLBACK WORK`)
	if res := exec(t, s, `SELECT COUNT(*) FROM y`); res.Rows[0][0] != int64(2) {
		t.Fatalf("rolled-back drop: %v rows, want 2", res.Rows[0][0])
	}
}

// TestRolledBackCreateIsGone: a rolled-back CREATE leaves nothing behind,
// for a table and for a function alike.
func TestRolledBackCreateIsGone(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	const fn = `CREATE FUNCTION f(INTEGER) RETURNING INTEGER EXTERNAL NAME 'usr/functions/f.bld(f)' LANGUAGE c`
	exec(t, s, `BEGIN WORK`)
	exec(t, s, `CREATE TABLE z (a INTEGER)`)
	exec(t, s, `INSERT INTO z VALUES (1)`)
	exec(t, s, fn)
	exec(t, s, `ROLLBACK WORK`)
	if _, err := s.Exec(`SELECT COUNT(*) FROM z`); err == nil {
		t.Fatal("a rolled-back table is still queryable")
	}
	exec(t, s, fn)
	exec(t, s, `CREATE TABLE z (a INTEGER)`)
}

// TestFailedStatementUndoesItself: a statement that fails inside an
// explicit transaction takes back its own writes, and only its own.
func TestFailedStatementUndoesItself(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER, b VARCHAR(8))`)
	exec(t, s, `BEGIN WORK`)
	exec(t, s, `INSERT INTO t VALUES (0, 'kept')`)
	if _, err := s.Exec(`INSERT INTO t VALUES (1, 'x'), ('bad', 'y')`); err == nil {
		t.Fatal("a non-integer value must fail the INSERT")
	}
	if _, err := s.Exec(`CREATE TABLE t (a INTEGER)`); err == nil {
		t.Fatal("a duplicate CREATE TABLE must fail")
	}
	exec(t, s, `COMMIT WORK`)
	res := exec(t, s, `SELECT b FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0] != "kept" {
		t.Fatalf("after the failed statement: %v, want only the row before it", res.Rows)
	}
}

// TestDroppedTableReopensAfterACrash: the log of a dropped table still names
// its space; the space's file is there at the next Open, in either crash
// mode, and the name can be used again.
func TestDroppedTableReopensAfterACrash(t *testing.T) {
	for _, mode := range crashModes {
		t.Run(mode.name, func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Clock: chronon.NewVirtualClock(chronon.MustParse("9/97"))}
			e, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			s := e.NewSession()
			exec(t, s, `CREATE TABLE t (a INTEGER)`)
			exec(t, s, `INSERT INTO t VALUES (1), (2)`)
			exec(t, s, `DROP TABLE t`)
			mode.crash(e)

			e2, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			s2 := e2.NewSession()
			defer s2.Close()
			if _, err := s2.Exec(`SELECT COUNT(*) FROM t`); err == nil {
				t.Fatal("the dropped table came back")
			}
			exec(t, s2, `CREATE TABLE t (a INTEGER)`)
			if res := exec(t, s2, `SELECT COUNT(*) FROM t`); res.Rows[0][0] != int64(0) {
				t.Fatalf("recreated table: %v rows", res.Rows[0][0])
			}
		})
	}
}

// TestRecreateDroppedTable: a table recreated under a dropped one's name
// gets a space of its own; the dropped table's file stays.
func TestRecreateDroppedTable(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), Clock: chronon.NewVirtualClock(chronon.MustParse("9/97"))})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER)`)
	exec(t, s, `INSERT INTO t VALUES (1)`)
	exec(t, s, `DROP TABLE t`)
	exec(t, s, `CREATE TABLE t (a INTEGER)`)
	exec(t, s, `INSERT INTO t VALUES (2)`)
	if res := exec(t, s, `SELECT a FROM t`); len(res.Rows) != 1 || res.Rows[0][0] != int64(2) {
		t.Fatalf("recreated table: %v", res.Rows)
	}
}

// TestDropTableWaitsForWriters: DROP TABLE takes the table's exclusive lock,
// so it waits for an uncommitted INSERT and then succeeds, and the writer's
// commit is not into a dropped table.
func TestDropTableWaitsForWriters(t *testing.T) {
	e := memEngine(t)
	w, d := e.NewSession(), e.NewSession()
	defer w.Close()
	defer d.Close()
	exec(t, w, `CREATE TABLE w (a INTEGER)`)
	exec(t, w, `BEGIN WORK`)
	exec(t, w, `INSERT INTO w VALUES (1)`)
	done := make(chan error, 1)
	go func() {
		_, err := d.Exec(`DROP TABLE w`)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("DROP TABLE returned (%v) while an INSERT was uncommitted", err)
	case <-time.After(100 * time.Millisecond):
	}
	exec(t, w, `COMMIT WORK`)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("DROP TABLE after the writer committed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DROP TABLE still waits after the writer committed")
	}
	if _, err := w.Exec(`SELECT COUNT(*) FROM w`); err == nil {
		t.Fatal("the dropped table is still there")
	}
}

// TestCreateTableHoldsItsTable: other sessions see a table created in an
// open transaction, but their writes wait until the CREATE resolves, so a
// rollback takes no committed row with it.
func TestCreateTableHoldsItsTable(t *testing.T) {
	e := memEngine(t)
	c, w := e.NewSession(), e.NewSession()
	defer c.Close()
	defer w.Close()
	exec(t, c, `BEGIN WORK`)
	exec(t, c, `CREATE TABLE n (a INTEGER)`)
	done := make(chan error, 1)
	go func() {
		_, err := w.Exec(`INSERT INTO n VALUES (1)`)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("INSERT returned (%v) while CREATE TABLE was uncommitted", err)
	case <-time.After(100 * time.Millisecond):
	}
	exec(t, c, `ROLLBACK WORK`)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("an INSERT into a rolled-back table committed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("INSERT still waits after the CREATE rolled back")
	}
	exec(t, c, `CREATE TABLE n (a INTEGER)`)
	if res := exec(t, c, `SELECT COUNT(*) FROM n`); res.Rows[0][0] != int64(0) {
		t.Fatalf("recreated table: %v rows", res.Rows[0][0])
	}
}

// TestCrashDuringBootstrap: a first Open that crashed after creating the
// catalog object but before committing it leaves a database the next Open
// bootstraps again and then reopens.
func TestCrashDuringBootstrap(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	pager, err := storage.OpenFilePager(filepath.Join(dir, "space_0.dat"))
	if err != nil {
		t.Fatal(err)
	}
	bp := storage.NewBufferPool(pager, 16)
	bp.Journal = func(tx uint64, page storage.PageID, runs []storage.Run) error {
		_, err := log.Update(tx, 0, uint64(page), runs)
		return err
	}
	const tx = 5
	if _, err := log.Begin(tx); err != nil {
		t.Fatal(err)
	}
	if h, err := sbspace.New(0, "", bp, lock.New()).Create(tx); err != nil || h != catHandle {
		t.Fatalf("created %v (%v), want %v", h, err, catHandle)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bp.Close(); err != nil {
		t.Fatal(err)
	}
	log.Close()

	opts := Options{Dir: dir, Clock: chronon.NewVirtualClock(chronon.MustParse("9/97"))}
	for round := 0; round < 2; round++ {
		e, err := Open(opts)
		if err != nil {
			t.Fatalf("open %d: %v", round, err)
		}
		s := e.NewSession()
		exec(t, s, fmt.Sprintf(`CREATE TABLE t%d (a INTEGER)`, round))
		exec(t, s, fmt.Sprintf(`INSERT INTO t%d VALUES (1)`, round))
		if round > 0 {
			exec(t, s, `SELECT COUNT(*) FROM t0`)
		}
		s.Close()
		e.CrashLosingPagesForTesting()
	}
}

// TestOpenRefusesTheOldFormat: a directory that holds catalog.json is a
// database of the format before the catalog moved into space 0; Open names
// the file rather than open it as an empty database.
func TestOpenRefusesTheOldFormat(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir, Clock: chronon.NewVirtualClock(chronon.MustParse("9/97"))})
	if err == nil || !strings.Contains(err.Error(), "catalog.json") {
		t.Fatalf("Open of an old-format directory: %v, want an error naming catalog.json", err)
	}
}

// TestDDLRollbackRestoresCatalogImage: for every DDL kind, ROLLBACK WORK
// leaves the catalog image as it was before BEGIN, and the statement can
// run again afterwards.
func TestDDLRollbackRestoresCatalogImage(t *testing.T) {
	for _, ddl := range []string{
		`CREATE TABLE n (a INTEGER)`,
		`CREATE FUNCTION g(INTEGER) RETURNING INTEGER EXTERNAL NAME 'usr/functions/g.bld(g)' LANGUAGE c`,
		`CREATE SECONDARY ACCESS_METHOD recam2 (am_open = rec_open, am_close = rec_close,
			am_beginscan = rec_beginscan, am_endscan = rec_endscan, am_getnext = rec_getnext, am_sptype = 'S')`,
		`CREATE OPCLASS rec_ops2 FOR recam STRATEGIES(MemEq)`,
		`CREATE SBSPACE spc2`,
		`DROP TABLE dt`,
		`DROP INDEX base_ix`,
		`UPDATE STATISTICS FOR TABLE base`,
	} {
		t.Run(strings.Fields(ddl)[0]+"_"+strings.Fields(ddl)[1], func(t *testing.T) {
			e := memEngine(t)
			registerRecordingAM(t, e)
			s := e.NewSession()
			defer s.Close()
			exec(t, s, `CREATE TABLE base (a INTEGER)`)
			exec(t, s, `INSERT INTO base VALUES (7)`)
			exec(t, s, `CREATE INDEX base_ix ON base(a) USING recam`)
			exec(t, s, `CREATE TABLE dt (a INTEGER)`)
			exec(t, s, `INSERT INTO dt VALUES (1)`)
			before := image(t, e)
			exec(t, s, `BEGIN WORK`)
			exec(t, s, ddl)
			if bytes.Equal(image(t, e), before) {
				t.Fatal("the statement did not change the catalog")
			}
			exec(t, s, `ROLLBACK WORK`)
			if after := image(t, e); !bytes.Equal(after, before) {
				t.Fatalf("image after ROLLBACK:\n%s\nwant:\n%s", after, before)
			}
			exec(t, s, ddl)
		})
	}
}

// TestNoWALRefusesDDLInATransaction: without a log nothing can undo a
// catalog change, so a NoWAL engine refuses DDL inside BEGIN WORK, changing
// nothing, and the transaction's own rows still roll back. Autocommit DDL
// runs as before.
func TestNoWALRefusesDDLInATransaction(t *testing.T) {
	for _, ddl := range []string{
		`CREATE TABLE n (a INTEGER)`,
		`CREATE FUNCTION g(INTEGER) RETURNING INTEGER EXTERNAL NAME 'usr/functions/g.bld(g)' LANGUAGE c`,
		`CREATE SECONDARY ACCESS_METHOD recam2 (am_open = rec_open, am_close = rec_close,
			am_beginscan = rec_beginscan, am_endscan = rec_endscan, am_getnext = rec_getnext, am_sptype = 'S')`,
		`CREATE OPCLASS rec_ops2 FOR recam STRATEGIES(MemEq)`,
		`CREATE SBSPACE spc2`,
		`DROP TABLE dt`,
		`DROP INDEX base_ix`,
		`UPDATE STATISTICS FOR TABLE base`,
	} {
		t.Run(strings.Fields(ddl)[0]+"_"+strings.Fields(ddl)[1], func(t *testing.T) {
			e := noWALEngine(t)
			registerRecordingAM(t, e)
			s := e.NewSession()
			defer s.Close()
			exec(t, s, `CREATE TABLE base (a INTEGER)`)
			exec(t, s, `INSERT INTO base VALUES (7)`)
			exec(t, s, `CREATE INDEX base_ix ON base(a) USING recam`)
			exec(t, s, `CREATE TABLE dt (a INTEGER)`)
			exec(t, s, `INSERT INTO dt VALUES (1)`)
			before := image(t, e)
			exec(t, s, `BEGIN WORK`)
			exec(t, s, `INSERT INTO dt VALUES (2)`)
			if _, err := s.Exec(ddl); ErrorCode(err) != CodeActiveTx {
				t.Fatalf("DDL inside BEGIN WORK: %v, want SQLSTATE %s", err, CodeActiveTx)
			}
			if after := image(t, e); !bytes.Equal(after, before) {
				t.Fatalf("image after the refused statement:\n%s\nwant:\n%s", after, before)
			}
			exec(t, s, `ROLLBACK WORK`)
			if res := exec(t, s, `SELECT a FROM dt`); fmt.Sprint(res.Rows) != "[[1]]" {
				t.Fatalf("dt after ROLLBACK: %v, want [[1]]", res.Rows)
			}
			exec(t, s, ddl)
		})
	}
}

// TestCatalogSurvivesReopenAndCrashes: every catalog kind — tables,
// functions, access methods, operator classes, sbspaces, indexes, AM records
// and SYSSTATS — survives a clean reopen and both crash modes, and DDL left
// uncommitted at the crash is gone.
func TestCatalogSurvivesReopenAndCrashes(t *testing.T) {
	modes := append([]struct {
		name  string
		crash func(*Engine)
	}{{"closed", func(e *Engine) { e.Close() }}}, crashModes...)
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), Clock: chronon.NewVirtualClock(chronon.MustParse("9/97"))}
			e, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			registerRecordingAM(t, e)
			s := e.NewSession()
			exec(t, s, `CREATE SBSPACE spc`)
			exec(t, s, `CREATE TABLE p (a INTEGER)`)
			exec(t, s, `INSERT INTO p VALUES (7)`)
			exec(t, s, `CREATE INDEX p_ix ON p(a) USING recam`)
			exec(t, s, `UPDATE STATISTICS FOR TABLE p`)
			want := image(t, e)
			if _, ok := e.Catalog().AMRecordGet("recam", "p_ix"); !ok || e.Catalog().StatsGet("p") == nil {
				t.Fatal("setup made no AM record or no statistics")
			}
			exec(t, s, `BEGIN WORK`)
			exec(t, s, `CREATE TABLE u (a INTEGER)`)
			exec(t, s, `DROP INDEX p_ix`)
			exec(t, s, `CREATE SBSPACE spc2`)
			if mode.name == "closed" {
				s.Close() // rolls the open transaction back
			}
			mode.crash(e)

			e2, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			for _, path := range []string{"usr/functions/memeq.bld", "usr/functions/rec.bld"} {
				e2.LoadLibrary(path, e.libs[path])
			}
			if got := image(t, e2); !bytes.Equal(got, want) {
				t.Fatalf("catalog after reopen:\n%s\nwant:\n%s", got, want)
			}
			if _, err := e2.Space("spc"); err != nil {
				t.Fatal(err)
			}
			if _, err := e2.Space("spc2"); err == nil {
				t.Fatal("an uncommitted sbspace survived")
			}
			s2 := e2.NewSession()
			defer s2.Close()
			if res := exec(t, s2, `SELECT COUNT(*) FROM p`); res.Rows[0][0] != int64(1) {
				t.Fatalf("p: %v rows", res.Rows[0][0])
			}
			if _, err := s2.Exec(`SELECT COUNT(*) FROM u`); err == nil {
				t.Fatal("an uncommitted table survived")
			}
		})
	}
}

// TestBuildLatchDeadlockIsDetected: a build that holds the catalog lock and
// waits at its table latch, and a writer that holds the table and asks for
// the catalog, form a cycle the deadlock detector sees — because the latch
// is the build's own transaction's lock. One statement fails as a deadlock;
// neither hangs.
func TestBuildLatchDeadlockIsDetected(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerBuildMemAM(t, e, "dlam", "dl", true)
	c, b := e.NewSession(), e.NewSession()
	defer c.Close()
	defer b.Close()
	exec(t, c, `CREATE TABLE T (a INTEGER)`)
	exec(t, c, `BEGIN WORK`)
	exec(t, c, `INSERT INTO T VALUES (1)`)
	built := make(chan error, 1)
	go func() {
		_, err := b.Exec(`CREATE INDEX t_ix ON T(a) USING dlam`)
		built <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.LockManager().WaiterCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the build never waited at its latch")
		}
		time.Sleep(time.Millisecond)
	}
	_, errC := c.Exec(`CREATE TABLE u (a INTEGER)`)
	exec(t, c, `COMMIT WORK`)
	var errB error
	select {
	case errB = <-built:
	case <-time.After(5 * time.Second):
		t.Fatal("the build hangs")
	}
	if errors.Is(errB, lock.ErrDeadlock) == errors.Is(errC, lock.ErrDeadlock) {
		t.Fatalf("want exactly one deadlock: build %v, writer %v", errB, errC)
	}
}

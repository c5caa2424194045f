package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/chronon"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/types"
)

// registerBuildMemAM installs an in-memory access method with the full
// mutation surface (insert/delete/update) and, with withBuild, an am_build
// bulk-load slot — the engine-level stand-in for the tree blades when
// testing the online build machinery. Entries live in a mutex-guarded map
// keyed by index name, so concurrent sessions may race under -race.
func registerBuildMemAM(t *testing.T, e *Engine, amName, prefix string, withBuild bool) {
	t.Helper()
	var mu sync.Mutex
	store := map[string][]memEntry{}

	key := func(row []types.Datum) (int64, error) {
		k, ok := row[0].(int64)
		if !ok {
			return 0, fmt.Errorf("%s: expected INTEGER key, got %T", prefix, row[0])
		}
		return k, nil
	}
	lib := am.Library{
		prefix + "_create": am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error {
			mu.Lock()
			store[id.Name] = nil
			mu.Unlock()
			return nil
		}),
		prefix + "_drop": am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error {
			mu.Lock()
			delete(store, id.Name)
			mu.Unlock()
			return nil
		}),
		prefix + "_open":  am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		prefix + "_close": am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		prefix + "_check": am.AmCheckFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		prefix + "_insert": am.AmMutateFunc(func(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
			k, err := key(row)
			if err != nil {
				return err
			}
			mu.Lock()
			store[id.Name] = append(store[id.Name], memEntry{key: k, rid: rid})
			mu.Unlock()
			return nil
		}),
		prefix + "_delete": am.AmMutateFunc(func(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
			k, err := key(row)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			ents := store[id.Name]
			for i, en := range ents {
				if en.key == k && en.rid == rid {
					store[id.Name] = append(ents[:i], ents[i+1:]...)
					return nil
				}
			}
			return fmt.Errorf("%s: index %s has no entry %d at %v", prefix, id.Name, k, rid)
		}),
		prefix + "_beginscan": am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error {
			leaves := sd.Qual.Leaves()
			if len(leaves) != 1 {
				return fmt.Errorf("%s: want a single MemEq leaf", prefix)
			}
			want, ok := leaves[0].Const.(int64)
			if !ok {
				return fmt.Errorf("%s: non-integer constant %T", prefix, leaves[0].Const)
			}
			sc := &memScan{}
			mu.Lock()
			for _, en := range store[sd.Index.Name] {
				if en.key == want {
					sc.rids = append(sc.rids, en.rid)
				}
			}
			mu.Unlock()
			sd.UserData = sc
			return nil
		}),
		prefix + "_endscan": am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error {
			sd.UserData = nil
			return nil
		}),
		prefix + "_getnext": am.AmGetNextFunc(func(ctx *mi.Context, sd *am.ScanDesc) (heap.RowID, []types.Datum, bool, error) {
			sc, ok := sd.UserData.(*memScan)
			if !ok {
				return 0, nil, false, fmt.Errorf("%s: getnext without beginscan", prefix)
			}
			if sc.pos >= len(sc.rids) {
				return 0, nil, false, nil
			}
			rid := sc.rids[sc.pos]
			sc.pos++
			return rid, nil, true, nil
		}),
	}
	if withBuild {
		lib[prefix+"_build"] = am.AmBuildFunc(func(ctx *mi.Context, id *am.IndexDesc, next am.AmBuildNext) (int, error) {
			var ents []memEntry
			for {
				b, err := next()
				if err != nil {
					return 0, err
				}
				if b == nil {
					break
				}
				for i := 0; i < b.N; i++ {
					k, err := key(b.Rows[i])
					if err != nil {
						return 0, err
					}
					ents = append(ents, memEntry{key: k, rid: b.RowIDs[i]})
				}
			}
			mu.Lock()
			store[id.Name] = ents
			mu.Unlock()
			return len(ents), nil
		})
	}
	path := "usr/functions/" + prefix + ".bld"
	e.LoadLibrary(path, lib)

	s := e.NewSession()
	defer s.Close()
	slots := []string{"create", "drop", "open", "close", "check", "insert", "delete", "beginscan", "endscan", "getnext"}
	if withBuild {
		slots = append(slots, "build")
	}
	var b strings.Builder
	assigns := make([]string, 0, len(slots)+1)
	for _, slot := range slots {
		fmt.Fprintf(&b, "CREATE FUNCTION %s_%s(pointer) RETURNING int EXTERNAL NAME '%s(%s_%s)' LANGUAGE c;\n",
			prefix, slot, path, prefix, slot)
		assigns = append(assigns, fmt.Sprintf("am_%s = %s_%s", slot, prefix, slot))
	}
	assigns = append(assigns, "am_sptype = 'S'")
	fmt.Fprintf(&b, "CREATE SECONDARY ACCESS_METHOD %s (%s);\n", amName, strings.Join(assigns, ", "))
	fmt.Fprintf(&b, "CREATE OPCLASS %s_ops FOR %s STRATEGIES(MemEq);\n", prefix, amName)
	if _, err := s.ExecScript(b.String()); err != nil {
		t.Fatalf("register %s: %v", amName, err)
	}
}

func keysVia(t *testing.T, s *Session, table string, k int) int {
	t.Helper()
	res := exec(t, s, fmt.Sprintf(`SELECT a FROM %s WHERE MemEq(a, %d)`, table, k))
	return len(res.Rows)
}

// TestCreateIndexSnapshotRegression pins the satellite fix: the historical
// build scanned the heap with a nil snapshot ("latest state, committed or
// not") and no table lock, so another session's in-flight insert could be
// indexed and survive that session's rollback as a phantom. The rewritten
// build latches the table (waiting out in-flight writers) and scans a
// pinned MVCC snapshot, so a rolled-back row can never enter the index.
func TestCreateIndexSnapshotRegression(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerBuildMemAM(t, e, "snapam", "snp", true)

	s1 := e.NewSession()
	defer s1.Close()
	exec(t, s1, `CREATE TABLE snap_t (a INTEGER)`)
	for i := 0; i < 10; i++ {
		exec(t, s1, fmt.Sprintf(`INSERT INTO snap_t VALUES (%d)`, i))
	}

	// Session 2 holds an uncommitted insert (table X lock held to rollback).
	s2 := e.NewSession()
	defer s2.Close()
	exec(t, s2, `BEGIN`)
	exec(t, s2, `INSERT INTO snap_t VALUES (777)`)

	// The build must block on the phase-0 latch behind session 2's lock.
	waits := e.Obs().Snapshot().Get("lock.waits")
	done := make(chan error, 1)
	go func() {
		s3 := e.NewSession()
		defer s3.Close()
		_, err := s3.Exec(`CREATE INDEX snap_ix ON snap_t(a) USING snapam`)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.Obs().Snapshot().Get("lock.waits") == waits {
		if time.Now().After(deadline) {
			t.Fatal("CREATE INDEX never blocked on the writer's table lock")
		}
		time.Sleep(time.Millisecond)
	}
	exec(t, s2, `ROLLBACK`)
	if err := <-done; err != nil {
		t.Fatalf("CREATE INDEX: %v", err)
	}

	// The rolled-back row must not be in the index (the nil-snapshot scan
	// would have indexed it) and the committed rows all must be.
	if got := keysVia(t, s1, "snap_t", 777); got != 0 {
		t.Fatalf("rolled-back row indexed %d time(s)", got)
	}
	for i := 0; i < 10; i++ {
		if got := keysVia(t, s1, "snap_t", i); got != 1 {
			t.Fatalf("key %d: %d rows via index, want 1", i, got)
		}
	}
}

// TestOnlineBuildSideLogCapture drives concurrent DML at the exact build
// stages through the test hook: inserts, deletes and updates land while the
// bulk scan's snapshot is already fixed, so they reach the index only
// through the side log (capture at the writer's commit, replay before
// publish). The index and a sequential scan must then agree on every key.
func TestOnlineBuildSideLogCapture(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerBuildMemAM(t, e, "sideam", "sid", true)

	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE side_t (a INTEGER)`)
	for i := 0; i < 50; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO side_t VALUES (%d)`, i))
	}

	// The writer session runs inside the hook, after the bulk scan (stage
	// "bulk") and after the first catch-up drain (stage "replay") — both
	// lock-free windows where DML must flow through the side log.
	w := e.NewSession()
	defer w.Close()
	e.SetBuildHookForTesting(func(stage string) error {
		switch stage {
		case "bulk":
			if _, err := w.Exec(`INSERT INTO side_t VALUES (100)`); err != nil {
				return err
			}
			if _, err := w.Exec(`DELETE FROM side_t WHERE a = 3`); err != nil {
				return err
			}
			if _, err := w.Exec(`UPDATE side_t SET a = 200 WHERE a = 7`); err != nil {
				return err
			}
			// A rolled-back transaction's captured ops must be dropped.
			if _, err := w.Exec(`BEGIN`); err != nil {
				return err
			}
			if _, err := w.Exec(`INSERT INTO side_t VALUES (300)`); err != nil {
				return err
			}
			if _, err := w.Exec(`ROLLBACK`); err != nil {
				return err
			}
		case "replay":
			if _, err := w.Exec(`INSERT INTO side_t VALUES (400)`); err != nil {
				return err
			}
		}
		return nil
	})
	defer e.SetBuildHookForTesting(nil)

	replayedBefore := e.Obs().Snapshot().Get("idxbuild.sidelog_replayed")
	exec(t, s, `CREATE INDEX side_ix ON side_t(a) USING sideam`)
	e.SetBuildHookForTesting(nil)

	snap := e.Obs().Snapshot()
	if got := snap.Get("idxbuild.rows_bulk"); got < 50 {
		t.Fatalf("idxbuild.rows_bulk = %d, want >= 50", got)
	}
	// Index maintenance is deferred, so only the insert halves reach the
	// side log: insert(100), the update's new version (200), insert(400).
	// The delete of 3 and the update-away of 7 leave their bulk-scanned
	// entries in place; visibility at rid resolution hides them below.
	if got := snap.Get("idxbuild.sidelog_replayed") - replayedBefore; got != 3 {
		t.Fatalf("idxbuild.sidelog_replayed = %d, want 3", got)
	}
	if snap.Get("idxbuild.publish_latch_ns") == 0 {
		t.Fatal("idxbuild.publish_latch_ns not recorded")
	}

	for _, tc := range []struct{ key, want int }{
		{100, 1}, {400, 1}, {200, 1}, // side-log inserts
		{3, 0}, {7, 0}, // side-log delete and update-away
		{300, 0},        // rolled back: never flushed
		{0, 1}, {49, 1}, // bulk-scanned rows
	} {
		if got := keysVia(t, s, "side_t", tc.key); got != tc.want {
			t.Fatalf("key %d: %d rows via index, want %d", tc.key, got, tc.want)
		}
	}
}

// TestOnlineBuildCrashMatrix crashes the engine at each named stage of an
// online build, in both crash modes, and verifies recovery: no BUILDING (or
// half-built) index may be visible after reopen, it must leave no AM
// records, and the table must remain fully usable.
func TestOnlineBuildCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix reopens file-backed engines; skipped in -short")
	}
	for _, stage := range []string{"bulk", "replay", "prepublish"} {
		t.Run(stage, func(t *testing.T) {
			for _, mode := range crashModes {
				t.Run(mode.name, func(t *testing.T) {
					dir := t.TempDir()
					clock := chronon.NewVirtualClock(chronon.MustParse("9/97"))
					e, err := Open(Options{Dir: dir, Clock: clock})
					if err != nil {
						t.Fatal(err)
					}
					registerRecordingAM(t, e) // am_create stores an AM record
					s := e.NewSession()
					exec(t, s, `CREATE TABLE crash_t (a INTEGER)`)
					for i := 0; i < 20; i++ {
						exec(t, s, fmt.Sprintf(`INSERT INTO crash_t VALUES (%d)`, i))
					}

					e.SetBuildHookForTesting(func(at string) error {
						if at == stage {
							mode.crash(e)
							return fmt.Errorf("simulated crash at %s", at)
						}
						return nil
					})
					if _, err := s.Exec(`CREATE INDEX crash_ix ON crash_t(a) USING recam`); err == nil {
						t.Fatalf("CREATE INDEX must fail when the engine crashes at %s", stage)
					}

					e2, err := Open(Options{Dir: dir, Clock: clock})
					if err != nil {
						t.Fatalf("reopen after crash at %s: %v", stage, err)
					}
					defer e2.Close()
					if _, err := e2.Catalog().IndexByName("crash_ix"); err == nil {
						t.Fatalf("half-built index visible after crash at %s", stage)
					}
					for rk := range e2.Catalog().AmRecords {
						if strings.Contains(strings.ToLower(rk), "crash_ix") {
							t.Fatalf("stale AM record %q after crash at %s", rk, stage)
						}
					}
					s2 := e2.NewSession()
					defer s2.Close()
					res := exec(t, s2, `SELECT COUNT(*) FROM crash_t`)
					if res.Rows[0][0] != int64(20) {
						t.Fatalf("table rows after crash at %s: %v", stage, res.Rows[0][0])
					}
					exec(t, s2, `INSERT INTO crash_t VALUES (999)`)
					exec(t, s2, `DELETE FROM crash_t WHERE a = 999`)
				})
			}
		})
	}
}

// TestBuildModesAgree builds the same data through am_build (build=bulk),
// through the forced row-at-a-time fallback (build=insert), and on an AM
// that never bound am_build — all three index paths and the sequential scan
// must agree.
func TestBuildModesAgree(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerBuildMemAM(t, e, "bulkam", "blk", true)
	registerBuildMemAM(t, e, "rowam", "rws", false)
	s := e.NewSession()
	defer s.Close()

	const total, match = 120, 30
	fill := func(table string) {
		exec(t, s, fmt.Sprintf(`CREATE TABLE %s (a INTEGER)`, table))
		for i := 0; i < total; i++ {
			k := i + 1000
			if i < match {
				k = 7
			}
			exec(t, s, fmt.Sprintf(`INSERT INTO %s VALUES (%d)`, table, k))
		}
	}
	fill("mb")
	fill("mi")
	fill("mf")
	fill("mc") // unindexed control

	before := e.Obs().Snapshot().Get("am.am_build")
	exec(t, s, `CREATE INDEX mb_ix ON mb(a) USING bulkam (build='bulk')`)
	if e.Obs().Snapshot().Get("am.am_build") != before+1 {
		t.Fatal("build=bulk did not call am_build")
	}
	exec(t, s, `CREATE INDEX mi_ix ON mi(a) USING bulkam (build='insert')`)
	if e.Obs().Snapshot().Get("am.am_build") != before+1 {
		t.Fatal("build=insert must not call am_build")
	}
	exec(t, s, `CREATE INDEX mf_ix ON mf(a) USING rowam`)

	for _, k := range []int{7, 1000, 1119, 42} {
		want := keysVia(t, s, "mc", k)
		for _, table := range []string{"mb", "mi", "mf"} {
			if got := keysVia(t, s, table, k); got != want {
				t.Fatalf("key %d on %s: %d rows, want %d (seqscan)", k, table, got, want)
			}
		}
	}

	if _, err := s.Exec(`CREATE TABLE bad (a INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`CREATE INDEX bad_ix ON bad(a) USING bulkam (build='sideways')`); err == nil {
		t.Fatal("bad build mode must be rejected")
	}
}

// TestCreateIndexInTransaction pins the explicit-transaction guard: the
// online build releases its table latch mid-statement, which would release
// a table lock the transaction's earlier writes hold, so CREATE INDEX
// inside BEGIN ... COMMIT is rejected outright.
func TestCreateIndexInTransaction(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerBuildMemAM(t, e, "txam", "txa", true)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE tx_t (a INTEGER)`)
	exec(t, s, `INSERT INTO tx_t VALUES (1)`)

	exec(t, s, `BEGIN`)
	if _, err := s.Exec(`CREATE INDEX tx_ix ON tx_t(a) USING txam`); err == nil {
		t.Fatal("CREATE INDEX inside an explicit transaction must fail")
	}
	exec(t, s, `ROLLBACK`)
	if _, err := e.Catalog().IndexByName("tx_ix"); err == nil {
		t.Fatal("rejected CREATE INDEX left a catalog entry")
	}

	// Outside the transaction it works, and the rolled-back row from any
	// prior attempt is absent.
	exec(t, s, `CREATE INDEX tx_ix ON tx_t(a) USING txam`)
	if got := keysVia(t, s, "tx_t", 1); got != 1 {
		t.Fatalf("key 1 via index: %d", got)
	}
}

// TestAlterIndexRebuild exercises ALTER INDEX ... REBUILD: same machinery,
// existing entry, full agreement after the rebuild; plus its error cases.
func TestAlterIndexRebuild(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerBuildMemAM(t, e, "rbam", "rba", true)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE rb_t (a INTEGER)`)
	for i := 0; i < 30; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO rb_t VALUES (%d)`, i%10))
	}
	exec(t, s, `CREATE INDEX rb_ix ON rb_t(a) USING rbam`)
	exec(t, s, `DELETE FROM rb_t WHERE a = 4`)
	exec(t, s, `INSERT INTO rb_t VALUES (77)`)

	res := exec(t, s, `ALTER INDEX rb_ix REBUILD`)
	if res.Message != "index rebuilt" {
		t.Fatalf("message: %q", res.Message)
	}
	for _, tc := range []struct{ key, want int }{{0, 3}, {4, 0}, {77, 1}} {
		if got := keysVia(t, s, "rb_t", tc.key); got != tc.want {
			t.Fatalf("after rebuild key %d: %d rows, want %d", tc.key, got, tc.want)
		}
	}

	if _, err := s.Exec(`ALTER INDEX missing REBUILD`); err == nil {
		t.Fatal("rebuild of a missing index must fail")
	}
	exec(t, s, `BEGIN`)
	if _, err := s.Exec(`ALTER INDEX rb_ix REBUILD`); err == nil {
		t.Fatal("rebuild inside an explicit transaction must fail")
	}
	exec(t, s, `ROLLBACK`)
}

// TestOnlineBuildWriterStress is the -race battery at the engine level:
// writer goroutines hammer the table with inserts, updates and deletes
// while an online build runs; afterwards the index and a sequential scan
// must agree on every key.
func TestOnlineBuildWriterStress(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerBuildMemAM(t, e, "stressam", "str", true)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE str_t (a INTEGER)`)
	for i := 0; i < 200; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO str_t VALUES (%d)`, i%20))
	}

	// Writers run while the build is in its lock-free phase; the hook parks
	// the builder inside the bulk stage until every writer has finished, so
	// the side log sees real concurrent traffic.
	const writers = 4
	var wg sync.WaitGroup
	writerErr := make(chan error, writers)
	started := make(chan struct{})
	e.SetBuildHookForTesting(func(stage string) error {
		if stage == "bulk" {
			close(started)
			wg.Wait()
		}
		return nil
	})
	defer e.SetBuildHookForTesting(nil)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-started
			ws := e.NewSession()
			defer ws.Close()
			for i := 0; i < 25; i++ {
				k := 1000 + w*100 + i
				if _, err := ws.Exec(fmt.Sprintf(`INSERT INTO str_t VALUES (%d)`, k)); err != nil {
					writerErr <- err
					return
				}
				switch i % 3 {
				case 0:
					if _, err := ws.Exec(fmt.Sprintf(`UPDATE str_t SET a = %d WHERE a = %d`, k+5000, k)); err != nil {
						writerErr <- err
						return
					}
				case 1:
					if _, err := ws.Exec(fmt.Sprintf(`DELETE FROM str_t WHERE a = %d`, k)); err != nil {
						writerErr <- err
						return
					}
				}
			}
		}(w)
	}

	exec(t, s, `CREATE INDEX str_ix ON str_t(a) USING stressam`)
	e.SetBuildHookForTesting(nil)
	close(writerErr)
	for err := range writerErr {
		t.Fatal(err)
	}

	// Full agreement: every key that exists (or was touched) resolves to the
	// same multiset cardinality through the index and the sequential scan.
	seq := exec(t, s, `SELECT a FROM str_t`)
	counts := map[int64]int{}
	for _, row := range seq.Rows {
		counts[row[0].(int64)]++
	}
	checked := 0
	for k, want := range counts {
		if got := keysVia(t, s, "str_t", int(k)); got != want {
			t.Fatalf("key %d: %d via index, %d via seqscan", k, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no keys to check")
	}
	// And keys that were deleted mid-build resolve to zero both ways.
	for w := 0; w < writers; w++ {
		k := 1000 + w*100 + 1 // i==1 branch: inserted then deleted
		if got := keysVia(t, s, "str_t", k); got != 0 {
			t.Fatalf("deleted key %d still in index: %d", k, got)
		}
	}
}

// TestBuildingIndexInvisible pins the BUILDING-state guards: while a build
// is in flight the planner must not use the index, and DROP INDEX, CHECK
// INDEX and UPDATE STATISTICS must refuse it.
func TestBuildingIndexInvisible(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerBuildMemAM(t, e, "visam", "vis", true)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE vis_t (a INTEGER)`)
	exec(t, s, `INSERT INTO vis_t VALUES (7)`)

	probed := false
	var hookErr error
	q := e.NewSession()
	defer q.Close()
	e.SetBuildHookForTesting(func(stage string) error {
		if stage != "bulk" || probed {
			return nil
		}
		probed = true
		// The planner must fall back to a sequential scan (the index is
		// BUILDING), and the maintenance statements must refuse it.
		res, err := q.Exec(`EXPLAIN SELECT a FROM vis_t WHERE MemEq(a, 7)`)
		if err != nil {
			hookErr = err
			return nil
		}
		for _, row := range res.Rows {
			for _, cell := range row {
				if str, ok := cell.(string); ok && strings.Contains(strings.ToLower(str), "vis_ix") {
					hookErr = fmt.Errorf("planner uses BUILDING index: %v", res.Rows)
					return nil
				}
			}
		}
		for _, stmt := range []string{`DROP INDEX vis_ix`, `CHECK INDEX vis_ix`, `UPDATE STATISTICS FOR INDEX vis_ix`} {
			if _, err := q.Exec(stmt); err == nil {
				hookErr = fmt.Errorf("%s succeeded on a BUILDING index", stmt)
				return nil
			}
		}
		return nil
	})
	defer e.SetBuildHookForTesting(nil)
	exec(t, s, `CREATE INDEX vis_ix ON vis_t(a) USING visam`)
	e.SetBuildHookForTesting(nil)
	if !probed {
		t.Fatal("build hook never ran")
	}
	if hookErr != nil {
		t.Fatal(hookErr)
	}
	// Published: everything works again.
	if got := keysVia(t, s, "vis_t", 7); got != 1 {
		t.Fatalf("after publish: %d", got)
	}
	exec(t, s, `CHECK INDEX vis_ix`)
	exec(t, s, `DROP INDEX vis_ix`)
}

// TestOnlineBuildFallbackConcurrentDML covers the no-am_build path of the
// online build: the builder falls back to batched am_insert over the
// snapshot scan while writer goroutines race it with inserts, deletes and
// updates captured by the side log. Run under -race by make check.
func TestOnlineBuildFallbackConcurrentDML(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerBuildMemAM(t, e, "fbam", "fb", false)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE fb_t (a INTEGER)`)
	for i := 0; i < 200; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO fb_t VALUES (%d)`, i%20))
	}

	const writers = 3
	var wg sync.WaitGroup
	writerErr := make(chan error, writers)
	started := make(chan struct{})
	e.SetBuildHookForTesting(func(stage string) error {
		if stage == "bulk" {
			close(started)
			wg.Wait()
		}
		return nil
	})
	defer e.SetBuildHookForTesting(nil)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-started
			ws := e.NewSession()
			defer ws.Close()
			for i := 0; i < 10; i++ {
				k := 1000 + w*100 + i
				stmts := []string{fmt.Sprintf(`INSERT INTO fb_t VALUES (%d)`, k)}
				switch i % 3 {
				case 0:
					stmts = append(stmts, fmt.Sprintf(`DELETE FROM fb_t WHERE a = %d`, k))
				case 1:
					stmts = append(stmts, fmt.Sprintf(`UPDATE fb_t SET a = %d WHERE a = %d`, k+5000, k))
				}
				for _, stmt := range stmts {
					if _, err := ws.Exec(stmt); err != nil {
						writerErr <- err
						return
					}
				}
			}
		}(w)
	}

	snap := e.Obs().Snapshot()
	builds, replayed := snap.Get("am.am_build"), snap.Get("idxbuild.sidelog_replayed")
	exec(t, s, `CREATE INDEX fb_ix ON fb_t(a) USING fbam`)
	e.SetBuildHookForTesting(nil)
	close(writerErr)
	for err := range writerErr {
		t.Fatal(err)
	}
	snap = e.Obs().Snapshot()
	if snap.Get("am.am_build") != builds {
		t.Fatal("fbam has no am_build slot; the fallback must not call one")
	}
	if snap.Get("idxbuild.sidelog_replayed") == replayed {
		t.Fatal("no side-log ops replayed: writers did not overlap the build")
	}

	exec(t, s, `CHECK INDEX fb_ix`)
	counts := map[int64]int{}
	for _, row := range exec(t, s, `SELECT a FROM fb_t`).Rows {
		counts[row[0].(int64)]++
	}
	for k, want := range counts {
		if got := keysVia(t, s, "fb_t", int(k)); got != want {
			t.Fatalf("key %d: %d via the fallback-built index, %d via seqscan", k, got, want)
		}
	}
	// Keys deleted or updated away mid-build resolve to zero both ways.
	for w := 0; w < writers; w++ {
		for _, i := range []int{0, 1} {
			if got := keysVia(t, s, "fb_t", 1000+w*100+i); got != 0 {
				t.Fatalf("key %d left the table but is still in the index: %d", 1000+w*100+i, got)
			}
		}
	}
}

// TestBuildModeBulkRejectedWithoutSlot pins the build='bulk' contract: an
// access method without am_build cannot honour an explicit bulk request,
// while build='insert' is always available.
func TestBuildModeBulkRejectedWithoutSlot(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerBuildMemAM(t, e, "nobulkam", "nbk", false)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE nb_t (a INTEGER)`)
	exec(t, s, `INSERT INTO nb_t VALUES (7)`)
	if _, err := s.Exec(`CREATE INDEX nb_ix ON nb_t(a) USING nobulkam (build='bulk')`); err == nil {
		t.Fatal("build='bulk' on an AM without am_build must fail")
	}
	exec(t, s, `CREATE INDEX nb_ix ON nb_t(a) USING nobulkam (build='insert')`)
	exec(t, s, `CHECK INDEX nb_ix`)
	if got := keysVia(t, s, "nb_t", 7); got != 1 {
		t.Fatalf("key 7 via index: %d rows", got)
	}
}

package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/blades/treeblade"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/obs"
	"repro/internal/types"
)

// Parallel-scan tests drive the worker-pool executor through a synthetic
// parallel-capable access method (engine tests cannot import the real blades
// — the blades import the engine — so the pool, the merge, cancellation, and
// goroutine lifetimes are pinned here against a minimal am_parallelscan
// implementation; the blade-level agreement tests live next to the blades).

// registerParAM extends the memAM shape with am_parallelscan: at the offer,
// the matching rid list built by beginscan is split into one chunk per
// worker, and each partition descriptor gets its own *memScan cursor — the
// existing getmulti then drives partitions unchanged.
func registerParAM(t *testing.T, e *Engine, amName, prefix string) {
	t.Helper()
	store := map[string][]memEntry{}
	lib := am.Library{
		prefix + "_create": am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error {
			store[id.Name] = nil
			return nil
		}),
		prefix + "_open":  am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		prefix + "_close": am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		prefix + "_insert": am.AmMutateFunc(func(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
			k, ok := row[0].(int64)
			if !ok {
				return fmt.Errorf("param: expected INTEGER key, got %T", row[0])
			}
			store[id.Name] = append(store[id.Name], memEntry{key: k, rid: rid})
			return nil
		}),
		prefix + "_beginscan": am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error {
			want, err := memQualKey(sd)
			if err != nil {
				return err
			}
			sc := &memScan{}
			for _, en := range store[sd.Index.Name] {
				if en.key == want {
					sc.rids = append(sc.rids, en.rid)
				}
			}
			sd.UserData = sc
			return nil
		}),
		prefix + "_endscan": am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error {
			sd.UserData = nil
			return nil
		}),
		prefix + "_getnext":  am.AmGetNextFunc(memGetNext),
		prefix + "_getmulti": am.AmGetMultiFunc(memGetMulti),
		prefix + "_parallelscan": am.AmParallelScanFunc(func(ctx *mi.Context, sd *am.ScanDesc, degree int) ([]*am.ScanDesc, error) {
			sc, ok := sd.UserData.(*memScan)
			if !ok {
				return nil, fmt.Errorf("param: parallelscan without beginscan")
			}
			if degree < 2 || len(sc.rids) < degree {
				return nil, nil // decline: not enough work to split
			}
			per := (len(sc.rids) + degree - 1) / degree
			var out []*am.ScanDesc
			for start := 0; start < len(sc.rids); start += per {
				end := start + per
				if end > len(sc.rids) {
					end = len(sc.rids)
				}
				out = append(out, &am.ScanDesc{
					Index: sd.Index, Qual: sd.Qual, BatchCap: sd.BatchCap, Obs: sd.Obs,
					UserData: &memScan{rids: sc.rids[start:end]},
				})
			}
			return out, nil
		}),
	}
	registerAMScript(t, e, amName, prefix, "usr/functions/"+prefix+".bld", lib)
}

func memQualKey(sd *am.ScanDesc) (int64, error) {
	if sd.Qual == nil {
		return 0, fmt.Errorf("memam: scan without qualification")
	}
	leaves := sd.Qual.Leaves()
	if len(leaves) != 1 {
		return 0, fmt.Errorf("memam: want a single MemEq leaf, got %d", len(leaves))
	}
	want, ok := leaves[0].Const.(int64)
	if !ok {
		return 0, fmt.Errorf("memam: non-integer constant %T", leaves[0].Const)
	}
	return want, nil
}

func memGetNext(ctx *mi.Context, sd *am.ScanDesc) (heap.RowID, []types.Datum, bool, error) {
	sc, ok := sd.UserData.(*memScan)
	if !ok {
		return 0, nil, false, fmt.Errorf("memam: getnext without beginscan")
	}
	if sc.pos >= len(sc.rids) {
		return 0, nil, false, nil
	}
	rid := sc.rids[sc.pos]
	sc.pos++
	return rid, nil, true, nil
}

func memGetMulti(ctx *mi.Context, sd *am.ScanDesc) (int, error) {
	sc, ok := sd.UserData.(*memScan)
	if !ok {
		return 0, fmt.Errorf("memam: getmulti without beginscan")
	}
	b := sd.Batch
	b.Reset()
	for !b.Full() && sc.pos < len(sc.rids) {
		b.Append(sc.rids[sc.pos], nil)
		sc.pos++
	}
	return b.N, nil
}

// registerAMScript loads a test access-method library and runs the blades'
// own registration-SQL generator over it, plus the MemEq operator class.
func registerAMScript(t *testing.T, e *Engine, amName, prefix, path string, lib am.Library) {
	t.Helper()
	e.LoadLibrary(path, lib)
	s := e.NewSession()
	defer s.Close()
	script := treeblade.RegistrationSQL(amName, prefix, path, lib) +
		fmt.Sprintf("CREATE OPCLASS %s_ops FOR %s STRATEGIES(MemEq);\n", prefix, amName)
	if _, err := s.ExecScript(script); err != nil {
		t.Fatalf("register %s: %v", amName, err)
	}
}

// forceParallel raises GOMAXPROCS to 4 for the test: SET PARALLEL caps the
// degree at GOMAXPROCS, and CI containers may expose a single CPU. The
// pool's correctness (merge, cancellation, goroutine lifetimes, data races)
// does not depend on real hardware parallelism.
func forceParallel(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) >= 4 {
		return
	}
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// sortedCol flattens a single-column result into a sorted string slice.
func sortedCol(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, fmt.Sprint(r[0]))
	}
	sort.Strings(out)
	return out
}

func TestSetParallelStatement(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	res := exec(t, s, `SET PARALLEL 4`)
	if s.Vars().Parallel() < 1 || s.Vars().Parallel() > 4 {
		t.Fatalf("parallel knob: %d", s.Vars().Parallel())
	}
	if !strings.Contains(res.Message, "parallel") {
		t.Fatalf("message: %q", res.Message)
	}
	res = exec(t, s, `SET PARALLEL TO 0`)
	if s.Vars().Parallel() != 0 {
		t.Fatalf("parallel knob after disable: %d", s.Vars().Parallel())
	}
	if res.Message != "parallel scans disabled" {
		t.Fatalf("message: %q", res.Message)
	}
	if _, err := s.Exec(`SET PARALLEL -1`); err == nil {
		t.Fatal("negative degree accepted")
	}
}

// TestParallelIndexAgreement pins determinism: a parallel index scan returns
// exactly the serial result set (sorted compare), the rows-scanned profile
// counter agrees, and EXPLAIN advertises the worker offer.
func TestParallelIndexAgreement(t *testing.T) {
	forceParallel(t)
	e := memEngine(t)
	registerMemEq(t, e)
	registerParAM(t, e, "par_am", "pmem")
	s := e.NewSession()
	defer s.Close()
	fillMemTable(t, s, "pt", "par_am", 400, 300)

	serial := exec(t, s, `SELECT b FROM pt WHERE MemEq(a, 7)`)
	exec(t, s, `SET PARALLEL 4`)
	par := exec(t, s, `SELECT b FROM pt WHERE MemEq(a, 7)`)

	if len(par.Rows) != 300 || len(serial.Rows) != 300 {
		t.Fatalf("row counts: serial=%d parallel=%d", len(serial.Rows), len(par.Rows))
	}
	ss, ps := sortedCol(serial), sortedCol(par)
	for i := range ss {
		if ss[i] != ps[i] {
			t.Fatalf("row %d: serial %q parallel %q", i, ss[i], ps[i])
		}
	}
	if serial.Stats.RowsScanned != par.Stats.RowsScanned {
		t.Fatalf("rows scanned: serial=%d parallel=%d", serial.Stats.RowsScanned, par.Stats.RowsScanned)
	}
	if par.Plan.Workers < 2 {
		t.Fatalf("plan workers: %d", par.Plan.Workers)
	}

	ex := exec(t, s, `EXPLAIN SELECT b FROM pt WHERE MemEq(a, 7)`)
	if !strings.Contains(ex.Plan.String(), fmt.Sprintf("workers=%d", par.Plan.Workers)) {
		t.Fatalf("EXPLAIN missing workers=N:\n%s", ex.Plan)
	}
	if e.Obs().Counter("parallel.scans").Load() == 0 || e.Obs().Counter("parallel.workers").Load() == 0 {
		t.Fatal("parallel.* counters did not move")
	}
}

// TestParallelHeapAgreement covers the page-range partitioning of the heap
// sequential scan.
func TestParallelHeapAgreement(t *testing.T) {
	forceParallel(t)
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE ht (a INTEGER, pad VARCHAR(64))`)
	for i := 0; i < 600; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO ht VALUES (%d, 'padding-%d-abcdefghijklmnopqrstuvwxyz')`, i%10, i))
	}
	serial := exec(t, s, `SELECT a FROM ht WHERE a = 3`)
	exec(t, s, `SET PARALLEL 4`)
	par := exec(t, s, `SELECT a FROM ht WHERE a = 3`)
	if len(serial.Rows) != 60 || len(par.Rows) != len(serial.Rows) {
		t.Fatalf("row counts: serial=%d parallel=%d", len(serial.Rows), len(par.Rows))
	}
	if serial.Stats.RowsScanned != par.Stats.RowsScanned {
		t.Fatalf("rows scanned: serial=%d parallel=%d", serial.Stats.RowsScanned, par.Stats.RowsScanned)
	}
	if par.Plan.Workers < 2 {
		t.Fatalf("plan workers: %d", par.Plan.Workers)
	}
	ex := exec(t, s, `EXPLAIN SELECT a FROM ht WHERE a = 3`)
	if !strings.Contains(ex.Plan.String(), "workers=") {
		t.Fatalf("EXPLAIN missing workers=N:\n%s", ex.Plan)
	}
}

// waitGoroutines retries until the goroutine count drops back to (or below)
// the baseline; workers unwind asynchronously after close.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelEarlyCloseNoLeak pins the goroutine lifetime on early
// termination: a first-batch-only consumer that closes the iterator must
// drain and stop every worker.
func TestParallelEarlyCloseNoLeak(t *testing.T) {
	forceParallel(t)
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE lt (a INTEGER, pad VARCHAR(64))`)
	for i := 0; i < 600; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO lt VALUES (%d, 'padding-%d-abcdefghijklmnopqrstuvwxyz')`, i, i))
	}
	tb, err := s.catTable("lt")
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.Table("lt")
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		s.ec = obs.NewExecContext(e.Obs())
		it, err := s.openBatchScan(tb, table, table.Schema(), nil, accessPath{}, &Plan{}, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.next(); err != nil { // first batch only, then abandon
			t.Fatal(err)
		}
		it.close()
		s.ec = nil
	}
	waitGoroutines(t, base)
}

// TestParallelCancellation threads a context through ExecCtx into the worker
// pool: an access method that produces batches forever is stopped by
// cancelling the statement, the statement fails with the context error, and
// no worker goroutine survives.
func TestParallelCancellation(t *testing.T) {
	forceParallel(t)
	e := memEngine(t)
	registerMemEq(t, e)

	started := make(chan struct{})
	var once sync.Once
	store := map[string][]memEntry{}
	lib := am.Library{
		"inf_create": am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		"inf_open":   am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		"inf_close":  am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		"inf_insert": am.AmMutateFunc(func(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
			store[id.Name] = append(store[id.Name], memEntry{rid: rid})
			return nil
		}),
		"inf_beginscan": am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error {
			sd.UserData = store[sd.Index.Name][0].rid
			return nil
		}),
		"inf_endscan": am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error { return nil }),
		"inf_getnext": am.AmGetNextFunc(func(ctx *mi.Context, sd *am.ScanDesc) (heap.RowID, []types.Datum, bool, error) {
			return sd.UserData.(heap.RowID), nil, true, nil
		}),
		"inf_getmulti": am.AmGetMultiFunc(func(ctx *mi.Context, sd *am.ScanDesc) (int, error) {
			once.Do(func() { close(started) })
			time.Sleep(time.Millisecond) // slow, endless producer
			rid := sd.UserData.(heap.RowID)
			b := sd.Batch
			b.Reset()
			for !b.Full() {
				b.Append(rid, nil)
			}
			return b.N, nil
		}),
		"inf_parallelscan": am.AmParallelScanFunc(func(ctx *mi.Context, sd *am.ScanDesc, degree int) ([]*am.ScanDesc, error) {
			out := make([]*am.ScanDesc, degree)
			for i := range out {
				out[i] = &am.ScanDesc{Index: sd.Index, Qual: sd.Qual, BatchCap: sd.BatchCap, Obs: sd.Obs, UserData: sd.UserData}
			}
			return out, nil
		}),
	}
	registerAMScript(t, e, "inf_am", "inf", "usr/functions/inf.bld", lib)

	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE it (a INTEGER)`)
	exec(t, s, `CREATE INDEX it_ix ON it(a) USING inf_am`)
	exec(t, s, `INSERT INTO it VALUES (7)`)
	exec(t, s, `SET PARALLEL 4`)

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	_, err := s.ExecCtx(ctx, `SELECT count(*) FROM it WHERE MemEq(a, 7)`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitGoroutines(t, base+1) // +1: the cancel goroutine itself may linger briefly
}

// TestParallelStress hammers one shared index and one shared heap from many
// sessions at once (run under -race by make check): the latched traversal,
// the shared buffer pool, the obs counters, and the worker pools must all be
// data-race free.
func TestParallelStress(t *testing.T) {
	forceParallel(t)
	e := memEngine(t)
	registerMemEq(t, e)
	registerParAM(t, e, "par_am", "pmem")
	setup := e.NewSession()
	fillMemTable(t, setup, "st", "par_am", 300, 200)
	setup.Close()

	const sessions = 8
	const rounds = 10
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			if _, err := s.Exec(`SET PARALLEL 4`); err != nil {
				errs <- err
				return
			}
			for r := 0; r < rounds; r++ {
				res, err := s.Exec(`SELECT count(*) FROM st WHERE MemEq(a, 7)`)
				if err != nil {
					errs <- fmt.Errorf("session %d round %d: %w", g, r, err)
					return
				}
				if res.Rows[0][0] != int64(200) {
					errs <- fmt.Errorf("session %d round %d: count %v", g, r, res.Rows[0][0])
					return
				}
				res, err = s.Exec(`SELECT count(*) FROM st WHERE a = 7`)
				if err != nil {
					errs <- fmt.Errorf("session %d round %d heap: %w", g, r, err)
					return
				}
				if res.Rows[0][0] != int64(200) {
					errs <- fmt.Errorf("session %d round %d heap: count %v", g, r, res.Rows[0][0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParallelOfferFallsBackToSerial: an access method that binds no
// am_parallelscan keeps its scan serial under SET PARALLEL (no workers= line
// in EXPLAIN) and returns the same answer — the degraded path of the VII
// negotiation, not an error.
func TestParallelOfferFallsBackToSerial(t *testing.T) {
	forceParallel(t)
	e := memEngine(t)
	registerMemEq(t, e)
	registerMemAM(t, e, "ser_am", "smem", true)
	s := e.NewSession()
	defer s.Close()
	fillMemTable(t, s, "st", "ser_am", 200, 50)

	const q = `SELECT b FROM st WHERE MemEq(a, 7)`
	serial := sortedCol(exec(t, s, q))
	if len(serial) != 50 {
		t.Fatalf("serial answer has %d rows", len(serial))
	}
	exec(t, s, `SET PARALLEL 4`)
	ex := exec(t, s, `EXPLAIN `+q)
	if strings.Contains(ex.Plan.String(), "workers=") || ex.Plan.Workers > 1 {
		t.Fatalf("an AM without am_parallelscan planned workers:\n%s", ex.Plan)
	}
	if par := sortedCol(exec(t, s, q)); strings.Join(par, ",") != strings.Join(serial, ",") {
		t.Fatalf("the fallback changed the answer: %v vs %v", par, serial)
	}
}

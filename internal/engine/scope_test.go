package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/am"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/types"
)

// Every statement entry point runs through one statement scope (beginStmt …
// Stream.end). These tests hold the scope to its contract on every entry
// point and every way a statement can end, and pin that sql.plan_ns books
// planning only.

// registerEndlessAM installs a parallel-capable access method whose every
// partition produces batches forever: a scan over it ends only when the
// statement's context is cancelled — a deterministic scan error.
func registerEndlessAM(t *testing.T, e *Engine) {
	t.Helper()
	var first heap.RowID
	lib := am.Library{
		"endless_create": am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		"endless_open":   am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		"endless_close":  am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		"endless_insert": am.AmMutateFunc(func(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
			first = rid
			return nil
		}),
		"endless_beginscan": am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error { return nil }),
		"endless_endscan":   am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error { return nil }),
		"endless_getnext": am.AmGetNextFunc(func(ctx *mi.Context, sd *am.ScanDesc) (heap.RowID, []types.Datum, bool, error) {
			return first, nil, true, nil
		}),
		"endless_getmulti": am.AmGetMultiFunc(func(ctx *mi.Context, sd *am.ScanDesc) (int, error) {
			b := sd.Batch
			b.Reset()
			for !b.Full() {
				b.Append(first, nil)
			}
			return b.N, nil
		}),
		"endless_parallelscan": am.AmParallelScanFunc(func(ctx *mi.Context, sd *am.ScanDesc, degree int) ([]*am.ScanDesc, error) {
			out := make([]*am.ScanDesc, degree)
			for i := range out {
				out[i] = &am.ScanDesc{Index: sd.Index, Qual: sd.Qual, BatchCap: sd.BatchCap, Obs: sd.Obs, Snapshot: sd.Snapshot}
			}
			return out, nil
		}),
	}
	registerAMScript(t, e, "endless_am", "endless", "usr/functions/endless.bld", lib)
}

// registerTally installs Tally(INTEGER): the identity, counting its calls.
func registerTally(t *testing.T, e *Engine) *atomic.Int64 {
	t.Helper()
	var calls atomic.Int64
	e.LoadLibrary("usr/functions/tally.bld", am.Library{
		"Tally": am.UDRFunc(func(ctx *mi.Context, args []types.Datum) (types.Datum, error) {
			calls.Add(1)
			return args[0], nil
		}),
	})
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE FUNCTION Tally(INTEGER) RETURNING integer EXTERNAL NAME 'usr/functions/tally.bld(Tally)' LANGUAGE c`)
	return &calls
}

// scopeOutcome is one way a statement ends, spelled for each entry point.
type scopeOutcome struct {
	name    string
	ctx     func() context.Context
	sql     string        // for Exec / ExecStream
	prep    string        // prepared statement for the EXECUTE entry points
	args    []types.Datum // ExecutePrepared(Stream)'s argument vector
	execSQL string        // SQL EXECUTE text
	fails   bool          // the statement must report an error
	evals   int64         // Tally calls a SQL EXECUTE makes
	plans   uint64        // plan-cache probes an EXECUTE makes
	scanErr bool          // the error comes from the scan (a closed-early stream may miss it)
}

// scopeEntry runs a statement through one entry point; res is whatever
// Result the entry point hands back (nil when it hands back none).
type scopeEntry struct {
	name string
	run  func(s *Session, o scopeOutcome) (res *Result, err error)
	sqlE bool // the entry point is SQL EXECUTE (evaluates Tally)
	exe  bool // the entry point runs a prepared statement
}

var scopeEntries = []scopeEntry{
	{name: "Exec", run: func(s *Session, o scopeOutcome) (*Result, error) {
		return s.ExecCtx(o.ctx(), o.sql)
	}},
	{name: "ExecStream+Drain", run: func(s *Session, o scopeOutcome) (*Result, error) {
		str, err := s.ExecStreamCtx(o.ctx(), o.sql)
		if err != nil {
			return nil, err
		}
		return str.Drain()
	}},
	{name: "ExecStream+Close", run: func(s *Session, o scopeOutcome) (*Result, error) {
		str, err := s.ExecStreamCtx(o.ctx(), o.sql)
		if err != nil {
			return nil, err
		}
		_, nerr := str.Next()
		cerr := str.Close()
		if nerr == nil {
			nerr = cerr
		}
		return str.Result(), nerr
	}},
	{name: "ExecutePrepared", exe: true, run: func(s *Session, o scopeOutcome) (*Result, error) {
		return s.ExecutePrepared(o.ctx(), o.prep, o.args)
	}},
	{name: "ExecutePreparedStream", exe: true, run: func(s *Session, o scopeOutcome) (*Result, error) {
		str, err := s.ExecutePreparedStream(o.ctx(), o.prep, o.args)
		if err != nil {
			return nil, err
		}
		return str.Drain()
	}},
	{name: "EXECUTE via Exec", exe: true, sqlE: true, run: func(s *Session, o scopeOutcome) (*Result, error) {
		return s.ExecCtx(o.ctx(), o.execSQL)
	}},
	{name: "EXECUTE via ExecStream", exe: true, sqlE: true, run: func(s *Session, o scopeOutcome) (*Result, error) {
		str, err := s.ExecStreamCtx(o.ctx(), o.execSQL)
		if err != nil {
			return nil, err
		}
		return str.Drain()
	}},
}

func TestStatementScopeEveryEntryPoint(t *testing.T) {
	forceParallel(t)
	e := memEngine(t)
	registerMemEq(t, e)
	registerMemAM(t, e, "mem_am", "mem", true)
	registerEndlessAM(t, e)
	tally := registerTally(t, e)
	s := e.NewSession()
	defer s.Close()
	fillMemTable(t, s, "ok", "mem_am", 40, 30)
	exec(t, s, `CREATE TABLE inf (a INTEGER)`)
	exec(t, s, `CREATE INDEX inf_ix ON inf(a) USING endless_am`)
	exec(t, s, `INSERT INTO inf VALUES (7)`)
	exec(t, s, `SET PARALLEL 4`)
	exec(t, s, `PREPARE qok AS SELECT b FROM ok WHERE MemEq(a, $1)`)
	exec(t, s, `PREPARE qinf AS SELECT a FROM inf WHERE MemEq(a, $1)`)
	exec(t, s, `PREPARE qbad AS SELECT nosuch FROM ok WHERE MemEq(a, $1)`)

	background := func() context.Context { return context.Background() }
	cancelled := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	outcomes := []scopeOutcome{
		{name: "clean", ctx: background,
			sql: `SELECT b FROM ok WHERE MemEq(a, 7)`, prep: "qok", args: []types.Datum{int64(7)},
			execSQL: `EXECUTE qok (Tally(7))`, evals: 1, plans: 1},
		{name: "scan error", ctx: cancelled, fails: true, scanErr: true,
			sql: `SELECT a FROM inf WHERE MemEq(a, 7)`, prep: "qinf", args: []types.Datum{int64(7)},
			execSQL: `EXECUTE qinf (Tally(7))`, evals: 1, plans: 1},
		// The cursor fails to open (after planning): the statement fails
		// once, it is not re-run on another path.
		{name: "open error", ctx: background, fails: true,
			sql: `SELECT nosuch FROM ok WHERE MemEq(a, 7)`, prep: "qbad", args: []types.Datum{int64(7)},
			execSQL: `EXECUTE qbad (Tally(7))`, evals: 1, plans: 1},
		{name: "bind error", ctx: background, fails: true,
			sql: `SELECT b FROM ok WHERE MemEq(a, $1)`, prep: "qok", args: []types.Datum{int64(7), int64(8)},
			execSQL: `EXECUTE qok (Tally(7), Tally(8))`},
	}

	probes := func() uint64 {
		return e.Obs().Counter("plan_cache.hits").Load() + e.Obs().Counter("plan_cache.misses").Load()
	}
	for _, o := range outcomes {
		for _, en := range scopeEntries {
			t.Run(o.name+"/"+en.name, func(t *testing.T) {
				evals, plans := tally.Load(), probes()
				res, err := en.run(s, o)
				if o.fails && err == nil && !(o.scanErr && en.name == "ExecStream+Close") {
					t.Fatal("statement succeeded, want an error")
				}
				if !o.fails && err != nil {
					t.Fatal(err)
				}
				if o.scanErr && err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("scan error: %v, want context.Canceled", err)
				}
				if res != nil && res.Stats == nil {
					t.Error("Result.Stats is nil")
				}
				if !o.fails && res == nil {
					t.Error("no Result")
				}
				if en.sqlE {
					if got := tally.Load() - evals; got != o.evals {
						t.Errorf("EXECUTE evaluated its argument %d time(s), want %d", got, o.evals)
					}
				}
				if en.exe {
					if got := probes() - plans; got != o.plans {
						t.Errorf("EXECUTE planned %d time(s), want %d", got, o.plans)
					}
				}
				e.mvccMu.Lock()
				snaps := len(e.mvccSnaps)
				e.mvccMu.Unlock()
				if snaps != 0 {
					t.Errorf("%d registered snapshot(s) left", snaps)
				}
				if s.tx != 0 {
					t.Errorf("auto transaction leaked: tx=%d", s.tx)
				}
				if _, err := s.Exec(`SELECT b FROM ok WHERE MemEq(a, $1)`); err == nil || !strings.Contains(err.Error(), "not bound") {
					t.Errorf("a binding outlived its statement: %v", err)
				}
				if _, err := s.Exec(`SELECT count(*) FROM ok`); err != nil {
					t.Errorf("next statement: %v", err)
				}
			})
		}
	}

	// Inside an explicit transaction the scope leaves the transaction open,
	// whatever the outcome.
	exec(t, s, `BEGIN WORK`)
	for _, o := range outcomes {
		for _, en := range scopeEntries {
			en.run(s, o)
			if !s.InTx() {
				t.Fatalf("%s/%s resolved the explicit transaction", o.name, en.name)
			}
		}
	}
	exec(t, s, `COMMIT WORK`)
}

// am_open is not planning: it takes the index large object's lock, and a
// reader queued behind a writer must not book that wait to sql.plan_ns.
// With an am_open that sleeps 20 ms, a cached point SELECT still plans in
// well under 5 ms, and the wait shows in the statement's elapsed time.
func TestPlanTimeExcludesIndexOpen(t *testing.T) {
	const wait = 20 * time.Millisecond
	e := memEngine(t)
	registerMemEq(t, e)
	registerMemAM(t, e, "slow_am", "slow", true)
	e.mu.Lock()
	e.libs["usr/functions/slow.bld"]["slow_open"] = am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error {
		time.Sleep(wait)
		return nil
	})
	e.mu.Unlock()
	s := e.NewSession()
	defer s.Close()
	fillMemTable(t, s, "so", "slow_am", 20, 5)

	exec(t, s, `SELECT b FROM so WHERE MemEq(a, 7)`) // miss: plans and publishes
	planNs := e.Obs().Counter("sql.plan_ns").Load()
	hits := e.Obs().Counter("plan_cache.hits").Load()
	opens := e.Obs().Counter("am.am_open").Load()
	res := exec(t, s, `SELECT b FROM so WHERE MemEq(a, 1007)`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %v", res.Rows)
	}
	if got := e.Obs().Counter("plan_cache.hits").Load() - hits; got != 1 {
		t.Fatalf("plan cache hits: %d, want 1 (test premise)", got)
	}
	if got := e.Obs().Counter("am.am_open").Load() - opens; got != 1 {
		t.Fatalf("am_open calls: %d, want 1 (test premise)", got)
	}
	if got := time.Duration(e.Obs().Counter("sql.plan_ns").Load() - planNs); got >= 5*time.Millisecond {
		t.Fatalf("sql.plan_ns advanced %v for a cached point SELECT whose am_open took %v", got, wait)
	}
	if res.Stats.Elapsed < wait {
		t.Fatalf("statement elapsed %v, want at least the am_open wait %v", res.Stats.Elapsed, wait)
	}
}

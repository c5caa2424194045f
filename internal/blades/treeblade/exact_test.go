package treeblade_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/temporal"
)

// An index scan skips the WHERE re-check only where the answer is exact:
// grtree_am with hard-coded dispatch and the transaction time policy, the
// whole WHERE pushed down, under a registered snapshot. Everywhere else the
// filter still runs, and engine.recheck_skipped stays flat. In every case the
// index answer equals a sequential scan of an unindexed twin and an oracle.
// The statement's plan says what the counter says, and EXPLAIN, which opens
// no scan, says the re-check runs unless am_beginscan reports an exact answer
// wherever the whole WHERE is pushed down under a registered snapshot.
func TestRecheckRunsUnlessTheAnswerIsExact(t *testing.T) {
	const (
		q     = `1/91, 1/95, 1/91, 1/95`
		whole = `Overlaps(X, '` + q + `')`
	)
	cases := []struct {
		name, am, opclass, params, isolation, where string
		parallel                                    bool
		skip                                        bool
	}{
		{name: "exact", am: "grtree_am", opclass: "grt_opclass", where: whole, skip: true},
		{name: "exact/snapshot", am: "grtree_am", opclass: "grt_opclass", isolation: "SNAPSHOT", where: whole, skip: true},
		{name: "exact/parallel", am: "grtree_am", opclass: "grt_opclass", params: "(maxentries=8)", where: whole, parallel: true, skip: true},
		{name: "dirty read", am: "grtree_am", opclass: "grt_opclass", isolation: "DIRTY READ", where: whole},
		{name: "timepolicy=statement", am: "grtree_am", opclass: "grt_opclass", params: "(timepolicy='statement')", where: whole},
		{name: "dispatch=dynamic", am: "grtree_am", opclass: "grt_opclass", params: "(dispatch='dynamic')", where: whole},
		{name: "partial where", am: "grtree_am", opclass: "grt_opclass", where: whole + ` AND N > 40`},
		{name: "rstree_am", am: "rstree_am", opclass: "rst_opclass", where: whole},
		{name: "gist_am", am: "gist_am", opclass: "gist_grt_ops", where: whole},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := open(t, engine.Options{})
			s := e.NewSession()
			defer s.Close()
			ct := e.Clock().Now()
			query := temporal.MustParseExtent(q).Region()
			var values, oracle []string
			for i := 0; i < rows; i++ {
				mo, y := i%12+1, 90+(i/12)%6
				text := fmt.Sprintf("%d/%d, %d/%d, %d/%d, %d/%d", mo, y, mo, y+1, mo, y, mo, y+1)
				if i%5 == 0 { // a current, now-relative extent
					text = fmt.Sprintf("%d/%d, UC, %d/%d, NOW", mo, y, mo, y)
				}
				values = append(values, fmt.Sprintf("(%d, '%s')", i, text))
				if temporal.MustParseExtent(text).Region().Overlaps(query, ct) && (tc.where == whole || i > 40) {
					oracle = append(oracle, fmt.Sprint(i))
				}
			}
			sort.Strings(oracle)
			exec(t, s, `CREATE SBSPACE spc`)
			for _, table := range []string{"TI", "TS"} {
				exec(t, s, fmt.Sprintf(`CREATE TABLE %s (N INTEGER, X GRT_TimeExtent_t)`, table))
				exec(t, s, fmt.Sprintf(`INSERT INTO %s VALUES %s`, table, strings.Join(values, ", ")))
			}
			exec(t, s, fmt.Sprintf(`CREATE INDEX ix ON TI(X %s) USING %s %s IN spc`, tc.opclass, tc.am, tc.params))
			if tc.isolation != "" {
				exec(t, s, `SET ISOLATION TO `+tc.isolation)
			}
			if tc.parallel {
				exec(t, s, `SET PARALLEL 2`)
			}
			skipped, fanned := e.Obs().Counter("engine.recheck_skipped"), e.Obs().Counter("parallel.scans")
			for _, table := range []string{"TI", "TS"} {
				before, scans := skipped.Load(), fanned.Load()
				res := exec(t, s, fmt.Sprintf(`SELECT N FROM %s WHERE %s`, table, tc.where))
				moved := skipped.Load() != before
				if ch := res.Plan.Chosen(); (ch != nil) != (table == "TI") {
					t.Fatalf("%s: plan %v", table, res.Plan)
				}
				// A one-processor host caps the degree at 1 and runs serially.
				if tc.parallel && table == "TI" && runtime.GOMAXPROCS(0) > 1 && fanned.Load() == scans {
					t.Fatalf("%s: the scan did not fan out (%d workers planned)", table, res.Plan.Workers)
				}
				got := column(res)
				sort.Strings(got)
				if strings.Join(got, ",") != strings.Join(oracle, ",") {
					t.Fatalf("%s: %v, oracle %v", table, got, oracle)
				}
				want := tc.skip && table == "TI"
				if moved != want {
					t.Fatalf("%s: engine.recheck_skipped moved %v, want %v", table, moved, want)
				}
				if skippedLine := strings.Contains(res.Plan.String(), "WHERE re-check skipped"); (res.Plan.Recheck == engine.RecheckSkipped) != want || skippedLine != want {
					t.Fatalf("%s: plan records re-check %d, want skipped=%v:\n%s", table, res.Plan.Recheck, want, res.Plan)
				}
				ex := exec(t, s, fmt.Sprintf(`EXPLAIN SELECT N FROM %s WHERE %s`, table, tc.where))
				unless := table == "TI" && tc.where == whole && tc.isolation != "DIRTY READ"
				if got := strings.Contains(ex.Plan.String(), "re-checked per row unless am_beginscan reports an exact answer"); got != unless {
					t.Fatalf("%s: EXPLAIN says the re-check may be skipped: %v, want %v:\n%s", table, got, unless, ex.Plan)
				}
			}
		})
	}
}

// Sessions executing one prepared statement share its cached plan, and each
// records whether its own re-check ran on its own Plan: a SNAPSHOT session's
// exact scans skip it while a DIRTY READ session's keep it, at the same time.
func TestPlanRecordsTheRecheckPerStatement(t *testing.T) {
	e := open(t, engine.Options{})
	setup := e.NewSession()
	defer setup.Close()
	exec(t, setup, `CREATE SBSPACE spc`)
	exec(t, setup, `CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`)
	exec(t, setup, `INSERT INTO T VALUES (1, '1/91, 1/95, 1/91, 1/95'), (2, '1/92, UC, 1/92, NOW'), (3, '1/80, 1/81, 1/80, 1/81')`)
	exec(t, setup, `CREATE INDEX ix ON T(X grt_opclass) USING grtree_am IN spc`)

	const rounds = 50
	errs := make(chan error, 2)
	for _, iso := range []string{"SNAPSHOT", "DIRTY READ"} {
		s := e.NewSession()
		defer s.Close()
		exec(t, s, `SET ISOLATION TO `+iso)
		exec(t, s, `PREPARE q AS SELECT N FROM T WHERE Overlaps(X, '1/93, 1/94, 1/93, 1/94')`)
		want := engine.RecheckSkipped
		if iso == "DIRTY READ" {
			want = engine.RecheckPerRow
		}
		go func(s *engine.Session, iso string, want engine.Recheck) {
			for i := 0; i < rounds; i++ {
				res, err := s.Exec(`EXECUTE q`)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 2 || res.Plan.Recheck != want {
					errs <- fmt.Errorf("%s round %d: %d rows, re-check %d, want %d:\n%s", iso, i, len(res.Rows), res.Plan.Recheck, want, res.Plan)
					return
				}
			}
			errs <- nil
		}(s, iso, want)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if e.Obs().Counter("plan_cache.hits").Load() == 0 {
		t.Fatal("the sessions never shared a cached plan")
	}
}

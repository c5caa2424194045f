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
				if want := tc.skip && table == "TI"; moved != want {
					t.Fatalf("%s: engine.recheck_skipped moved %v, want %v", table, moved, want)
				}
			}
		})
	}
}

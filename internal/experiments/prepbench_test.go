package experiments

import (
	"strings"
	"testing"
)

// The ISSUE's acceptance criteria for P13: all six cells run, the cached
// and prepared cells actually hit the plan cache, and a prepared statement
// pays under half the plan time of an un-cached one. The wall-clock
// "remote prepared >= 1.3x ad-hoc" ratio is printed in the table but not
// asserted: it failed on a busy host without anything being wrong. The
// mechanism stays pinned by counters (engine.TestExecuteZeroParseZeroScancost:
// zero parses and zero am_scancost calls under EXECUTE) and the speed is what
// the benchmark gates (engine.exec_us.probe vs .adhoc @ probe_tcp).
func TestP13PreparedBeatsAdhoc(t *testing.T) {
	if testing.Short() {
		t.Skip("prepared-statement sweep")
	}
	var out strings.Builder
	rows, err := RunP13(&out, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("cells: %d\n%s", len(rows), out.String())
	}
	byCell := map[string]P13Row{}
	for _, r := range rows {
		byCell[r.Transport+"/"+r.Mode] = r
		if r.StmtsPerS <= 0 {
			t.Fatalf("no throughput in %s/%s:\n%s", r.Transport, r.Mode, out.String())
		}
	}
	for _, cell := range []string{"embedded/adhoc cache=on", "remote/adhoc cache=on",
		"embedded/prepared", "remote/prepared"} {
		if byCell[cell].HitRate <= 0 {
			t.Errorf("%s never hit the plan cache:\n%s", cell, out.String())
		}
	}
	// Prepared execution never re-parses and re-plans: what remains is the
	// cached plan's bind-time validation, a fraction of a full parse+plan.
	for _, transport := range []string{"embedded", "remote"} {
		full := byCell[transport+"/adhoc cache=off"].PlanNsPerStmt
		prep := byCell[transport+"/prepared"].PlanNsPerStmt
		if prep >= full/2 {
			t.Errorf("%s prepared pays %.0f plan-ns/stmt vs %.0f un-cached, want < half:\n%s",
				transport, prep, full, out.String())
		}
	}
}

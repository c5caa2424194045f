package grtblade

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
)

// Golden EXPLAIN output for the paper's Section 5.2 sample query over the
// EmpDep scenario: the plan must show the GR-tree access method, the
// Overlaps strategy that made the optimizer consider it, the am_scancost
// verdict against the sequential alternative, and the am_getmulti batch
// capacity. The numbers are deterministic: grt_scancost is height +
// 0.2*leafNodes over the fixed Table 1 tuples, and the heap holds one page.

func planText(t *testing.T, res *engine.Result) string {
	t.Helper()
	if len(res.Columns) != 1 || res.Columns[0] != "QUERY PLAN" {
		t.Fatalf("EXPLAIN columns: %v", res.Columns)
	}
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = r[0].(string)
	}
	return strings.Join(lines, "\n")
}

func TestExplainGoldenIndexScan(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)

	res := exec(t, s, `EXPLAIN SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '12/10/95, UC, 12/10/95, NOW')`)
	// The snapshot cut is the commit clock's read point at EXPLAIN time — not a
	// constant — so the golden takes it from the structured plan after
	// asserting a read view was captured at all.
	if res.Plan == nil || res.Plan.SnapshotLSN == 0 {
		t.Fatalf("EXPLAIN SELECT captured no MVCC snapshot: %+v", res.Plan)
	}
	want := strings.Join([]string{
		"SELECT on Employees",
		"  -> index scan on grt_index via grtree_am",
		"       opclass:     grt_opclass",
		"       strategy:    Overlaps",
		"       qual:        overlaps(col0, const)",
		"       am_scancost: 1.21 (seqscan cost 1.00)",
		"       cost source: default",
		"       batch:       64 rows per am_getmulti",
		"       filter:      WHERE re-checked per row unless am_beginscan reports an exact answer",
		"       plan:        fresh",
		fmt.Sprintf("       snapshot=%d", res.Plan.SnapshotLSN),
	}, "\n")
	if got := planText(t, res); got != want {
		t.Fatalf("index plan mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// The structured plan mirrors the rendering.
	if res.Plan == nil || res.Plan.Chosen() == nil || res.Plan.Chosen().Index != "grt_index" {
		t.Fatalf("Result.Plan: %+v", res.Plan)
	}
}

func TestExplainGoldenSeqscanFallback(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)

	// No strategy function over the indexed column: the optimizer has no
	// reason to consider the GR-tree and falls back to the heap.
	res := exec(t, s, `EXPLAIN SELECT Name FROM Employees WHERE Name = 'Jane'`)
	if res.Plan == nil || res.Plan.SnapshotLSN == 0 {
		t.Fatalf("EXPLAIN SELECT captured no MVCC snapshot: %+v", res.Plan)
	}
	want := strings.Join([]string{
		"SELECT on Employees",
		"  -> sequential heap scan (cost 1.00: heap pages)",
		"       cost source: default",
		"       filter:      WHERE re-checked per row",
		"       plan:        fresh",
		fmt.Sprintf("       snapshot=%d", res.Plan.SnapshotLSN),
	}, "\n")
	if got := planText(t, res); got != want {
		t.Fatalf("seqscan plan mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if res.Plan.Chosen() != nil {
		t.Fatalf("seqscan plan must have no chosen index: %+v", res.Plan)
	}
}

func TestExplainDeleteRowAtATime(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)

	// DELETE never calls am_delete (deferred maintenance), so its index
	// scan runs on the batch protocol like a SELECT's.
	res := exec(t, s, `EXPLAIN DELETE FROM Employees WHERE Overlaps(Time_Extent, '12/10/95, UC, 12/10/95, NOW')`)
	got := planText(t, res)
	if !strings.Contains(got, "DELETE on Employees") ||
		!strings.Contains(got, "batch:       64 rows per am_getmulti") {
		t.Fatalf("delete plan:\n%s", got)
	}

	// EXPLAIN must not have executed the delete.
	q := exec(t, s, `SELECT COUNT(*) FROM Employees`)
	if n := q.Rows[0][0].(int64); n != 6 {
		t.Fatalf("EXPLAIN DELETE mutated the table: %d rows left", n)
	}
}

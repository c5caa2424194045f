package grtblade

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

// maxAllocsPerRow bounds what a warm, prepared, exact grtree_am scan
// allocates for each row it returns: the measured 3.09 plus 0.5. The row's
// datum slice, its VARCHAR's bytes and its extent's bytes come from the
// batch's decode arena, shared by the batch's rows; what still allocates per
// row is one interface box each for the INTEGER, the string header and the
// Opaque. Neither the access method (no column value per entry) nor the
// engine (no WHERE re-check, no projection copy for all columns in table
// order) adds to it.
const maxAllocsPerRow = 3.6

// TestExactScanAllocationsPerRow measures the allocations of two prepared
// scans over one table, one returning several times the rows of the other,
// in the style of rtree's TestNodeVisitsDoNotAllocate: what the larger scan
// allocates beyond the smaller one, per extra row, is the per-row cost, free
// of the statement's fixed overhead.
func TestExactScanAllocationsPerRow(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE T (N INTEGER, Name VARCHAR(32), X GRT_TimeExtent_t)`)
	var values []string
	for i := 0; i < 1200; i++ {
		mo, y := i%12+1, 80+i/100
		values = append(values, fmt.Sprintf("(%d, 'name%d', '%d/%d, %d/%d, %d/%d, %d/%d')", 1000+i, i, mo, y, mo, y+1, mo, y, mo, y+1))
	}
	exec(t, s, `INSERT INTO T VALUES `+strings.Join(values, ", "))
	exec(t, s, `CREATE INDEX ix ON T(X grt_opclass) USING grtree_am IN spc`)
	exec(t, s, `PREPARE scan AS SELECT N, Name, X FROM T WHERE Overlaps(X, $1)`)
	skipped := e.Obs().Counter("engine.recheck_skipped")

	var allocs, rows [2]float64
	for i, q := range []string{`1/82, 1/83, 1/82, 1/83`, `1/82, 1/90, 1/82, 1/90`} {
		args := []types.Datum{q}
		run := func() {
			res, err := s.ExecutePrepared(nil, "scan", args)
			if err != nil {
				t.Fatal(err)
			}
			rows[i] = float64(len(res.Rows))
		}
		run() // warm: plan cached, pages pinned once
		before := skipped.Load()
		run()
		if skipped.Load() == before {
			t.Fatalf("query %s re-checked its WHERE clause: the scan is not on the exact path", q)
		}
		allocs[i] = testing.AllocsPerRun(10, run)
	}
	t.Logf("%v allocations returning %v rows", allocs, rows)
	if rows[1] < 4*rows[0] {
		t.Fatalf("the larger scan returned %v rows, the smaller %v", rows[1], rows[0])
	}
	if per := (allocs[1] - allocs[0]) / (rows[1] - rows[0]); per > maxAllocsPerRow {
		t.Fatalf("%.2f allocations per returned row, want at most %v", per, maxAllocsPerRow)
	}
}

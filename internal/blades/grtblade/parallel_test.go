package grtblade

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
)

// forceParallel raises GOMAXPROCS for the test: SET PARALLEL caps the degree
// at GOMAXPROCS and CI containers may expose a single CPU; the protocol's
// correctness does not depend on real hardware parallelism.
func forceParallel(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) >= 4 {
		return
	}
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// loadExtents creates the paper's schema with a GR-tree index of the given
// fan-out and inserts n rows whose extents spread across 1/90..12/96.
func loadExtents(t *testing.T, s *engine.Session, n, maxEntries int) {
	t.Helper()
	mustExec := func(q string) {
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("Exec(%s): %v", q, err)
		}
	}
	mustExec(`CREATE SBSPACE spc`)
	mustExec(`CREATE TABLE Employees (Name VARCHAR(32), Department VARCHAR(32), Time_Extent GRT_TimeExtent_t)`)
	mustExec(fmt.Sprintf(`CREATE INDEX grt_index ON Employees(Time_Extent grt_opclass) USING grtree_am (maxentries=%d) IN spc`, maxEntries))
	for i := 0; i < n; i++ {
		m, y := i%12+1, 90+(i/12)%7 // 1/90 .. 12/96, all before the 9/97 current time
		mustExec(fmt.Sprintf(`INSERT INTO Employees VALUES ('emp%d', 'dept%d', '%d/%d, UC, %d/%d, NOW')`,
			i, i%7, m, y, m, y))
	}
}

// TestParallelScanAgreesWithSerial pins the tentpole's determinism for the
// real blade: under SET PARALLEL the GR-tree's root fan-out partitioning,
// latched traversal, and the engine's worker pool return exactly the serial
// result set (sorted compare), with the rows-scanned profile in agreement
// and the worker offer visible in EXPLAIN.
func TestParallelScanAgreesWithSerial(t *testing.T) {
	forceParallel(t)
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	loadExtents(t, s, 300, 8)

	queries := []string{
		`SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '1/90, UC, 1/90, NOW')`,
		`SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '6/93, 7/95, 6/93, 7/95')`,
		`SELECT Name FROM Employees WHERE ContainedIn(Time_Extent, '1/92, UC, 1/92, NOW')`,
		`SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '1/90, UC, 1/90, NOW') AND Department = 'dept3'`,
	}
	for i, q := range queries {
		serial := exec(t, s, q)
		exec(t, s, `SET PARALLEL 4`)
		par := exec(t, s, q)
		exec(t, s, `SET PARALLEL 0`)

		sn, pn := names(serial), names(par)
		sort.Strings(sn)
		sort.Strings(pn)
		if strings.Join(sn, ",") != strings.Join(pn, ",") {
			t.Fatalf("query %d: serial %d rows vs parallel %d rows", i, len(sn), len(pn))
		}
		if serial.Stats.RowsScanned != par.Stats.RowsScanned {
			t.Fatalf("query %d rows scanned: serial=%d parallel=%d", i, serial.Stats.RowsScanned, par.Stats.RowsScanned)
		}
	}

	exec(t, s, `SET PARALLEL 4`)
	ex := exec(t, s, `EXPLAIN SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '1/90, UC, 1/90, NOW')`)
	if !strings.Contains(ex.Plan.String(), "workers=") {
		t.Fatalf("EXPLAIN missing workers=N:\n%s", ex.Plan)
	}
	if e.Obs().Counter("parallel.scans").Load() == 0 {
		t.Fatal("parallel.scans counter did not move: scans fell back to serial")
	}
	if e.Obs().Counter("parallel.busy_ns").Load() == 0 {
		t.Fatal("parallel.busy_ns did not move: workers recorded no busy time")
	}
}

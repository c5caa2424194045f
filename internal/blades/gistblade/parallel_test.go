package gistblade

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
)

// fill creates and indexes the two tables the agreement tests share: Spans
// (intervals under gist_interval_ops) and T (GR extents under gist_grt_ops),
// each large enough for a root with several children. params goes between
// USING gist_am and IN spc.
func fill(t *testing.T, s *engine.Session, params string) {
	t.Helper()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE Spans (N INTEGER, R Interval_t)`)
	exec(t, s, `CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`)
	for i := 0; i < 600; i++ {
		lo := (i * 13) % 2000
		exec(t, s, fmt.Sprintf(`INSERT INTO Spans VALUES (%d, '%d..%d')`, i, lo, lo+25))
	}
	for i := 0; i < 300; i++ {
		m := i%9 + 1
		ext := fmt.Sprintf("%d/96, %d/96, %d/95, %d/96", m, m+2, m, m)
		if i%2 == 0 {
			ext = fmt.Sprintf("%d/97, UC, %d/97, NOW", m, m)
		}
		exec(t, s, fmt.Sprintf(`INSERT INTO T VALUES (%d, '%s')`, i, ext))
	}
	exec(t, s, fmt.Sprintf(`CREATE INDEX span_ix ON Spans(R gist_interval_ops) USING gist_am %s IN spc`, params))
	exec(t, s, fmt.Sprintf(`CREATE INDEX gix ON T(X gist_grt_ops) USING gist_am %s IN spc`, params))
}

var agreementQueries = []string{
	`SELECT N FROM Spans WHERE IntvOverlaps(R, '0..2100')`,
	`SELECT N FROM Spans WHERE IntvOverlaps(R, '100..400')`,
	`SELECT N FROM Spans WHERE IntvOverlaps(R, '100..130') OR IntvContains(R, '900..910')`,
	`SELECT N FROM T WHERE Overlaps(X, '1/90, UC, 1/90, NOW')`,
	`SELECT N FROM T WHERE Overlaps(X, '5/97, 6/97, 5/97, 6/97')`,
	`SELECT N FROM T WHERE ContainedIn(X, '1/97, UC, 1/96, NOW')`,
}

// TestParallelScanAgreesWithSerial: gist_am's am_parallelscan (the
// scaffold's root fan-out, pruned by the key class's Consistent) returns
// exactly the serial answer for both operator classes, and a query that
// covers the whole table fans out.
func TestParallelScanAgreesWithSerial(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		old := runtime.GOMAXPROCS(4) // SET PARALLEL caps the degree at GOMAXPROCS
		defer runtime.GOMAXPROCS(old)
	}
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	fill(t, s, "")
	exec(t, s, `CHECK INDEX span_ix`)
	exec(t, s, `CHECK INDEX gix`)

	fanned := e.Obs().Counter("parallel.scans")
	for i, q := range agreementQueries {
		serial := strings.Join(rowInts(t, exec(t, s, q)), ",")
		exec(t, s, `SET PARALLEL 4`)
		before := fanned.Load()
		par := strings.Join(rowInts(t, exec(t, s, q)), ",")
		exec(t, s, `SET PARALLEL 0`)
		if serial != par {
			t.Fatalf("query %d: serial %q vs parallel %q", i, serial, par)
		}
		if wide := i == 0 || i == 3; wide && fanned.Load() == before {
			t.Fatalf("query %d covers the table but did not fan out", i)
		}
	}
}

package gistblade

import (
	"fmt"
	"strings"
	"testing"
)

// gist_am binds the scaffold's am_aggregate, and its binding declines every
// request: Consistent may over-approximate, so the index knows candidates,
// not answers. These tests pin that the server asks, is refused, and drains
// exactly (counters and agreement), the prepared EXECUTE path, and the
// statistics gist_stats collects.

func TestAggregateDeclinesAndDrains(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	fill(t, s, "")

	counter := func(name string) func() uint64 {
		c := e.Obs().Counter(name)
		before := c.Load()
		return func() uint64 { return c.Load() - before }
	}
	for _, q := range []string{
		`SELECT COUNT(*) FROM Spans WHERE IntvOverlaps(R, '100..130')`,
		`SELECT COUNT(*) FROM T WHERE Overlaps(X, '5/97, 6/97, 5/97, 6/97')`,
		`SELECT MIN(X) FROM T WHERE Overlaps(X, '1/90, UC, 1/90, NOW')`,
		`SELECT MAX(X) FROM T WHERE ContainedIn(X, '1/97, UC, 1/96, NOW')`,
	} {
		want := exec(t, s, q+` AND N >= 0`).Rows[0][0] // residual: unambiguous drain
		asked, pushed, fellBack := counter("am.am_aggregate"), counter("agg.pushed"), counter("agg.fallback")
		got := exec(t, s, q).Rows[0][0]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %v via gist_am, drain says %v", q, got, want)
		}
		if asked() != 1 || pushed() != 0 || fellBack() != 1 {
			t.Fatalf("%s: am_aggregate called %d, pushed %d, fell back %d; want 1, 0, 1", q, asked(), pushed(), fellBack())
		}
	}
}

// Prepared aggregate EXECUTEs over gist_am drain on both the fresh and the
// cached plan, and stay exact.
func TestAggregatePreparedExecuteFallback(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE Spans (N INTEGER, R Interval_t)`)
	exec(t, s, `CREATE INDEX span_ix ON Spans(R gist_interval_ops) USING gist_am IN spc`)
	for i := 0; i < 40; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO Spans VALUES (%d, '%d..%d')`, i, i*10, i*10+15))
	}
	exec(t, s, `PREPARE cnt AS SELECT COUNT(*) FROM Spans WHERE IntvOverlaps(R, $1)`)
	want := exec(t, s, `SELECT COUNT(*) FROM Spans WHERE IntvOverlaps(R, '100..200') AND N >= 0`).Rows[0][0]

	for run := 0; run < 2; run++ {
		fallback := e.Obs().Counter("agg.fallback").Load()
		got := exec(t, s, `EXECUTE cnt ('100..200')`).Rows[0][0]
		if got != want {
			t.Fatalf("run %d: EXECUTE count %v, want %v", run, got, want)
		}
		if e.Obs().Counter("agg.fallback").Load() == fallback {
			t.Fatalf("run %d: prepared gist aggregate did not drain", run)
		}
	}
}

// UPDATE STATISTICS runs gist_stats: an entry count without histograms (the
// generic method cannot see its keys' value domain), published to SYSSTATS
// by the FOR TABLE form and reported raw by FOR INDEX.
func TestGistStats(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE Spans (N INTEGER, R Interval_t)`)
	exec(t, s, `CREATE INDEX span_ix ON Spans(R gist_interval_ops) USING gist_am IN spc`)
	for i := 0; i < 25; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO Spans VALUES (%d, '%d..%d')`, i, i, i+5))
	}

	res := exec(t, s, `UPDATE STATISTICS FOR INDEX span_ix`)
	if !strings.Contains(res.Message, "25 entries") {
		t.Fatalf("FOR INDEX message: %q", res.Message)
	}

	res = exec(t, s, `UPDATE STATISTICS FOR TABLE Spans`)
	if !strings.Contains(res.Message, "25 rows") || !strings.Contains(res.Message, "1 index(es)") {
		t.Fatalf("FOR TABLE message: %q", res.Message)
	}

	// The published statistics feed EXPLAIN's cost source line.
	plan := exec(t, s, `EXPLAIN SELECT N FROM Spans WHERE IntvOverlaps(R, '3..8')`)
	var text strings.Builder
	for _, l := range plan.Plan.Lines() {
		text.WriteString(l)
		text.WriteString("\n")
	}
	if !strings.Contains(text.String(), "cost source: stats(age 0)") {
		t.Fatalf("post-statistics EXPLAIN must name the stats family:\n%s", text.String())
	}
}

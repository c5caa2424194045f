package gistblade

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/blades/grtblade"
	"repro/internal/chronon"
	"repro/internal/engine"
)

func newDB(t *testing.T) (*engine.Engine, *chronon.VirtualClock) {
	t.Helper()
	clock := chronon.NewVirtualClock(chronon.MustParse("9/97"))
	e, err := engine.Open(engine.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := grtblade.Register(e); err != nil {
		t.Fatal(err)
	}
	if err := Register(e); err != nil {
		t.Fatal(err)
	}
	return e, clock
}

func exec(t *testing.T, s *engine.Session, sql string) *engine.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return res
}

func TestRegisterRequiresGrtblade(t *testing.T) {
	e, err := engine.Open(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := Register(e); err == nil {
		t.Fatal("registration without grtblade must fail")
	}
}

// TestIntervalOpClass: the generic access method with the interval key
// class, end to end through SQL.
func TestIntervalOpClass(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE Spans (N INTEGER, R Interval_t)`)
	exec(t, s, `CREATE INDEX span_ix ON Spans(R gist_interval_ops) USING gist_am IN spc`)
	for i := 0; i < 300; i++ {
		lo := (i * 13) % 2000
		exec(t, s, fmt.Sprintf(`INSERT INTO Spans VALUES (%d, '%d..%d')`, i, lo, lo+25))
	}
	exec(t, s, `CHECK INDEX span_ix`)

	q := `SELECT N FROM Spans WHERE IntvOverlaps(R, '100..130')`
	withIndex := rowInts(t, exec(t, s, q))
	exec(t, s, `DROP INDEX span_ix`)
	seq := rowInts(t, exec(t, s, q))
	if strings.Join(withIndex, ",") != strings.Join(seq, ",") {
		t.Fatalf("interval index vs seqscan: %v vs %v", withIndex, seq)
	}
	if len(withIndex) == 0 {
		t.Fatal("no overlaps found")
	}
}

// TestGRTOpClass: the same bitemporal SQL surface as grtree_am, powered by
// the generic method with the GR key class — and it agrees with both the
// dedicated grtree_am index and a sequential scan.
func TestGRTOpClass(t *testing.T) {
	e, clock := newDB(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`)
	exec(t, s, `CREATE INDEX gix ON T(X gist_grt_ops) USING gist_am IN spc`)
	for i := 0; i < 150; i++ {
		m := i%9 + 1
		var ext string
		if i%2 == 0 {
			ext = fmt.Sprintf("%d/97, UC, %d/97, NOW", m, m)
		} else {
			ext = fmt.Sprintf("%d/96, %d/96, %d/95, %d/96", m, m+2, m, m)
		}
		exec(t, s, fmt.Sprintf(`INSERT INTO T VALUES (%d, '%s')`, i, ext))
	}
	exec(t, s, `CHECK INDEX gix`)

	queries := []string{
		`SELECT N FROM T WHERE Overlaps(X, '5/97, 6/97, 5/97, 6/97')`,
		`SELECT N FROM T WHERE Equal(X, '3/97, UC, 3/97, NOW')`,
		`SELECT N FROM T WHERE ContainedIn(X, '1/97, UC, 1/96, NOW')`,
		`SELECT N FROM T WHERE Contains(X, '6/15/97, 6/16/97, 5/97, 5/97')`,
	}
	gistAnswers := make([]string, len(queries))
	for i, q := range queries {
		gistAnswers[i] = strings.Join(rowInts(t, exec(t, s, q)), ",")
	}
	exec(t, s, `DROP INDEX gix`)
	for i, q := range queries {
		seq := strings.Join(rowInts(t, exec(t, s, q)), ",")
		if seq != gistAnswers[i] {
			t.Fatalf("query %d: gist %q vs seqscan %q", i, gistAnswers[i], seq)
		}
	}

	// Growth is visible through the generic path too.
	exec(t, s, `CREATE INDEX gix ON T(X gist_grt_ops) USING gist_am IN spc`)
	q := `SELECT COUNT(*) FROM T WHERE Overlaps(X, '1/98, 2/98, 1/98, 2/98')`
	before := exec(t, s, q).Rows[0][0].(int64)
	clock.Set(chronon.MustParse("3/98"))
	after := exec(t, s, q).Rows[0][0].(int64)
	if before != 0 || after == 0 {
		t.Fatalf("growth through gist_am: before=%d after=%d", before, after)
	}
}

// TestGistUpdateDelete: mutation through the generic purpose functions.
func TestGistUpdateDelete(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE Spans (N INTEGER, R Interval_t)`)
	exec(t, s, `CREATE INDEX ix ON Spans(R gist_interval_ops) USING gist_am IN spc`)
	for i := 0; i < 100; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO Spans VALUES (%d, '%d..%d')`, i, i*10, i*10+5))
	}
	res := exec(t, s, `UPDATE Spans SET R = '5000..5005' WHERE IntvOverlaps(R, '0..55')`)
	if res.Affected != 6 {
		t.Fatalf("updated %d", res.Affected)
	}
	exec(t, s, `CHECK INDEX ix`)
	res = exec(t, s, `DELETE FROM Spans WHERE IntvOverlaps(R, '5000..5005')`)
	if res.Affected != 6 {
		t.Fatalf("deleted %d", res.Affected)
	}
	exec(t, s, `CHECK INDEX ix`)
	res = exec(t, s, `SELECT COUNT(*) FROM Spans`)
	if res.Rows[0][0].(int64) != 94 {
		t.Fatalf("count %v", res.Rows[0][0])
	}
}

// TestUnknownOpClassBinding: a catalogued opclass without a Go key-class
// binding is a clean error at index creation.
func TestUnknownOpClassBinding(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE T (R Interval_t)`)
	// Register an opclass with no binding.
	exec(t, s, `CREATE OPCLASS gist_orphan_ops FOR gist_am STRATEGIES(IntvOverlaps)`)
	if _, err := s.Exec(`CREATE INDEX ox ON T(R gist_orphan_ops) USING gist_am IN spc`); err == nil {
		t.Fatal("index under an unbound opclass must fail")
	}
}

// TestOpClassWithoutKeyBinding: gist_am learns its key class only from the
// operator class's SUPPORT function, so an opclass listing none, or one that
// yields no binding, fails CREATE INDEX with ErrNoKeyBinding.
func TestOpClassWithoutKeyBinding(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE T (R Interval_t)`)
	exec(t, s, `CREATE OPCLASS gist_bare_ops FOR gist_am STRATEGIES(IntvOverlaps)`)
	exec(t, s, `CREATE OPCLASS gist_wrong_ops FOR gist_am STRATEGIES(IntvOverlaps) SUPPORT(IntvContains)`)
	for _, oc := range []string{"gist_bare_ops", "gist_wrong_ops"} {
		_, err := s.Exec(fmt.Sprintf(`CREATE INDEX ox ON T(R %s) USING gist_am IN spc`, oc))
		if !errors.Is(err, ErrNoKeyBinding) {
			t.Fatalf("CREATE INDEX under %s: %v, want ErrNoKeyBinding", oc, err)
		}
	}
	exec(t, s, `CREATE INDEX ox ON T(R gist_interval_ops) USING gist_am IN spc`)
}

func rowInts(t *testing.T, res *engine.Result) []string {
	t.Helper()
	var out []string
	for _, row := range res.Rows {
		out = append(out, fmt.Sprint(row[0]))
	}
	sort.Strings(out)
	return out
}

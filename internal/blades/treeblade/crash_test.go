package treeblade_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/blades/grtblade"
	"repro/internal/engine"
)

// all overlaps every extent values writes.
const all = `SELECT COUNT(*) FROM T WHERE Overlaps(X, '1/89, 8/97, 1/89, 8/97')`

// values renders rows N = from .. from+n-1 with ground one-year extents.
func values(from, n int) string {
	out := make([]string, n)
	for i := range out {
		k := from + i
		mo, y := k%12+1, 90+(k/12)%6
		out[i] = fmt.Sprintf("(%d, '%d/%d, %d/%d, %d/%d, %d/%d')", k, mo, y, mo, y+1, mo, y, mo, y+1)
	}
	return strings.Join(out, ", ")
}

// dirOptions opens an engine over dir that re-opens its own catalog: the
// blade's opaque type is registered before the tables open.
func dirOptions(dir string) engine.Options {
	return engine.Options{Dir: dir, CheckpointInterval: -1, Types: grtblade.RegisterTypes}
}

// count runs a one-cell COUNT query.
func count(t *testing.T, s *engine.Session, sql string) int64 {
	t.Helper()
	return exec(t, s, sql).Rows[0][0].(int64)
}

// indexCount is count(all), failing unless the index answered: an index scan
// or a pushed aggregate.
func indexCount(t *testing.T, e *engine.Engine, s *engine.Session) int64 {
	t.Helper()
	used := func() uint64 {
		return e.Obs().Counter("am.am_beginscan").Load() + e.Obs().Counter("agg.pushed").Load()
	}
	before := used()
	n := count(t, s, all)
	if used() == before {
		t.Fatal("the index did not answer the COUNT")
	}
	return n
}

// A crash that writes no dirty page back leaves the pagers as the last
// checkpoint and the evictions left them; everything since is in the log.
// Here that is the whole index, from the space's first large object on.
// After the crash, every method's index agrees with its table, whether the
// last transaction (n rows inserted, then one row deleted) committed or was
// abandoned.
func TestLostPagesRecovery(t *testing.T) {
	const base = 20
	each(t, func(t *testing.T, m method) {
		for _, n := range []int{0, 30, 3000} {
			for _, commit := range []bool{true, false} {
				name := fmt.Sprintf("%d rows abandoned", n)
				if commit {
					name = fmt.Sprintf("%d rows committed", n)
				}
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					e := open(t, dirOptions(dir))
					s := e.NewSession()
					exec(t, s, `CREATE SBSPACE spc`)
					exec(t, s, `CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`)
					if err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					exec(t, s, `INSERT INTO T VALUES `+values(0, base))
					exec(t, s, fmt.Sprintf(`CREATE INDEX ix ON T(X %s) USING %s IN spc`, m.opclass, m.am))
					exec(t, s, `BEGIN WORK`)
					if n > 0 {
						exec(t, s, `INSERT INTO T VALUES `+values(base, n))
					}
					exec(t, s, `DELETE FROM T WHERE N = 0`)
					want := int64(base)
					if commit {
						exec(t, s, `COMMIT WORK`)
						want = int64(base + n - 1)
					}
					e.CrashLosingPagesForTesting()

					e2 := open(t, dirOptions(dir))
					s2 := e2.NewSession()
					defer s2.Close()
					if got := count(t, s2, `SELECT COUNT(*) FROM T`); got != want {
						t.Fatalf("sequential scan counts %d rows, want %d", got, want)
					}
					if got := indexCount(t, e2, s2); got != want {
						t.Fatalf("index counts %d rows, want %d", got, want)
					}
					exec(t, s2, `CHECK INDEX ix`)
				})
			}
		}
	})
}

// A committed DELETE whose pages were lost is redone before the heap counts
// its dead cells, so the aggregate gate sees the dead cell and the COUNT is
// the sequential scan's, pushed or not.
func TestPushedCountAfterLostDelete(t *testing.T) {
	dir := t.TempDir()
	e := open(t, dirOptions(dir))
	s := e.NewSession()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`)
	exec(t, s, `INSERT INTO T VALUES `+values(0, 20))
	exec(t, s, `CREATE INDEX ix ON T(X grt_opclass) USING grtree_am IN spc`)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	exec(t, s, `DELETE FROM T WHERE N = 0`)
	e.CrashLosingPagesForTesting()

	e2 := open(t, dirOptions(dir))
	s2 := e2.NewSession()
	defer s2.Close()
	if got, want := count(t, s2, all), count(t, s2, `SELECT COUNT(*) FROM T`); got != want || want != 19 {
		t.Fatalf("COUNT through the index %d, sequential scan %d, want 19", got, want)
	}
}

// A CREATE INDEX that fails after creating the first large object of a fresh
// sbspace rolls back; the space's metadata page, formatted redo-only, stays,
// so the next CREATE INDEX in the space works, and so does a reopen.
func TestFailedFirstBuildLeavesTheSpaceUsable(t *testing.T) {
	each(t, func(t *testing.T, m method) {
		dir := t.TempDir()
		e := open(t, dirOptions(dir))
		s := e.NewSession()
		exec(t, s, `CREATE SBSPACE spc`)
		exec(t, s, `CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`)
		exec(t, s, `INSERT INTO T VALUES `+values(0, 20))
		injected := errors.New("injected build failure")
		e.SetBuildHookForTesting(func(stage string) error {
			if stage == "bulk" {
				return injected
			}
			return nil
		})
		create := fmt.Sprintf(`CREATE INDEX ix ON T(X %s) USING %s IN spc`, m.opclass, m.am)
		if _, err := s.Exec(create); !errors.Is(err, injected) {
			t.Fatalf("first CREATE INDEX: %v, want the injected failure", err)
		}
		e.SetBuildHookForTesting(nil)
		exec(t, s, create)
		s.Close()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		e2 := open(t, dirOptions(dir))
		s2 := e2.NewSession()
		defer s2.Close()
		if got := indexCount(t, e2, s2); got != 20 {
			t.Fatalf("index counts %d rows after reopen, want 20", got)
		}
		exec(t, s2, `CHECK INDEX ix`)
	})
}

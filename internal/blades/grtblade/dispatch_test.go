package grtblade

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/engine"
)

// TestDynamicDispatchAgreesWithHardcoded: the Section 5.2 extensible path
// (strategy functions resolved dynamically as UDRs per candidate) must
// produce exactly the answers of the hard-coded path, for every operator
// and argument order.
func TestDynamicDispatchAgreesWithHardcoded(t *testing.T) {
	answers := map[string][]string{}
	for _, mode := range []string{"hardcoded", "dynamic"} {
		clock := chronon.NewVirtualClock(chronon.MustParse("9/97"))
		e, err := engine.Open(engine.Options{Clock: clock, NoWAL: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := Register(e); err != nil {
			t.Fatal(err)
		}
		s := e.NewSession()
		if _, err := s.ExecScript(fmt.Sprintf(`CREATE SBSPACE spc;
			CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t);
			CREATE INDEX ix ON T(X) USING grtree_am (dispatch='%s', maxentries=8) IN spc`, mode)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			m := i%9 + 1
			var ext string
			switch i % 3 {
			case 0:
				ext = fmt.Sprintf("%d/97, UC, %d/97, NOW", m, m)
			case 1:
				ext = fmt.Sprintf("%d/96, %d/96, %d/96, NOW", m, m+2, m)
			default:
				ext = fmt.Sprintf("%d/97, UC, %d/96, %d/97", m, m, m)
			}
			if _, err := s.Exec(fmt.Sprintf(`INSERT INTO T VALUES (%d, '%s')`, i, ext)); err != nil {
				t.Fatal(err)
			}
		}
		queries := []string{
			`SELECT N FROM T WHERE Overlaps(X, '5/97, 6/97, 5/97, 6/97')`,
			`SELECT N FROM T WHERE Equal(X, '3/97, UC, 3/97, NOW')`,
			`SELECT N FROM T WHERE Contains(X, '5/15/97, 5/16/97, 4/97, 4/97')`,
			`SELECT N FROM T WHERE ContainedIn(X, '1/97, UC, 1/96, NOW')`,
			`SELECT N FROM T WHERE Contains('1/97, UC, 1/96, NOW', X)`,
			`SELECT N FROM T WHERE Overlaps(X, '5/97, 6/97, 5/97, 6/97') AND N < 50`,
			`SELECT N FROM T WHERE Equal(X, '3/97, UC, 3/97, NOW') OR Equal(X, '4/97, UC, 4/97, NOW')`,
		}
		for _, q := range queries {
			res, err := s.Exec(q)
			if err != nil {
				t.Fatalf("%s [%s]: %v", q, mode, err)
			}
			var ids []string
			for _, row := range res.Rows {
				ids = append(ids, fmt.Sprint(row[0]))
			}
			key := q
			got := strings.Join(sortStrings(ids), ",")
			if prev, seen := answers[key]; seen {
				if strings.Join(prev, ",") != got {
					t.Fatalf("dispatch modes disagree on %s:\nhardcoded: %v\ndynamic:   %s", q, prev, got)
				}
			} else {
				answers[key] = sortStrings(ids)
			}
		}
		s.Close()
		e.Close()
	}
}

func sortStrings(in []string) []string {
	out := append([]string(nil), in...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestIndexCrashRecovery: a committed index mutation survives a crash (WAL
// redo over the sbspace pages); an uncommitted one is undone.
func TestIndexCrashRecovery(t *testing.T) {
	for name, crash := range map[string]func(*engine.Engine){
		"written back": (*engine.Engine).CrashForTesting,
		"pages lost":   (*engine.Engine).CrashLosingPagesForTesting,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			clock := chronon.NewVirtualClock(chronon.MustParse("9/97"))
			e, err := engine.Open(engine.Options{Dir: dir, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			if err := Register(e); err != nil {
				t.Fatal(err)
			}
			s := e.NewSession()
			if _, err := s.ExecScript(`CREATE SBSPACE spc;
				CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t);
				CREATE INDEX ix ON T(X) USING grtree_am IN spc`); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				if _, err := s.Exec(fmt.Sprintf(`INSERT INTO T VALUES (%d, '%d/97, UC, %d/97, NOW')`, i, i%9+1, i%9+1)); err != nil {
					t.Fatal(err)
				}
			}
			// An uncommitted transaction that dirties heap and index, then a
			// simulated crash, with every pool written back or none.
			if _, err := s.Exec(`BEGIN WORK`); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Exec(`INSERT INTO T VALUES (999, '9/97, UC, 9/97, NOW')`); err != nil {
				t.Fatal(err)
			}
			crash(e)

			e2, err := engine.Open(engine.Options{Dir: dir, Clock: clock, Types: RegisterTypes})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if err := Register(e2); err != nil {
				t.Fatal(err)
			}
			s2 := e2.NewSession()
			defer s2.Close()
			res, err := s2.Exec(`SELECT COUNT(*) FROM T WHERE Overlaps(X, '1/97, UC, 1/97, NOW')`)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows[0][0].(int64) != 30 {
				t.Fatalf("recovered count: %v (uncommitted insert must be undone)", res.Rows[0][0])
			}
			if _, err := s2.Exec(`CHECK INDEX ix`); err != nil {
				t.Fatalf("recovered index inconsistent: %v", err)
			}
			// The database is fully usable after recovery.
			if _, err := s2.Exec(`INSERT INTO T VALUES (31, '9/97, UC, 9/97, NOW')`); err != nil {
				t.Fatal(err)
			}
			res, _ = s2.Exec(`SELECT COUNT(*) FROM T`)
			if res.Rows[0][0].(int64) != 31 {
				t.Fatalf("post-recovery insert: %v", res.Rows[0][0])
			}
		})
	}
}

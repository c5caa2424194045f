package sql

import (
	"strings"
	"testing"
)

// FuzzParse throws arbitrary bytes at the lexer and parser (placeholders
// included in the seed corpus) and checks two properties: no panic, and
// deparse stability — whatever parses must re-parse from its deparsed form
// to an identical deparse. That second property is load-bearing: the shared
// plan cache keys on deparse normal form, so an unstable deparse would
// silently split or alias cache entries.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`SELECT Name FROM Employees WHERE Department = $1`,
		`SELECT a FROM t WHERE f(x, ?) AND y = ?`,
		`PREPARE byemp AS SELECT Name FROM Employees WHERE Overlaps(Time_Extent, $1)`,
		`EXECUTE byemp ('Sales', 7)`,
		`DEALLOCATE PREPARE byemp`,
		`SET PLAN_CACHE OFF`,
		`SET TRACE grt TO 2`,
		`SET PARALLEL 4`,
		`SET COMMIT TO sync`,
		`SET ISOLATION TO REPEATABLE READ`,
		`SET widgets TO 1`,
		`INSERT INTO t VALUES ($1, $2, NULL)`,
		`UPDATE t SET a = $1 WHERE b = $2`,
		`DELETE FROM t WHERE ContainedIn(x, $9)`,
		`EXPLAIN EXECUTE byemp (1)`,
		`SELECT x FROM t WHERE NOT (a = $1 OR b = '?''$2')`,
		`CREATE INDEX ix ON t(x ops) USING am (k='v') IN spc`,
		`SELECT COUNT(*) FROM t WHERE Overlaps(x, $1)`,
		`SELECT COUNT(a) FROM t`,
		`SELECT MIN(x) FROM t WHERE ContainedIn(x, '1/97, UC, 1/97, NOW')`,
		`SELECT MAX(x) FROM t WHERE f(x, ?) AND g(y)`,
		`SELECT Name, COUNT(*) FROM t`, // rejected downstream, must still parse or error cleanly
		`UPDATE STATISTICS FOR INDEX ix`,
		`UPDATE STATISTICS FOR TABLE t`,
		`UPDATE STATISTICS t`,
		`UPDATE STATISTICS FOR t`,
		`EXPLAIN SELECT COUNT(*) FROM t WHERE Overlaps(x, $1)`,
		`$1 $$ ?? SELECT $`,
		"SELECT -- comment\n1",
		// A byte the lexer reads as a letter but that is not UTF-8: case
		// folding must leave it alone, or the deparse does not lex.
		"SET \xe8 0",
		"SET ISOLATION \xe8",
		"SHOW \xc0",
		"CREATE INDEX ix ON t(x) USING am (\xc0=1)",
		"CREATE SECONDARY ACCESS_METHOD a (\xc0 = g)",
		"CREATE FUNCTION f(int) RETURNING int EXTERNAL NAME 'x' LANGUAGE \xc0",
		`'unterminated`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src) // must not panic, whatever the bytes
		if err != nil {
			return
		}
		d1 := Deparse(st)
		if strings.Contains(d1, "undeparsable") {
			return // statement type without a deparse form — nothing to check
		}
		st2, err := Parse(d1)
		if err != nil {
			t.Fatalf("deparse of %q does not re-parse: %q: %v", src, d1, err)
		}
		if d2 := Deparse(st2); d2 != d1 {
			t.Fatalf("deparse unstable for %q: %q vs %q", src, d1, d2)
		}
		if NumParams(st) != NumParams(st2) {
			t.Fatalf("param count drifts through deparse of %q", src)
		}
	})
}

package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The engine skips the WHERE re-check on an index scan only when the access
// method claimed ScanDesc.Exact, the qualification is the whole WHERE clause,
// and the read view is a registered snapshot. So the claim is trusted as
// given: an access method that claims exactness but returns a superset must
// make an index-vs-seqscan agreement check fail, and the same method without
// the claim must pass it. Where any of the other two conditions fails, the
// re-check still runs and even the false claim cannot leak a row.
func TestExactFlagIsTrustedOnlyWhereTrue(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerMemAMWith(t, e, "liar_am", "liar", memAM{getMulti: true, superset: true, exact: true})
	registerMemAMWith(t, e, "honest_am", "honest", memAM{getMulti: true, superset: true})
	s := e.NewSession()
	defer s.Close()

	const total, match = 120, 90
	fillMemTable(t, s, "tl", "liar_am", total, match)
	fillMemTable(t, s, "th", "honest_am", total, match)
	exec(t, s, `CREATE TABLE tc (a INTEGER, b VARCHAR(16))`) // unindexed: sequential scan
	for i := 0; i < total; i++ {
		k := i + 1000
		if i < match {
			k = 7
		}
		exec(t, s, fmt.Sprintf(`INSERT INTO tc VALUES (%d, 'row%d')`, k, i))
	}
	skipped := e.Obs().Counter("engine.recheck_skipped")
	rows := func(table, where string) string {
		t.Helper()
		res := exec(t, s, fmt.Sprintf(`SELECT b FROM %s WHERE %s`, table, where))
		if ch := res.Plan.Chosen(); (ch != nil) != (table != "tc") {
			t.Fatalf("%s: plan %v", table, res.Plan)
		}
		out := column(res)
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	// agrees runs the query on an indexed table and on the control, and
	// reports whether they agree and whether the re-check was skipped.
	agrees := func(table, where string) (agree, skip bool) {
		t.Helper()
		want := rows("tc", where)
		before := skipped.Load()
		got := rows(table, where)
		return got == want, skipped.Load() != before
	}

	if agree, skip := agrees("tl", `MemEq(a, 7)`); agree || !skip {
		t.Fatalf("a false Exact claim: agree %v, re-check skipped %v; the engine must trust the flag", agree, skip)
	}
	if agree, skip := agrees("th", `MemEq(a, 7)`); !agree || skip {
		t.Fatalf("no Exact claim: agree %v, re-check skipped %v", agree, skip)
	}
	// A residual predicate keeps the re-check, claim or not.
	if agree, skip := agrees("tl", `MemEq(a, 7) AND b = b`); !agree || skip {
		t.Fatalf("partial WHERE: agree %v, re-check skipped %v", agree, skip)
	}
	// So does a DIRTY READ view, which no vacuum horizon protects.
	exec(t, s, `SET ISOLATION TO DIRTY READ`)
	if agree, skip := agrees("tl", `MemEq(a, 7)`); !agree || skip {
		t.Fatalf("DIRTY READ: agree %v, re-check skipped %v", agree, skip)
	}
}

func column(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r[0])
	}
	return out
}

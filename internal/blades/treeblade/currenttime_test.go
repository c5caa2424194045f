package treeblade_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/engine"
)

// Section 5.4 fixes the current time per transaction, so a COMMITTED READ
// transaction's later statements read rows committed after its current time:
// rows that start after it and are empty there. An empty region overlaps
// nothing, contains nothing and is contained in nothing, so the index must
// not return such a row nor count it in a pushed aggregate, wherever it sits
// in the tree; its answer must equal a sequential scan of an unindexed twin.
func TestIndexAgreesOnRowsAfterTheCurrentTime(t *testing.T) {
	configs := []struct{ name, am, opclass, params string }{
		{name: "grtree_am", am: "grtree_am", opclass: "grt_opclass"},
		{name: "rstree_am nowsub=max", am: "rstree_am", opclass: "rst_opclass", params: "(nowsub='max')"},
		{name: "rstree_am nowsub=asof", am: "rstree_am", opclass: "rst_opclass", params: "(nowsub='asof')"},
		{name: "gist_am", am: "gist_am", opclass: "gist_grt_ops"},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			e := open(t, engine.Options{})
			clock := e.Clock().(*chronon.VirtualClock)
			ct := clock.Now()
			day := func(d int) string { return (ct + chronon.Instant(d)).String() }
			// 800 rows over the 400 days before ct: every fourth a growing
			// stair, the others ground rectangles of up to 40 days.
			var values []string
			for i := 0; i < 800; i++ {
				start := -400 + i/2
				text := fmt.Sprintf("%s, UC, %s, NOW", day(start), day(start))
				if i%4 != 0 {
					end := start + i%41
					if end > -1 {
						end = -1
					}
					text = fmt.Sprintf("%s, %s, %s, %s", day(start), day(end), day(start), day(end))
				}
				values = append(values, fmt.Sprintf("(%d, '%s')", i, text))
			}
			s := e.NewSession()
			defer s.Close()
			exec(t, s, `CREATE SBSPACE spc`)
			for _, table := range []string{"T", "U"} {
				exec(t, s, fmt.Sprintf(`CREATE TABLE %s (N INTEGER, X GRT_TimeExtent_t)`, table))
				exec(t, s, fmt.Sprintf(`INSERT INTO %s VALUES %s`, table, strings.Join(values, ", ")))
			}
			exec(t, s, fmt.Sprintf(`CREATE INDEX ix ON T(X %s) USING %s %s IN spc`, c.opclass, c.am, c.params))

			q := fmt.Sprintf("%s, %s, %s, %s", day(-300), day(-280), day(-300), day(-280))
			w := fmt.Sprintf("%s, UC, %s, NOW", day(-500), day(-500))
			exec(t, s, `BEGIN WORK`)
			exec(t, s, fmt.Sprintf(`SELECT COUNT(*) FROM T WHERE Overlaps(X, '%s')`, w)) // fixes ct
			clock.Advance(30)
			other := e.NewSession()
			defer other.Close()
			for _, table := range []string{"T", "U"} {
				exec(t, other, fmt.Sprintf(`INSERT INTO %s VALUES (800, '%s, UC, %s, NOW'), (801, '%s, %s, %s, %s')`,
					table, day(30), day(30), day(20), day(25), day(20), day(25)))
			}
			for _, where := range []string{
				fmt.Sprintf(`ContainedIn(X, '%s')`, q),
				fmt.Sprintf(`Contains('%s', X)`, q),
				fmt.Sprintf(`Overlaps(X, '%s')`, w),
				fmt.Sprintf(`ContainedIn(X, '%s')`, w),
			} {
				rows := func(table string) []string {
					got := column(exec(t, s, fmt.Sprintf(`SELECT N FROM %s WHERE %s`, table, where)))
					sort.Strings(got)
					return got
				}
				idx, seq := rows("T"), rows("U")
				if len(seq) == 0 {
					t.Fatalf("WHERE %s is empty: agreement on it proves little", where)
				}
				if strings.Join(idx, " ") != strings.Join(seq, " ") {
					t.Errorf("WHERE %s: index %d rows %v, seqscan %d rows %v", where, len(idx), idx, len(seq), seq)
				}
				count := func(table string) string {
					return fmt.Sprint(exec(t, s, fmt.Sprintf(`SELECT COUNT(*) FROM %s WHERE %s`, table, where)).Rows[0][0])
				}
				if got, want := count("T"), count("U"); got != want {
					t.Errorf("COUNT(*) WHERE %s: index %s, seqscan %s", where, got, want)
				}
			}
			exec(t, s, `COMMIT WORK`)
		})
	}
}

package grtblade

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/engine"
)

// The am_aggregate purpose slot: COUNT(*), COUNT(col), MIN(col), MAX(col)
// with a residual-free indexable qualification are answered from the
// GR-tree's internal nodes — entry counts and boundary leaves — visiting
// zero tuples. These tests pin the pushdown with counters, prove exact
// agreement with the tuple drain, and exercise the MVCC gate that keeps
// the shortcut honest under concurrent transactions.

const aggQual = `Overlaps(Time_Extent, '12/10/95, UC, 12/10/95, NOW')`

// drained rewrites a pushdown-eligible aggregate query so the
// qualification gains a residual conjunct (always true) and the engine
// must drain tuples instead — the reference answer for agreement checks.
func drained(q string) string {
	return q + ` AND Name = Name`
}

func TestAggregateCountPushdownZeroTuples(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)

	q := `SELECT COUNT(*) FROM Employees WHERE ` + aggQual
	want := exec(t, s, drained(q)).Rows[0][0]

	aggCalls := e.Obs().Counter("am.am_aggregate").Load()
	getMulti := e.Obs().Counter("am.am_getmulti").Load()
	getNext := e.Obs().Counter("am.am_getnext").Load()
	pushed := e.Obs().Counter("agg.pushed").Load()

	res := exec(t, s, q)
	if got := res.Rows[0][0]; got != want {
		t.Fatalf("pushed COUNT(*) = %v, drain says %v", got, want)
	}
	if d := e.Obs().Counter("am.am_aggregate").Load() - aggCalls; d != 1 {
		t.Fatalf("am_aggregate called %d times, want 1", d)
	}
	if d := e.Obs().Counter("agg.pushed").Load() - pushed; d != 1 {
		t.Fatalf("agg.pushed advanced by %d, want 1", d)
	}
	// The headline property: the pushed aggregate fetched zero tuples.
	if d := e.Obs().Counter("am.am_getmulti").Load() - getMulti; d != 0 {
		t.Fatalf("pushed COUNT(*) drove %d am_getmulti calls", d)
	}
	if d := e.Obs().Counter("am.am_getnext").Load() - getNext; d != 0 {
		t.Fatalf("pushed COUNT(*) drove %d am_getnext calls", d)
	}
	if res.Stats == nil || res.Stats.RowsScanned != 0 {
		t.Fatalf("pushed COUNT(*) scanned rows: %+v", res.Stats)
	}
}

func TestAggregateAgreementAllKinds(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)

	for _, item := range []string{"COUNT(*)", "COUNT(Time_Extent)", "MIN(Time_Extent)", "MAX(Time_Extent)"} {
		q := fmt.Sprintf(`SELECT %s FROM Employees WHERE %s`, item, aggQual)
		want := exec(t, s, drained(q)).Rows[0][0]

		pushed := e.Obs().Counter("agg.pushed").Load()
		got := exec(t, s, q).Rows[0][0]
		if e.Obs().Counter("agg.pushed").Load() == pushed {
			t.Fatalf("%s was not pushed down", item)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pushed %#v, drain %#v", item, got, want)
		}
	}
}

// MIN/MAX over an empty qualification result is NULL, and COUNT is zero —
// on both execution shapes.
func TestAggregateEmptyResult(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)

	// A region fully before every stored extent.
	empty := `Contains('1/80, 2/80, 1/80, 2/80', Time_Extent)`
	for _, item := range []string{"COUNT(*)", "MIN(Time_Extent)", "MAX(Time_Extent)"} {
		q := fmt.Sprintf(`SELECT %s FROM Employees WHERE %s`, item, empty)
		got := exec(t, s, q).Rows[0][0]
		want := exec(t, s, drained(q)).Rows[0][0]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s over empty set: pushed %#v, drain %#v", item, got, want)
		}
		if item == "COUNT(*)" && got != int64(0) {
			t.Fatalf("COUNT(*) over empty set: %v", got)
		}
		if item != "COUNT(*)" && got != nil {
			t.Fatalf("%s over empty set: %v, want NULL", item, got)
		}
	}
}

// The MVCC gate: any concurrent uncommitted transaction forces the tuple
// drain — the gate cannot prove the index's entries all visible, whichever
// table the foreign transaction is touching. Once it resolves, the
// pushdown resumes. (A writer on the aggregated table itself additionally
// holds the index BLOB's LO lock, so that case never even reaches the
// gate; the foreign-table case is the one the gate alone must catch.)
func TestAggregateMVCCGate(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)
	exec(t, s, `CREATE TABLE Other (N INTEGER)`)
	q := `SELECT COUNT(*) FROM Employees WHERE ` + aggQual
	base := exec(t, s, q).Rows[0][0].(int64)

	w := e.NewSession()
	defer w.Close()
	exec(t, w, `BEGIN WORK`)
	exec(t, w, `INSERT INTO Other VALUES (1)`)

	fallback := e.Obs().Counter("agg.fallback").Load()
	aggCalls := e.Obs().Counter("am.am_aggregate").Load()
	if got := exec(t, s, q).Rows[0][0].(int64); got != base {
		t.Fatalf("COUNT(*) under a concurrent open transaction: %d, want %d", got, base)
	}
	if e.Obs().Counter("agg.fallback").Load() == fallback {
		t.Fatal("concurrent transaction did not force the drain fallback")
	}
	if e.Obs().Counter("am.am_aggregate").Load() != aggCalls {
		t.Fatal("am_aggregate ran despite an open concurrent transaction")
	}

	exec(t, w, `COMMIT WORK`)
	pushed := e.Obs().Counter("agg.pushed").Load()
	if got := exec(t, s, q).Rows[0][0].(int64); got != base {
		t.Fatalf("COUNT(*) after commit: %d, want %d", got, base)
	}
	if e.Obs().Counter("agg.pushed").Load() == pushed {
		t.Fatal("pushdown did not resume after the writer committed")
	}
}

// A checkpoint appends to the log but ends no transaction, so a view cut
// before it has still seen every commit: COUNT(*) in a SNAPSHOT transaction
// whose view predates a checkpoint keeps pushing down. (While the gate
// compared the log's size, the checkpoint read as a commit since the cut.)
func TestAggregatePushesAcrossACheckpoint(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)
	q := `SELECT COUNT(*) FROM Employees WHERE ` + aggQual
	exec(t, s, `SET ISOLATION TO SNAPSHOT`)
	exec(t, s, `BEGIN WORK`)
	base := exec(t, s, q).Rows[0][0].(int64)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pushed, moved := e.Obs().Counter("agg.pushed").Load(), e.Obs().Counter("agg.fallback.gate_readpoint").Load()
	if got := exec(t, s, q).Rows[0][0].(int64); got != base {
		t.Fatalf("COUNT(*) after a checkpoint: %d, want %d", got, base)
	}
	if e.Obs().Counter("agg.pushed").Load() == pushed {
		t.Fatalf("a checkpoint stopped the pushdown (gate_readpoint %d -> %d)", moved, e.Obs().Counter("agg.fallback.gate_readpoint").Load())
	}
	exec(t, s, `COMMIT WORK`)
}

// A read-only transaction stamps no version, so its commit leaves the commit
// clock alone: a SNAPSHOT view cut before another session's autocommit
// SELECT has still seen every commit, and COUNT(*) keeps pushing down.
// (While the gate compared the log's last transaction end, the SELECT's
// COMMIT record read as a commit since the cut.)
func TestReadOnlyCommitKeepsAggregatePushdown(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)
	q := `SELECT COUNT(*) FROM Employees WHERE ` + aggQual
	exec(t, s, `SET ISOLATION TO SNAPSHOT`)
	exec(t, s, `BEGIN WORK`)
	base := exec(t, s, q).Rows[0][0].(int64)
	r := e.NewSession()
	defer r.Close()
	exec(t, r, `SELECT Name FROM Employees`)
	pushed, moved := e.Obs().Counter("agg.pushed").Load(), e.Obs().Counter("agg.fallback.gate_readpoint").Load()
	if got := exec(t, s, q).Rows[0][0].(int64); got != base {
		t.Fatalf("COUNT(*) after a read-only commit: %d, want %d", got, base)
	}
	if e.Obs().Counter("agg.pushed").Load() == pushed {
		t.Fatalf("a read-only commit stopped the pushdown (gate_readpoint %d -> %d)", moved, e.Obs().Counter("agg.fallback.gate_readpoint").Load())
	}
	exec(t, s, `COMMIT WORK`)
}

// Agreement battery under concurrent DML: within one SNAPSHOT transaction,
// COUNT(*) (pushed or drained, whatever the gate decides) must equal the
// row count a plain SELECT sees — while writers churn. Run with -race this
// also proves the gate's locking.
func TestAggregateConcurrentDMLAgreement(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := e.NewSession()
		defer w.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.Exec(fmt.Sprintf(
				`INSERT INTO Employees VALUES ('churn%d', 'Ops', '5/97, UC, 5/97, NOW')`, i)); err != nil {
				errs <- err
				return
			}
			if i%3 == 2 {
				if _, err := w.Exec(fmt.Sprintf(`DELETE FROM Employees WHERE Name = 'churn%d'`, i-1)); err != nil {
					errs <- err
					return
				}
			}
		}
	}()

	r := e.NewSession()
	defer r.Close()
	exec(t, r, `SET ISOLATION TO SNAPSHOT`)
	for i := 0; i < 40; i++ {
		exec(t, r, `BEGIN WORK`)
		n := exec(t, r, `SELECT COUNT(*) FROM Employees WHERE `+aggQual).Rows[0][0].(int64)
		rows := exec(t, r, `SELECT Name FROM Employees WHERE `+aggQual).Rows
		exec(t, r, `COMMIT WORK`)
		if int64(len(rows)) != n {
			t.Fatalf("iteration %d: COUNT(*)=%d but SELECT saw %d rows in the same snapshot", i, n, len(rows))
		}
		// The churn's deletes leave dead versions whose lingering index
		// entries keep the gate closed; vacuuming mid-battery reclaims them
		// (racing the writer) and lets the pushdown re-open.
		if i%8 == 7 {
			if _, err := e.VacuumNow(); err != nil {
				t.Fatalf("iteration %d: vacuum: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Prepared aggregates: EXECUTE flows through the same pushdown, including
// on the second execution where the plan comes from the shared cache.
func TestAggregatePreparedExecute(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)

	exec(t, s, `PREPARE cnt AS SELECT COUNT(*) FROM Employees WHERE Overlaps(Time_Extent, $1)`)
	want := exec(t, s, `SELECT COUNT(*) FROM Employees WHERE `+aggQual+` AND Name = Name`).Rows[0][0]

	for run := 0; run < 2; run++ { // fresh plan, then cached plan
		pushed := e.Obs().Counter("agg.pushed").Load()
		res := exec(t, s, `EXECUTE cnt ('12/10/95, UC, 12/10/95, NOW')`)
		if got := res.Rows[0][0]; got != want {
			t.Fatalf("run %d: EXECUTE count %v, want %v", run, got, want)
		}
		if e.Obs().Counter("agg.pushed").Load() == pushed {
			t.Fatalf("run %d: prepared aggregate was not pushed down", run)
		}
	}
}

// Aggregates that the index cannot answer fall back to the drain and stay
// exact: a residual conjunct, an aggregate over a non-indexed column, and
// a query with no indexable qualification at all.
func TestAggregateFallbackForms(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)

	for _, tc := range []struct {
		q    string
		want any
	}{
		{`SELECT COUNT(*) FROM Employees WHERE ` + aggQual + ` AND Department = 'Sales'`, int64(3)},
		{`SELECT MIN(Name) FROM Employees`, "Jane"},
		{`SELECT MAX(Name) FROM Employees WHERE Department = 'Sales'`, "Julie2"},
		{`SELECT COUNT(Department) FROM Employees WHERE ` + aggQual, nil}, // checked against drain below
	} {
		fallback := e.Obs().Counter("agg.fallback").Load()
		got := exec(t, s, tc.q).Rows[0][0]
		if e.Obs().Counter("agg.fallback").Load() == fallback {
			t.Fatalf("%s did not take the drain fallback", tc.q)
		}
		if tc.want != nil && got != tc.want {
			t.Fatalf("%s = %v, want %v", tc.q, got, tc.want)
		}
	}

	// COUNT(non-indexed col) with a full indexable qual must not be pushed:
	// the index cannot see that column's NULLs.
	exec(t, s, `INSERT INTO Employees VALUES ('NoDept', NULL, '5/97, UC, 5/97, NOW')`)
	all := exec(t, s, `SELECT COUNT(*) FROM Employees`).Rows[0][0].(int64)
	nonNull := exec(t, s, `SELECT COUNT(Department) FROM Employees`).Rows[0][0].(int64)
	if nonNull != all-1 {
		t.Fatalf("COUNT(Department) = %d with one NULL among %d rows", nonNull, all)
	}
}

// Aggregates cannot be mixed with plain columns — the feature error, not a
// crash. Over a virtual table they run like any other, so an unknown column
// there is an unknown column.
func TestAggregateErrors(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)

	for _, q := range []string{
		`SELECT Name, COUNT(*) FROM Employees`,
		`SELECT MIN(Time_Extent), Name FROM Employees`,
	} {
		_, err := s.Exec(q)
		if engine.ErrorCode(err) != engine.CodeFeature {
			t.Fatalf("%s: %v, want %s", q, err, engine.CodeFeature)
		}
	}
	if _, err := s.Exec(`SELECT SUM(Name) FROM Employees`); err == nil {
		t.Fatal("SUM must be rejected")
	}
	if _, err := s.Exec(`SELECT MIN(nosuch) FROM Employees`); engine.ErrorCode(err) != engine.CodeUndefinedObject {
		t.Fatalf("MIN over unknown column: %v", err)
	}
	if _, err := s.Exec(`SELECT MAX(hits) FROM sysprofile`); engine.ErrorCode(err) != engine.CodeUndefinedObject {
		t.Fatalf("MAX over a column sysprofile lacks: %v", err)
	}
}

// UPDATE STATISTICS flips a plan purely through refreshed statistics: the
// same broad query chooses the index under the built-in bias, then the
// sequential scan once collected counts prove the heap is cheaper — and
// EXPLAIN names the estimate family both times.
func TestStatisticsPlanFlip(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`)
	exec(t, s, `CREATE INDEX tix ON T(X) USING grtree_am (maxentries=16) IN spc`)
	for i := 0; i < 200; i++ {
		m, y := i%12+1, 90+(i/12)%7
		exec(t, s, fmt.Sprintf(`INSERT INTO T VALUES (%d, '%d/%d, UC, %d/%d, NOW')`, i, m, y, m, y))
	}
	broad := `EXPLAIN SELECT N FROM T WHERE Overlaps(X, '1/80, UC, 1/80, NOW')`

	before := planText(t, exec(t, s, broad))
	if !strings.Contains(before, "index scan on tix") {
		t.Fatalf("without statistics the bias must choose the index:\n%s", before)
	}
	if !strings.Contains(before, "cost source: default") {
		t.Fatalf("pre-statistics plan must say cost source: default:\n%s", before)
	}

	res := exec(t, s, `UPDATE STATISTICS FOR TABLE T`)
	if !strings.Contains(res.Message, "200 rows") {
		t.Fatalf("UPDATE STATISTICS message: %q", res.Message)
	}

	after := planText(t, exec(t, s, broad))
	if !strings.Contains(after, "sequential heap scan") {
		t.Fatalf("statistics must flip the broad query to a seqscan:\n%s", after)
	}
	if !strings.Contains(after, "cost source: stats(age 0)") {
		t.Fatalf("post-statistics plan must say cost source: stats(age 0):\n%s", after)
	}

	// The flip is purely cost-driven; the answers are identical.
	n := exec(t, s, `SELECT COUNT(*) FROM T WHERE Overlaps(X, '1/80, UC, 1/80, NOW') AND N >= 0`).Rows[0][0]
	if n != int64(200) {
		t.Fatalf("broad count after flip: %v", n)
	}

	// Unrelated DDL ages the statistics; EXPLAIN reports the distance.
	exec(t, s, `CREATE TABLE T2 (N INTEGER)`)
	aged := planText(t, exec(t, s, broad))
	if !strings.Contains(aged, "cost source: stats(age 1)") {
		t.Fatalf("aged statistics must show their age:\n%s", aged)
	}
}

// Statistics collected while a table is tiny go stale as it grows: the
// planner keeps the tiny seqscan estimate and drains the heap for a
// selective COUNT. UPDATE STATISTICS restores the index plan, where the
// residual-free COUNT pushes down to am_aggregate with the same answer.
func TestStaleStatisticsRefreshRestoresIndexPlan(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`)
	insert := func(from, to int) {
		var b strings.Builder
		b.WriteString(`INSERT INTO T VALUES `)
		for i := from; i < to; i++ {
			m, y := i%12+1, 90+i%6
			if i > from {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, `(%d, '%d/%d, %d/%d, %d/%d, %d/%d')`, i, m, y, m, y+1, m, y, m, y+1)
		}
		exec(t, s, b.String())
	}
	insert(0, 100)
	exec(t, s, `CREATE INDEX dix ON T(X) USING grtree_am IN spc`)
	exec(t, s, `UPDATE STATISTICS FOR TABLE T`)
	for from := 100; from < 2000; from += 100 {
		insert(from, from+100)
	}

	const q = `SELECT COUNT(*) FROM T WHERE Overlaps(X, '1/92, 1/93, 1/92, 1/93')`
	pushed := e.Obs().Counter("agg.pushed")

	stale := planText(t, exec(t, s, `EXPLAIN `+q))
	if !strings.Contains(stale, "sequential heap scan") {
		t.Fatalf("stale statistics must keep the tiny seqscan estimate:\n%s", stale)
	}
	before := pushed.Load()
	staleCount := exec(t, s, q).Rows[0][0]
	if pushed.Load() != before {
		t.Fatal("a seqscan-planned COUNT must not push down")
	}

	exec(t, s, `UPDATE STATISTICS FOR TABLE T`)
	fresh := planText(t, exec(t, s, `EXPLAIN `+q))
	if !strings.Contains(fresh, "index scan on dix") || !strings.Contains(fresh, "stats(age 0)") {
		t.Fatalf("fresh statistics must restore the index plan:\n%s", fresh)
	}
	before = pushed.Load()
	freshCount := exec(t, s, q).Rows[0][0]
	if pushed.Load() == before {
		t.Fatal("the index-planned COUNT did not push down")
	}
	if freshCount != staleCount {
		t.Fatalf("plans disagree: seqscan %v, pushed %v", staleCount, freshCount)
	}
}

// UPDATE STATISTICS FOR a single index reports the am_stats summary.
func TestUpdateStatisticsForIndex(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)

	res := exec(t, s, `UPDATE STATISTICS FOR INDEX grt_index`)
	if !strings.Contains(res.Message, "6 entries") || !strings.Contains(res.Message, "histogram buckets") {
		t.Fatalf("FOR INDEX message: %q", res.Message)
	}
	if _, err := s.Exec(`UPDATE STATISTICS FOR INDEX nosuch`); err == nil {
		t.Fatal("UPDATE STATISTICS FOR INDEX over an unknown index must fail")
	}
}

// TestAggregatePushedOnAReadOnlyTable: with the vacuum daemon at its
// shortest interval, every aggregate on a table nobody writes is answered
// from the index — agg.pushed moves once per aggregate and no
// agg.fallback.<clause> counter moves at all.
func TestAggregatePushedOnAReadOnlyTable(t *testing.T) {
	e, err := engine.Open(engine.Options{Clock: chronon.NewVirtualClock(chronon.MustParse("9/97")), VacuumInterval: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := Register(e); err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	defer s.Close()
	setupEmpDep(t, s)

	fallbacks := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, m := range e.Obs().Snapshot() {
			if strings.HasPrefix(m.Name, "agg.fallback") {
				out[m.Name] = m.Value
			}
		}
		return out
	}
	before, pushed := fallbacks(), e.Obs().Counter("agg.pushed").Load()
	const runs = 200
	for i := 0; i < runs; i++ {
		exec(t, s, `SELECT COUNT(*) FROM Employees WHERE `+aggQual)
	}
	if got := e.Obs().Counter("agg.pushed").Load() - pushed; got != runs {
		t.Errorf("agg.pushed moved %d for %d aggregates", got, runs)
	}
	for name, v := range fallbacks() {
		if v != before[name] {
			t.Errorf("%s moved by %d on a read-only table", name, v-before[name])
		}
	}
}

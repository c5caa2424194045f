package treeblade_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/temporal"
)

// DELETE pulls its targets through the batch pipeline (am_getmulti, or
// am_getnext through the adapter) like SELECT and UPDATE. An index DELETE,
// the same DELETE on an unindexed twin table (a sequential scan) and an
// in-memory oracle must agree at every batch size and isolation level, for
// every access method. A SNAPSHOT reader that began before the deletes keeps
// seeing the deleted rows until it ends and the vacuum runs, and a DELETE of
// rows its own transaction already UPDATEd ends each live version once.
func TestDeleteAgreesOnTheBatchPath(t *testing.T) {
	each(t, func(t *testing.T, m method) {
		for _, batch := range []int{1, 7, 64} {
			for _, level := range []string{"DIRTY READ", "COMMITTED READ", "REPEATABLE READ", "SNAPSHOT"} {
				t.Run(fmt.Sprintf("batch=%d/%s", batch, level), func(t *testing.T) {
					deleteAgreement(t, m, batch, level)
				})
			}
		}
	})
}

func deleteAgreement(t *testing.T, m method, batch int, level string) {
	const (
		n     = 96
		q1    = `1/91, 1/93, 1/91, 1/93`
		q2    = `6/94, UC, 6/94, NOW`
		every = `1/80, UC, 1/80, NOW`
	)
	e := open(t, engine.Options{ScanBatchSize: batch})
	ct := e.Clock().Now()
	oracle := map[int]temporal.Extent{}
	var values []string
	for i := 0; i < n; i++ {
		mo, y := i%12+1, 90+(i/12)%6
		text := fmt.Sprintf("%d/%d, %d/%d, %d/%d, %d/%d", mo, y, mo, y+1, mo, y, mo, y+1)
		if i%5 == 0 { // a current, now-relative extent
			text = fmt.Sprintf("%d/%d, UC, %d/%d, NOW", mo, y, mo, y)
		}
		oracle[i] = temporal.MustParseExtent(text)
		values = append(values, fmt.Sprintf("(%d, '%s', 0)", i, text))
	}
	// matching removes (and counts) the oracle rows the query overlaps.
	matching := func(query string) int {
		q := temporal.MustParseExtent(query).Region()
		k := 0
		for id, ext := range oracle {
			if ext.Region().Overlaps(q, ct) {
				delete(oracle, id)
				k++
			}
		}
		return k
	}
	want := func() []string {
		var out []string
		for id := range oracle {
			out = append(out, fmt.Sprint(id))
		}
		sort.Strings(out)
		return out
	}
	rowsOf := func(s *engine.Session, table string) []string {
		t.Helper()
		res := exec(t, s, fmt.Sprintf(`SELECT N FROM %s WHERE Overlaps(X, '%s')`, table, every))
		out := column(res)
		sort.Strings(out)
		return out
	}
	agree := func(s *engine.Session, step string, wantRows []string) {
		t.Helper()
		for _, table := range []string{"TI", "TS"} {
			if got := rowsOf(s, table); strings.Join(got, ",") != strings.Join(wantRows, ",") {
				t.Fatalf("%s: %s holds %v, want %v", step, table, got, wantRows)
			}
		}
	}
	deleteBoth := func(s *engine.Session, query string, want int) {
		t.Helper()
		for _, table := range []string{"TI", "TS"} {
			res := exec(t, s, fmt.Sprintf(`DELETE FROM %s WHERE Overlaps(X, '%s')`, table, query))
			if res.Affected != want {
				t.Fatalf("DELETE FROM %s (%s): %d row(s), oracle %d", table, query, res.Affected, want)
			}
			if ch := res.Plan.Chosen(); (ch != nil) != (table == "TI") {
				t.Fatalf("DELETE FROM %s: plan %v", table, res.Plan)
			}
		}
	}

	w := e.NewSession()
	defer w.Close()
	exec(t, w, `CREATE SBSPACE spc`)
	for _, table := range []string{"TI", "TS"} {
		exec(t, w, fmt.Sprintf(`CREATE TABLE %s (N INTEGER, X GRT_TimeExtent_t, V INTEGER)`, table))
		exec(t, w, fmt.Sprintf(`INSERT INTO %s VALUES %s`, table, strings.Join(values, ", ")))
	}
	exec(t, w, fmt.Sprintf(`CREATE INDEX ix ON TI(X %s) USING %s IN spc`, m.opclass, m.am))
	exec(t, w, `SET ISOLATION TO `+level)
	before := want()
	agree(w, "loaded", before)

	// The SNAPSHOT reader pins its view before any row is deleted.
	r := e.NewSession()
	defer r.Close()
	exec(t, r, `SET ISOLATION TO SNAPSHOT`)
	exec(t, r, `BEGIN WORK`)
	agree(r, "reader before", before)

	k := matching(q1)
	if k == 0 {
		t.Fatal("q1 selects no row (test premise)")
	}
	deleteBoth(w, q1, k)
	agree(w, "after DELETE", want())

	// UPDATE then DELETE the same rows inside one transaction: the index
	// holds an entry for each predecessor (ended by this transaction) and
	// one for each successor; only the successors are live to delete.
	exec(t, w, `BEGIN WORK`)
	if k = matching(q2); k == 0 {
		t.Fatal("q2 selects no row (test premise)")
	}
	for _, table := range []string{"TI", "TS"} {
		res := exec(t, w, fmt.Sprintf(`UPDATE %s SET V = 1 WHERE Overlaps(X, '%s')`, table, q2))
		if res.Affected != k {
			t.Fatalf("UPDATE %s: %d row(s), oracle %d", table, res.Affected, k)
		}
	}
	deleteBoth(w, q2, k)
	exec(t, w, `COMMIT WORK`)
	after := want()
	agree(w, "after UPDATE+DELETE", after)

	// The reader still sees every deleted row, and the vacuum may not take
	// them from under it.
	agree(r, "reader after deletes", before)
	if _, err := e.VacuumNow(); err != nil {
		t.Fatal(err)
	}
	agree(r, "reader after vacuum", before)
	exec(t, r, `COMMIT WORK`)
	reclaimed, err := e.VacuumNow()
	if err != nil {
		t.Fatal(err)
	}
	// Deleted rows, plus the predecessors the UPDATE ended (k is q2's
	// count) — in each table.
	if want := 2 * (n - len(after) + k); reclaimed != want {
		t.Fatalf("vacuum reclaimed %d version(s), want %d", reclaimed, want)
	}
	agree(r, "after vacuum", after)
	exec(t, w, `CHECK INDEX ix`)
}

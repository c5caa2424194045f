package grtblade

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

// TestRowsOutliveTheirBatch keeps every row of two scans without copying
// them: an index scan streamed over several am_getmulti batches, and a
// sequential scan over several heap pages, streamed and materialised (Exec,
// behind a WHERE re-check). Each batch's rows are decoded into an arena of
// their own that no later batch writes, so after more scans on both paths the
// kept rows must still equal a fresh read of the same statements.
func TestRowsOutliveTheirBatch(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE T (N INTEGER, Name VARCHAR(32), X GRT_TimeExtent_t)`)
	var values []string
	for i := 0; i < 700; i++ {
		mo, y := i%12+1, 80+i/100
		name := strings.Repeat(string(rune('a'+i%26)), 1+i%17) // rows of different widths
		values = append(values, fmt.Sprintf("(%d, '%s', '%d/%d, %d/%d, %d/%d, %d/%d')", i, name, mo, y, mo, y+1, mo, y, mo, y+1))
	}
	exec(t, s, `INSERT INTO T VALUES `+strings.Join(values, ", "))
	exec(t, s, `CREATE INDEX ix ON T(X grt_opclass) USING grtree_am IN spc`)

	const indexScan = `SELECT N, Name, X FROM T WHERE Overlaps(X, '1/81, 1/86, 1/81, 1/86')`
	const seqScan = `SELECT N, Name, X FROM T`
	const seqFilter = `SELECT N, Name, X FROM T WHERE N >= 0`
	getMulti := e.Obs().Counter("am.am_getmulti")

	// stream keeps the rows of every batch of one statement as delivered,
	// and their text as printed before the next batch is pulled.
	stream := func(q string) (kept [][]types.Datum, text []string) {
		t.Helper()
		st, err := s.ExecStream(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for {
			rows, err := st.Next()
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if rows == nil {
				return kept, text
			}
			kept = append(kept, rows...)
			for _, r := range rows {
				text = append(text, fmt.Sprint(r))
			}
		}
	}
	before := getMulti.Load()
	keptIndex, _ := stream(indexScan)
	if batches := getMulti.Load() - before; batches < 4 {
		t.Fatalf("the index scan took %d am_getmulti batches, want several", batches)
	}
	keptSeq, _ := stream(seqScan)
	keptFilter := exec(t, s, seqFilter).Rows

	// More scans on both paths, each decoding fresh batches.
	for i := 0; i < 3; i++ {
		stream(indexScan)
		stream(`SELECT N, Name, X FROM T WHERE Overlaps(X, '1/80, 1/89, 1/80, 1/89')`)
		stream(seqScan)
		exec(t, s, `SELECT Name, N FROM T WHERE N > 300`)
	}

	for _, c := range []struct {
		q    string
		kept [][]types.Datum
	}{{indexScan, keptIndex}, {seqScan, keptSeq}, {seqFilter, keptFilter}} {
		_, fresh := stream(c.q)
		if len(fresh) < 200 || len(fresh) != len(c.kept) {
			t.Fatalf("%s: kept %d rows, a fresh read has %d", c.q, len(c.kept), len(fresh))
		}
		for i := range fresh {
			if got := fmt.Sprint(c.kept[i]); got != fresh[i] {
				t.Fatalf("%s: kept row %d reads %s, a fresh read %s", c.q, i, got, fresh[i])
			}
		}
	}
	// The sequential scan spanned several pages.
	if msg := exec(t, s, `UPDATE STATISTICS FOR TABLE T`).Message; !strings.Contains(msg, "700 rows") ||
		strings.Contains(msg, " 1 pages") || strings.Contains(msg, " 0 pages") {
		t.Fatalf("statistics: %s", msg)
	}
}

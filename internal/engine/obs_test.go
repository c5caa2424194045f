package engine

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/chronon"
	"repro/internal/types"
)

// These tests pin the per-statement observability contract: Result.Stats
// reports the same rows-scanned count for a native am_getmulti scan and a
// getnext-only adapter scan (both are counted at the single shared point in
// am.FillFrom), and the SYSPROFILE/SYSPTPROF virtual tables serve live
// counters: SYSPROFILE's bufferpool.* rows are the sums of the pools' own
// storage.Stats that SYSPTPROF lists one by one.

func TestRowsScannedAgreement(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerMemAM(t, e, "mem_am", "mem", true)
	registerMemAM(t, e, "memnx_am", "memnx", false)
	s := e.NewSession()
	defer s.Close()

	const total, match = 120, 90
	fillMemTable(t, s, "ta", "mem_am", total, match)
	fillMemTable(t, s, "tn", "memnx_am", total, match)
	// Unindexed control: sequential heap scan + UDR filter.
	exec(t, s, `CREATE TABLE tc (a INTEGER, b VARCHAR(16))`)
	for i := 0; i < total; i++ {
		k := i + 1000
		if i < match {
			k = 7
		}
		exec(t, s, fmt.Sprintf(`INSERT INTO tc VALUES (%d, 'row%d')`, k, i))
	}

	native := exec(t, s, `SELECT b FROM ta WHERE MemEq(a, 7)`).Stats
	adapter := exec(t, s, `SELECT b FROM tn WHERE MemEq(a, 7)`).Stats
	seq := exec(t, s, `SELECT b FROM tc WHERE MemEq(a, 7)`).Stats
	if native == nil || adapter == nil || seq == nil {
		t.Fatalf("missing Stats: native=%v adapter=%v seq=%v", native, adapter, seq)
	}

	// Both index protocols deliver exactly the matching rowids, and rows are
	// counted once in am.FillFrom — the counts must agree by construction.
	if native.RowsScanned != adapter.RowsScanned {
		t.Fatalf("rows scanned: native %d != adapter %d", native.RowsScanned, adapter.RowsScanned)
	}
	if native.RowsScanned != match {
		t.Fatalf("rows scanned: %d, want %d", native.RowsScanned, match)
	}
	if native.RowsReturned != match || adapter.RowsReturned != match || seq.RowsReturned != match {
		t.Fatalf("rows returned: native %d adapter %d seq %d, want %d",
			native.RowsReturned, adapter.RowsReturned, seq.RowsReturned, match)
	}
	// The seqscan control reads the whole heap before the filter.
	if seq.RowsScanned != total {
		t.Fatalf("seqscan rows scanned: %d, want %d", seq.RowsScanned, total)
	}

	// 90 matches at the default capacity of 64 drain in two fills (64 + 26).
	if got := native.Calls("am_getmulti"); got != 2 {
		t.Fatalf("native am_getmulti calls: %d", got)
	}
	if got := native.Calls("am_getnext"); got != 0 {
		t.Fatalf("native am_getnext calls: %d", got)
	}
	// The adapter issues one am_getnext per row plus the final not-found.
	if got := adapter.Calls("am_getnext"); got != match+1 {
		t.Fatalf("adapter am_getnext calls: %d", got)
	}
	if got := adapter.Calls("am_getmulti"); got != 0 {
		t.Fatalf("adapter am_getmulti calls: %d", got)
	}
}

func TestSysprofileLive(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerMemAM(t, e, "mem_am", "mem", true)
	s := e.NewSession()
	defer s.Close()

	const total, match = 30, 10
	fillMemTable(t, s, "tb", "mem_am", total, match)
	exec(t, s, `SELECT b FROM tb WHERE MemEq(a, 7)`)

	res := exec(t, s, `SELECT * FROM sysprofile`)
	if want := []string{"name", "value"}; strings.Join(res.Columns, ",") != strings.Join(want, ",") {
		t.Fatalf("columns: %v", res.Columns)
	}
	vals := map[string]int64{}
	for _, r := range res.Rows {
		vals[r[0].(string)] = r[1].(int64)
	}
	// am_insert fires once per inserted row on the indexed table.
	if got := vals["am.am_insert"]; got != total {
		t.Fatalf("am.am_insert: %d, want %d", got, total)
	}
	if vals["bufferpool.fetches"] == 0 {
		t.Fatalf("bufferpool.fetches is zero: %v", vals)
	}
	if vals["wal.appends"] == 0 {
		t.Fatalf("wal.appends is zero: %v", vals)
	}
	// Pre-registered subsystems appear even before first use.
	for _, name := range []string{"lock.deadlocks", "sbspace.lo_opens", "wal.flushes"} {
		if _, ok := vals[name]; !ok {
			t.Fatalf("metric %s missing from sysprofile", name)
		}
	}

	// The counters are live: a second query moves them.
	exec(t, s, `SELECT b FROM tb WHERE MemEq(a, 7)`)
	res2 := exec(t, s, `SELECT value FROM sysprofile WHERE name = 'am.am_getmulti'`)
	if len(res2.Rows) != 1 {
		t.Fatalf("filtered sysprofile rows: %d", len(res2.Rows))
	}
	if got := res2.Rows[0][0].(int64); got <= vals["am.am_getmulti"] {
		t.Fatalf("am.am_getmulti did not advance: %d -> %d", vals["am.am_getmulti"], got)
	}

	// COUNT(*) works over virtual tables too.
	cnt := exec(t, s, `SELECT COUNT(*) FROM sysprofile`)
	if len(cnt.Rows) != 1 || cnt.Rows[0][0].(int64) < int64(len(res.Rows)) {
		t.Fatalf("count(*): %v", cnt.Rows)
	}
}

// TestVirtualTableAggregates: MIN, MAX and COUNT(col) over a virtual table
// run the SELECT cursor's accumulator, on the columns that hold still between
// statements: the metric names, and how many values there are.
func TestVirtualTableAggregates(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	scalar := func(q string) any { return exec(t, s, q).Rows[0][0] }
	scalar(`SELECT MIN(name) FROM sysprofile`) // registers the statement's own counters
	names := sortedCol(exec(t, s, `SELECT name FROM sysprofile`))
	if got := scalar(`SELECT MIN(name) FROM sysprofile`); got != names[0] {
		t.Fatalf("MIN(name) = %v, want %s", got, names[0])
	}
	if got := scalar(`SELECT MAX(name) FROM sysprofile`); got != names[len(names)-1] {
		t.Fatalf("MAX(name) = %v, want %s", got, names[len(names)-1])
	}
	all, values := scalar(`SELECT COUNT(*) FROM sysprofile`), scalar(`SELECT COUNT(value) FROM sysprofile`)
	if all != values || all != int64(len(names)) {
		t.Fatalf("COUNT(*) = %v, COUNT(value) = %v, %d names", all, values, len(names))
	}
}

// TestSysptprofBitIdentity sums SYSPTPROF's per-partition buffer-pool
// counters and requires them to equal SYSPROFILE's engine-wide bufferpool.*
// counters exactly: both views are incremented at the same sites, so the
// numbers are bit-identical, not merely close.
func TestSysptprofBitIdentity(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()

	exec(t, s, `CREATE TABLE pt (a INTEGER, b VARCHAR(16))`)
	for i := 0; i < 50; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO pt VALUES (%d, 'row%d')`, i, i))
	}
	exec(t, s, `SELECT COUNT(*) FROM pt`)

	pt := exec(t, s, `SELECT * FROM sysptprof`)
	wantCols := "partition,kind,fetches,hits,reads,writes,evictions"
	if got := strings.Join(pt.Columns, ","); got != wantCols {
		t.Fatalf("sysptprof columns: %q", got)
	}
	if len(pt.Rows) == 0 {
		t.Fatal("sysptprof returned no partitions")
	}
	sums := map[string]int64{}
	sawTable := false
	for _, r := range pt.Rows {
		if r[0].(string) == "pt" && r[1].(string) == "table" {
			sawTable = true
		}
		sums["bufferpool.fetches"] += r[2].(int64)
		sums["bufferpool.hits"] += r[3].(int64)
		sums["bufferpool.reads"] += r[4].(int64)
		sums["bufferpool.writes"] += r[5].(int64)
		sums["bufferpool.evictions"] += r[6].(int64)
	}
	if !sawTable {
		t.Fatalf("partition pt missing: %v", pt.Rows)
	}

	// Neither virtual-table read touches a buffer pool, so the registry view
	// captured here matches the raw per-partition stats summed above.
	snap := e.Obs().Snapshot()
	for name, sum := range sums {
		if got := int64(snap.Get(name)); got != sum {
			t.Fatalf("%s: registry %d != sysptprof sum %d", name, got, sum)
		}
	}
}

// TestSysprofileAgreesWithSysptprofUnderLoad: while four sessions probe and
// insert through an index, each on a table of its own, a fifth reads
// SYSPROFILE and SYSPTPROF in a loop. The registry's buffer-pool
// and sbspace rows are sums of the pools' and spaces' own counters, read at
// each snapshot, so every SYSPROFILE row must only grow between reads; once
// the sessions stop, each bufferpool.* row must equal the sum of its
// SYSPTPROF column.
func TestSysprofileAgreesWithSysptprofUnderLoad(t *testing.T) {
	// No daemons: a checkpoint between the two final reads would write pages.
	e, err := Open(Options{Clock: chronon.NewVirtualClock(chronon.MustParse("9/97")),
		CheckpointInterval: -1, VacuumInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	registerMemEq(t, e)
	registerMemAM(t, e, "mem_am", "mem", true)
	setup := e.NewSession()
	defer setup.Close()
	const workers, rounds = 4, 60
	for w := 0; w < workers; w++ {
		fillMemTable(t, setup, fmt.Sprintf("load%d", w), "mem_am", 20, 5)
	}

	profile := func(s *Session) (map[string]int64, error) {
		res, err := s.Exec(`SELECT name, value FROM sysprofile`)
		if err != nil {
			return nil, err
		}
		vals := make(map[string]int64, len(res.Rows))
		for _, r := range res.Rows {
			vals[r[0].(string)] = r[1].(int64)
		}
		return vals, nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for i := 0; i < rounds; i++ {
				for _, q := range []string{
					fmt.Sprintf(`INSERT INTO load%d VALUES (%d, 'more%d')`, w, 7+i%2, i),
					fmt.Sprintf(`SELECT b FROM load%d WHERE MemEq(a, 7)`, w),
				} {
					if _, err := s.Exec(q); err != nil {
						errs <- fmt.Errorf("session %d: %s: %w", w, q, err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	reader := e.NewSession()
	defer reader.Close()
	prev, reads := map[string]int64{}, 0
	for running := true; running; reads++ {
		select {
		case <-done:
			running = false
		default:
		}
		vals, err := profile(reader)
		if err == nil {
			_, err = reader.Exec(`SELECT * FROM sysptprof`)
		}
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range vals {
			if v < prev[name] {
				t.Fatalf("read %d: %s went back from %d to %d", reads, name, prev[name], v)
			}
		}
		prev = vals
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if prev["bufferpool.fetches"] == 0 || prev["am.am_getmulti"] == 0 {
		t.Fatalf("the load moved too little to test: %v", prev)
	}

	pt := exec(t, reader, `SELECT * FROM sysptprof`)
	vals, err := profile(reader)
	if err != nil {
		t.Fatal(err)
	}
	for col, name := range []string{"fetches", "hits", "reads", "writes", "evictions"} {
		var sum int64
		for _, r := range pt.Rows {
			sum += r[2+col].(int64)
		}
		if got := vals["bufferpool."+name]; got != sum {
			t.Errorf("bufferpool.%s = %d, SYSPTPROF's %s column sums to %d", name, got, name, sum)
		}
	}
}

// TestVirtualTableShadowing: a real table named sysprofile shadows the
// virtual one until it is dropped.
func TestVirtualTableShadowing(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()

	exec(t, s, `CREATE TABLE sysprofile (a INTEGER, b VARCHAR(16))`)
	exec(t, s, `INSERT INTO sysprofile VALUES (1, 'shadow')`)
	res := exec(t, s, `SELECT * FROM sysprofile`)
	if len(res.Rows) != 1 || res.Rows[0][1].(string) != "shadow" {
		t.Fatalf("real table did not shadow virtual: %v", res.Rows)
	}

	exec(t, s, `DROP TABLE sysprofile`)
	res = exec(t, s, `SELECT * FROM sysprofile`)
	if len(res.Rows) == 0 || len(res.Columns) != 2 || res.Columns[0] != "name" {
		t.Fatalf("virtual table not visible after drop: cols=%v rows=%d", res.Columns, len(res.Rows))
	}
}

func TestSetTraceStatement(t *testing.T) {
	var buf bytes.Buffer
	e, err := Open(Options{
		Clock:       chronon.NewVirtualClock(chronon.MustParse("9/97")),
		TraceWriter: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession()
	defer s.Close()

	res := exec(t, s, `SET TRACE grt TO 2`)
	if !strings.Contains(res.Message, `"grt"`) || !strings.Contains(res.Message, "2") {
		t.Fatalf("message: %q", res.Message)
	}

	e.Tracer().Tracef("grt", 1, "split at node %d", 4)
	e.Tracer().Tracef("grt", 3, "suppressed detail")
	e.Tracer().Tracef("rst", 1, "other class stays off")
	out := buf.String()
	if !strings.Contains(out, "[grt:1] split at node 4") {
		t.Fatalf("trace output missing enabled line: %q", out)
	}
	if strings.Contains(out, "suppressed") || strings.Contains(out, "other class") {
		t.Fatalf("trace emitted disabled lines: %q", out)
	}

	if _, err := s.Exec(`SET ISOLATION TO bogus`); ErrorCode(err) != CodeInvalidParameter {
		t.Fatalf("bad isolation level: got %v, want %s", err, CodeInvalidParameter)
	}
}

func TestTypedErrorCodes(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()

	cases := []struct {
		sql  string
		code string
	}{
		{`SELECT * FROM nosuch`, CodeUndefinedTable},
		{`CREATE TABLE bad (a NOSUCHTYPE)`, CodeUndefinedObject},
		{`COMMIT`, CodeNoActiveTx},
		{`INSERT INTO dup (a, a) VALUES (1, 2)`, CodeDuplicateColumn},
		{`UPDATE dup SET a = 1, a = 2`, CodeDuplicateColumn},
	}
	exec(t, s, `CREATE TABLE dup (a INTEGER, b INTEGER)`)
	exec(t, s, `INSERT INTO dup VALUES (0, 0)`)
	for _, c := range cases {
		_, err := s.Exec(c.sql)
		if got := ErrorCode(err); got != c.code {
			t.Fatalf("%s: code %q (err %v), want %s", c.sql, got, err, c.code)
		}
	}
	// The refused statements wrote nothing.
	if res := exec(t, s, `SELECT a FROM dup`); len(res.Rows) != 1 || res.Rows[0][0] != int64(0) {
		t.Fatalf("dup after refused writes: %v", res.Rows)
	}

	exec(t, s, `BEGIN WORK`)
	if _, err := s.Exec(`BEGIN WORK`); ErrorCode(err) != CodeActiveTx {
		t.Fatalf("nested BEGIN: %v", err)
	}
	exec(t, s, `ROLLBACK WORK`)
}

func TestExplainSelect(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerMemAM(t, e, "mem_am", "mem", true)
	s := e.NewSession()
	defer s.Close()

	fillMemTable(t, s, "tb", "mem_am", 20, 5)

	res := exec(t, s, `EXPLAIN SELECT b FROM tb WHERE MemEq(a, 7)`)
	if len(res.Columns) != 1 || res.Columns[0] != "QUERY PLAN" {
		t.Fatalf("columns: %v", res.Columns)
	}
	var plan strings.Builder
	for _, r := range res.Rows {
		plan.WriteString(r[0].(string) + "\n")
	}
	out := plan.String()
	for _, want := range []string{
		"SELECT on tb",
		"index scan on tb_ix via mem_am",
		"strategy:",
		"MemEq",
		"batch:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("plan missing %q:\n%s", want, out)
		}
	}
	// EXPLAIN plans without executing: no scan was opened.
	if got := res.Stats.Calls("am_beginscan"); got != 0 {
		t.Fatalf("EXPLAIN opened a scan: %d am_beginscan calls", got)
	}

	res = exec(t, s, `EXPLAIN SELECT * FROM tb`)
	joined := ""
	for _, r := range res.Rows {
		joined += r[0].(string) + "\n"
	}
	if !strings.Contains(joined, "sequential heap scan") {
		t.Fatalf("unqualified plan should seqscan:\n%s", joined)
	}
}

// A SELECT over a virtual table runs the SELECT cursor: Exec and a stream
// drained batch by batch return the same columns, rows and names (counter
// values move between statements, so only the name column is compared), the
// open stream holds the session like any SELECT, and a stream closed after
// its first batch leaves the session usable.
func TestVirtualTableStreams(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE pt (a INTEGER)`)
	exec(t, s, `INSERT INTO pt VALUES (1)`)

	for _, q := range []string{
		`SELECT * FROM sysprofile`,
		`SELECT name FROM sysprofile`,
		`SELECT name, value FROM sysprofile WHERE name = 'wal.appends'`,
		`SELECT COUNT(*) FROM sysprofile`,
		`SELECT COUNT(*) FROM sysprofile WHERE name = 'wal.appends'`,
		`SELECT * FROM sysptprof`,
		`SELECT partition, fetches FROM sysptprof`,
		`SELECT partition FROM sysptprof WHERE kind = 'table'`,
		`SELECT COUNT(*) FROM sysptprof`,
		`SELECT COUNT(*) FROM sysptprof WHERE kind = 'table'`,
	} {
		want := exec(t, s, q)
		if len(want.Rows) == 0 {
			t.Fatalf("%s: no rows", q)
		}
		str, err := s.ExecStream(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var got [][]types.Datum
		for {
			b, err := str.Next()
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if b == nil {
				break
			}
			got = append(got, b...)
		}
		if strings.Join(str.Columns(), ",") != strings.Join(want.Columns, ",") {
			t.Fatalf("%s: stream columns %v, Exec columns %v", q, str.Columns(), want.Columns)
		}
		if len(got) != len(want.Rows) || str.Result().Affected != want.Affected {
			t.Fatalf("%s: stream %d rows (affected %d), Exec %d (affected %d)",
				q, len(got), str.Result().Affected, len(want.Rows), want.Affected)
		}
		for i := range got {
			if got[i][0] != want.Rows[i][0] {
				t.Fatalf("%s row %d: stream %v, Exec %v", q, i, got[i][0], want.Rows[i][0])
			}
		}
	}

	str, err := s.ExecStream(`SELECT * FROM sysprofile`)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := str.Next(); err != nil || len(b) == 0 {
		t.Fatalf("first batch: %d rows, %v", len(b), err)
	}
	if _, err := s.Exec(`SELECT COUNT(*) FROM sysprofile`); ErrorCode(err) != CodeSessionBusy {
		t.Fatalf("statement during an open virtual-table stream: %v", err)
	}
	if err := str.Close(); err != nil {
		t.Fatal(err)
	}
	if res := exec(t, s, `SELECT COUNT(*) FROM pt`); res.Rows[0][0] != int64(1) {
		t.Fatalf("after Close: %v", res.Rows)
	}
}

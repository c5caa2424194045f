package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/am"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/types"
)

// These tests pin the purpose-function call protocol of the batched scan
// pipeline: an access method that binds am_getmulti is driven through
// am_open -> am_beginscan -> am_getmulti* -> am_endscan -> am_close, while
// a getnext-only access method (only am_getnext is mandatory) is driven
// through the legacy Figure 6(b) sequence by the adapter — one traced
// am_getnext per fetched row — and both return identical results.

type memEntry struct {
	key int64
	rid heap.RowID
}

type memScan struct {
	rids []heap.RowID
	pos  int
}

// registerMemAM installs a minimal in-memory access method under amName.
// Entries live in a map keyed by index name; the single strategy function
// MemEq(col, const) selects entries whose key equals the constant. With
// withGetMulti the method also binds a native am_getmulti.
func registerMemAM(t *testing.T, e *Engine, amName, prefix string, withGetMulti bool) {
	t.Helper()
	registerMemAMWith(t, e, amName, prefix, memAM{getMulti: withGetMulti})
}

// registerMemAMCosted is registerMemAM with an optional am_scancost binding
// (a flat cheap estimate), for tests that pin how often the optimizer
// consults the cost function.
func registerMemAMCosted(t *testing.T, e *Engine, amName, prefix string, withGetMulti, withScanCost bool) {
	t.Helper()
	registerMemAMWith(t, e, amName, prefix, memAM{getMulti: withGetMulti, scanCost: withScanCost})
}

// memAM selects the optional behaviour of a registered in-memory method.
type memAM struct {
	getMulti bool // bind a native am_getmulti
	scanCost bool // bind am_scancost
	// superset makes am_beginscan select every entry, whatever the
	// qualification; exact makes it claim ScanDesc.Exact all the same.
	superset, exact bool
}

func registerMemAMWith(t *testing.T, e *Engine, amName, prefix string, opt memAM) {
	t.Helper()
	// A real blade's readers and builders meet at the large object's lock;
	// this store has only mu (TestPlanCacheDDLRace scans an index while its
	// dropped-and-recreated namesake is being built).
	var mu sync.Mutex
	store := map[string][]memEntry{}

	lib := am.Library{
		prefix + "_create": am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error {
			mu.Lock()
			defer mu.Unlock()
			store[id.Name] = nil
			return nil
		}),
		prefix + "_open":  am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		prefix + "_close": am.AmIndexFunc(func(ctx *mi.Context, id *am.IndexDesc) error { return nil }),
		prefix + "_insert": am.AmMutateFunc(func(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
			k, ok := row[0].(int64)
			if !ok {
				return fmt.Errorf("memam: expected INTEGER key, got %T", row[0])
			}
			mu.Lock()
			defer mu.Unlock()
			store[id.Name] = append(store[id.Name], memEntry{key: k, rid: rid})
			return nil
		}),
		prefix + "_beginscan": am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error {
			if sd.Qual == nil {
				return fmt.Errorf("memam: scan without qualification")
			}
			leaves := sd.Qual.Leaves()
			if len(leaves) != 1 {
				return fmt.Errorf("memam: want a single MemEq leaf, got %d", len(leaves))
			}
			want, ok := leaves[0].Const.(int64)
			if !ok {
				return fmt.Errorf("memam: non-integer constant %T", leaves[0].Const)
			}
			sc := &memScan{}
			mu.Lock()
			defer mu.Unlock()
			for _, en := range store[sd.Index.Name] {
				if en.key == want || opt.superset {
					sc.rids = append(sc.rids, en.rid)
				}
			}
			sd.UserData = sc
			sd.Exact = opt.exact
			return nil
		}),
		prefix + "_endscan": am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error {
			sd.UserData = nil
			return nil
		}),
		prefix + "_getnext": am.AmGetNextFunc(func(ctx *mi.Context, sd *am.ScanDesc) (heap.RowID, []types.Datum, bool, error) {
			sc, ok := sd.UserData.(*memScan)
			if !ok {
				return 0, nil, false, fmt.Errorf("memam: getnext without beginscan")
			}
			if sc.pos >= len(sc.rids) {
				return 0, nil, false, nil
			}
			rid := sc.rids[sc.pos]
			sc.pos++
			return rid, nil, true, nil
		}),
	}
	if opt.getMulti {
		lib[prefix+"_getmulti"] = am.AmGetMultiFunc(func(ctx *mi.Context, sd *am.ScanDesc) (int, error) {
			sc, ok := sd.UserData.(*memScan)
			if !ok {
				return 0, fmt.Errorf("memam: getmulti without beginscan")
			}
			b := sd.Batch
			b.Reset()
			for !b.Full() && sc.pos < len(sc.rids) {
				b.Append(sc.rids[sc.pos], nil)
				sc.pos++
			}
			return b.N, nil
		})
	}
	if opt.scanCost {
		lib[prefix+"_scancost"] = am.AmScanCostFunc(func(ctx *mi.Context, id *am.IndexDesc, q *am.Qual) (float64, error) {
			return 0.1, nil
		})
	}
	path := "usr/functions/" + prefix + ".bld"
	e.LoadLibrary(path, lib)

	s := e.NewSession()
	defer s.Close()
	slots := []string{"create", "open", "close", "insert", "beginscan", "endscan", "getnext"}
	if opt.getMulti {
		slots = append(slots, "getmulti")
	}
	if opt.scanCost {
		slots = append(slots, "scancost")
	}
	var b strings.Builder
	assigns := make([]string, 0, len(slots)+1)
	for _, slot := range slots {
		ret := "int"
		if slot == "scancost" {
			ret = "float"
		}
		fmt.Fprintf(&b, "CREATE FUNCTION %s_%s(pointer) RETURNING %s EXTERNAL NAME '%s(%s_%s)' LANGUAGE c;\n",
			prefix, slot, ret, path, prefix, slot)
		assigns = append(assigns, fmt.Sprintf("am_%s = %s_%s", slot, prefix, slot))
	}
	assigns = append(assigns, "am_sptype = 'S'")
	fmt.Fprintf(&b, "CREATE SECONDARY ACCESS_METHOD %s (%s);\n", amName, strings.Join(assigns, ", "))
	fmt.Fprintf(&b, "CREATE OPCLASS %s_ops FOR %s STRATEGIES(MemEq);\n", prefix, amName)
	if _, err := s.ExecScript(b.String()); err != nil {
		t.Fatalf("register %s: %v", amName, err)
	}
}

// registerMemEq installs the shared strategy UDR once per engine.
func registerMemEq(t *testing.T, e *Engine) {
	t.Helper()
	e.LoadLibrary("usr/functions/memeq.bld", am.Library{
		"MemEq": am.UDRFunc(func(ctx *mi.Context, args []types.Datum) (types.Datum, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("MemEq needs 2 arguments")
			}
			a, ok1 := args[0].(int64)
			b, ok2 := args[1].(int64)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("MemEq arguments must be INTEGER")
			}
			return a == b, nil
		}),
	})
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE FUNCTION MemEq(INTEGER, INTEGER) RETURNING boolean EXTERNAL NAME 'usr/functions/memeq.bld(MemEq)' LANGUAGE c`)
}

// fillMemTable creates a table indexed by amName and inserts total rows, of
// which match have key 7 (the queried value).
func fillMemTable(t *testing.T, s *Session, name, amName string, total, match int) {
	t.Helper()
	exec(t, s, fmt.Sprintf(`CREATE TABLE %s (a INTEGER, b VARCHAR(16))`, name))
	exec(t, s, fmt.Sprintf(`CREATE INDEX %s_ix ON %s(a) USING %s`, name, name, amName))
	for i := 0; i < total; i++ {
		k := i + 1000
		if i < match {
			k = 7
		}
		exec(t, s, fmt.Sprintf(`INSERT INTO %s VALUES (%d, 'row%d')`, name, k, i))
	}
}

func countCalls(trace []string, call string) int {
	n := 0
	for _, c := range trace {
		if strings.HasPrefix(c, call+"(") {
			n++
		}
	}
	return n
}

func TestBatchedCallSequence(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerMemAM(t, e, "mem_am", "mem", true)
	s := e.NewSession()
	defer s.Close()

	const total, match = 180, 150 // 150 matches > 2 full batches of 64
	fillMemTable(t, s, "tb", "mem_am", total, match)

	e.EnableCallTrace(true)
	res := exec(t, s, `SELECT b FROM tb WHERE MemEq(a, 7)`)
	trace := e.TakeCallTrace()
	e.EnableCallTrace(false)
	if len(res.Rows) != match {
		t.Fatalf("rows: %d", len(res.Rows))
	}

	joined := strings.Join(trace, " ")
	if !strings.HasPrefix(joined, "am_open(tb_ix) am_beginscan(tb_ix) am_getmulti(tb_ix)") {
		t.Fatalf("prefix: %v", trace)
	}
	if !strings.HasSuffix(joined, "am_endscan(tb_ix) am_close(tb_ix)") {
		t.Fatalf("suffix: %v", trace)
	}
	// 150 matches at the default capacity of 64 drain in three fills
	// (64 + 64 + 22; the short batch signals exhaustion).
	if got := countCalls(trace, "am_getmulti"); got != 3 {
		t.Fatalf("am_getmulti calls: %d (trace %v)", got, trace)
	}
	if got := countCalls(trace, "am_getnext"); got != 0 {
		t.Fatalf("native batched scan must not call am_getnext: %v", trace)
	}
}

func TestGetnextOnlyAdapterSequence(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerMemAM(t, e, "memnx_am", "memnx", false)
	s := e.NewSession()
	defer s.Close()

	const total, match = 180, 150
	fillMemTable(t, s, "tn", "memnx_am", total, match)

	e.EnableCallTrace(true)
	res := exec(t, s, `SELECT b FROM tn WHERE MemEq(a, 7)`)
	trace := e.TakeCallTrace()
	e.EnableCallTrace(false)
	if len(res.Rows) != match {
		t.Fatalf("rows: %d", len(res.Rows))
	}

	joined := strings.Join(trace, " ")
	// The adapter preserves the legacy Figure 6(b) shape: every underlying
	// am_getnext call is traced individually, no am_getmulti appears.
	if !strings.HasPrefix(joined, "am_open(tn_ix) am_beginscan(tn_ix) am_getnext(tn_ix)") {
		t.Fatalf("prefix: %v", trace)
	}
	if !strings.HasSuffix(joined, "am_endscan(tn_ix) am_close(tn_ix)") {
		t.Fatalf("suffix: %v", trace)
	}
	if got := countCalls(trace, "am_getmulti"); got != 0 {
		t.Fatalf("getnext-only scan must not trace am_getmulti: %v", trace)
	}
	// 150 rows plus the final not-found call.
	if got := countCalls(trace, "am_getnext"); got != match+1 {
		t.Fatalf("am_getnext calls: %d", got)
	}
}

// TestBatchedAndAdapterAgree runs the same data and query through the
// native-getmulti method, the getnext-only method, and a plain sequential
// scan, and requires identical result sets.
func TestBatchedAndAdapterAgree(t *testing.T) {
	e := memEngine(t)
	registerMemEq(t, e)
	registerMemAM(t, e, "mem_am", "mem", true)
	registerMemAM(t, e, "memnx_am", "memnx", false)
	s := e.NewSession()
	defer s.Close()

	const total, match = 120, 90
	fillMemTable(t, s, "ta", "mem_am", total, match)
	fillMemTable(t, s, "tb2", "memnx_am", total, match)
	// The unindexed control table: same rows, sequential scan + UDR filter.
	exec(t, s, `CREATE TABLE tc (a INTEGER, b VARCHAR(16))`)
	for i := 0; i < total; i++ {
		k := i + 1000
		if i < match {
			k = 7
		}
		exec(t, s, fmt.Sprintf(`INSERT INTO tc VALUES (%d, 'row%d')`, k, i))
	}

	gather := func(table string) []string {
		res := exec(t, s, fmt.Sprintf(`SELECT b FROM %s WHERE MemEq(a, 7)`, table))
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r[0].(string)
		}
		return out
	}
	native, adapter, seq := gather("ta"), gather("tb2"), gather("tc")
	if strings.Join(native, ",") != strings.Join(adapter, ",") {
		t.Fatalf("native %v != adapter %v", native, adapter)
	}
	if strings.Join(native, ",") != strings.Join(seq, ",") {
		t.Fatalf("native %v != seqscan %v", native, seq)
	}
}

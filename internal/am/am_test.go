package am

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/types"
)

func TestQualEvaluate(t *testing.T) {
	a := NewFuncQual("overlaps", 0, int64(1), true)
	b := NewFuncQual("equal", 0, int64(2), true)
	c := NewFuncQual("contains", 0, int64(3), false)
	q := NewBoolQual(QOr, NewBoolQual(QAnd, a, b), c)

	truth := map[string]bool{"overlaps": true, "equal": false, "contains": true}
	got, err := q.Evaluate(func(l *Qual) (bool, error) { return truth[l.Func], nil })
	if err != nil {
		t.Fatal(err)
	}
	if !got { // (T AND F) OR T = T
		t.Fatal("OR must be true")
	}
	truth["contains"] = false
	got, _ = q.Evaluate(func(l *Qual) (bool, error) { return truth[l.Func], nil })
	if got {
		t.Fatal("(T AND F) OR F must be false")
	}
	// Short circuits: AND stops at the first false.
	calls := 0
	and := NewBoolQual(QAnd, b, a)
	and.Evaluate(func(l *Qual) (bool, error) { calls++; return false, nil })
	if calls != 1 {
		t.Fatalf("AND short circuit: %d calls", calls)
	}
	// Errors propagate.
	if _, err := q.Evaluate(func(l *Qual) (bool, error) { return false, fmt.Errorf("boom") }); err == nil {
		t.Fatal("error must propagate")
	}
	// Nil qual is vacuously true.
	var nq *Qual
	if ok, _ := nq.Evaluate(nil); !ok {
		t.Fatal("nil qual")
	}
	if nq.String() != "<none>" || q.String() == "" || a.String() == "" || c.String() == "" {
		t.Fatal("strings")
	}
}

func TestQualLeaves(t *testing.T) {
	a := NewFuncQual("f", 0, nil, true)
	b := NewFuncQual("g", 0, nil, true)
	q := NewBoolQual(QAnd, a, NewBoolQual(QOr, b, a))
	leaves := q.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves: %d", len(leaves))
	}
	if leaves[0].Func != "f" || leaves[1].Func != "g" {
		t.Fatal("leaf order")
	}
}

func testResolver(lib Library) func(string) (any, error) {
	return func(name string) (any, error) {
		sym, ok := lib[name]
		if !ok {
			return nil, fmt.Errorf("no symbol %s", name)
		}
		return sym, nil
	}
}

func TestBindPurposeSet(t *testing.T) {
	var opened, got int
	lib := Library{
		"x_open": AmIndexFunc(func(*mi.Context, *IndexDesc) error { opened++; return nil }),
		"x_getnext": AmGetNextFunc(func(*mi.Context, *ScanDesc) (heap.RowID, []types.Datum, bool, error) {
			got++
			return 0, nil, false, nil
		}),
		"x_cost": AmScanCostFunc(func(*mi.Context, *IndexDesc, *Qual) (float64, error) { return 1, nil }),
	}
	ps, err := Bind(map[string]string{
		"am_open":     "x_open",
		"am_getnext":  "x_getnext",
		"am_scancost": "x_cost",
		"am_sptype":   "S",
	}, testResolver(lib))
	if err != nil {
		t.Fatal(err)
	}
	if ps.Open == nil || ps.GetNext == nil || ps.ScanCost == nil || ps.Create != nil {
		t.Fatal("slot binding")
	}
	ps.Open(nil, nil)
	ps.GetNext(nil, nil)
	if opened != 1 || got != 1 {
		t.Fatal("bound functions must dispatch")
	}
}

func TestBindErrors(t *testing.T) {
	lib := Library{
		"bad":     "not a function",
		"getnext": AmGetNextFunc(func(*mi.Context, *ScanDesc) (heap.RowID, []types.Datum, bool, error) { return 0, nil, false, nil }),
	}
	// Missing am_getnext.
	if _, err := Bind(map[string]string{"am_open": "getnext"}, testResolver(lib)); err == nil {
		t.Fatal("am_open with wrong signature AND missing getnext must fail")
	}
	if _, err := Bind(map[string]string{}, testResolver(lib)); err == nil || !strings.Contains(err.Error(), "mandatory") {
		t.Fatalf("empty binding must demand am_getnext: %v", err)
	}
	// Wrong signature.
	if _, err := Bind(map[string]string{"am_getnext": "bad"}, testResolver(lib)); err == nil {
		t.Fatal("wrong signature must fail")
	}
	// Unknown slot.
	if _, err := Bind(map[string]string{"am_getnext": "getnext", "am_frobnicate": "getnext"}, testResolver(lib)); err == nil {
		t.Fatal("unknown slot must fail")
	}
	// Unresolvable symbol.
	if _, err := Bind(map[string]string{"am_getnext": "missing"}, testResolver(lib)); err == nil {
		t.Fatal("missing symbol must fail")
	}
}

func TestScanBatch(t *testing.T) {
	b := NewScanBatch(3)
	if b.Cap() != 3 || b.N != 0 || b.Full() {
		t.Fatal("fresh batch")
	}
	b.Append(1, []types.Datum{int64(10)})
	b.Append(2, nil)
	b.Append(3, []types.Datum{int64(30)})
	if !b.Full() || b.N != 3 {
		t.Fatal("full batch")
	}
	b.Reset()
	if b.N != 0 || b.Full() {
		t.Fatal("reset")
	}
	// Reset must drop row references so batches do not pin old rows.
	if b.Rows[0] != nil || b.Rows[2] != nil {
		t.Fatal("reset must nil out rows")
	}
	// A zero or negative capacity clamps to 1.
	if NewScanBatch(0).Cap() != 1 || NewScanBatch(-5).Cap() != 1 {
		t.Fatal("capacity clamp")
	}
}

func TestBindGetMulti(t *testing.T) {
	lib := Library{
		"getnext":  AmGetNextFunc(func(*mi.Context, *ScanDesc) (heap.RowID, []types.Datum, bool, error) { return 0, nil, false, nil }),
		"getmulti": AmGetMultiFunc(func(*mi.Context, *ScanDesc) (int, error) { return 0, nil }),
	}
	ps, err := Bind(map[string]string{"am_getnext": "getnext", "am_getmulti": "getmulti"}, testResolver(lib))
	if err != nil {
		t.Fatal(err)
	}
	if ps.GetMulti == nil {
		t.Fatal("am_getmulti must bind")
	}
	// Wrong signature in the am_getmulti slot must be rejected.
	if _, err := Bind(map[string]string{"am_getnext": "getnext", "am_getmulti": "getnext"}, testResolver(lib)); err == nil {
		t.Fatal("am_getmulti with am_getnext signature must fail")
	}
}

func TestAdaptGetNext(t *testing.T) {
	rows := []heap.RowID{11, 22, 33, 44, 55}
	pos := 0
	var pre, post int
	fill := AdaptGetNext(func(*mi.Context, *ScanDesc) (heap.RowID, []types.Datum, bool, error) {
		if pos >= len(rows) {
			return 0, nil, false, nil
		}
		rid := rows[pos]
		pos++
		return rid, nil, true, nil
	}, func() { pre++ }, func() { post++ })

	sd := &ScanDesc{BatchCap: 2}
	n, err := FillFrom(nil, sd, fill)
	if err != nil || n != 2 {
		t.Fatalf("first fill: n=%d err=%v", n, err)
	}
	if sd.Batch == nil || sd.Batch.Cap() != 2 {
		t.Fatal("FillFrom must allocate the negotiated batch")
	}
	if sd.Batch.RowIDs[0] != 11 || sd.Batch.RowIDs[1] != 22 {
		t.Fatalf("batch contents: %v", sd.Batch.RowIDs)
	}
	if n, _ = FillFrom(nil, sd, fill); n != 2 {
		t.Fatalf("second fill: %d", n)
	}
	// The short batch: one row left, then the exhaustion call.
	if n, _ = FillFrom(nil, sd, fill); n != 1 {
		t.Fatalf("third fill: %d", n)
	}
	if sd.Batch.RowIDs[0] != 55 {
		t.Fatalf("third fill contents: %v", sd.Batch.RowIDs)
	}
	// The before/after hooks bracket every underlying am_getnext call
	// (5 hits + 1 exhaustion) so the legacy trace stays observable.
	if pre != 6 || post != 6 {
		t.Fatalf("hooks: pre=%d post=%d", pre, post)
	}
	// Errors propagate out of the fill.
	bad := AdaptGetNext(func(*mi.Context, *ScanDesc) (heap.RowID, []types.Datum, bool, error) {
		return 0, nil, false, fmt.Errorf("boom")
	}, nil, nil)
	if _, err := FillFrom(nil, &ScanDesc{BatchCap: 2}, bad); err == nil {
		t.Fatal("error must propagate")
	}
}

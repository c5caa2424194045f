package heap

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

var schema = []types.Type{types.Builtin(types.KInt), types.Builtin(types.KVarchar)}

func newTable(t *testing.T) *Table {
	t.Helper()
	bp := storage.NewBufferPool(storage.NewMemPager(), 128)
	tb, err := Create("emp", 1, bp, schema)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestInsertGetDelete(t *testing.T) {
	tb := newTable(t)
	rid, err := tb.Insert(1, []types.Datum{int64(7), "john"})
	if err != nil {
		t.Fatal(err)
	}
	row, err := tb.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != int64(7) || row[1] != "john" {
		t.Fatalf("row: %v", row)
	}
	ok, err := tb.Delete(1, rid)
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, err := tb.Get(rid); err == nil {
		t.Fatal("get after delete must fail")
	}
	ok, err = tb.Delete(1, rid)
	if err != nil || ok {
		t.Fatal("double delete must report false")
	}
}

func TestUpdateCreatesNewVersion(t *testing.T) {
	tb := newTable(t)
	rid, _ := tb.Insert(1, []types.Datum{int64(1), "short"})
	nrid, err := tb.Update(1, rid, []types.Datum{int64(1), "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if nrid == rid {
		t.Fatal("update must append a new version at a new rowid")
	}
	row, err := tb.Get(nrid)
	if err != nil || row[1] != "tiny" {
		t.Fatalf("update content: %v %v", row, err)
	}
	// Latest state: the old version is ended.
	if _, err := tb.Get(rid); err == nil {
		t.Fatal("old rowid must be dead after update")
	}
	// The old version keeps its bytes, so a snapshot that predates the
	// update still reads it.
	var h verHeader
	var old []types.Datum
	err = tb.readCell(rid, func(cell []byte) (err error) {
		h = parseHeader(cell)
		old, err = types.DecodeRow(tb.schema, cell[verHeaderSize:], nil)
		return err
	})
	if h.endTx != 1 {
		t.Fatalf("old version header: %+v", h)
	}
	if err != nil || old[1] != "short" {
		t.Fatalf("old version row: %v %v", old, err)
	}
	// Update of an already-ended version fails.
	if _, err := tb.Update(2, rid, row); err == nil {
		t.Fatal("update of ended version must fail")
	}
	// Update of a missing row fails.
	if _, err := tb.Update(1, MakeRowID(2, 999), row); err == nil {
		t.Fatal("update of missing row must fail")
	}
}

func TestSnapshotVisibility(t *testing.T) {
	tb := newTable(t)
	rid, err := tb.Insert(5, []types.Datum{int64(1), "v"})
	if err != nil {
		t.Fatal(err)
	}
	get := func(s *Snapshot) bool {
		t.Helper()
		_, ok, err := tb.GetVersion(rid, s)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	// Uncommitted (beginLSN still zero): invisible to others, visible to the
	// creator and to a dirty read.
	if get(&Snapshot{ReadLSN: 10, Tx: 1}) {
		t.Fatal("uncommitted version visible to another tx")
	}
	if !get(&Snapshot{ReadLSN: 10, Tx: 5}) {
		t.Fatal("own write invisible")
	}
	if !get(&Snapshot{Dirty: true, Tx: 1}) {
		t.Fatal("dirty read must see uncommitted version")
	}
	// Commit stamp 4: visible below a later cut, not at or before its own.
	if err := tb.StampVersion(5, rid, StampBegin, 4); err != nil {
		t.Fatal(err)
	}
	if !get(&Snapshot{ReadLSN: 10, Tx: 1}) {
		t.Fatal("committed version invisible")
	}
	if get(&Snapshot{ReadLSN: 4, Tx: 1}) {
		t.Fatal("version from stamp 4 visible at cut 4")
	}
	if get(&Snapshot{ReadLSN: 10, Tx: 1, Active: map[uint64]struct{}{5: {}}}) {
		t.Fatal("version from active tx visible")
	}
	// Delete by tx 6, not yet stamped: old snapshots still see the row, the
	// deleter and dirty readers do not.
	if ok, err := tb.Delete(6, rid); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if !get(&Snapshot{ReadLSN: 10, Tx: 1}) {
		t.Fatal("unstamped delete must not hide the version")
	}
	if get(&Snapshot{ReadLSN: 10, Tx: 6}) {
		t.Fatal("deleter must not see its own deleted version")
	}
	if get(&Snapshot{Dirty: true, Tx: 1}) {
		t.Fatal("dirty read must skip ended version")
	}
	// End stamp 8: invisible at cuts above 8, still visible below.
	if err := tb.StampVersion(6, rid, StampEnd, 8); err != nil {
		t.Fatal(err)
	}
	if get(&Snapshot{ReadLSN: 10, Tx: 1}) {
		t.Fatal("version deleted at stamp 8 visible at cut 10")
	}
	if !get(&Snapshot{ReadLSN: 7, Tx: 1}) {
		t.Fatal("version deleted at stamp 8 invisible at cut 7")
	}
}

func TestVacuum(t *testing.T) {
	tb := newTable(t)
	keep, _ := tb.Insert(1, []types.Datum{int64(1), "keep"})
	dead, _ := tb.Insert(1, []types.Datum{int64(2), "dead"})
	for _, rid := range []RowID{keep, dead} {
		if err := tb.StampVersion(1, rid, StampBegin, 1); err != nil {
			t.Fatal(err)
		}
	}
	if ok, _ := tb.Delete(2, dead); !ok {
		t.Fatal("delete")
	}
	if err := tb.StampVersion(2, dead, StampEnd, 2); err != nil {
		t.Fatal(err)
	}
	// An aborted insert (creator finished, never stamped) is also garbage.
	if _, err := tb.Insert(9, []types.Datum{int64(3), "aborted"}); err != nil {
		t.Fatal(err)
	}
	noActive := func(uint64) bool { return false }
	n, err := tb.Vacuum(3, 5, noActive, nil)
	if err != nil || n != 2 {
		t.Fatalf("vacuum reclaimed %d (%v), want 2", n, err)
	}
	if c, _ := tb.Count(); c != 1 {
		t.Fatalf("count after vacuum: %d", c)
	}
	if _, err := tb.Get(keep); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	// A version still ended above the horizon survives.
	if ok, _ := tb.Delete(4, keep); !ok {
		t.Fatal("delete keep")
	}
	if err := tb.StampVersion(4, keep, StampEnd, 9); err != nil {
		t.Fatal(err)
	}
	if n, _ := tb.Vacuum(5, 5, noActive, nil); n != 0 {
		t.Fatalf("vacuum above horizon reclaimed %d", n)
	}
	// Raising the horizon reclaims it.
	if n, _ := tb.Vacuum(6, 10, noActive, nil); n != 1 {
		t.Fatalf("vacuum at cut 10 reclaimed %d", n)
	}
}

func TestScannerSnapshot(t *testing.T) {
	tb := newTable(t)
	for i := 0; i < 50; i++ {
		rid, err := tb.Insert(1, []types.Datum{int64(i), fmt.Sprintf("v%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.StampVersion(1, rid, StampBegin, 1); err != nil {
			t.Fatal(err)
		}
	}
	snap := &Snapshot{ReadLSN: 5, Tx: 2}
	// Writes after the snapshot's cut: an insert and an update by tx 3,
	// stamped at 7.
	late, err := tb.Insert(3, []types.Datum{int64(100), "late"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.StampVersion(3, late, StampBegin, 7); err != nil {
		t.Fatal(err)
	}
	count := func(s *Snapshot) int {
		sc := tb.NewScanner(s)
		n := 0
		for {
			rb, err := sc.NextBatch(16)
			if err != nil {
				t.Fatal(err)
			}
			if rb == nil {
				return n
			}
			n += len(rb.RowIDs)
		}
	}
	if n := count(snap); n != 50 {
		t.Fatalf("snapshot scan saw %d rows, want 50", n)
	}
	if n := count(&Snapshot{ReadLSN: 8, Tx: 2}); n != 51 {
		t.Fatalf("later snapshot saw %d rows, want 51", n)
	}
	if n := count(nil); n != 51 {
		t.Fatalf("latest-state scan saw %d rows, want 51", n)
	}
	// Range scanners partition the data pages without overlap.
	pages := storage.PageID(tb.bp.Pager().NumPages())
	mid := (2 + pages) / 2
	a := tb.NewRangeScanner(snap, 0, mid)
	b := tb.NewRangeScanner(snap, mid, pages+99)
	total := 0
	for _, sc := range []*Scanner{a, b} {
		for {
			rb, err := sc.NextBatch(16)
			if err != nil {
				t.Fatal(err)
			}
			if rb == nil {
				break
			}
			total += len(rb.RowIDs)
		}
	}
	if total != 50 {
		t.Fatalf("partitioned scan saw %d rows, want 50", total)
	}
}

func TestScanAndCount(t *testing.T) {
	tb := newTable(t)
	want := map[int64]string{}
	for i := 0; i < 500; i++ {
		v := fmt.Sprintf("value-%d", i)
		if _, err := tb.Insert(1, []types.Datum{int64(i), v}); err != nil {
			t.Fatal(err)
		}
		want[int64(i)] = v
	}
	got := map[int64]string{}
	err := tb.Scan(func(rid RowID, row []types.Datum) (bool, error) {
		got[row[0].(int64)] = row[1].(string)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("scan found %d rows", len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("row %d: %q", k, got[k])
		}
	}
	n, err := tb.Count()
	if err != nil || n != 500 {
		t.Fatalf("count %d %v", n, err)
	}
	if tb.Pages() < 2 {
		t.Fatalf("pages %d", tb.Pages())
	}
	// Early stop.
	seen := 0
	tb.Scan(func(RowID, []types.Datum) (bool, error) { seen++; return seen < 10, nil })
	if seen != 10 {
		t.Fatalf("early stop: %d", seen)
	}
}

func TestRandomisedAgainstModel(t *testing.T) {
	tb := newTable(t)
	rng := rand.New(rand.NewSource(17))
	model := map[RowID][]types.Datum{}
	var ids []RowID
	for op := 0; op < 2000; op++ {
		switch rng.Intn(4) {
		case 0, 1:
			row := []types.Datum{rng.Int63n(1000), fmt.Sprintf("r%d", rng.Int())}
			rid, err := tb.Insert(1, row)
			if err != nil {
				t.Fatal(err)
			}
			model[rid] = row
			ids = append(ids, rid)
		case 2:
			if len(ids) == 0 {
				continue
			}
			rid := ids[rng.Intn(len(ids))]
			if _, live := model[rid]; !live {
				continue
			}
			ok, err := tb.Delete(1, rid)
			if err != nil || !ok {
				t.Fatalf("delete live row: %v %v", ok, err)
			}
			delete(model, rid)
		case 3:
			if len(ids) == 0 {
				continue
			}
			rid := ids[rng.Intn(len(ids))]
			if _, live := model[rid]; !live {
				continue
			}
			row := []types.Datum{rng.Int63n(1000), fmt.Sprintf("u%d", rng.Int())}
			nrid, err := tb.Update(1, rid, row)
			if err != nil {
				t.Fatal(err)
			}
			delete(model, rid)
			model[nrid] = row
			ids = append(ids, nrid)
		}
	}
	// Verify via scan.
	got := map[RowID][]types.Datum{}
	tb.Scan(func(rid RowID, row []types.Datum) (bool, error) {
		got[rid] = row
		return true, nil
	})
	if len(got) != len(model) {
		t.Fatalf("scan %d rows, model %d", len(got), len(model))
	}
	for rid, row := range model {
		g, ok := got[rid]
		if !ok || g[0] != row[0] || g[1] != row[1] {
			t.Fatalf("row %v mismatch", rid)
		}
	}
}

type countJournal struct{ n int }

func (c *countJournal) LogUpdate(tx uint64, page storage.PageID, runs []storage.Run) error {
	for _, r := range runs {
		c.n++
		if len(r.Before) != len(r.After) {
			return fmt.Errorf("image length mismatch")
		}
	}
	return nil
}

func TestJournalledMutations(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemPager(), 64)
	j := &countJournal{}
	bp.Journal = j.LogUpdate
	tb, err := Create("emp", 1, bp, schema)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tb.Insert(9, []types.Datum{int64(1), "x"})
	if err != nil {
		t.Fatal(err)
	}
	if j.n == 0 {
		t.Fatal("insert must be journalled")
	}
	before := j.n
	nrid, err := tb.Update(9, rid, []types.Datum{int64(1), "y"})
	if err != nil {
		t.Fatal(err)
	}
	if j.n <= before {
		t.Fatal("update must be journalled")
	}
	before = j.n
	if ok, err := tb.Delete(9, nrid); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if j.n <= before {
		t.Fatal("delete must be journalled")
	}
	before = j.n
	if err := tb.StampVersion(9, nrid, StampBegin|StampEnd, 3); err != nil {
		t.Fatal(err)
	}
	if j.n <= before {
		t.Fatal("stamping must be journalled")
	}
}

func TestRowIDPacking(t *testing.T) {
	rid := MakeRowID(123456, 789)
	if rid.Page() != 123456 || rid.Slot() != 789 {
		t.Fatalf("packing: %v %v", rid.Page(), rid.Slot())
	}
	if rid.String() == "" {
		t.Fatal("string")
	}
	// The slot field holds exactly 16 bits; Insert guards the boundary with
	// ErrSlotOverflow rather than letting a wider slot corrupt the page id.
	edge := MakeRowID(7, maxSlot)
	if edge.Page() != 7 || edge.Slot() != maxSlot {
		t.Fatalf("boundary packing: %v %v", edge.Page(), edge.Slot())
	}
}

func TestOpenExisting(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemPager(), 64)
	tb, _ := Create("emp", 1, bp, schema)
	rid, _ := tb.Insert(1, []types.Datum{int64(5), "persist"})
	tb2, err := Open("emp", 1, bp, schema)
	if err != nil {
		t.Fatal(err)
	}
	row, err := tb2.Get(rid)
	if err != nil || row[1] != "persist" {
		t.Fatalf("reopened get: %v %v", row, err)
	}
	// Open of a non-table fails.
	bp2 := storage.NewBufferPool(storage.NewMemPager(), 64)
	if _, err := Open("x", 1, bp2, schema); err == nil {
		t.Fatal("open of empty pager must fail")
	}
}

func TestOversizedTuple(t *testing.T) {
	tb := newTable(t)
	big := make([]byte, storage.PageSize)
	if _, err := tb.Insert(1, []types.Datum{int64(1), string(big)}); err == nil {
		t.Fatal("oversized tuple must fail")
	}
}

package engine

import (
	"testing"

	"repro/internal/am"
	"repro/internal/chronon"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/mi"
	"repro/internal/types"
)

// The vacuum reclaims dead versions in a transaction of its own and must end
// it as every statement's transaction ends: an access method that registers
// a transaction-end callback from am_delete (the vacuum is where deferred
// index entries die) sees it run once, with TxCommit, and the table lock is
// free afterwards.
func TestVacuumEndsItsTransaction(t *testing.T) {
	e, err := Open(Options{Clock: chronon.NewVirtualClock(chronon.MustParse("9/97")), VacuumInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	registerMemEq(t, e)
	var events []mi.TxEvent
	lib := am.Library{
		"cb_insert": am.AmMutateFunc(func(*mi.Context, *am.IndexDesc, []types.Datum, heap.RowID) error { return nil }),
		"cb_delete": am.AmMutateFunc(func(ctx *mi.Context, _ *am.IndexDesc, _ []types.Datum, _ heap.RowID) error {
			ctx.OnTxEnd(func(ev mi.TxEvent) { events = append(events, ev) })
			return nil
		}),
		"cb_getnext": am.AmGetNextFunc(func(*mi.Context, *am.ScanDesc) (heap.RowID, []types.Datum, bool, error) {
			return 0, nil, false, nil
		}),
	}
	path := "usr/functions/cb.bld"
	e.LoadLibrary(path, lib)
	s := e.NewSession()
	defer s.Close()
	for _, slot := range []string{"insert", "delete", "getnext"} {
		exec(t, s, `CREATE FUNCTION cb_`+slot+`(pointer) RETURNING int EXTERNAL NAME '`+path+`(cb_`+slot+`)' LANGUAGE c`)
	}
	exec(t, s, `CREATE SECONDARY ACCESS_METHOD cb_am (am_insert = cb_insert, am_delete = cb_delete, am_getnext = cb_getnext, am_sptype = 'S')`)
	exec(t, s, `CREATE OPCLASS cb_ops FOR cb_am STRATEGIES(MemEq)`)
	exec(t, s, `CREATE TABLE vt (a INTEGER)`)
	exec(t, s, `CREATE INDEX vt_ix ON vt(a) USING cb_am`)

	exec(t, s, `BEGIN WORK`)
	exec(t, s, `INSERT INTO vt VALUES (1)`)
	exec(t, s, `DELETE FROM vt WHERE a = 1`)
	exec(t, s, `COMMIT WORK`)
	n, err := e.VacuumNow()
	if err != nil || n != 1 {
		t.Fatalf("VacuumNow = %d, %v; want 1 cell reclaimed", n, err)
	}
	if len(events) != 1 || events[0] != mi.TxCommit {
		t.Fatalf("transaction-end callbacks after the vacuum: %v, want one TxCommit", events)
	}
	tb, err := e.Table("vt")
	if err != nil {
		t.Fatal(err)
	}
	res := lock.Resource{Kind: lock.KindTable, A: uint64(tb.SpaceID)}
	if !e.lm.TryAcquire(lock.TxID(1<<62), res, lock.Exclusive) {
		t.Fatal("the vacuum left its table lock held")
	}
	e.lm.ReleaseAll(lock.TxID(1 << 62))
}

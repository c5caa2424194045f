package treeblade_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/am"
	"repro/internal/blades/gistblade"
	"repro/internal/blades/grtblade"
	"repro/internal/blades/rstblade"
	"repro/internal/chronon"
	"repro/internal/engine"
	"repro/internal/gist"
	"repro/internal/grtree"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/mi"
	"repro/internal/nodestore"
	"repro/internal/rstar"
	"repro/internal/rtree"
	"repro/internal/sbspace"
	"repro/internal/temporal"
	"repro/internal/types"
)

// One purpose-protocol conformance table over every access method built on
// the scaffold. Each method indexes the same GRT_TimeExtent_t column, so one
// data set and one qualification serve all three; what differs is listed
// here and nowhere else.
type method struct {
	am, prefix, opclass, path string
	lib                       func(e *engine.Engine) am.Library
	// slots are the purpose slots the method binds — copied from the
	// RegistrationSQL constants of the commit before the scaffold generated
	// that SQL, which is what makes row (a) a proof that generating it changed
	// nothing.
	slots []string
	// records are the bookkeeping records an index leaves beside its handle
	// record.
	records int
}

var full = []string{"create", "drop", "open", "close", "beginscan", "endscan", "rescan", "getnext",
	"getmulti", "build", "insert", "delete", "update", "scancost", "stats", "check", "parallelscan", "aggregate"}

var methods = []method{
	{am: "grtree_am", prefix: "grt", opclass: "grt_opclass", path: grtblade.LibraryPath,
		lib: grtblade.Library, slots: full, records: 1},
	{am: "rstree_am", prefix: "rst", opclass: "rst_opclass", path: rstblade.LibraryPath,
		lib: func(*engine.Engine) am.Library { return rstblade.Library() }, slots: full, records: 1},
	{am: "gist_am", prefix: "gist", opclass: "gist_grt_ops", path: gistblade.LibraryPath,
		lib: gistblade.Library, slots: full},
}

const rows = 300

func open(t *testing.T, opts engine.Options) *engine.Engine {
	t.Helper()
	opts.Clock = chronon.NewVirtualClock(chronon.MustParse("9/97"))
	// No vacuum daemon: the table is about the purpose protocol.
	opts.VacuumInterval = -1
	e, err := engine.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for _, register := range []func(*engine.Engine) error{grtblade.Register, rstblade.Register, gistblade.Register} {
		if err := register(e); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func exec(t *testing.T, s *engine.Session, sql string) *engine.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return res
}

// populate creates T with rows ground extents (one year each, 1/90 .. 12/96, before
// the 9/97 current time) and index ix on it.
func populate(t *testing.T, e *engine.Engine, m method, params string) *engine.Session {
	t.Helper()
	s := e.NewSession()
	t.Cleanup(func() { s.Close() })
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`)
	for i := 0; i < rows; i++ {
		mo, y := i%12+1, 90+(i/12)%6
		exec(t, s, fmt.Sprintf(`INSERT INTO T VALUES (%d, '%d/%d, %d/%d, %d/%d, %d/%d')`, i, mo, y, mo, y+1, mo, y, mo, y+1))
	}
	exec(t, s, fmt.Sprintf(`CREATE INDEX ix ON T(X %s) USING %s %s IN spc`, m.opclass, m.am, params))
	return s
}

const query = `SELECT N FROM T WHERE Overlaps(X, '1/91, 1/95, 1/91, 1/95')`

func column(res *engine.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r[0])
	}
	return out
}

// services is the server side of the VII for purpose functions the test
// calls directly: the engine's catalog and sbspaces, under a transaction id
// of the test's own, and the method's library for UDRs (an operator class's
// support functions).
type services struct {
	e   *engine.Engine
	lib am.Library
}

const testTx lock.TxID = 1 << 40

func (v services) Space(name string) (*sbspace.Space, error) { return v.e.Space(name) }
func (v services) TxID() lock.TxID                           { return testTx }
func (v services) Isolation() lock.IsolationLevel            { return lock.CommittedRead }
func (v services) Clock() chronon.Clock                      { return v.e.Clock() }
func (v services) AMRecordPut(a, ix string, data []byte) error {
	v.e.Catalog().AMRecordPut(a, ix, data)
	return nil
}
func (v services) AMRecordGet(a, ix string) ([]byte, bool, error) {
	d, ok := v.e.Catalog().AMRecordGet(a, ix)
	return d, ok, nil
}
func (v services) AMRecordDelete(a, ix string) error {
	v.e.Catalog().AMRecordDelete(a, ix)
	return nil
}
func (v services) InvokeUDR(name string, args []types.Datum) (types.Datum, error) {
	p, err := v.e.Catalog().ProcByName(name)
	if err != nil {
		return nil, err
	}
	_, symbol, err := p.ParseExternal()
	if err != nil {
		return nil, err
	}
	fn, ok := v.lib[symbol].(am.UDRFunc)
	if !ok {
		return nil, fmt.Errorf("conformance: %s is not a UDR", name)
	}
	return fn(mi.NewContext(98, v.e.Tracer()), args)
}

// direct resolves the method's purpose set the way the server does — the
// catalog's slot assignments, each function's EXTERNAL NAME, the library's
// symbol — and builds a descriptor for index name.
func direct(t *testing.T, e *engine.Engine, m method, name string) (*am.PurposeSet, *am.IndexDesc, *mi.Context) {
	t.Helper()
	meta, err := e.Catalog().AmByName(m.am)
	if err != nil {
		t.Fatal(err)
	}
	lib := m.lib(e)
	ps, err := am.Bind(meta.Slots, func(fname string) (any, error) {
		p, err := e.Catalog().ProcByName(fname)
		if err != nil {
			return nil, err
		}
		_, symbol, err := p.ParseExternal()
		return lib[symbol], err
	})
	if err != nil {
		t.Fatal(err)
	}
	ot, _ := e.Types().Lookup(grtblade.TypeName)
	oc, err := e.Catalog().OpClassByName(m.opclass)
	if err != nil {
		t.Fatal(err)
	}
	id := &am.IndexDesc{
		Name: name, TableName: "T", AmName: m.am, Columns: []string{"X"}, ColIdxs: []int{1},
		ColTypes: []types.Type{{Kind: types.KOpaque, Name: grtblade.TypeName, OpaqueID: ot.ID}},
		OpClass:  m.opclass, Support: oc.Support, SpaceName: "spc", Services: services{e, lib},
	}
	t.Cleanup(func() { e.LockManager().ReleaseAll(testTx) })
	return ps, id, mi.NewContext(99, e.Tracer())
}

func overlaps(id *am.IndexDesc, text string) *am.Qual {
	ext, err := temporal.ParseExtent(text)
	if err != nil {
		panic(err)
	}
	return am.NewFuncQual("Overlaps", 0,
		types.Opaque{TypeID: id.ColTypes[0].OpaqueID, Data: grtblade.EncodeExtent(ext)}, true)
}

func each(t *testing.T, fn func(t *testing.T, m method)) {
	for _, m := range methods {
		t.Run(m.am, func(t *testing.T) { fn(t, m) })
	}
}

// (a) Generating the registration SQL changed nothing: the slot assignments
// and the registered functions are the literal lists above.
func TestRegistrationIsTheLiteralList(t *testing.T) {
	e := open(t, engine.Options{})
	each(t, func(t *testing.T, m method) {
		meta, err := e.Catalog().AmByName(m.am)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]string{"am_sptype": "S"}
		for _, slot := range m.slots {
			fn := m.prefix + "_" + slot
			want["am_"+slot] = fn
			p, err := e.Catalog().ProcByName(fn)
			if err != nil {
				t.Fatal(err)
			}
			wantRet := "int"
			if slot == "scancost" {
				wantRet = "float"
			}
			if ext := m.path + "(" + fn + ")"; p.External != ext || !strings.EqualFold(p.Returns, wantRet) ||
				len(p.ArgTypes) != 1 || !strings.EqualFold(p.ArgTypes[0], "pointer") || !strings.EqualFold(p.Language, "c") {
				t.Errorf("%s registered as %+v", fn, *p)
			}
		}
		if fmt.Sprint(meta.Slots) != fmt.Sprint(want) {
			t.Errorf("slots\n got %v\nwant %v", meta.Slots, want)
		}
		registered := 0
		for name, p := range e.Catalog().Procs {
			if strings.HasPrefix(name, m.prefix+"_") && strings.EqualFold(p.ArgTypes[0], "pointer") {
				registered++
			}
		}
		if registered != len(m.slots) {
			t.Errorf("%d %s_* purpose functions registered, want %d", registered, m.prefix, len(m.slots))
		}
	})
}

// (b) am_open right after am_create opens no second large object, and the
// next am_open does.
func TestOpenRightAfterCreateIsANoOp(t *testing.T) {
	each(t, func(t *testing.T, m method) {
		e := open(t, engine.Options{})
		s := e.NewSession()
		defer s.Close()
		exec(t, s, `CREATE SBSPACE spc`)
		ps, id, ctx := direct(t, e, m, "raw_ix")
		space, _ := e.Space("spc")
		before := space.Stats().Opens
		if err := ps.Create(ctx, id); err != nil {
			t.Fatal(err)
		}
		created := space.Stats().Opens
		if created == before {
			t.Fatal("am_create opened no large object")
		}
		if err := ps.Open(ctx, id); err != nil {
			t.Fatal(err)
		}
		if got := space.Stats().Opens; got != created {
			t.Fatalf("am_open right after am_create opened %d more large object(s)", got-created)
		}
		if err := ps.Close(ctx, id); err != nil {
			t.Fatal(err)
		}
		if err := ps.Open(ctx, id); err != nil {
			t.Fatal(err)
		}
		if space.Stats().Opens == created {
			t.Fatal("a later am_open opened nothing")
		}
		if err := ps.Drop(ctx, id); err != nil {
			t.Fatal(err)
		}
	})
}

// (c) What am_create refuses, every method refuses.
func TestCreateRefusals(t *testing.T) {
	e := open(t, engine.Options{})
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`)
	each(t, func(t *testing.T, m method) {
		for name, stmt := range map[string]string{
			"unknown parameter": `CREATE INDEX bad ON T(X %s) USING %s (fanout=9) IN spc`,
			"bad placement":     `CREATE INDEX bad ON T(X %s) USING %s (placement='sideways') IN spc`,
			"subtree:0":         `CREATE INDEX bad ON T(X %s) USING %s (placement='subtree:0') IN spc`,
			"no sbspace":        `CREATE INDEX bad ON T(X %s) USING %s`,
			"wrong column type": `CREATE INDEX bad ON T(N %s) USING %s IN spc`,
		} {
			if _, err := s.Exec(fmt.Sprintf(stmt, m.opclass, m.am)); err == nil {
				t.Errorf("%s: accepted", name)
			}
			if _, err := e.Catalog().IndexByName("bad"); err == nil {
				t.Fatalf("%s: left an index behind", name)
			}
		}
		// The placements one method accepts, all do.
		for _, pl := range []string{"single", "pernode", "subtree:4"} {
			exec(t, s, fmt.Sprintf(`CREATE INDEX good ON T(X %s) USING %s (placement='%s') IN spc`, m.opclass, m.am, pl))
			exec(t, s, `INSERT INTO T VALUES (1, '1/95, 2/95, 1/95, 2/95')`)
			exec(t, s, `CHECK INDEX good`)
			exec(t, s, `DROP INDEX good`)
		}
	})
}

// (d) A truncated handle record is an error, not a panic.
func TestTruncatedHandleRecord(t *testing.T) {
	each(t, func(t *testing.T, m method) {
		e := open(t, engine.Options{})
		s := populate(t, e, m, "")
		rec, ok := e.Catalog().AMRecordGet(m.am, "ix")
		if !ok || len(rec) != sbspace.HandleSize {
			t.Fatalf("handle record: %d bytes, present %v", len(rec), ok)
		}
		e.Catalog().AMRecordPut(m.am, "ix", rec[:5])
		if _, err := s.Exec(`CHECK INDEX ix`); err == nil || !strings.Contains(err.Error(), "corrupt access-method record") {
			t.Fatalf("CHECK INDEX over a 5-byte handle record: %v", err)
		}
		e.Catalog().AMRecordPut(m.am, "ix", rec)
		exec(t, s, `CHECK INDEX ix`)
	})
}

// (e) The scan functions refuse to run before am_beginscan.
func TestScanFunctionsNeedBeginScan(t *testing.T) {
	each(t, func(t *testing.T, m method) {
		e := open(t, engine.Options{})
		populate(t, e, m, "")
		ps, id, ctx := direct(t, e, m, "ix")
		id.ReadOnly = true
		if err := ps.Open(ctx, id); err != nil {
			t.Fatal(err)
		}
		defer ps.Close(ctx, id)
		sd := &am.ScanDesc{Index: id, Qual: overlaps(id, "1/91, 1/95, 1/91, 1/95"), BatchCap: 8, Batch: am.NewScanBatch(8)}
		if _, _, _, err := ps.GetNext(ctx, sd); err == nil {
			t.Error("am_getnext ran without am_beginscan")
		}
		if _, err := ps.GetMulti(ctx, sd); err == nil {
			t.Error("am_getmulti ran without am_beginscan")
		}
		if err := ps.Rescan(ctx, sd); err == nil {
			t.Error("am_rescan ran without am_beginscan")
		}
		if ps.ParallelScan != nil {
			if _, err := ps.ParallelScan(ctx, sd, 4); err == nil {
				t.Error("am_parallelscan ran without am_beginscan")
			}
		}
	})
}

// drain runs a (partition) descriptor's am_getmulti to exhaustion.
func drain(t *testing.T, ps *am.PurposeSet, ctx *mi.Context, sd *am.ScanDesc, into map[heap.RowID]int) {
	t.Helper()
	for {
		n, err := am.FillFrom(ctx, sd, ps.GetMulti)
		if err != nil {
			t.Fatal(err)
		}
		for _, rid := range sd.Batch.RowIDs[:n] {
			into[rid]++
		}
		if n < sd.Batch.Cap() {
			return
		}
	}
}

// (f) am_rescan in the middle of a batch, serial and parallel, returns the
// full answer again, each entry once.
func TestRescanMidBatch(t *testing.T) {
	each(t, func(t *testing.T, m method) {
		e := open(t, engine.Options{})
		populate(t, e, m, deep(m))
		ps, id, ctx := direct(t, e, m, "ix")
		id.ReadOnly = true
		if ix, err := e.Catalog().IndexByName("ix"); err == nil {
			id.Params = ix.Params
		}
		if err := ps.Open(ctx, id); err != nil {
			t.Fatal(err)
		}
		defer ps.Close(ctx, id)
		begin := func() *am.ScanDesc {
			sd := &am.ScanDesc{Index: id, Qual: overlaps(id, "1/91, 1/95, 1/91, 1/95"), BatchCap: 8}
			if err := ps.BeginScan(ctx, sd); err != nil {
				t.Fatal(err)
			}
			return sd
		}
		same := func(what string, got, want map[heap.RowID]int) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
			}
			for rid, n := range got {
				if n != 1 || want[rid] != 1 {
					t.Fatalf("%s: entry %v returned %d times (wanted: %d)", what, rid, n, want[rid])
				}
			}
		}

		want := map[heap.RowID]int{}
		sd := begin()
		drain(t, ps, ctx, sd, want)
		if len(want) < 3*8 {
			t.Fatalf("the answer (%d entries) does not span several batches", len(want))
		}
		ps.EndScan(ctx, sd)

		sd = begin()
		if n, err := am.FillFrom(ctx, sd, ps.GetMulti); err != nil || n != 8 {
			t.Fatalf("first batch: %d, %v", n, err)
		}
		if err := ps.Rescan(ctx, sd); err != nil {
			t.Fatal(err)
		}
		if sd.Batch.N != 0 {
			t.Fatalf("am_rescan left %d buffered entries", sd.Batch.N)
		}
		got := map[heap.RowID]int{}
		drain(t, ps, ctx, sd, got)
		same("serial rescan", got, want)
		ps.EndScan(ctx, sd)

		if ps.ParallelScan == nil {
			return
		}
		sd = begin()
		parts, err := ps.ParallelScan(ctx, sd, 4)
		if err != nil || len(parts) < 2 {
			t.Fatalf("am_parallelscan: %d partitions, %v", len(parts), err)
		}
		if _, err := am.FillFrom(ctx, parts[0], ps.GetMulti); err != nil {
			t.Fatal(err)
		}
		if err := ps.Rescan(ctx, sd); err != nil {
			t.Fatal(err)
		}
		got = map[heap.RowID]int{}
		for _, p := range parts {
			drain(t, ps, ctx, p, got)
		}
		same("parallel rescan", got, want)
		ps.EndScan(ctx, sd)
	})
}

// deep is the index parameter that forces a tree several levels deep over
// the test's few hundred rows (gist_am sizes its nodes by its key class).
func deep(m method) string {
	if m.prefix == "gist" {
		return ""
	}
	return "(maxentries=8)"
}

func recordsOf(e *engine.Engine, index string) []string {
	var keys []string
	for k, v := range e.Catalog().AmRecords {
		if strings.Contains(k, index) || strings.Contains(string(v), index) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// (g) DROP INDEX leaves no bookkeeping record of the index, and no two
// CREATE INDEX statements with the same parameters both succeed on grtree_am
// whatever order the parameter map iterates in.
func TestDropLeavesNoRecord(t *testing.T) {
	each(t, func(t *testing.T, m method) {
		e := open(t, engine.Options{})
		s := populate(t, e, m, "")
		if got := recordsOf(e, "ix"); len(got) != 1+m.records {
			t.Fatalf("records of a live index: %v, want %d", got, 1+m.records)
		}
		exec(t, s, `INSERT INTO T VALUES (999, '5/97, UC, 5/97, NOW')`) // rstree_am rewrites ground|ix
		exec(t, s, `DROP INDEX ix`)
		if got := recordsOf(e, "ix"); len(got) != 0 {
			t.Fatalf("DROP INDEX left %v", got)
		}
	})
}

func TestDuplicateIndexDetectionIsDeterministic(t *testing.T) {
	e := open(t, engine.Options{})
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`)
	const create = `CREATE INDEX %s ON T(X) USING grtree_am (dispatch='hardcoded', maxentries=8, hidden='on', timeparam=3) IN spc`
	for round := 0; round < 50; round++ {
		exec(t, s, fmt.Sprintf(create, "one"))
		if _, err := s.Exec(fmt.Sprintf(create, "two")); err == nil || !strings.Contains(err.Error(), "already exists") {
			t.Fatalf("round %d: duplicate index: %v", round, err)
		}
		exec(t, s, `DROP INDEX one`)
		if got := append(recordsOf(e, "one"), recordsOf(e, "two")...); len(got) != 0 {
			t.Fatalf("round %d: records after DROP INDEX: %v", round, got)
		}
	}
}

// (h) am_getmulti at any batch capacity returns the am_getnext sequence.
func TestGetMultiReturnsTheGetNextSequence(t *testing.T) {
	each(t, func(t *testing.T, m method) {
		var want []string
		for _, capacity := range []int{1, 7, 64, 16 * 8} {
			e := open(t, engine.Options{ScanBatchSize: capacity})
			s := populate(t, e, m, deep(m))
			res := exec(t, s, query)
			if capacity == 1 {
				if want = column(res); len(want) < 64 {
					t.Fatalf("am_getnext sequence has only %d rows", len(want))
				}
				continue
			}
			if got := column(res); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("batch capacity %d:\n got %v\nwant %v", capacity, got, want)
			}
		}
	})
}

// The four behaviours that changed on purpose when three copies became one.
func TestOneCopyCannotDisagreeWithItself(t *testing.T) {
	e := open(t, engine.Options{})
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`)
	// gist_am used to accept any index parameter; rstree_am used to refuse
	// placement='subtree:N'. (TestCreateRefusals and TestTruncatedHandleRecord
	// hold the other halves: unknown parameters and short handle records are
	// refused by all three.)
	if _, err := s.Exec(`CREATE INDEX g ON T(X gist_grt_ops) USING gist_am (maxentires=8) IN spc`); err == nil {
		t.Error("gist_am accepted a misspelt index parameter")
	}
	exec(t, s, `CREATE INDEX r ON T(X rst_opclass) USING rstree_am (placement='subtree:8') IN spc`)
	// gist_update of a missing entry wraps am.ErrNoEntry, as gist_delete does.
	exec(t, s, `CREATE INDEX g ON T(X gist_grt_ops) USING gist_am IN spc`)
	m := methods[2]
	ps, id, ctx := direct(t, e, m, "g")
	if err := ps.Open(ctx, id); err != nil {
		t.Fatal(err)
	}
	defer ps.Close(ctx, id)
	ext := func(text string) []types.Datum { return []types.Datum{overlaps(id, text).Const} }
	err := ps.Update(ctx, id, ext("1/95, 2/95, 1/95, 2/95"), 7, ext("1/96, 2/96, 1/96, 2/96"), 8)
	if !errors.Is(err, am.ErrNoEntry) {
		t.Errorf("gist_update of a missing entry: %v", err)
	}
}

// lying is a key class whose nodes get the bounds bound gives them: an
// insertion through it rewrites the bound of every node on its path.
type lying[B comparable, S rtree.Shape[S]] struct {
	rtree.Keys[B, S]
	bound func(es []rtree.Entry[B]) B
}

func (k lying[B, S]) Bound(es []rtree.Entry[B]) B { return k.bound(es) }

func insertLying[B comparable, S rtree.Shape[S]](t *testing.T, tr *rtree.Tree[B], keys rtree.Keys[B, S], bound func([]rtree.Entry[B]) B, b B) {
	t.Helper()
	if err := rtree.Insert(tr, lying[B, S]{keys, bound}, rtree.Entry[B]{Bound: b, Ref: 1 << 40}); err != nil {
		t.Fatal(err)
	}
}

func firstBound[B comparable](es []rtree.Entry[B]) B { return es[0].Bound }

// (i) CHECK INDEX holds every entry to its key class's Covers: a child that
// escapes its parent's bound fails am_check in every method. The index's
// large object is opened behind the blade's back and one entry inserted
// through a key class that lies about bounds: for grtree_am a static
// rectangle over a growing child, which contains it now but not later; for
// the others a parent bound that is one of its children's.
func TestCheckIndexCatchesAnEscapingChild(t *testing.T) {
	each(t, func(t *testing.T, m method) {
		e := open(t, engine.Options{})
		s := populate(t, e, m, deep(m))
		exec(t, s, `CHECK INDEX ix`)
		rec, _ := e.Catalog().AMRecordGet(m.am, "ix")
		space, _ := e.Space("spc")
		store, err := nodestore.OpenLO(space, testTx, lock.CommittedRead, sbspace.DecodeHandle(rec), sbspace.ReadWrite)
		if err != nil {
			t.Fatal(err)
		}
		ct := e.Clock().Now()
		growing := temporal.MustParseExtent("5/97, UC, 5/97, NOW")
		switch m.am {
		case "grtree_am":
			cfg := grtree.DefaultConfig()
			cfg.MaxEntries = 8
			g, err := grtree.Open(store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			keys := g.Keys(ct)
			static := func(es []rtree.Entry[temporal.Region]) temporal.Region {
				bb := keys.Bound(es).Resolve(ct).BoundingBox()
				return temporal.Region{
					TTBegin: chronon.Instant(bb.TTBegin), TTEnd: chronon.Instant(bb.TTEnd),
					VTBegin: chronon.Instant(bb.VTBegin), VTEnd: chronon.Instant(bb.VTEnd),
				}
			}
			insertLying(t, g.Tree, keys, static, growing.Region())
		case "rstree_am":
			cfg := rstar.DefaultConfig()
			cfg.MaxEntries = 8
			r, err := rstar.Open(store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rect := rstblade.MapExtent(growing, rstblade.SubMax, rstblade.DefaultMaxTimestamp, ct)
			insertLying(t, r.Tree, rstar.Keys(), firstBound[rstar.Rect], rect)
		case "gist_am":
			g, err := gist.Open(store, gist.NewGRKeyClass(e.Clock()))
			if err != nil {
				t.Fatal(err)
			}
			insertLying(t, g.Tree, g.Keys(), firstBound[string], gist.GRExtentKey(growing))
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		e.LockManager().ReleaseAll(testTx)
		if _, err := s.Exec(`CHECK INDEX ix`); err == nil || !strings.Contains(err.Error(), "escapes parent bound") {
			t.Fatalf("CHECK INDEX after a child escaped its parent: %v", err)
		}
	})
}

// (j) am_aggregate pushes exactly where each binding's Aggregable says it may
// (DESIGN.md, "One purpose-function set, three bindings"), read from
// agg.pushed and agg.fallback.declined, and every answer, pushed or drained,
// equals a sequential scan of an unindexed twin.
func TestAggregateConformance(t *testing.T) {
	configs := []struct {
		name, am, opclass, params string
		nowRelative, push         bool
	}{
		{name: "grtree_am", am: "grtree_am", opclass: "grt_opclass", nowRelative: true, push: true},
		{name: "grtree_am dispatch=dynamic", am: "grtree_am", opclass: "grt_opclass", params: "(dispatch='dynamic')", nowRelative: true},
		{name: "grtree_am timepolicy=statement", am: "grtree_am", opclass: "grt_opclass", params: "(timepolicy='statement')", nowRelative: true, push: true},
		{name: "rstree_am ground", am: "rstree_am", opclass: "rst_opclass", push: true},
		{name: "rstree_am now-relative", am: "rstree_am", opclass: "rst_opclass", nowRelative: true},
		{name: "gist_am", am: "gist_am", opclass: "gist_grt_ops", nowRelative: true},
	}
	strategies := []string{
		`Overlaps(X, '1/91, 1/95, 1/91, 1/95')`,
		`Equal(X, '3/92, 3/93, 3/92, 3/93')`,
		`Contains(X, '5/92, 6/92, 5/92, 6/92')`,
		`ContainedIn(X, '1/91, 1/95, 1/91, 1/95')`,
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			e := open(t, engine.Options{})
			s := e.NewSession()
			defer s.Close()
			var values []string
			for i := 0; i < rows; i++ {
				mo, y := i%12+1, 90+(i/12)%6
				values = append(values, fmt.Sprintf("(%d, '%d/%d, %d/%d, %d/%d, %d/%d')", i, mo, y, mo, y+1, mo, y, mo, y+1))
			}
			exec(t, s, `CREATE SBSPACE spc`)
			for _, table := range []string{"TI", "TS"} {
				exec(t, s, fmt.Sprintf(`CREATE TABLE %s (N INTEGER, X GRT_TimeExtent_t)`, table))
				exec(t, s, fmt.Sprintf(`INSERT INTO %s VALUES %s`, table, strings.Join(values, ", ")))
			}
			exec(t, s, fmt.Sprintf(`CREATE INDEX ix ON TI(X %s) USING %s %s IN spc`, c.opclass, c.am, c.params))
			if c.nowRelative {
				for _, table := range []string{"TI", "TS"} {
					exec(t, s, fmt.Sprintf(`INSERT INTO %s VALUES (%d, '5/92, UC, 5/92, NOW')`, table, rows))
				}
			}
			pushed, declined := e.Obs().Counter("agg.pushed"), e.Obs().Counter("agg.fallback.declined")
			for _, where := range strategies {
				for _, item := range []string{"COUNT(*)", "MIN(X)", "MAX(X)"} {
					p, d := pushed.Load(), declined.Load()
					got := exec(t, s, fmt.Sprintf(`SELECT %s FROM TI WHERE %s`, item, where)).Rows[0][0]
					didPush, didDecline := pushed.Load() != p, declined.Load() != d
					want := exec(t, s, fmt.Sprintf(`SELECT %s FROM TS WHERE %s`, item, where)).Rows[0][0]
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s WHERE %s: index %v, seqscan %v", item, where, got, want)
					}
					if want == nil || fmt.Sprint(want) == "0" {
						t.Fatalf("%s WHERE %s is empty: agreement on it proves little", item, where)
					}
					if didPush != c.push || didDecline == c.push {
						t.Errorf("%s WHERE %s: pushed %v, declined %v; want pushed %v", item, where, didPush, didDecline, c.push)
					}
				}
			}
		})
	}
}

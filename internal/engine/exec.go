package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/sbspace"
	"repro/internal/sql"
	"repro/internal/types"
)

// StmtStats is the per-statement execution profile: elapsed time, rows
// scanned/returned, and the rows of the engine's one counter table that
// moved in the statement's window, purpose-function calls (am.<slot>)
// included. Each event is counted once, in that table, so the profile is
// exact when one session runs; under concurrent sessions it also holds what
// the others counted in the same window.
type StmtStats = obs.Profile

// Result is the outcome of one statement.
type Result struct {
	Columns []string
	// ColTypes carries the typed column metadata alongside Columns (one
	// entry per column) — the wire protocol encodes row batches against it,
	// and clients learn result shapes without re-parsing the statement.
	ColTypes []types.Type
	Rows     [][]types.Datum
	Affected int
	Message  string
	// Stats profiles the statement's execution (nil only for
	// transaction-control statements, which run no engine work).
	Stats *StmtStats
	// Plan is the access-path decision for planned statements (SELECT,
	// DELETE, UPDATE, and EXPLAIN itself); nil otherwise.
	Plan *Plan
}

// Exec parses and executes one SQL statement.
func (s *Session) Exec(src string) (*Result, error) {
	return s.ExecCtx(context.Background(), src)
}

// ExecCtx is Exec with a cancellation context: parallel scan workers watch
// ctx, and the statement fails with ctx.Err() once it is cancelled.
func (s *Session) ExecCtx(ctx context.Context, src string) (*Result, error) {
	st, err := s.e.ParseSQL(src)
	if err != nil {
		return nil, err
	}
	return s.ExecStmtCtx(ctx, st)
}

// ParseSQL parses one statement, counting the parser's work in the engine's
// sql.parses / sql.parse_ns counters — every textual entry point (embedded
// Exec, the network server, PREPARE) funnels through here so "EXECUTE does
// zero parses" is observable, not asserted.
func (e *Engine) ParseSQL(src string) (sql.Statement, error) {
	start := time.Now()
	st, err := sql.Parse(src)
	e.obs.Inc(obs.SQLParses)
	e.obs.Add(obs.SQLParseNs, uint64(time.Since(start)))
	return st, err
}

// ParseScript is ParseSQL for a semicolon-separated script; each parsed
// statement counts.
func (e *Engine) ParseScript(src string) ([]sql.Statement, error) {
	start := time.Now()
	stmts, err := sql.ParseScript(src)
	if n := len(stmts); n > 0 {
		e.obs.Add(obs.SQLParses, uint64(n))
	} else {
		e.obs.Inc(obs.SQLParses)
	}
	e.obs.Add(obs.SQLParseNs, uint64(time.Since(start)))
	return stmts, err
}

// ExecScript executes a semicolon-separated script (registration scripts,
// Section 6.1), returning the last result.
func (s *Session) ExecScript(src string) (*Result, error) {
	stmts, err := s.e.ParseScript(src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, st := range stmts {
		last, err = s.ExecStmt(st)
		if err != nil {
			return last, err
		}
	}
	return last, nil
}

// ExecStmt executes a parsed statement.
func (s *Session) ExecStmt(st sql.Statement) (*Result, error) {
	return s.ExecStmtCtx(context.Background(), st)
}

// ExecStmtCtx executes a parsed statement under a cancellation context.
// Exec is a thin wrapper over the streaming path — open the stream, then
// Drain — so the two can never diverge.
func (s *Session) ExecStmtCtx(ctx context.Context, st sql.Statement) (*Result, error) {
	return drained(s.open(ctx, st, "", nil))
}

// drained materializes an opened stream (a failed open has none).
func drained(str *Stream, err error) (*Result, error) {
	if str == nil {
		return nil, err
	}
	return str.Drain()
}

// open is the one statement path every entry point takes (Exec, ExecStream,
// ExecutePrepared, ExecutePreparedStream, and SQL EXECUTE through either).
// Session-state statements answer at once, outside any statement scope.
// Everything else runs inside one scope (beginStmt … Stream.end): an
// EXECUTE is resolved and bound first — its arguments evaluated exactly once
// — and then a SELECT opens a cursor the Stream pulls, while every other
// statement runs eagerly and is replayed. An API-level EXECUTE
// (ExecutePrepared) passes no statement, the prepared name and its argument
// vector. A statement that ran but whose auto-commit failed returns its
// stream and the commit error; a failed statement returns no stream.
func (s *Session) open(ctx context.Context, st sql.Statement, prep string, args []types.Datum) (*Stream, error) {
	if s.stream != nil {
		return nil, errf(CodeSessionBusy, "a result stream is already open on this session")
	}
	if res, err := s.sessionStmt(st); res != nil || err != nil {
		if err != nil {
			return nil, err
		}
		return &Stream{res: res}, nil
	}
	str, err := s.beginStmt(ctx)
	if err != nil {
		return nil, err
	}
	var exprs []sql.Expr
	if ex, ok := st.(*sql.Execute); ok {
		prep, exprs = ex.Name, ex.Args
	}
	if prep != "" {
		st, err = s.bindPrepared(prep, args, exprs)
	}
	switch sel, isSelect := st.(*sql.Select); {
	case err != nil:
	case !isSelect:
		str.res, err = s.run(st)
	default:
		if str.cur, err = s.openSelectCursor(sel); err == nil {
			str.res = str.cur.res
			return str, nil
		}
	}
	str.end(err)
	if str.aborted {
		return nil, err
	}
	return str, str.err
}

// sessionStmt answers the statements that only read or set session state —
// transaction control, SET, SHOW, PREPARE, DEALLOCATE. They run outside any
// statement scope and carry no profile. A nil result and nil error mean st
// is not one of them.
func (s *Session) sessionStmt(st sql.Statement) (*Result, error) {
	switch t := st.(type) {
	case *sql.Begin:
		if err := s.beginTx(true); err != nil {
			return nil, err
		}
		return &Result{Message: "transaction started"}, nil
	case *sql.Commit:
		if err := s.commitTx(); err != nil {
			return nil, err
		}
		return &Result{Message: "committed"}, nil
	case *sql.Rollback:
		if err := s.rollbackTx(); err != nil {
			return nil, err
		}
		return &Result{Message: "rolled back"}, nil
	case *sql.Set:
		msg, err := s.vars.Set(t.Name, t.Value)
		if err != nil {
			return nil, err
		}
		// Trace output remains engine-wide: blade messages from any session
		// honour the level (the tracer is shared), while the vars record
		// what this session asked for.
		if class, ok := traceClass(t.Name); ok {
			s.e.tracer.SetLevel(class, s.vars.TraceLevel(class))
		}
		return &Result{Message: msg}, nil
	case *sql.Show:
		return s.show(t)
	case *sql.Prepare:
		p, err := s.registerPrepared(t.Name, t.Stmt)
		if err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("prepared %q (%d parameter(s))", p.name, p.nparams)}, nil
	case *sql.Deallocate:
		if err := s.Deallocate(t.Name); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("deallocated %q", strings.ToLower(t.Name))}, nil
	}
	return nil, nil
}

// show serves SHOW ALL / SHOW <var>: the session's SET state as rows —
// the same inspection surface embedded and over the wire.
func (s *Session) show(t *sql.Show) (*Result, error) {
	res := &Result{
		Columns:  []string{"name", "value"},
		ColTypes: []types.Type{types.Builtin(types.KVarchar), types.Builtin(types.KVarchar)},
	}
	if t.All {
		for _, kv := range s.vars.List() {
			res.Rows = append(res.Rows, []types.Datum{kv.Name, kv.Value})
		}
	} else {
		val, err := s.vars.Get(t.Name)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []types.Datum{strings.ToLower(t.Name), val})
	}
	res.Affected = len(res.Rows)
	return res, nil
}

func (s *Session) run(st sql.Statement) (*Result, error) {
	switch st.(type) {
	case *sql.CreateTable, *sql.DropTable, *sql.CreateFunction, *sql.CreateAccessMethod,
		*sql.CreateOpClass, *sql.CreateSbspace, *sql.DropIndex, *sql.UpdateStatistics:
		// Nothing takes back a catalog change without a log, so a NoWAL
		// engine runs DDL only as a transaction of its own.
		if s.explicit && s.e.log == nil {
			return nil, errf(CodeActiveTx, "DDL cannot run inside a transaction on an engine without a log")
		}
	}
	// This DDL takes the catalog lock before it reads the catalog; DROP
	// INDEX, UPDATE STATISTICS and the index builds take it themselves.
	switch st.(type) {
	case *sql.CreateTable, *sql.DropTable, *sql.CreateFunction, *sql.CreateAccessMethod,
		*sql.CreateOpClass, *sql.CreateSbspace:
		if err := s.changeCatalog(); err != nil {
			return nil, err
		}
	}
	switch t := st.(type) {
	case *sql.CreateTable:
		return s.createTable(t)
	case *sql.DropTable:
		return s.dropTable(t)
	case *sql.CreateFunction:
		return s.createFunction(t)
	case *sql.CreateAccessMethod:
		return s.createAccessMethod(t)
	case *sql.CreateOpClass:
		return s.createOpClass(t)
	case *sql.CreateSbspace:
		return s.createSbspace(t)
	case *sql.CreateIndex:
		return s.createIndex(t)
	case *sql.DropIndex:
		return s.dropIndex(t)
	case *sql.AlterIndexRebuild:
		return s.alterIndexRebuild(t)
	case *sql.Insert:
		return s.insert(t)
	case *sql.Delete:
		return s.deleteStmt(t)
	case *sql.Update:
		return s.update(t)
	case *sql.CheckIndex:
		return s.checkIndex(t)
	case *sql.UpdateStatistics:
		return s.updateStatistics(t)
	case *sql.Load:
		return s.load(t)
	case *sql.Explain:
		return s.explain(t)
	}
	return nil, errf(CodeFeature, "unsupported statement %T", st)
}

// DDL -------------------------------------------------------------------------

// changeCatalog is the one way into a catalog change: it takes the catalog
// lock, the image object's exclusive lock (held to transaction end, taken
// before any table lock), and marks the statement dirty, so that it writes
// the image once, at its end. A NoWAL memory engine does neither.
func (s *Session) changeCatalog() error {
	if s.e.catSpace == nil {
		return nil
	}
	s.catDirty = true
	return s.e.lm.Acquire(lock.TxID(s.tx), catHandle.Resource(), lock.Exclusive)
}

// writeCatalog is the one writer of the catalog image, under the session's
// transaction; Edit journals only the 64-byte blocks that changed.
func (s *Session) writeCatalog() error {
	raw, err := s.e.cat.Image()
	if err != nil {
		return err
	}
	lo, err := s.e.catSpace.Open(lock.TxID(s.tx), catHandle, sbspace.ReadWrite, s.vars.Isolation())
	if err != nil {
		return err
	}
	defer lo.Close()
	if _, err := lo.WriteAt(raw, 0); err != nil {
		return err
	}
	return lo.Truncate(int64(len(raw)))
}

func (s *Session) createTable(t *sql.CreateTable) (*Result, error) {
	tb := &catalog.Table{Name: t.Name}
	for _, c := range t.Cols {
		if _, err := s.e.reg.TypeByName(c.TypeName); err != nil {
			return nil, errf(CodeUndefinedObject, "%w", err)
		}
		tb.Columns = append(tb.Columns, catalog.Column{Name: c.Name, TypeName: c.TypeName})
	}
	var err error
	if tb.SpaceID, _, err = s.e.newPool(anySpace); err != nil {
		return nil, err
	}
	if err := s.e.cat.AddTable(tb); err != nil {
		return nil, err
	}
	if err := s.e.attachTable(tb, true); err != nil {
		return nil, err
	}
	// Other sessions see the cached table at once; its lock keeps their
	// writes out until this CREATE commits or rolls back.
	if _, _, err := s.writeTable(tb.Name); err != nil {
		return nil, err
	}
	return &Result{Message: "table created"}, nil
}

// dropTable waits for the table's writers (writeTable) and keeps its space's
// pages, for an undo to find.
func (s *Session) dropTable(t *sql.DropTable) (*Result, error) {
	if _, _, err := s.writeTable(t.Name); err != nil {
		return nil, err
	}
	if err := s.e.cat.DropTable(t.Name); err != nil {
		return nil, err
	}
	s.e.mu.Lock()
	delete(s.e.tables, strings.ToLower(t.Name))
	s.e.mu.Unlock()
	return &Result{Message: "table dropped"}, nil
}

func (s *Session) createFunction(t *sql.CreateFunction) (*Result, error) {
	p := &catalog.Procedure{
		Name: t.Name, ArgTypes: t.ArgTypes, Returns: t.Returns,
		External: t.External, Language: t.Language,
	}
	if _, _, err := p.ParseExternal(); err != nil {
		return nil, err
	}
	if err := s.e.cat.AddProcedure(p); err != nil {
		return nil, err
	}
	return &Result{Message: "function created"}, nil
}

func (s *Session) createAccessMethod(t *sql.CreateAccessMethod) (*Result, error) {
	meta := &catalog.AccessMethod{Name: t.Name, Slots: t.Slots, SpType: t.Slots["am_sptype"]}
	// Validate eagerly: every named purpose function must resolve with the
	// right signature (and am_getnext must be present).
	if _, err := am.Bind(t.Slots, s.e.resolveSymbol); err != nil {
		return nil, err
	}
	if err := s.e.cat.AddAccessMethod(meta); err != nil {
		return nil, err
	}
	return &Result{Message: "access method created"}, nil
}

func (s *Session) createOpClass(t *sql.CreateOpClass) (*Result, error) {
	for _, fn := range append(append([]string{}, t.Strategies...), t.Support...) {
		if _, err := s.e.cat.ProcByName(fn); err != nil {
			return nil, err
		}
	}
	oc := &catalog.OpClass{Name: t.Name, AmName: t.AmName, Strategies: t.Strategies, Support: t.Support}
	if err := s.e.cat.AddOpClass(oc); err != nil {
		return nil, err
	}
	return &Result{Message: "operator class created"}, nil
}

func (s *Session) createSbspace(t *sql.CreateSbspace) (*Result, error) {
	id, _, err := s.e.newPool(anySpace)
	if err != nil {
		return nil, err
	}
	sp, err := s.e.cat.AddSbspace(t.Name, id)
	if err != nil {
		return nil, err
	}
	if err := s.e.attachSbspace(sp); err != nil {
		return nil, err
	}
	return &Result{Message: "sbspace created"}, nil
}

func (s *Session) createIndex(t *sql.CreateIndex) (*Result, error) {
	if t.AmName == "" {
		return nil, errf(CodeFeature, "only USING <access method> indexes are supported")
	}
	tb, err := s.catTable(t.Table)
	if err != nil {
		return nil, err
	}
	ix := &catalog.Index{
		Name: t.Name, TableName: tb.Name, AmName: t.AmName,
		SpaceName: t.Space, Params: t.Params,
	}
	for _, c := range t.Columns {
		if _, err := tb.ColumnIndex(c.Column); err != nil {
			return nil, err
		}
		ix.Columns = append(ix.Columns, c.Column)
		oc := c.OpClass
		if oc == "" {
			def, err := s.e.cat.DefaultOpClass(t.AmName)
			if err != nil {
				return nil, err
			}
			oc = def.Name
		} else if _, err := s.e.cat.OpClassByName(oc); err != nil {
			return nil, err
		}
		ix.OpClasses = append(ix.OpClasses, oc)
	}
	mode, err := stripBuildMode(ix.Params)
	if err != nil {
		return nil, err
	}
	// The online build releases its table latch mid-statement, which would
	// release a table lock an explicit transaction's earlier writes hold.
	if s.explicit {
		return nil, errf(CodeActiveTx, "CREATE INDEX cannot run inside a transaction")
	}
	if err := s.buildIndexOnline(tb, ix, mode, false); err != nil {
		return nil, err
	}
	return &Result{Message: "index created"}, nil
}

// readyIndex resolves an index the statement may use: a BUILDING one is
// refused.
func (s *Session) readyIndex(name string) (*catalog.Index, error) {
	ix, err := s.e.cat.IndexByName(name)
	if err != nil {
		return nil, err
	}
	if !ix.Ready() {
		return nil, errf(CodeActiveTx, "index %s is being built", ix.Name)
	}
	return ix, nil
}

func (s *Session) dropIndex(t *sql.DropIndex) (*Result, error) {
	// Refuse a BUILDING index before waiting for the catalog lock its build
	// holds; look again once the lock is ours.
	if _, err := s.readyIndex(t.Name); err != nil {
		return nil, err
	}
	if err := s.changeCatalog(); err != nil {
		return nil, err
	}
	ix, err := s.readyIndex(t.Name)
	if err != nil {
		return nil, err
	}
	// The table's lock keeps writers out until the drop resolves: a rollback
	// restores the index as it was, so it must have missed no committed row.
	if _, _, err := s.writeTable(ix.TableName); err != nil {
		return nil, err
	}
	desc, ps, err := s.indexDesc(ix)
	if err != nil {
		return nil, err
	}
	if err := s.callIndexFn(obs.AmOpen, ps.Open, desc); err != nil {
		return nil, err
	}
	if err := s.callIndexFn(obs.AmDrop, ps.Drop, desc); err != nil {
		return nil, err
	}
	if err := s.e.cat.DropIndex(t.Name); err != nil {
		return nil, err
	}
	return &Result{Message: "index dropped"}, nil
}

func (s *Session) checkIndex(t *sql.CheckIndex) (*Result, error) {
	ix, err := s.readyIndex(t.Name)
	if err != nil {
		return nil, err
	}
	desc, ps, err := s.indexDesc(ix)
	if err != nil {
		return nil, err
	}
	if ps.Check == nil {
		return nil, errf(CodeFeature, "access method %s has no am_check", ix.AmName)
	}
	if err := s.callIndexFn(obs.AmOpen, ps.Open, desc); err != nil {
		return nil, err
	}
	defer s.callIndexFn(obs.AmClose, ps.Close, desc)
	s.amCall(obs.AmCheck, desc.Name)
	if err := ps.Check(s.ctx, desc); err != nil {
		return nil, err
	}
	return &Result{Message: "index is consistent"}, nil
}

func (s *Session) updateStatistics(t *sql.UpdateStatistics) (*Result, error) {
	if t.Table != "" {
		return s.updateTableStatistics(t.Table)
	}
	// FOR INDEX form: run am_stats for one index and report, without
	// publishing a SYSSTATS record — the inspection surface of the original
	// contract.
	ix, err := s.readyIndex(t.Index)
	if err != nil {
		return nil, err
	}
	stats, err := s.collectIndexStats(ix)
	if err != nil {
		return nil, err
	}
	if stats == nil {
		return nil, errf(CodeFeature, "access method %s has no am_stats", ix.AmName)
	}
	// Fresh statistics can change am_scancost's answer: cached plans that
	// skipped costing are stale now.
	s.e.cat.BumpGeneration()
	return &Result{Message: stats.String()}, nil
}

// updateTableStatistics implements UPDATE STATISTICS [FOR TABLE] <t>: the
// table's live row and page counts plus each ready index's am_stats result
// are published into SYSSTATS, stamped with the post-bump catalog generation
// — so the record is age 0 right after collection and every cached plan
// costed under the old statistics is invalidated.
func (s *Session) updateTableStatistics(table string) (*Result, error) {
	if err := s.changeCatalog(); err != nil {
		return nil, err
	}
	tb, err := s.catTable(table)
	if err != nil {
		return nil, err
	}
	ht, err := s.e.Table(tb.Name)
	if err != nil {
		return nil, err
	}
	rows, err := ht.Count()
	if err != nil {
		return nil, err
	}
	ts := &catalog.TableStats{
		Rows: rows, Pages: ht.Pages(),
		Indexes: make(map[string]*am.IndexStats),
	}
	collected := 0
	for _, ix := range s.e.cat.IndexesOn(tb.Name) {
		if !ix.Ready() {
			continue
		}
		stats, err := s.collectIndexStats(ix)
		if err != nil {
			return nil, err
		}
		if stats == nil {
			continue // access method without am_stats: row counts only
		}
		ts.Indexes[strings.ToLower(ix.Name)] = stats
		collected++
	}
	s.e.cat.StatsPut(tb.Name, ts)
	return &Result{Message: fmt.Sprintf(
		"statistics updated for %s: %d rows, %d pages, %d index(es)",
		tb.Name, ts.Rows, ts.Pages, collected)}, nil
}

// collectIndexStats opens one index and runs its am_stats. A nil result with
// nil error means the access method binds no am_stats slot.
func (s *Session) collectIndexStats(ix *catalog.Index) (*am.IndexStats, error) {
	desc, ps, err := s.indexDesc(ix)
	if err != nil {
		return nil, err
	}
	if ps.Stats == nil {
		return nil, nil
	}
	if err := s.callIndexFn(obs.AmOpen, ps.Open, desc); err != nil {
		return nil, err
	}
	defer s.callIndexFn(obs.AmClose, ps.Close, desc)
	s.amCall(obs.AmStats, desc.Name)
	stats, err := ps.Stats(s.ctx, desc)
	s.ctx.EndFunction()
	return stats, err
}

// descriptor plumbing ----------------------------------------------------------

// indexDesc assembles the index descriptor the purpose functions receive
// (the server fills in most of the data, Section 4 Step 2).
func (s *Session) indexDesc(ix *catalog.Index) (*am.IndexDesc, *am.PurposeSet, error) {
	ps, err := s.e.purposeSet(ix.AmName)
	if err != nil {
		return nil, nil, err
	}
	tb, err := s.e.cat.TableByName(ix.TableName)
	if err != nil {
		return nil, nil, err
	}
	schema, err := s.e.tableSchema(tb)
	if err != nil {
		return nil, nil, err
	}
	desc := &am.IndexDesc{
		Name: ix.Name, TableName: tb.Name, AmName: ix.AmName,
		SpaceName: ix.SpaceName, Params: ix.Params,
		Ctx: s.ctx, Services: services{s},
	}
	if len(ix.OpClasses) > 0 {
		desc.OpClass = ix.OpClasses[0]
		if oc, err := s.e.cat.OpClassByName(desc.OpClass); err == nil {
			desc.Support = oc.Support
		}
	}
	for _, col := range ix.Columns {
		i, err := tb.ColumnIndex(col)
		if err != nil {
			return nil, nil, err
		}
		desc.Columns = append(desc.Columns, col)
		desc.ColIdxs = append(desc.ColIdxs, i)
		desc.ColTypes = append(desc.ColTypes, schema[i])
	}
	// Hand collected statistics (if UPDATE STATISTICS ran) to the purpose
	// functions: am_scancost estimates selectivity from them.
	desc.Stats = s.e.cat.IndexStats(tb.Name, ix.Name)
	return desc, ps, nil
}

func projectIndexed(desc *am.IndexDesc, row []types.Datum) []types.Datum {
	vals := make([]types.Datum, len(desc.ColIdxs))
	for i, ci := range desc.ColIdxs {
		vals[i] = row[ci]
	}
	return vals
}

func (s *Session) callIndexFn(slot obs.ID, fn am.AmIndexFunc, desc *am.IndexDesc) error {
	if fn == nil {
		return nil
	}
	s.amCall(slot, desc.Name)
	err := fn(s.ctx, desc)
	s.ctx.EndFunction()
	return err
}

// services implements am.Services for one session.
type services struct{ s *Session }

// Space implements am.Services.
func (v services) Space(name string) (*sbspace.Space, error) { return v.s.e.Space(name) }

// TxID implements am.Services.
func (v services) TxID() lock.TxID { return lock.TxID(v.s.tx) }

// Isolation implements am.Services.
func (v services) Isolation() lock.IsolationLevel { return v.s.vars.Isolation() }

// Clock implements am.Services.
func (v services) Clock() chronon.Clock { return v.s.e.clock }

// AMRecordPut implements am.Services.
func (v services) AMRecordPut(amName, index string, data []byte) error {
	err := v.s.changeCatalog()
	if err == nil {
		v.s.e.cat.AMRecordPut(amName, index, data)
	}
	return err
}

// AMRecordGet implements am.Services.
func (v services) AMRecordGet(amName, index string) ([]byte, bool, error) {
	d, ok := v.s.e.cat.AMRecordGet(amName, index)
	return d, ok, nil
}

// AMRecordDelete implements am.Services.
func (v services) AMRecordDelete(amName, index string) error {
	err := v.s.changeCatalog()
	if err == nil {
		v.s.e.cat.AMRecordDelete(amName, index)
	}
	return err
}

// InvokeUDR implements am.Services: dynamic resolution and execution of a
// registered UDR (how non-hard-coded strategy and support functions are
// called; experiment P5 measures its overhead against hard-coded calls).
func (v services) InvokeUDR(name string, args []types.Datum) (types.Datum, error) {
	sym, err := v.s.e.resolveSymbol(name)
	if err != nil {
		return nil, err
	}
	fn, ok := sym.(am.UDRFunc)
	if !ok {
		return nil, errf(CodeDatatype, "%s is not callable from SQL (%T)", name, sym)
	}
	out, err := fn(v.s.ctx, args)
	v.s.ctx.EndFunction()
	return out, err
}

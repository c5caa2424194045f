package engine

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/types"
)

// catTable resolves a catalog table, typing the not-found error.
func (s *Session) catTable(name string) (*catalog.Table, error) {
	tb, err := s.e.cat.TableByName(name)
	if err != nil {
		return nil, errf(CodeUndefinedTable, "%w", err)
	}
	return tb, nil
}

// writeTable resolves a write statement's table and takes its exclusive
// table lock (strict 2PL; held to transaction end).
func (s *Session) writeTable(name string) (*catalog.Table, *heap.Table, error) {
	tb, err := s.catTable(name)
	if err != nil {
		return nil, nil, err
	}
	if err := s.e.lm.Acquire(lock.TxID(s.tx), lock.Resource{Kind: lock.KindTable, A: uint64(tb.SpaceID)}, lock.Exclusive); err != nil {
		return nil, nil, err
	}
	table, err := s.e.Table(tb.Name)
	if err != nil {
		return nil, nil, err
	}
	return tb, table, nil
}

// openIndex is one index opened for the statement.
type openIndex struct {
	ix   *catalog.Index
	desc *am.IndexDesc
	ps   *am.PurposeSet
}

// openIndexes opens the ready indexes on a table for the statement (Figure 6:
// am_open at statement start, am_close at the end) and returns a closer.
// only, when set, names the one index to open: a cached plan's chosen index.
// Its absence is an error — the plan cannot be honoured against the live
// catalog (the index vanished inside the cache-probe window), and the caller
// must plan fresh.
func (s *Session) openIndexes(table string, readOnly bool, only string) ([]openIndex, func(), error) {
	var opened []openIndex
	closeAll := func() {
		for i := len(opened) - 1; i >= 0; i-- {
			s.callIndexFn(obs.AmClose, opened[i].ps.Close, opened[i].desc)
		}
	}
	for _, ix := range s.e.cat.IndexesOn(table) {
		if !ix.Ready() {
			// A BUILDING index is invisible: the planner cannot use it and
			// DML maintenance flows through its side log only (idxbuild.go).
			continue
		}
		if only != "" && !strings.EqualFold(ix.Name, only) {
			continue
		}
		desc, ps, err := s.indexDesc(ix)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		desc.ReadOnly = readOnly
		if err := s.callIndexFn(obs.AmOpen, ps.Open, desc); err != nil {
			closeAll()
			return nil, nil, err
		}
		opened = append(opened, openIndex{ix: ix, desc: desc, ps: ps})
	}
	if only != "" && len(opened) == 0 {
		return nil, nil, errf(CodeInternal, "cached plan's index %q is gone", only)
	}
	return opened, closeAll, nil
}

// targetColumn resolves an INSERT or UPDATE target column to its ordinal,
// refusing one already among the statement's earlier targets.
func targetColumn(tb *catalog.Table, name string, earlier []int) (int, error) {
	i, err := tb.ColumnIndex(name)
	if err != nil {
		return 0, errf(CodeUndefinedObject, "%w", err)
	}
	if slices.Contains(earlier, i) {
		return 0, errf(CodeDuplicateColumn, "column %q specified more than once", name)
	}
	return i, nil
}

// INSERT -----------------------------------------------------------------------

func (s *Session) insert(t *sql.Insert) (*Result, error) {
	tb, table, err := s.writeTable(t.Table)
	if err != nil {
		return nil, err
	}
	schema := table.Schema()

	// Map the statement's column list to table ordinals.
	colIdx := make([]int, 0, len(tb.Columns))
	if len(t.Columns) == 0 {
		for i := range tb.Columns {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, c := range t.Columns {
			i, err := targetColumn(tb, c, colIdx)
			if err != nil {
				return nil, err
			}
			colIdx = append(colIdx, i)
		}
	}

	idxs, closeAll, err := s.openIndexes(tb.Name, false, "")
	if err != nil {
		return nil, err
	}
	defer closeAll()
	builds := s.e.activeBuilds(tb.Name)

	inserted := 0
	for _, exprRow := range t.Rows {
		if len(exprRow) != len(colIdx) {
			return nil, errf(CodeCardinality, "INSERT arity %d does not match %d columns", len(exprRow), len(colIdx))
		}
		row := make([]types.Datum, len(schema))
		for j, ex := range exprRow {
			v, err := s.evalExpr(ex, nil, nil, nil)
			if err != nil {
				return nil, err
			}
			cv, err := s.coerce(v, schema[colIdx[j]])
			if err != nil {
				return nil, errf(CodeDatatype, "column %s: %w", tb.Columns[colIdx[j]].Name, err)
			}
			row[colIdx[j]] = cv
		}
		if err := s.insertRow(table, idxs, builds, row); err != nil {
			return nil, err
		}
		inserted++
	}
	return &Result{Affected: inserted, Message: fmt.Sprintf("%d row(s) inserted", inserted)}, nil
}

// insertRow stores a new row version and indexes it.
func (s *Session) insertRow(table *heap.Table, idxs []openIndex, builds []*indexBuild, row []types.Datum) error {
	rid, err := table.Insert(s.tx, row)
	if err != nil {
		return heapErr(err)
	}
	s.recordWrite(table, rid, heap.StampBegin)
	return s.indexInsert(idxs, builds, rid, row)
}

// indexInsert runs am_insert for a new version on every open index and
// captures it for the side logs of index builds in flight (idxbuild.go).
func (s *Session) indexInsert(idxs []openIndex, builds []*indexBuild, rid heap.RowID, row []types.Datum) error {
	for _, oi := range idxs {
		if oi.ps.Insert == nil {
			return errf(CodeFeature, "access method %s cannot insert", oi.ix.AmName)
		}
		s.amCall(obs.AmInsert, oi.desc.Name)
		err := oi.ps.Insert(s.ctx, oi.desc, projectIndexed(oi.desc, row), rid)
		s.ctx.EndFunction()
		if err != nil {
			return err
		}
	}
	s.captureSide(builds, rid, row)
	return nil
}

// LOAD ------------------------------------------------------------------------

// load implements the Informix LOAD command: delimited text-file rows are
// imported through the types' text-file import support functions
// (Section 6.3, item 3) and inserted through the normal index-maintaining
// path.
func (s *Session) load(t *sql.Load) (*Result, error) {
	tb, table, err := s.writeTable(t.Table)
	if err != nil {
		return nil, err
	}
	schema := table.Schema()

	raw, err := os.ReadFile(t.File)
	if err != nil {
		return nil, errf(CodeIOError, "LOAD: %w", err)
	}
	idxs, closeAll, err := s.openIndexes(tb.Name, false, "")
	if err != nil {
		return nil, err
	}
	defer closeAll()
	builds := s.e.activeBuilds(tb.Name)

	loaded := 0
	for lineNo, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Split(line, t.Delimiter)
		if len(fields) != len(schema) {
			return nil, errf(CodeCardinality, "LOAD line %d has %d fields, table %s has %d columns",
				lineNo+1, len(fields), tb.Name, len(schema))
		}
		row := make([]types.Datum, len(schema))
		for i, f := range fields {
			v, err := s.e.reg.ImportLiteral(strings.TrimSpace(f), schema[i])
			if err != nil {
				return nil, errf(CodeDatatype, "LOAD line %d column %s: %w", lineNo+1, tb.Columns[i].Name, err)
			}
			row[i] = v
		}
		if err := s.insertRow(table, idxs, builds, row); err != nil {
			return nil, err
		}
		loaded++
	}
	return &Result{Affected: loaded, Message: fmt.Sprintf("%d row(s) loaded", loaded)}, nil
}

// access-path planning -----------------------------------------------------------

// accessPath is the chosen plan for a filtered table access. tmpl is the
// qualification template the qual was instantiated from — the shared plan
// cache stores it so later executions can rebind with new parameter values
// (see prepared.go).
type accessPath struct {
	index *openIndex // nil = sequential scan
	qual  *am.Qual
	tmpl  *qualTmpl
	// full reports the qualification covers the entire WHERE clause (no
	// residual predicate). Aggregate pushdown needs it, since it must not
	// delegate a COUNT to the index while a residual filter would have
	// rejected rows; and the executor skips the per-row WHERE re-check only
	// when it holds and the access method answers exactly (exactAnswer).
	full bool
}

// planAccess decides between a sequential scan and a virtual-index scan: it
// extracts the largest indexable qualification (strategy-function predicates
// on an indexed column, combined with AND/OR) and consults am_scancost
// against the heap page count (Section 4: the optimizer checks whether a
// virtual index exists for the column and whether the function is declared
// as a strategy function). The returned Plan records every candidate and
// the decision — EXPLAIN renders it, Result.Plan carries it.
func (s *Session) planAccess(tb *catalog.Table, schema []types.Type, where sql.Expr, idxs []openIndex) (accessPath, *Plan, error) {
	table, err := s.e.Table(tb.Name)
	if err != nil {
		return accessPath{}, nil, err
	}
	plan := &Plan{
		Table:    tb.Name,
		SeqCost:  float64(table.Pages()),
		BatchCap: s.e.opts.ScanBatchSize,
	}
	// Collected statistics (UPDATE STATISTICS, exec.go) refine the
	// sequential alternative: page fetches plus a per-row CPU charge,
	// from counts measured at collection time rather than the live pager.
	ts := s.e.cat.StatsGet(tb.Name)
	if ts != nil {
		plan.SeqCost = float64(ts.Pages) + 0.01*float64(ts.Rows)
		age := s.e.cat.Generation() - ts.Collected
		plan.CostSource = fmt.Sprintf("stats(age %d)", age)
		if age == 0 {
			s.e.obs.Inc(obs.PlannerStatsHits)
		} else {
			s.e.obs.Inc(obs.PlannerStatsStale)
		}
	}
	if where == nil {
		return accessPath{}, plan, nil
	}
	plan.Recheck = RecheckPerRow

	best := accessPath{}
	bestCost := plan.SeqCost
	bestIdx := -1
	for i := range idxs {
		oi := &idxs[i]
		oc, err := s.e.cat.OpClassByName(oi.desc.OpClass)
		if err != nil {
			continue
		}
		tmpl, full := s.extractQual(where, tb, schema, oi, oc)
		if tmpl == nil {
			continue
		}
		// Instantiate the template with the current binding. A bind failure
		// (unbound or NULL parameter, coercion mismatch) just makes this
		// index inapplicable, exactly as a non-constant argument always has.
		qual, err := s.bindQual(tmpl, oi.desc.ColTypes)
		if err != nil || qual == nil {
			continue
		}
		cost := 1.0
		costed := false
		if oi.ps.ScanCost != nil {
			s.amCall(obs.AmScancost, oi.desc.Name)
			c, err := oi.ps.ScanCost(s.ctx, oi.desc, qual)
			s.ctx.EndFunction()
			if err != nil {
				return accessPath{}, nil, err
			}
			cost = c
			costed = true
		}
		plan.Choices = append(plan.Choices, PlanChoice{
			Index: oi.desc.Name, AmName: oi.desc.AmName, OpClass: oi.desc.OpClass,
			Strategies: declaredStrategies(oc, qual), Qual: qual.String(),
			Cost: cost, Costed: costed,
		})
		// Without statistics the Informix-style bias applies: once a strategy
		// function matches a virtual index, the index is used; am_scancost
		// arbitrates between several applicable indexes. With SYSSTATS rows
		// the choice turns genuinely cost-based against the sequential
		// alternative (below).
		if best.index == nil || cost < bestCost {
			best = accessPath{index: oi, qual: qual, tmpl: tmpl, full: full}
			bestCost = cost
			bestIdx = len(plan.Choices) - 1
		}
	}
	if bestIdx >= 0 {
		if ts != nil && plan.Choices[bestIdx].Costed && bestCost >= plan.SeqCost {
			// Statistics-backed estimates on both sides and the heap is
			// cheaper: scan sequentially. (Un-costed candidates keep the
			// bias — a 1.0 default would beat any real seqscan estimate.)
			return accessPath{}, plan, nil
		}
		plan.Choices[bestIdx].Chosen = true
		if best.full {
			plan.Recheck = RecheckUnlessExact
		}
	}
	return best, plan, nil
}

// extractQual converts the WHERE clause (or its largest top-level AND
// subset) into a qualification template for the index, or nil when nothing
// is indexable. The second result reports fullness: true when the template
// covers the whole clause, false when a residual predicate remains for the
// per-row re-check. Constants are evaluated and coerced here; parameter
// slots stay symbolic and are bound per execution (prepared.go).
func (s *Session) extractQual(where sql.Expr, tb *catalog.Table, schema []types.Type, oi *openIndex, oc *catalog.OpClass) (*qualTmpl, bool) {
	if q := s.exprToQual(where, tb, schema, oi, oc); q != nil {
		return q, true
	}
	// Partial: use indexable factors of a top-level conjunction; the full
	// WHERE is re-checked on fetched rows.
	if b, ok := where.(*sql.Binary); ok && b.Op == "AND" {
		l, _ := s.extractQual(b.L, tb, schema, oi, oc)
		r, _ := s.extractQual(b.R, tb, schema, oi, oc)
		switch {
		case l != nil && r != nil:
			return &qualTmpl{op: am.QAnd, children: []*qualTmpl{l, r}}, false
		case l != nil:
			return l, false
		case r != nil:
			return r, false
		}
	}
	return nil, false
}

// exprToQual converts a whole expression to a qualification template, or nil.
func (s *Session) exprToQual(ex sql.Expr, tb *catalog.Table, schema []types.Type, oi *openIndex, oc *catalog.OpClass) *qualTmpl {
	switch t := ex.(type) {
	case *sql.Binary:
		if t.Op != "AND" && t.Op != "OR" {
			return nil
		}
		l := s.exprToQual(t.L, tb, schema, oi, oc)
		r := s.exprToQual(t.R, tb, schema, oi, oc)
		if l == nil || r == nil {
			return nil
		}
		op := am.QAnd
		if t.Op == "OR" {
			op = am.QOr
		}
		return &qualTmpl{op: op, children: []*qualTmpl{l, r}}
	case *sql.FuncCall:
		if !strategyDeclared(oc, t.Name) {
			return nil
		}
		fn := strings.ToLower(t.Name)
		// The qualification descriptor accommodates only single-column
		// predicates: f(column, constant), f(constant, column), f(column)
		// (Section 5.1).
		switch len(t.Args) {
		case 1:
			colPos := s.indexedColumn(t.Args[0], tb, oi)
			if colPos < 0 {
				return nil
			}
			return &qualTmpl{op: am.QFunc, fn: fn, colPos: colPos, colFirst: true}
		case 2:
			if colPos := s.indexedColumn(t.Args[0], tb, oi); colPos >= 0 {
				if leaf := s.constantTmpl(t.Args[1], fn, colPos, true, oi.desc.ColTypes[colPos]); leaf != nil {
					return leaf
				}
				return nil
			}
			if colPos := s.indexedColumn(t.Args[1], tb, oi); colPos >= 0 {
				return s.constantTmpl(t.Args[0], fn, colPos, false, oi.desc.ColTypes[colPos])
			}
		}
	}
	return nil
}

func strategyDeclared(oc *catalog.OpClass, fn string) bool {
	for _, st := range oc.Strategies {
		if strings.EqualFold(st, fn) {
			return true
		}
	}
	return false
}

// indexedColumn returns the ordinal (within the index) of the column the
// expression names, or -1.
func (s *Session) indexedColumn(ex sql.Expr, tb *catalog.Table, oi *openIndex) int {
	cr, ok := ex.(*sql.ColumnRef)
	if !ok {
		return -1
	}
	for i, col := range oi.desc.Columns {
		if strings.EqualFold(col, cr.Name) {
			return i
		}
	}
	return -1
}

// constantTmpl builds a leaf template for the predicate's constant argument:
// literals evaluate and coerce to the column's type now; parameter
// placeholders stay symbolic (bound per execution). A non-constant argument
// yields nil — the index is not applicable.
func (s *Session) constantTmpl(ex sql.Expr, fn string, colPos int, colFirst bool, target types.Type) *qualTmpl {
	if p, ok := ex.(*sql.Param); ok {
		return &qualTmpl{op: am.QFunc, fn: fn, colPos: colPos, colFirst: colFirst, paramOrd: p.Ord}
	}
	switch ex.(type) {
	case *sql.Literal, *sql.Null:
	default:
		return nil
	}
	v, err := s.evalExpr(ex, nil, nil, nil)
	if err != nil || v == nil {
		return nil
	}
	cv, err := s.coerce(v, target)
	if err != nil {
		return nil
	}
	return &qualTmpl{op: am.QFunc, fn: fn, colPos: colPos, colFirst: colFirst, constVal: cv}
}

// target is one row a DELETE or UPDATE acts on.
type target struct {
	rid heap.RowID
	row []types.Datum
}

// scanRows is the target collector DELETE and UPDATE share: it captures the
// statement's read view — a fresh committed one, taken after the table X
// lock, so the versions a write targets are the latest committed ones — and
// pulls the same batch pipeline a SELECT runs (source → WHERE filter, see
// iter.go: am_getmulti or the am_getnext adapter for an index, page-at-a-time
// for the heap). Every target is collected before the first is written, so
// the scan never meets the statement's own end stamps or successor versions.
// Write scans stay serial.
func (s *Session) scanRows(tb *catalog.Table, table *heap.Table, where sql.Expr, path accessPath, plan *Plan) ([]target, error) {
	snap := s.stmtSnapshot(true)
	plan.SnapshotLSN = snap.ReadLSN
	s.ec.SetSnapshot(snap.ReadLSN)
	it, err := s.openBatchScan(tb, table, table.Schema(), where, path, plan, 1, snap)
	if err != nil {
		return nil, err
	}
	defer it.close()
	var targets []target
	for {
		rb, err := it.next()
		if err != nil || rb == nil {
			return targets, err
		}
		for i := range rb.rows {
			targets = append(targets, target{rb.rids[i], rb.rows[i]})
		}
	}
}

// DELETE -----------------------------------------------------------------------

// deleteStmt end-stamps every version the WHERE clause selects. Index
// maintenance is deferred: the entries stay so scans under older snapshots
// (and index builds in flight) keep resolving the rowids — GetVersion's
// visibility check decides per reader — and the vacuum removes entry and
// cell together once no snapshot can see the version (snapshot.go
// vacuumTable). DELETE therefore never calls am_delete, nothing condenses
// the tree under its scan, and its targets come from the batch pipeline like
// UPDATE's; Section 5.5's retrieve-and-delete interplay lives in the vacuum.
func (s *Session) deleteStmt(t *sql.Delete) (*Result, error) {
	tb, table, err := s.writeTable(t.Table)
	if err != nil {
		return nil, err
	}
	_, closeAll, path, plan, err := s.planStmt("DELETE", t, tb, table.Schema(), t.Where, true)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	targets, err := s.scanRows(tb, table, t.Where, path, plan)
	if err != nil {
		return nil, err
	}
	deleted := 0
	for _, tg := range targets {
		ended, err := table.Delete(s.tx, tg.rid)
		if err != nil {
			return nil, err
		}
		if !ended {
			continue // version already ended by this transaction
		}
		s.recordWrite(table, tg.rid, heap.StampEnd)
		deleted++
	}
	return &Result{Affected: deleted, Message: fmt.Sprintf("%d row(s) deleted", deleted), Plan: plan}, nil
}

// UPDATE -----------------------------------------------------------------------

func (s *Session) update(t *sql.Update) (*Result, error) {
	tb, table, err := s.writeTable(t.Table)
	if err != nil {
		return nil, err
	}
	schema := table.Schema()

	setIdx := make([]int, 0, len(t.Sets))
	for _, sc := range t.Sets {
		ci, err := targetColumn(tb, sc.Column, setIdx)
		if err != nil {
			return nil, err
		}
		setIdx = append(setIdx, ci)
	}

	idxs, closeAll, path, plan, err := s.planStmt("UPDATE", t, tb, schema, t.Where, true)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	builds := s.e.activeBuilds(tb.Name)
	targets, err := s.scanRows(tb, table, t.Where, path, plan)
	if err != nil {
		return nil, err
	}

	for _, tg := range targets {
		newRow := append([]types.Datum(nil), tg.row...)
		for i, sc := range t.Sets {
			v, err := s.evalExpr(sc.Value, tb, schema, tg.row)
			if err != nil {
				return nil, err
			}
			cv, err := s.coerce(v, schema[setIdx[i]])
			if err != nil {
				return nil, errf(CodeDatatype, "column %s: %w", tb.Columns[setIdx[i]].Name, err)
			}
			newRow[setIdx[i]] = cv
		}
		newRid, err := table.Update(s.tx, tg.rid, newRow)
		if err != nil {
			return nil, heapErr(err)
		}
		s.recordWrite(table, tg.rid, heap.StampEnd)
		s.recordWrite(table, newRid, heap.StampBegin)
		// MVCC index maintenance: only the successor's entry is inserted.
		// The predecessor's entry stays — older snapshots resolve it to the
		// old version, newer ones skip it at rid resolution — and dies with
		// its cell at vacuum time. (am_update's delete-then-insert contract
		// would tear rows out from under older read views; the slot remains
		// for access methods but the MVCC engine no longer drives it.) The
		// side-log capture is likewise only the insert half: the old entry
		// must stay in the built index for the same reason.
		if err := s.indexInsert(idxs, builds, newRid, newRow); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(targets), Message: fmt.Sprintf("%d row(s) updated", len(targets)), Plan: plan}, nil
}

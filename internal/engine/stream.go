package engine

import (
	"context"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/types"
)

// Streaming execution: ExecStream returns a Stream — a pull-based row
// iterator over a SELECT's batch pipeline — so a client (the wire protocol
// above all) can encode row batches as they are produced instead of
// materializing Rows [][]types.Datum for the whole result. Exec remains a
// thin wrapper that drains the stream. Statements with no row stream
// (DML, DDL, SET, EXPLAIN) execute eagerly and the Stream replays their
// materialized result, so callers handle every statement uniformly.

// selectCursor is an opened SELECT pipeline: planned access path, the
// batch iterator chain, and the projection. It owns scan resources only —
// the statement scope belongs to the Stream.
type selectCursor struct {
	s        *Session
	res      *Result       // header: Columns, ColTypes, Plan (Affected set at end)
	it       batchIterator // nil: the aggregate was answered by am_aggregate
	closeIdx func()        // am_close over the statement's opened indexes; nil for a virtual table
	projIdx  []int         // nil: every column in table order, rows pass through
	agg      *aggAcc       // non-nil: single-aggregate projection, drained at exhaustion
	aggRow   []types.Datum // am_aggregate's answer; emitted once, no scan
	emitted  bool          // aggregate: the single result row was produced
	count    int
	closed   bool
}

// openSelectCursor plans and opens a SELECT. The name resolves to a real
// table first, then to a virtual one, so a real table shadows a virtual table
// of the same name. On error, every opened resource is released before
// returning.
func (s *Session) openSelectCursor(t *sql.Select) (*selectCursor, error) {
	tb, err := s.catTable(t.Table)
	if err != nil {
		if vtb, rows, ok := s.virtualRows(t.Table); ok {
			return s.openVirtualCursor(t, vtb, rows)
		}
		return nil, err
	}
	// No shared lock: reads run against an MVCC snapshot, so a SELECT never
	// touches the lock manager and never blocks (or is blocked by) writers.
	table, err := s.e.Table(tb.Name)
	if err != nil {
		return nil, err
	}
	schema := table.Schema()

	_, closeAll, path, plan, err := s.planStmt("SELECT", t, tb, schema, t.Where, false)
	if err != nil {
		return nil, err
	}
	plan.Workers = s.scanDegree(path, plan, table)
	snap := s.stmtSnapshot(false)
	plan.SnapshotLSN = snap.ReadLSN
	s.ec.SetSnapshot(snap.ReadLSN)

	res, projIdx, agg, err := projection(t.Items, tb, schema)
	if err != nil {
		closeAll()
		return nil, err
	}
	res.Plan = plan

	// Aggregate pushdown: a residual-free index path plus a quiescent MVCC
	// window lets am_aggregate answer from the index's internal nodes —
	// no batch scan is opened and no tuple is fetched.
	if agg != nil {
		row, ok, err := s.tryAggPushdown(agg, tb, table, path, snap)
		if err != nil {
			closeAll()
			return nil, err
		}
		if ok {
			return &selectCursor{s: s, res: res, closeIdx: closeAll, aggRow: row}, nil
		}
	}

	it, err := s.openBatchScan(tb, table, schema, t.Where, path, plan, plan.Workers, snap)
	if err != nil {
		closeAll()
		return nil, err
	}
	return &selectCursor{
		s: s, res: res, it: it, closeIdx: closeAll,
		projIdx: projIdx, agg: agg,
	}, nil
}

// openVirtualCursor opens a SELECT over a virtual table's materialised rows:
// one batch through the same WHERE filter and projection as a heap scan, with
// no plan, snapshot or index.
func (s *Session) openVirtualCursor(t *sql.Select, tb *catalog.Table, rows [][]types.Datum) (*selectCursor, error) {
	schema, err := s.e.tableSchema(tb)
	if err != nil {
		return nil, err
	}
	res, projIdx, agg, err := projection(t.Items, tb, schema)
	if err != nil {
		return nil, err
	}
	var it batchIterator = &serialIter{ctx: s.ctx, src: rowsSource(rows, s.ec)}
	if t.Where != nil {
		it = &filterBatchIter{src: it, s: s, tb: tb, schema: schema, where: t.Where}
	}
	return &selectCursor{s: s, res: res, it: it, projIdx: projIdx, agg: agg}, nil
}

// projection resolves a SELECT list against tb: the result header with typed
// column metadata, and either the table ordinals to emit (nil: every column
// in table order, rows pass through) or, for a single aggregate item, its
// accumulator.
func projection(items []sql.SelectItem, tb *catalog.Table, schema []types.Type) (*Result, []int, *aggAcc, error) {
	res := &Result{}
	if len(items) == 1 && (items[0].CountStar || items[0].Agg != "") {
		item := items[0]
		if item.CountStar {
			res.Columns, res.ColTypes = []string{"count"}, []types.Type{types.Builtin(types.KInt)}
			return res, nil, &aggAcc{kind: am.AggCount, col: -1}, nil
		}
		ci, err := tb.ColumnIndex(item.Column)
		if err != nil {
			return nil, nil, nil, errf(CodeUndefinedObject, "%w", err)
		}
		agg := &aggAcc{col: ci}
		res.Columns, res.ColTypes = []string{item.Agg}, []types.Type{schema[ci]}
		switch item.Agg {
		case "count":
			agg.kind, res.ColTypes[0] = am.AggCount, types.Builtin(types.KInt)
		case "min":
			agg.kind = am.AggMin
		case "max":
			agg.kind = am.AggMax
		default:
			return nil, nil, nil, errf(CodeFeature, "aggregate %s is not supported", item.Agg)
		}
		return res, nil, agg, nil
	}
	var projIdx []int
	for _, item := range items {
		switch {
		case item.Star:
			for i := range tb.Columns {
				projIdx = append(projIdx, i)
			}
		case item.CountStar, item.Agg != "":
			return nil, nil, nil, errf(CodeFeature, "aggregates cannot be mixed with columns")
		default:
			i, err := tb.ColumnIndex(item.Column)
			if err != nil {
				return nil, nil, nil, errf(CodeUndefinedObject, "%w", err)
			}
			projIdx = append(projIdx, i)
		}
	}
	for _, i := range projIdx {
		res.Columns = append(res.Columns, tb.Columns[i].Name)
		res.ColTypes = append(res.ColTypes, schema[i])
	}
	if identity(projIdx, len(schema)) {
		projIdx = nil
	}
	return res, projIdx, nil, nil
}

// nextBatch produces the next projected row batch, or nil at exhaustion.
// Aggregates drain the pipeline and emit their single row as the final
// batch, so streaming consumers need no special case; an index-answered
// aggregate (aggRow) emits that row without any pipeline at all.
func (c *selectCursor) nextBatch() ([][]types.Datum, error) {
	if c.aggRow != nil {
		if c.emitted {
			return nil, nil
		}
		c.emitted = true
		c.count = 1
		c.s.ec.AddReturned(1)
		return [][]types.Datum{c.aggRow}, nil
	}
	for {
		rb, err := c.it.next()
		if err != nil {
			return nil, err
		}
		if rb == nil {
			if c.agg != nil && !c.emitted {
				c.emitted = true
				return [][]types.Datum{c.agg.row()}, nil
			}
			return nil, nil
		}
		c.count += len(rb.rows)
		c.s.ec.AddReturned(len(rb.rows))
		if c.agg != nil {
			if err := c.agg.absorb(c.s, rb.rows); err != nil {
				return nil, err
			}
			continue
		}
		if c.projIdx == nil {
			// Every source decodes fresh rows per batch, so they can be
			// handed on as they are.
			return rb.rows, nil
		}
		out := make([][]types.Datum, len(rb.rows))
		for r, row := range rb.rows {
			prow := make([]types.Datum, len(c.projIdx))
			for j, i := range c.projIdx {
				prow[j] = row[i]
			}
			out[r] = prow
		}
		return out, nil
	}
}

// identity reports that a projection lists all n columns in table order.
func identity(projIdx []int, n int) bool {
	if len(projIdx) != n {
		return false
	}
	for j, i := range projIdx {
		if i != j {
			return false
		}
	}
	return true
}

// close releases the scan (iterator chain, then am_close). Idempotent.
func (c *selectCursor) close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.it != nil {
		c.it.close()
	}
	if c.closeIdx != nil {
		c.closeIdx()
	}
}

// Stream ----------------------------------------------------------------------

// Stream is an incremental statement result. For a SELECT it pulls projected row batches straight from the batch pipeline; for any
// other statement it replays the already-materialized result. The stream
// owns the statement's scope (beginStmt/end): its profile window, its read
// snapshot, its parameter binding and — outside an explicit transaction —
// the auto-commit, all of which resolve when the stream is exhausted or
// closed (at once, for a materialized statement). A session runs one
// statement at a time: until the stream finishes, starting another statement
// fails with CodeSessionBusy.
type Stream struct {
	s    *Session
	cur  *selectCursor // nil = materialized replay
	res  *Result
	auto bool // the stream owns an auto-commit transaction

	done    bool // nothing more to deliver
	aborted bool // the statement failed (vs finished, possibly with a commit error)
	err     error
}

// ExecStream parses and executes one statement, returning its result as a
// stream.
func (s *Session) ExecStream(src string) (*Stream, error) {
	return s.ExecStreamCtx(context.Background(), src)
}

// ExecStreamCtx is ExecStream with a cancellation context (see ExecCtx).
func (s *Session) ExecStreamCtx(ctx context.Context, src string) (*Stream, error) {
	st, err := s.e.ParseSQL(src)
	if err != nil {
		return nil, err
	}
	return s.ExecStreamStmtCtx(ctx, st)
}

// ExecStreamStmtCtx executes a parsed statement as a stream.
func (s *Session) ExecStreamStmtCtx(ctx context.Context, st sql.Statement) (*Stream, error) {
	return streamed(s.open(ctx, st, "", nil))
}

// streamed hands a stream to a streaming caller, who learns of a failed
// auto-commit at open (a cursor's commit error surfaces at exhaustion).
func streamed(str *Stream, err error) (*Stream, error) {
	if err != nil {
		return nil, err
	}
	return str, nil
}

// beginStmt opens a statement scope: the cancellation context, the profile
// window — opened before the (possibly automatic) transaction begins and
// finished after it resolves, so transaction bookkeeping (wal.appends for
// BEGIN, wal.flushes for the auto-commit) lands in the statement that caused
// it — and, outside an explicit transaction, the auto-commit transaction.
// The returned Stream owns the scope; Stream.end closes it.
func (s *Session) beginStmt(ctx context.Context) (*Stream, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.stmtCtx = ctx
	s.ec = obs.NewExecContext(s.e.obs)
	str := &Stream{s: s, auto: s.tx == 0}
	if str.auto {
		if err := s.beginTx(false); err != nil {
			s.ec, s.stmtCtx = nil, nil
			return nil, err
		}
	} else {
		s.save = savepoint{writes: len(s.writes), side: len(s.pendingSide)}
		if s.e.log != nil {
			s.save.lsn = s.e.log.LastLSN(s.tx)
		}
	}
	s.stream = str
	return str, nil
}

// end closes the statement scope — the one epilogue every statement runs,
// whether it finished, failed, or was abandoned mid-scan: release the scan,
// end the statement window, write a changed catalog's image, commit (or,
// after a failure, roll back) the auto transaction or undo a failed
// statement of an explicit one, attach the profile (after the commit, so
// its WAL activity lands in the statement), release the statement's read
// snapshot, and drop the parameter binding. err is the statement's own
// failure; a commit error is recorded without marking the statement aborted.
func (st *Stream) end(err error) {
	s := st.s
	if st.cur != nil {
		st.cur.close()
		st.res.Affected = st.cur.count
	}
	s.ctx.EndStatement()
	if err == nil && s.catDirty {
		err = s.writeCatalog()
	}
	s.catDirty = false
	st.aborted = err != nil
	switch {
	case st.auto && st.aborted:
		s.rollbackTx()
	case st.auto:
		err = s.commitTx()
	case st.aborted:
		if s.undo(s.save) != nil {
			s.rollbackTx() // a half-undone statement must not commit
		}
	}
	stats := s.ec.Finish()
	if st.res != nil {
		st.res.Stats = stats
	}
	s.releaseStmtSnap()
	s.boundArgs, s.curPrep = nil, nil
	s.ec, s.stmtCtx, s.stream = nil, nil, nil
	st.err = err
}

// Columns returns the result's column names (valid from open).
func (st *Stream) Columns() []string { return st.res.Columns }

// ColTypes returns the typed column metadata (valid from open).
func (st *Stream) ColTypes() []types.Type { return st.res.ColTypes }

// Plan returns the statement's access plan, when one was made.
func (st *Stream) Plan() *Plan { return st.res.Plan }

// Next returns the next batch of rows, or nil once the stream is
// exhausted. Exhaustion finishes the statement (auto-commit included): an
// error from that epilogue — or from the scan itself — is returned here.
func (st *Stream) Next() ([][]types.Datum, error) {
	if st.done {
		return nil, nil
	}
	if st.cur == nil { // materialized replay: one batch, then exhaustion
		st.done = true
		if len(st.res.Rows) > 0 {
			return st.res.Rows, nil
		}
		return nil, nil
	}
	rows, err := st.cur.nextBatch()
	if err != nil || rows == nil {
		st.done = true
		st.end(err)
		return nil, st.err
	}
	return rows, nil
}

// Result returns the statement result. It is complete — tallies, stats,
// and for COUNT(*) the count row — only after the stream finished (Next
// returned nil, or Close was called).
func (st *Stream) Result() *Result { return st.res }

// Err returns the stream's terminal error, if any.
func (st *Stream) Err() error { return st.err }

// Close finishes the stream if it has not finished yet: an unread scan is
// abandoned (tallies cover only the delivered rows) and the statement's
// scope resolves exactly as if the stream had been drained. Idempotent; it
// returns the stream's terminal error.
func (st *Stream) Close() error {
	if !st.done {
		st.done = true
		if st.cur != nil {
			st.end(nil)
		}
	}
	return st.err
}

// Drain pulls every remaining batch into the materialized result — Exec's
// implementation.
func (st *Stream) Drain() (*Result, error) {
	if st.cur == nil {
		st.done = true
		return st.res, st.err
	}
	for {
		rows, err := st.Next()
		if err != nil {
			if st.aborted {
				return nil, err
			}
			// The statement finished but its epilogue (auto-commit) failed:
			// hand back the result with the error.
			return st.res, err
		}
		if rows == nil {
			return st.res, nil
		}
		st.res.Rows = append(st.res.Rows, rows...)
	}
}

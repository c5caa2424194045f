package engine

import (
	"errors"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/types"
)

// The batch-pull pipeline: every statement that reads a table — SELECT and
// the target scans of DELETE and UPDATE — reads rowBatches from a
// batchIterator chain (source → WHERE filter) and spills to individual rows
// only at the statement/client boundary. Index sources amortise the
// purpose-function dispatch through am_getmulti; heap sources decode a
// page's tuples per visit.

// rowBatch is one unit flowing through the pipeline (parallel slices).
type rowBatch struct {
	rids []heap.RowID
	rows [][]types.Datum
}

// batchIterator is a pull-based batch stream. next returns nil when the
// scan is exhausted; close releases scan resources (am_endscan for index
// scans) and must be called exactly once.
type batchIterator interface {
	next() (*rowBatch, error)
	close()
}

// source is one access path's row producer: each call returns the next
// batch of visible rows, or nil at exhaustion. A serial scan pulls one on the
// session's context; a parallel scan gives each worker one partition's source
// and its own context (startParallel).
type source func(*mi.Context) (*rowBatch, error)

// serialIter pulls a source on the statement's own context.
type serialIter struct {
	ctx *mi.Context
	src source
	end func() // am_endscan of an index scan; nil for the heap
}

func (it *serialIter) next() (*rowBatch, error) { return it.src(it.ctx) }

func (it *serialIter) close() {
	if it.end != nil {
		it.end()
		it.end = nil
	}
}

// heapSource reads the heap's batched sequential scanner.
func heapSource(sc *heap.Scanner, batch int, ec *obs.ExecContext) source {
	return func(*mi.Context) (*rowBatch, error) {
		rb, err := sc.NextBatch(batch)
		if err != nil || rb == nil {
			return nil, err
		}
		ec.AddScanned(len(rb.Rows))
		return &rowBatch{rids: rb.RowIDs, rows: rb.Rows}, nil
	}
}

// rowsSource serves materialised rows — a virtual table's — as one batch.
func rowsSource(rows [][]types.Datum, ec *obs.ExecContext) source {
	return func(*mi.Context) (*rowBatch, error) {
		if len(rows) == 0 {
			return nil, nil
		}
		rb := &rowBatch{rids: make([]heap.RowID, len(rows)), rows: rows}
		rows = nil
		ec.AddScanned(len(rb.rows))
		return rb, nil
	}
}

// beginScan builds the scan descriptor with the server's batch-capacity
// proposal and runs am_beginscan, where the access method may adjust the
// capacity (negotiation).
func (s *Session) beginScan(oi *openIndex, qual *am.Qual, batch int, snap *heap.Snapshot) (*am.ScanDesc, error) {
	sd := &am.ScanDesc{Index: oi.desc, Qual: qual, BatchCap: batch, Obs: s.ec, Snapshot: snap}
	if oi.ps.BeginScan != nil {
		s.amCall(obs.AmBeginscan, oi.desc.Name)
		err := oi.ps.BeginScan(s.ctx, sd)
		s.ctx.EndFunction()
		if err != nil {
			return nil, err
		}
	}
	return sd, nil
}

// indexSource drives the batched virtual-index protocol on a descriptor
// whose am_beginscan has run — the serial scan's, or one partition of a
// parallel one: am_getmulti, or am_getnext through the adapter when the
// access method binds no am_getmulti. The batch buffer is allocated to the
// capacity agreed at am_beginscan on the first fill, and returned rowids are
// resolved against the heap before the batch moves downstream.
func (s *Session) indexSource(oi *openIndex, table *heap.Table, sd *am.ScanDesc) source {
	name := oi.desc.Name
	var fill am.AmGetMultiFunc
	if getMulti := oi.ps.GetMulti; getMulti != nil {
		fill = func(ctx *mi.Context, sd *am.ScanDesc) (int, error) {
			s.amCall(obs.AmGetmulti, name)
			n, err := getMulti(ctx, sd)
			ctx.EndFunction()
			return n, err
		}
	} else {
		// Getnext-only access method (only am_getnext is mandatory): the
		// adapter fills the batch by repeated am_getnext calls, each traced
		// individually so the legacy Figure 6(b) sequence stays observable.
		fill = am.AdaptGetNext(oi.ps.GetNext,
			func() { s.amCall(obs.AmGetnext, name) },
			func() { s.ctx.EndFunction() })
	}
	done := false
	return func(ctx *mi.Context) (*rowBatch, error) {
		// Loop until a batch yields visible rows or the scan is exhausted —
		// a loop, not a tail call, so a long run of dead or out-of-snapshot
		// index entries (heavily updated, not-yet-vacuumed table) cannot grow
		// the stack.
		for !done {
			n, err := am.FillFrom(ctx, sd, fill)
			if err != nil {
				return nil, err
			}
			done = n < sd.Batch.Cap() // a short batch signals exhaustion
			if n == 0 {
				break
			}
			rb, err := resolveBatch(oi, table, sd, n)
			if err != nil {
				return nil, err
			}
			if len(rb.rows) > 0 {
				return rb, nil
			}
			// Whole batch invisible: pull the next one.
		}
		return nil, nil
	}
}

// resolveBatch resolves the n rowids a fill left in sd.Batch against the
// heap under the scan's snapshot: versions the snapshot cannot see are
// dropped here (the index reflects write-time state; visibility is decided at
// rid→row resolution), and so are entries whose cell the vacuum reclaimed.
// The batch's rows are decoded into one fresh arena, which no later batch
// touches, so a consumer may keep them.
func resolveBatch(oi *openIndex, table *heap.Table, sd *am.ScanDesc, n int) (*rowBatch, error) {
	rb := &rowBatch{
		rids: make([]heap.RowID, 0, n),
		rows: make([][]types.Datum, 0, n),
	}
	arena := types.NewArena(n)
	for _, rid := range sd.Batch.RowIDs[:n] {
		row, ok, err := table.GetVersion(rid, sd.Snapshot, arena)
		if err != nil {
			if errors.Is(err, heap.ErrNoSuchRow) {
				continue // entry whose cell was reclaimed: dead by definition
			}
			return nil, errf(CodeInternal, "index %s returned dangling %v: %w", oi.desc.Name, rid, err)
		}
		if ok {
			rb.rids = append(rb.rids, rid)
			rb.rows = append(rb.rows, row)
		}
	}
	return rb, nil
}

// endScan runs am_endscan on a descriptor (a serial scan's, or the parent
// descriptor of a parallel scan after its workers have exited).
func (s *Session) endScan(oi *openIndex, sd *am.ScanDesc) {
	if oi.ps.EndScan != nil {
		s.amCall(obs.AmEndscan, oi.desc.Name)
		oi.ps.EndScan(s.ctx, sd)
		s.ctx.EndFunction()
	}
}

// filterBatchIter re-evaluates the full WHERE clause over each batch,
// compacting survivors in place: the index may return candidate supersets
// (rstree_am, gist_am), only part of the clause may have been pushed down as
// a qualification, and a sequential scan has pushed down nothing.
type filterBatchIter struct {
	src    batchIterator
	s      *Session
	tb     *catalog.Table
	schema []types.Type
	where  sql.Expr
	// memo caches resolved call sites and coerced row-invariant UDR
	// arguments (literals, bound parameters) across the statement's rows —
	// the residual filter would otherwise re-resolve each UDR and re-run
	// each opaque type's Input parser per row. The map lives on the
	// iterator so its lifetime is exactly one statement.
	memo map[*sql.FuncCall]*fcMemo
}

func (it *filterBatchIter) next() (*rowBatch, error) {
	if it.memo == nil {
		it.memo = make(map[*sql.FuncCall]*fcMemo)
	}
	prev := it.s.fcMemos
	it.s.fcMemos = it.memo
	defer func() { it.s.fcMemos = prev }()
	for {
		rb, err := it.src.next()
		if err != nil || rb == nil {
			return nil, err
		}
		k := 0
		for i := range rb.rows {
			ok, err := it.s.evalBool(it.where, it.tb, it.schema, rb.rows[i])
			if err != nil {
				return nil, err
			}
			if ok {
				rb.rids[k] = rb.rids[i]
				rb.rows[k] = rb.rows[i]
				k++
			}
		}
		if k > 0 {
			rb.rids = rb.rids[:k]
			rb.rows = rb.rows[:k]
			return rb, nil
		}
		// The whole batch was filtered out — pull the next one rather than
		// surfacing an empty batch.
	}
}

func (it *filterBatchIter) close() { it.src.close() }

// openBatchScan assembles the pipeline for a planned access path: source
// (virtual index or heap sequential scan, fanned out to workers when the
// statement was planned with a parallel degree > 1) plus the WHERE
// re-filter, which an exact index answer does without (exactAnswer). It
// records on plan, the statement's own, whether the re-check runs.
func (s *Session) openBatchScan(tb *catalog.Table, table *heap.Table, schema []types.Type,
	where sql.Expr, path accessPath, plan *Plan, workers int, snap *heap.Snapshot) (batchIterator, error) {
	batch := s.e.opts.ScanBatchSize
	var src batchIterator
	if path.index != nil {
		sd, err := s.beginScan(path.index, path.qual, batch, snap)
		if err != nil {
			return nil, err
		}
		if src, err = s.indexScan(path.index, table, sd, workers); err != nil {
			return nil, err
		}
		if exactAnswer(path, sd, snap) {
			s.e.obs.Inc(obs.EngineRecheckSkipped)
			plan.Recheck = RecheckSkipped
			return src, nil
		}
	} else {
		src = s.heapScan(table, batch, workers, snap)
	}
	if where == nil {
		return src, nil
	}
	plan.Recheck = RecheckPerRow
	return &filterBatchIter{src: src, s: s, tb: tb, schema: schema, where: where}, nil
}

// exactAnswer reports that an index scan's rows need no WHERE re-check. Three
// things must hold. The qualification is the whole WHERE clause (path.full),
// so no residual predicate is left. The access method promised at
// am_beginscan that its entries satisfy that qualification (sd.Exact). And the
// read view is a registered snapshot: the index's answer is about the version
// an entry was made for, and a rowid names that version only while its slot
// is not reused. The vacuum frees a slot only once no registered snapshot can
// see the version in it, and a later version in the reused slot is too new
// for every such snapshot; a DIRTY READ (or nil, latest-state) view has no
// such guard, and could see a newer row at a rowid already in a batch.
func exactAnswer(path accessPath, sd *am.ScanDesc, snap *heap.Snapshot) bool {
	return path.full && sd.Exact && snap != nil && !snap.Dirty
}

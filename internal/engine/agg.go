package engine

import (
	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/types"
)

// Single-table aggregates: COUNT(*) / COUNT(col) / MIN(col) / MAX(col).
// Two execution shapes share one answer. The drain absorbs the batch
// pipeline's rows into an accumulator and emits a single row at exhaustion.
// Pushdown asks the chosen index's am_aggregate purpose function to answer
// from its internal nodes — entry counts for COUNT, boundary leaves for
// MIN/MAX — visiting zero tuples; it applies only when the qualification is
// residual-free (accessPath.full) and an MVCC gate proves every indexed
// entry is visible to the statement's read view (snapshot.go aggGate).

// aggAcc accumulates one aggregate over drained rows.
type aggAcc struct {
	kind am.AggKind
	col  int         // table ordinal of the aggregated column; -1 for COUNT(*)
	n    int64       // running COUNT
	ext  types.Datum // running MIN/MAX extremum; nil until the first non-NULL
}

// absorb folds a batch of rows into the accumulator. NULLs are skipped
// (SQL aggregate semantics); MIN/MAX order comes from the type registry,
// so opaque types compare by their support function, not their bytes.
func (a *aggAcc) absorb(s *Session, rows [][]types.Datum) error {
	for _, row := range rows {
		if a.col < 0 {
			a.n++
			continue
		}
		v := row[a.col]
		if v == nil {
			continue
		}
		switch a.kind {
		case am.AggCount:
			a.n++
		case am.AggMin, am.AggMax:
			if a.ext == nil {
				a.ext = v
				continue
			}
			cmp, err := s.e.reg.CompareDatums(v, a.ext)
			if err != nil {
				return errf(CodeDatatype, "%s aggregate: %w", a.kind, err)
			}
			if (a.kind == am.AggMin && cmp < 0) || (a.kind == am.AggMax && cmp > 0) {
				a.ext = v
			}
		}
	}
	return nil
}

// row renders the final aggregate row. An empty MIN/MAX input yields NULL.
func (a *aggAcc) row() []types.Datum {
	if a.kind == am.AggCount {
		return []types.Datum{a.n}
	}
	return []types.Datum{a.ext}
}

// The agg.fallback.<clause> counters split agg.fallback by the clause that
// refused a pushdown: one per refusal in tryAggPushdown, aggGate and
// aggGateHolds. The gate clauses are lettered as in aggGate's comment.
const (
	fallbackPath          = obs.AggFallbackPath          // no index path, or a residual predicate
	fallbackSlot          = obs.AggFallbackSlot          // no am_aggregate, or no am_delete
	fallbackColumn        = obs.AggFallbackColumn        // the aggregate's column is not the key
	fallbackGateView      = obs.AggFallbackGateView      // (f) no registered snapshot
	fallbackGateDead      = obs.AggFallbackGateDead      // (a) dead cells pending reclamation
	fallbackGateOwnEnds   = obs.AggFallbackGateOwnEnds   // (b) the session's own pending ends
	fallbackGateViewTx    = obs.AggFallbackGateViewTx    // (d) a foreign transaction in the view
	fallbackGateActive    = obs.AggFallbackGateActive    // (c) a foreign transaction is active
	fallbackGateReadPoint = obs.AggFallbackGateReadPoint // (e) a commit since the view's cut
	fallbackDeclined      = obs.AggFallbackDeclined      // am_aggregate said no
	fallbackHoldsActive   = obs.AggFallbackHoldsActive   // a foreign transaction began mid-walk
	fallbackHoldsMoved    = obs.AggFallbackHoldsMoved    // a transaction or commit mid-walk

	// gateHolds is what the gates return when no clause refused: plain
	// agg.fallback, which names no clause.
	gateHolds = obs.AggFallback
)

// tryAggPushdown offers the aggregate to the chosen index's am_aggregate
// slot. (nil, false, nil) means the offer was declined somewhere along the
// chain — no index path, residual predicate, unbound slot, MVCC gate
// failure, or the access method itself said no — and the caller drains
// tuples instead. The gate is checked before and after the index traversal
// (aggGate / aggGateHolds): concurrent commits or transaction starts in the
// window invalidate the answer, because the index holds one entry per row
// with no version stamps.
func (s *Session) tryAggPushdown(a *aggAcc, tb *catalog.Table, table *heap.Table, path accessPath, snap *heap.Snapshot) ([]types.Datum, bool, error) {
	refuse := func(clause obs.ID) ([]types.Datum, bool, error) {
		s.e.obs.Inc(obs.AggFallback)
		s.e.obs.Inc(clause)
		return nil, false, nil
	}
	oi := path.index
	if oi == nil || !path.full {
		return refuse(fallbackPath)
	}
	if oi.ps.Aggregate == nil || oi.ps.Delete == nil {
		// An AM without am_delete cannot take part in deferred index
		// maintenance: the vacuum leaves its dead entries dangling, so no
		// entry-count answer from it can ever be trusted.
		return refuse(fallbackSlot)
	}
	if a.col >= 0 {
		// COUNT(col)/MIN(col)/MAX(col): the index answers only for its own
		// key column — entry count equals non-NULL count there, and the
		// boundary leaves bound exactly that column's values.
		ci, err := tb.ColumnIndex(oi.desc.Columns[0])
		if err != nil || ci != a.col {
			return refuse(fallbackColumn)
		}
	}
	fence, refused := s.e.aggGate(s, table, snap)
	if refused != gateHolds {
		return refuse(refused)
	}
	s.amCall(obs.AmAggregate, oi.desc.Name)
	res, ok, err := oi.ps.Aggregate(s.ctx, oi.desc, &am.AggRequest{Kind: a.kind, Qual: path.qual})
	s.ctx.EndFunction()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return refuse(fallbackDeclined)
	}
	if refused := s.e.aggGateHolds(s, snap, fence); refused != gateHolds {
		return refuse(refused)
	}
	s.e.obs.Inc(obs.AggPushed)
	if a.kind == am.AggCount {
		return []types.Datum{res.Count}, true, nil
	}
	if res.Empty {
		return []types.Datum{nil}, true, nil
	}
	return []types.Datum{res.Value}, true, nil
}

package grtblade

import (
	"fmt"
	"strings"

	"repro/internal/am"
	"repro/internal/chronon"
	"repro/internal/engine"
	"repro/internal/grtree"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/nodestore"
	"repro/internal/sbspace"
	"repro/internal/temporal"
	"repro/internal/types"
)

// Library returns the blade's shared-library symbol table. The engine loads
// it under LibraryPath; the registration SQL binds the symbols to SQL names.
func Library(e *engine.Engine) am.Library {
	return am.Library{
		"grt_create":       am.AmIndexFunc(grtCreate),
		"grt_drop":         am.AmIndexFunc(grtDrop),
		"grt_open":         am.AmIndexFunc(grtOpen),
		"grt_close":        am.AmIndexFunc(grtClose),
		"grt_beginscan":    am.AmScanFunc(grtBeginScan),
		"grt_endscan":      am.AmScanFunc(grtEndScan),
		"grt_rescan":       am.AmScanFunc(grtRescan),
		"grt_getnext":      am.AmGetNextFunc(grtGetNext),
		"grt_getmulti":     am.AmGetMultiFunc(grtGetMulti),
		"grt_build":        am.AmBuildFunc(grtBuild),
		"grt_insert":       am.AmMutateFunc(grtInsert),
		"grt_delete":       am.AmMutateFunc(grtDelete),
		"grt_update":       am.AmUpdateFunc(grtUpdate),
		"grt_scancost":     am.AmScanCostFunc(grtScanCost),
		"grt_stats":        am.AmStatsFunc(grtStats),
		"grt_check":        am.AmCheckFunc(grtCheck),
		"grt_parallelscan": am.AmParallelScanFunc(grtParallelScan),
		"grt_aggregate":    am.AmAggregateFunc(grtAggregate),

		"Overlaps":    strategyUDR(e, grtree.OpOverlaps),
		"Equal":       strategyUDR(e, grtree.OpEqual),
		"Contains":    strategyUDR(e, grtree.OpContains),
		"ContainedIn": strategyUDR(e, grtree.OpContainedIn),

		"GRT_Union": unionUDR(e),
		"GRT_Size":  sizeUDR(e),
		"GRT_Inter": interUDR(e),
	}
}

// dupKey builds the duplicate-index detection key of grt_create step 4.
func dupKey(id *am.IndexDesc) string {
	parts := []string{"dup", strings.ToLower(id.TableName), strings.ToLower(strings.Join(id.Columns, ","))}
	for k, v := range id.Params {
		parts = append(parts, strings.ToLower(k)+"="+strings.ToLower(v))
	}
	return strings.Join(parts, "|")
}

// grtCreate implements am_create (Table 5, grt_create).
func grtCreate(ctx *mi.Context, id *am.IndexDesc) error {
	// Steps 2–3: column types and operator class must suit grtree_am.
	if err := validateColumns(id); err != nil {
		return err
	}
	cfg, err := parseConfig(id.Params)
	if err != nil {
		return err
	}
	// Step 4: reject a duplicate index on the same columns with the same
	// user-defined parameters.
	if _, dup, err := id.Services.AMRecordGet(AmName, dupKey(id)); err != nil {
		return err
	} else if dup {
		return fmt.Errorf("grtblade: an index using %s on %s(%s) with these parameters already exists",
			AmName, id.TableName, strings.Join(id.Columns, ","))
	}
	// Step 5: create the BLOB the index is stored in.
	if id.SpaceName == "" {
		return fmt.Errorf("grtblade: grtree_am stores indexes in sbspaces; use CREATE INDEX ... IN <sbspace>")
	}
	space, err := id.Services.Space(id.SpaceName)
	if err != nil {
		return err
	}
	store, handle, err := nodestore.CreateLO(space, id.Services.TxID(), id.Services.Isolation(), cfg.placement)
	if err != nil {
		return err
	}
	// Step 1/7: create the Tree object over the open BLOB and keep it in td.
	tree, err := grtree.Create(store, cfg.treeCfg)
	if err != nil {
		return err
	}
	// Step 6: record the index id and BLOB handle in the table associated
	// with the access method.
	if err := id.Services.AMRecordPut(AmName, id.Name, encodeAMRecord(handle)); err != nil {
		return err
	}
	// The dup record carries the owning index's name so catalog recovery can
	// purge it when a crash leaves a half-built index behind.
	if err := id.Services.AMRecordPut(AmName, dupKey(id), []byte(strings.ToLower(id.Name))); err != nil {
		return err
	}
	ct := currentTime(ctx, id.Services, cfg.perStmtCT)
	id.UserData = &openState{store: store, tree: tree, cfg: cfg, ct: ct, rightAfter: true}
	ctx.Tracer().Tracef("grt", 1, "grt_create %s in %s (%v)", id.Name, id.SpaceName, handle)
	return nil
}

// grtDrop implements am_drop (Table 5, grt_drop).
func grtDrop(ctx *mi.Context, id *am.IndexDesc) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	// Step 2: drop the BLOB(s).
	if err := st.store.Drop(); err != nil {
		return err
	}
	// Step 3: delete the Tree object.
	id.UserData = nil
	// Step 4: delete the record from the access method's table.
	if err := id.Services.AMRecordDelete(AmName, id.Name); err != nil {
		return err
	}
	if err := id.Services.AMRecordDelete(AmName, dupKey(id)); err != nil {
		return err
	}
	ctx.Tracer().Tracef("grt", 1, "grt_drop %s", id.Name)
	return nil
}

// grtOpen implements am_open (Table 5, grt_open).
func grtOpen(ctx *mi.Context, id *am.IndexDesc) error {
	// Step 1: if invoked right after grt_create, the tree is already open.
	if st, ok := id.UserData.(*openState); ok && st != nil && st.rightAfter {
		st.rightAfter = false
		return nil
	}
	cfg, err := parseConfig(id.Params)
	if err != nil {
		return err
	}
	// Step 3: get the BLOB handle from the access method's table.
	rec, ok, err := id.Services.AMRecordGet(AmName, id.Name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("grtblade: index %s has no access-method record", id.Name)
	}
	handle, err := decodeAMRecord(rec)
	if err != nil {
		return err
	}
	space, err := id.Services.Space(id.SpaceName)
	if err != nil {
		return err
	}
	// Step 4: open the BLOB (shared lock for read-only statements,
	// exclusive otherwise; Section 5.3's automatic LO-level locking).
	mode := sbspace.ReadWrite
	if id.ReadOnly {
		mode = sbspace.ReadOnly
	}
	store, err := nodestore.OpenLO(space, id.Services.TxID(), id.Services.Isolation(), handle, mode)
	if err != nil {
		return err
	}
	// Step 2: create the Tree object and save its pointer in td.
	tree, err := grtree.Open(store, cfg.treeCfg)
	if err != nil {
		store.Close()
		return err
	}
	ct := currentTime(ctx, id.Services, cfg.perStmtCT)
	id.UserData = &openState{store: store, tree: tree, cfg: cfg, ct: ct}
	return nil
}

// grtClose implements am_close (Table 5, grt_close).
func grtClose(ctx *mi.Context, id *am.IndexDesc) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	st.cursor = nil
	if err := st.store.Close(); err != nil {
		return err
	}
	id.UserData = nil
	return nil
}

// compileQual hard-codes the strategy-function resolution (Section 5.2's
// chosen alternative): qualification leaves are mapped directly to tree
// operators instead of dynamically invoking registered UDRs. Argument order
// matters for the asymmetric predicates: Contains(const, column) is the
// commutator ContainedIn(column, const).
func compileQual(q *am.Qual) (*grtree.Compound, error) {
	if q == nil {
		return nil, fmt.Errorf("grtblade: scan without qualification (full scans go through the table)")
	}
	switch q.Op {
	case am.QAnd, am.QOr:
		kids := make([]*grtree.Compound, len(q.Children))
		for i, c := range q.Children {
			k, err := compileQual(c)
			if err != nil {
				return nil, err
			}
			kids[i] = k
		}
		if q.Op == am.QAnd {
			return grtree.AndOf(kids...), nil
		}
		return grtree.OrOf(kids...), nil
	case am.QFunc:
		var op grtree.Op
		switch strings.ToLower(q.Func) {
		case "overlaps":
			op = grtree.OpOverlaps
		case "equal":
			op = grtree.OpEqual
		case "contains":
			op = grtree.OpContains
			if !q.ColFirst {
				op = grtree.OpContainedIn
			}
		case "containedin":
			op = grtree.OpContainedIn
			if !q.ColFirst {
				op = grtree.OpContains
			}
		default:
			return nil, fmt.Errorf("grtblade: %q is not a grt_opclass strategy function", q.Func)
		}
		ext, err := extentArg(q.Const)
		if err != nil {
			return nil, err
		}
		return grtree.Leaf(grtree.Predicate{Op: op, Query: ext}), nil
	}
	return nil, fmt.Errorf("grtblade: bad qualification node")
}

// grtBeginScan implements am_beginscan (Table 5, grt_beginscan): it creates
// the Cursor object storing the query predicate and tree-traversal
// information.
func grtBeginScan(ctx *mi.Context, sd *am.ScanDesc) error {
	st, err := state(sd.Index)
	if err != nil {
		return err
	}
	compound, err := compileQual(sd.Qual)
	if err != nil {
		return err
	}
	if err := compound.Validate(); err != nil {
		return err
	}
	var matcher grtree.Matcher = compound
	if st.cfg.dynamic {
		// Section 5.2's extensible alternative: leaf strategy functions are
		// dynamically resolved and invoked as registered UDRs; only the
		// internal-region functions stay hard-coded. Experiment P5 measures
		// the overhead against the default.
		matcher = &dynamicMatcher{
			compound: compound, qual: sd.Qual, ctx: ctx,
			svc: sd.Index.Services, typeID: sd.Index.ColTypes[0].OpaqueID,
		}
	}
	cur := st.tree.SearchMatcher(matcher, st.ct)
	st.cursor = cur
	st.matcher = matcher
	sd.UserData = cur
	// Negotiate the am_getmulti batch capacity: the server proposes one
	// before am_beginscan; the blade caps it at its own maximum (a larger
	// buffer than this cannot help a tree whose leaves hold maxentries).
	if maxBatch := 16 * st.cfg.treeCfg.MaxEntries; sd.BatchCap > maxBatch {
		sd.BatchCap = maxBatch
	}
	ctx.Tracer().Tracef("grt", 2, "grt_beginscan %s: qual %s, batch %d", sd.Index.Name, sd.Qual, sd.BatchCap)
	return nil
}

// dynamicMatcher evaluates leaf qualifications by invoking the registered
// strategy UDRs (Overlaps, Equal, ...) per candidate entry.
type dynamicMatcher struct {
	compound *grtree.Compound
	qual     *am.Qual
	ctx      *mi.Context
	svc      am.Services
	typeID   uint32
}

// InternalMatch implements grtree.Matcher (hard-coded internal functions).
func (m *dynamicMatcher) InternalMatch(bound temporal.Region, ct chronon.Instant) bool {
	return m.compound.InternalMatch(bound, ct)
}

// LeafMatch implements grtree.Matcher through dynamic UDR invocation.
func (m *dynamicMatcher) LeafMatch(r temporal.Region, ct chronon.Instant) bool {
	ext := temporal.Extent{TTBegin: r.TTBegin, TTEnd: r.TTEnd, VTBegin: r.VTBegin, VTEnd: r.VTEnd}
	colVal := types.Opaque{TypeID: m.typeID, Data: EncodeExtent(ext)}
	ok, err := m.qual.Evaluate(func(l *am.Qual) (bool, error) {
		args := []types.Datum{colVal, l.Const}
		if !l.ColFirst {
			args = []types.Datum{l.Const, colVal}
		}
		out, err := m.svc.InvokeUDR(l.Func, args)
		if err != nil {
			return false, err
		}
		b, okb := out.(bool)
		if !okb {
			return false, fmt.Errorf("grtblade: strategy %s returned %T", l.Func, out)
		}
		return b, nil
	})
	if err != nil {
		m.ctx.Tracer().Tracef("grt", 1, "dynamic strategy dispatch failed: %v", err)
		return false
	}
	return ok
}

// grtParallelScan implements am_parallelscan: offered a degree, it asks the
// tree for a root fan-out partitioning and, when the tree accepts, returns
// one partition ScanDesc per worker, each carrying its own PartCursor. The
// parent descriptor's UserData is replaced by the ParallelScan itself so
// grt_rescan can re-seed the shared work queue and grt_endscan tears the
// whole partitioning down.
func grtParallelScan(ctx *mi.Context, sd *am.ScanDesc, degree int) ([]*am.ScanDesc, error) {
	st, err := state(sd.Index)
	if err != nil {
		return nil, err
	}
	if st.matcher == nil {
		return nil, fmt.Errorf("grtblade: parallelscan without beginscan")
	}
	ps, err := st.tree.ParallelScan(st.matcher, st.ct, degree)
	if err != nil || ps == nil {
		return nil, err
	}
	workers := ps.Parts()
	if workers > degree {
		workers = degree
	}
	sd.UserData = ps
	out := make([]*am.ScanDesc, workers)
	for i := range out {
		out[i] = &am.ScanDesc{
			Index: sd.Index, Qual: sd.Qual,
			BatchCap: sd.BatchCap, Obs: sd.Obs,
			UserData: ps.Cursor(),
		}
	}
	ctx.Tracer().Tracef("grt", 2, "grt_parallelscan %s: %d workers over %d subtrees", sd.Index.Name, workers, ps.Parts())
	return out, nil
}

// grtRescan implements am_rescan: reset the cursor, and discard any
// batched-but-undelivered entries — after a restart (Section 5.5's
// restart-on-condense) buffered rowids may no longer qualify, and the reset
// cursor will produce the qualifying ones again. Under a parallel scan the
// descriptor holds the partitioning, and rescan re-seeds its work queue.
func grtRescan(ctx *mi.Context, sd *am.ScanDesc) error {
	if sd.Batch != nil {
		sd.Batch.Reset()
	}
	switch cur := sd.UserData.(type) {
	case *grtree.Cursor:
		cur.Reset()
		return nil
	case *grtree.ParallelScan:
		return cur.Reset()
	}
	return fmt.Errorf("grtblade: rescan without a cursor")
}

// grtGetNext implements am_getnext (Table 5, grt_getnext): fetch the next
// qualifying entry, form the rowid and the indexed-column values.
func grtGetNext(ctx *mi.Context, sd *am.ScanDesc) (heap.RowID, []types.Datum, bool, error) {
	cur, ok := sd.UserData.(*grtree.Cursor)
	if !ok {
		return 0, nil, false, fmt.Errorf("grtblade: getnext without beginscan")
	}
	entry, ok2, err := cur.Next()
	if err != nil || !ok2 {
		return 0, nil, false, err
	}
	ext := temporal.Extent{
		TTBegin: entry.Bound.TTBegin, TTEnd: entry.Bound.TTEnd,
		VTBegin: entry.Bound.VTBegin, VTEnd: entry.Bound.VTEnd,
	}
	row := []types.Datum{types.Opaque{
		TypeID: sd.Index.ColTypes[0].OpaqueID,
		Data:   EncodeExtent(ext),
	}}
	return heap.RowID(entry.Payload()), row, true, nil
}

// grtGetMulti implements am_getmulti, the batched companion of
// grt_getnext: one purpose-function dispatch drains the cursor's next
// qualifying entries — each visited leaf node's matches in a single pass —
// into the server's batch buffer. Returning fewer entries than the batch
// holds signals exhaustion.
func grtGetMulti(ctx *mi.Context, sd *am.ScanDesc) (int, error) {
	// The descriptor holds either the serial cursor or, on a parallel
	// partition descriptor, a PartCursor — both drain through NextBatch.
	cur, ok := sd.UserData.(interface {
		NextBatch([]grtree.Entry) (int, error)
	})
	if !ok {
		return 0, fmt.Errorf("grtblade: getmulti without beginscan")
	}
	b := sd.Batch
	b.Reset()
	entries := make([]grtree.Entry, b.Cap())
	n, err := cur.NextBatch(entries)
	if err != nil {
		return 0, err
	}
	typeID := sd.Index.ColTypes[0].OpaqueID
	for i := 0; i < n; i++ {
		e := entries[i]
		ext := temporal.Extent{
			TTBegin: e.Bound.TTBegin, TTEnd: e.Bound.TTEnd,
			VTBegin: e.Bound.VTBegin, VTEnd: e.Bound.VTEnd,
		}
		b.Append(heap.RowID(e.Payload()), []types.Datum{types.Opaque{
			TypeID: typeID,
			Data:   EncodeExtent(ext),
		}})
	}
	return b.N, nil
}

// grtEndScan implements am_endscan: delete the cursor (and, under a
// parallel scan, the whole partitioning with it).
func grtEndScan(ctx *mi.Context, sd *am.ScanDesc) error {
	if st, err := state(sd.Index); err == nil {
		st.cursor = nil
		st.matcher = nil
	}
	sd.UserData = nil
	return nil
}

// grtBuild implements am_build, the optional bulk-load purpose slot: the
// server feeds snapshot batches through next; the blade collects them and
// packs the tree bottom-up with the sort-tile-recursive BulkLoad instead of
// one grt_insert per row.
func grtBuild(ctx *mi.Context, id *am.IndexDesc, next am.AmBuildNext) (int, error) {
	st, err := state(id)
	if err != nil {
		return 0, err
	}
	var items []grtree.BulkItem
	for {
		b, err := next()
		if err != nil {
			return 0, err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			ext, err := extentArg(b.Rows[i][0])
			if err != nil {
				return 0, err
			}
			if !ext.ValidAt(st.ct) {
				return 0, fmt.Errorf("grtblade: extent %v violates the transaction-time constraints at current time %v", ext, st.ct)
			}
			items = append(items, grtree.BulkItem{Extent: ext, Payload: grtree.Payload(b.RowIDs[i])})
		}
	}
	if err := st.tree.BulkLoad(items, st.ct); err != nil {
		return 0, err
	}
	ctx.Tracer().Tracef("grt", 1, "grt_build %s: bulk-loaded %d entries", id.Name, len(items))
	return len(items), nil
}

// grtInsert implements am_insert (Table 5, grt_insert).
func grtInsert(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	ext, err := extentArg(row[0])
	if err != nil {
		return err
	}
	if !ext.ValidAt(st.ct) {
		return fmt.Errorf("grtblade: extent %v violates the transaction-time constraints at current time %v", ext, st.ct)
	}
	return st.tree.Insert(ext, grtree.Payload(rid), st.ct)
}

// grtDelete implements am_delete (Table 5, grt_delete): the entry is located
// and removed; when the tree condenses, the live Cursor restarts (step 5 —
// the Section 5.5 compromise is inside the tree's delete policy).
func grtDelete(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	ext, err := extentArg(row[0])
	if err != nil {
		return err
	}
	removed, condensed, err := st.tree.Delete(ext, grtree.Payload(rid), st.ct)
	if err != nil {
		return err
	}
	if !removed {
		return fmt.Errorf("grtblade: index %s has no entry for %v at %v: %w", id.Name, ext, rid, am.ErrNoEntry)
	}
	if condensed {
		ctx.Tracer().Tracef("grt", 2, "grt_delete condensed the tree; cursor will restart")
	}
	return nil
}

// grtUpdate implements am_update (Table 5, grt_update): delete the old
// entry, insert the new one.
func grtUpdate(ctx *mi.Context, id *am.IndexDesc, oldRow []types.Datum, oldRid heap.RowID, newRow []types.Datum, newRid heap.RowID) error {
	if err := grtDelete(ctx, id, oldRow, oldRid); err != nil {
		return err
	}
	return grtInsert(ctx, id, newRow, newRid)
}

// grtScanCost implements am_scancost: a height-plus-leaf-fraction estimate
// the optimizer compares with the heap page count. With collected statistics
// on the descriptor (UPDATE STATISTICS ran for the table) the leaf fraction
// is scaled by a histogram selectivity estimate for the qualification's
// valid-time window instead of the magic 0.2 constant.
func grtScanCost(ctx *mi.Context, id *am.IndexDesc, q *am.Qual) (float64, error) {
	st, err := state(id)
	if err != nil {
		return 0, err
	}
	leafNodes := float64(st.tree.Size())/float64(st.tree.Config().MaxEntries) + 1
	if id.Stats != nil && id.Stats.Lo.Rows > 0 {
		sel := qualSelectivity(id.Stats, q, st.ct)
		cost := 1 + float64(st.tree.Height()) + sel*leafNodes
		ctx.Tracer().Tracef("grt", 2, "grt_scancost %s: %.2f (stats, sel %.3f over ~%.0f leaves)",
			id.Name, cost, sel, leafNodes)
		return cost, nil
	}
	cost := float64(st.tree.Height()) + 0.2*leafNodes
	ctx.Tracer().Tracef("grt", 2, "grt_scancost %s: %.2f (height %d, ~%.0f leaves)",
		id.Name, cost, st.tree.Height(), leafNodes)
	return cost, nil
}

// qualSelectivity estimates the fraction of index entries a qualification
// touches from the collected valid-time histograms. Leaves are estimated
// with the interval-overlap formula over the query's resolved valid-time
// window; AND takes the most selective conjunct, OR saturating-adds.
func qualSelectivity(stats *am.IndexStats, q *am.Qual, ct chronon.Instant) float64 {
	if q == nil {
		return 1
	}
	switch q.Op {
	case am.QAnd:
		sel := 1.0
		for _, c := range q.Children {
			if s := qualSelectivity(stats, c, ct); s < sel {
				sel = s
			}
		}
		return sel
	case am.QOr:
		sel := 0.0
		for _, c := range q.Children {
			sel += qualSelectivity(stats, c, ct)
		}
		if sel > 1 {
			sel = 1
		}
		return sel
	case am.QFunc:
		ext, err := extentArg(q.Const)
		if err != nil {
			return 1
		}
		sh := ext.Region().Resolve(ct)
		if sh.Empty() {
			return 0
		}
		return stats.SelectivityOverlap(float64(sh.VTBegin), float64(sh.VTEnd))
	}
	return 1
}

// histogramBuckets is the equi-depth bucket count am_stats collects.
const histogramBuckets = 32

// grtStats implements am_stats: the original human-readable summary plus the
// entry count and per-axis valid-time histograms UPDATE STATISTICS persists
// into SYSSTATS. Each leaf entry's region is resolved at the blade's current
// time, so now-relative extents contribute their geometry as of collection —
// statistics are a snapshot, aged by the catalog generation stamp.
func grtStats(ctx *mi.Context, id *am.IndexDesc) (*am.IndexStats, error) {
	st, err := state(id)
	if err != nil {
		return nil, err
	}
	ts, err := st.tree.Stats(st.ct, 0, 0)
	if err != nil {
		return nil, err
	}
	var overlap float64
	for _, l := range ts.PerLevel {
		overlap += l.Overlap
	}
	summary := fmt.Sprintf("index %s: %d entries, height %d, %d nodes, sibling overlap %.0f",
		id.Name, ts.LeafEntries, ts.Height, ts.Nodes, overlap)

	lo := make([]float64, 0, ts.LeafEntries)
	hi := make([]float64, 0, ts.LeafEntries)
	err = st.tree.WalkLeaves(func(e grtree.Entry) error {
		sh := e.Bound.Resolve(st.ct)
		lo = append(lo, float64(sh.VTBegin))
		hi = append(hi, float64(sh.VTEnd))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &am.IndexStats{
		Summary: summary,
		Entries: ts.LeafEntries,
		Lo:      am.BuildHistogram(lo, histogramBuckets),
		Hi:      am.BuildHistogram(hi, histogramBuckets),
	}, nil
}

// grtAggregate implements am_aggregate: COUNT is answered by the tree's
// covered-subtree traversal without producing a single rowid, MIN/MAX by the
// boundary leaf under the raw lexicographic extent key. Only single-predicate
// qualifications are claimed — compound quals decline, and the server drains
// tuples instead. MVCC visibility is the server's problem (it only trusts
// the answer when its gate proves every indexed entry visible).
func grtAggregate(ctx *mi.Context, id *am.IndexDesc, req *am.AggRequest) (*am.AggResult, bool, error) {
	st, err := state(id)
	if err != nil {
		return nil, false, err
	}
	if st.cfg.dynamic {
		// Dynamic-dispatch indexes evaluate leaves through UDRs; the
		// aggregate traversal hard-codes predicate evaluation, so decline
		// rather than disagree with the configured semantics.
		return nil, false, nil
	}
	if req.Qual == nil || req.Qual.Op != am.QFunc {
		return nil, false, nil
	}
	compound, err := compileQual(req.Qual)
	if err != nil || compound.Pred == nil {
		return nil, false, nil // not our strategy function: decline, don't fail
	}
	pred := *compound.Pred
	switch req.Kind {
	case am.AggCount:
		n, ok, err := st.tree.AggCount(pred, st.ct)
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.Tracer().Tracef("grt", 2, "grt_aggregate %s: count=%d", id.Name, n)
		return &am.AggResult{Count: n}, true, nil
	case am.AggMin, am.AggMax:
		r, found, ok, err := st.tree.AggExtreme(pred, st.ct, req.Kind == am.AggMax)
		if err != nil || !ok {
			return nil, false, err
		}
		if !found {
			return &am.AggResult{Empty: true}, true, nil
		}
		ext := temporal.Extent{TTBegin: r.TTBegin, TTEnd: r.TTEnd, VTBegin: r.VTBegin, VTEnd: r.VTEnd}
		val := types.Opaque{TypeID: id.ColTypes[0].OpaqueID, Data: EncodeExtent(ext)}
		ctx.Tracer().Tracef("grt", 2, "grt_aggregate %s: %s=%v", id.Name, req.Kind, ext)
		return &am.AggResult{Value: val}, true, nil
	}
	return nil, false, nil
}

// grtCheck implements am_check.
func grtCheck(ctx *mi.Context, id *am.IndexDesc) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	return st.tree.Check(st.ct)
}

// udrCurrentTime resolves UC/NOW for SQL-level strategy functions: inside a
// transaction that already fixed its current time (Section 5.4) that value
// is used; otherwise the clock is read.
func udrCurrentTime(ctx *mi.Context, e *engine.Engine) chronon.Instant {
	if v, ok := ctx.Named("grt_current_time"); ok {
		return v.(chronon.Instant)
	}
	return e.Clock().Now()
}

// strategyUDR builds the SQL-callable strategy functions (Overlaps, Equal,
// Contains, ContainedIn) used when a statement is processed without the
// index.
func strategyUDR(e *engine.Engine, op grtree.Op) am.UDRFunc {
	return func(ctx *mi.Context, args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("grtblade: strategy function needs 2 arguments")
		}
		a, err := extentArg(args[0])
		if err != nil {
			return nil, err
		}
		b, err := extentArg(args[1])
		if err != nil {
			return nil, err
		}
		ct := udrCurrentTime(ctx, e)
		pred := grtree.Predicate{Op: op, Query: b}
		return pred.Match(a, ct), nil
	}
}

// unionUDR is the support function GRT_Union: the minimum bounding region
// of two extents, rendered as an extent (the Rectangle flag of a
// growing-both bound is not expressible in the four timestamps; such a
// bound reads back as its stair-shaped under-approximation, which is why
// the index hard-codes its internal-region functions, Section 5.2).
func unionUDR(e *engine.Engine) am.UDRFunc {
	return func(ctx *mi.Context, args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("grtblade: GRT_Union needs 2 arguments")
		}
		a, err := extentArg(args[0])
		if err != nil {
			return nil, err
		}
		b, err := extentArg(args[1])
		if err != nil {
			return nil, err
		}
		ct := udrCurrentTime(ctx, e)
		u := a.Region().Union(b.Region(), ct, temporal.DefaultBoundPolicy)
		out := temporal.Extent{TTBegin: u.TTBegin, TTEnd: u.TTEnd, VTBegin: u.VTBegin, VTEnd: u.VTEnd}
		ot, _ := e.Types().Lookup(TypeName)
		return types.Opaque{TypeID: ot.ID, Data: EncodeExtent(out)}, nil
	}
}

// sizeUDR is the support function GRT_Size: the extent's area now.
func sizeUDR(e *engine.Engine) am.UDRFunc {
	return func(ctx *mi.Context, args []types.Datum) (types.Datum, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("grtblade: GRT_Size needs 1 argument")
		}
		a, err := extentArg(args[0])
		if err != nil {
			return nil, err
		}
		return a.Region().Area(udrCurrentTime(ctx, e)), nil
	}
}

// interUDR is the support function GRT_Inter: intersection area now.
func interUDR(e *engine.Engine) am.UDRFunc {
	return func(ctx *mi.Context, args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("grtblade: GRT_Inter needs 2 arguments")
		}
		a, err := extentArg(args[0])
		if err != nil {
			return nil, err
		}
		b, err := extentArg(args[1])
		if err != nil {
			return nil, err
		}
		return a.Region().IntersectionArea(b.Region(), udrCurrentTime(ctx, e)), nil
	}
}

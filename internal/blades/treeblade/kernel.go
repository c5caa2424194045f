package treeblade

import (
	"fmt"
	"strconv"

	"repro/internal/am"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/rtree"
	"repro/internal/types"
)

// Binding is what a key means to one open index on an internal/rtree tree:
// the blade's per-open state implements it, so every hook sees the statement's
// current time and the index's parameters.
type Binding[B comparable, S rtree.Shape[S]] interface {
	Opened
	// Tree is the open index's kernel tree.
	Tree() *rtree.Tree[B]
	// Keys is the tree's key class as of the statement's current time; it
	// also serves am_stats (rtree.Levels) and am_check (Tree.Check).
	Keys() rtree.Keys[B, S]
	// Key maps an indexed-column value to the bound its entry carries. store
	// is set when the value is about to be indexed, and the blade's validity
	// rule then applies; it is clear for query constants.
	Key(id *am.IndexDesc, d types.Datum, store bool) (B, error)
	// Delete locates and removes the entry of row value d at rid; removed is
	// false when the index holds none.
	Delete(id *am.IndexDesc, d types.Datum, rid heap.RowID) (removed, condensed bool, err error)
	// Matcher compiles a scan qualification. exact reports that the
	// matcher's leaf test is the strategy functions' own answer on the row,
	// so am_beginscan may tell the server to skip its re-check (ScanDesc.Exact).
	Matcher(ctx *mi.Context, id *am.IndexDesc, q *am.Qual) (m rtree.Matcher[B], exact bool, err error)
	// Aggregable returns a matcher for the single-predicate q whose leaf test
	// on a stored bound is the strategy function's answer, so am_aggregate
	// may answer from the tree, or declines. Unlike Matcher's exact, it does
	// not depend on the clock a re-checking UDR would read.
	Aggregable(q *am.Qual) (m rtree.Matcher[B], ok bool)
	// Window is the valid-time interval a bound covers now — what selectivity
	// estimation and the am_stats histograms are over. ok is false when the
	// bound covers nothing now.
	Window(b B) (lo, hi float64, ok bool)
}

// Kernel is the scan and maintenance purpose-function set of an access method
// whose tree runs on internal/rtree.
type Kernel[B comparable, S rtree.Shape[S], T Binding[B, S]] struct {
	Method[T]
	// Value renders a stored bound as a value of the indexed column, and Less
	// is the order of those values: the answer of an am_aggregate MIN or MAX.
	// Span, optional, bounds Less's first key under a bound, so that MIN and
	// MAX read only the subtrees that can hold the answer (rtree.Span). A
	// blade whose Aggregable always declines sets none of them.
	Value func(id *am.IndexDesc, b B) types.Datum
	Less  func(a, b B) bool
	Span  rtree.Span[B]
}

// MaxEntries parses the maxentries index parameter: the node fanout cap of a
// kernel tree (tests and experiments use small values to force deep trees).
func MaxEntries(blade, value string) (int, error) {
	n, err := strconv.Atoi(value)
	if err != nil || n < 4 {
		return 0, fmt.Errorf("%s: bad maxentries %q", blade, value)
	}
	return n, nil
}

// histogramBuckets is the equi-depth bucket count am_stats collects.
const histogramBuckets = 32

// BeginScan implements am_beginscan (Table 5, grt_beginscan): it creates the
// Cursor object storing the query predicate and tree-traversal information.
// The cursor is the whole scan state, and sd.UserData its only home.
func (k *Kernel[B, S, T]) BeginScan(ctx *mi.Context, sd *am.ScanDesc) error {
	st, err := k.State(sd.Index)
	if err != nil {
		return err
	}
	if sd.Qual == nil {
		return fmt.Errorf("%s: scan without qualification (full scans go through the table)", k.Blade)
	}
	m, exact, err := st.Matcher(ctx, sd.Index, sd.Qual)
	if err != nil {
		return err
	}
	sd.UserData = st.Tree().Search(m)
	sd.Exact = exact
	// Negotiate the am_getmulti batch capacity: the server proposes one
	// before am_beginscan; the blade caps it at its own maximum (a larger
	// buffer than this cannot help a tree whose leaves hold maxentries).
	if maxBatch := 16 * st.Tree().Config().MaxEntries; sd.BatchCap > maxBatch {
		sd.BatchCap = maxBatch
	}
	ctx.Tracer().Tracef(k.Prefix, 2, "beginscan %s: qual %s, batch %d, exact %v", sd.Index.Name, sd.Qual, sd.BatchCap, sd.Exact)
	return nil
}

// ParallelScan implements am_parallelscan: offered a degree, it asks the tree
// for a root fan-out partitioning of the scan's qualification and, when the
// tree accepts, returns one partition ScanDesc per worker, each carrying its
// own cursor over the shared work queue. The parent descriptor's UserData is
// replaced by the ParallelScan itself so am_rescan can re-seed the queue and
// am_endscan tears the whole partitioning down.
func (k *Kernel[B, S, T]) ParallelScan(ctx *mi.Context, sd *am.ScanDesc, degree int) ([]*am.ScanDesc, error) {
	st, err := k.State(sd.Index)
	if err != nil {
		return nil, err
	}
	cur, ok := sd.UserData.(*rtree.Cursor[B])
	if !ok {
		return nil, fmt.Errorf("%s: parallelscan without beginscan", k.Blade)
	}
	ps, err := st.Tree().ParallelScan(cur.Matcher(), degree)
	if err != nil || ps == nil {
		return nil, err
	}
	workers := min(ps.Parts(), degree)
	sd.UserData = ps
	out := make([]*am.ScanDesc, workers)
	for i := range out {
		out[i] = &am.ScanDesc{
			Index: sd.Index, Qual: sd.Qual,
			BatchCap: sd.BatchCap, Obs: sd.Obs,
			UserData: ps.Cursor(),
		}
	}
	ctx.Tracer().Tracef(k.Prefix, 2, "parallelscan %s: %d workers over %d subtrees", sd.Index.Name, workers, ps.Parts())
	return out, nil
}

// Rescan implements am_rescan: reset the cursor, and discard any
// batched-but-undelivered entries — after a restart (Section 5.5's
// restart-on-condense) buffered rowids may no longer qualify, and the reset
// cursor will produce the qualifying ones again. Under a parallel scan the
// descriptor holds the partitioning, and rescan re-seeds its work queue.
func (k *Kernel[B, S, T]) Rescan(ctx *mi.Context, sd *am.ScanDesc) error {
	if sd.Batch != nil {
		sd.Batch.Reset()
	}
	switch cur := sd.UserData.(type) {
	case *rtree.Cursor[B]:
		cur.Reset()
		return nil
	case *rtree.ParallelScan[B]:
		return cur.Reset()
	}
	return fmt.Errorf("%s: rescan without a cursor", k.Blade)
}

// EndScan implements am_endscan: delete the cursor (and, under a parallel
// scan, the whole partitioning with it).
func (k *Kernel[B, S, T]) EndScan(ctx *mi.Context, sd *am.ScanDesc) error {
	sd.UserData = nil
	return nil
}

// GetNext implements am_getnext (Table 5, grt_getnext): fetch the next
// qualifying entry and form its rowid. The indexed-column value stays nil:
// the server reads the row from the heap, never from the index.
func (k *Kernel[B, S, T]) GetNext(ctx *mi.Context, sd *am.ScanDesc) (heap.RowID, []types.Datum, bool, error) {
	cur, ok := sd.UserData.(*rtree.Cursor[B])
	if !ok {
		return 0, nil, false, fmt.Errorf("%s: getnext without beginscan", k.Blade)
	}
	e, ok, err := cur.Next()
	if err != nil || !ok {
		return 0, nil, false, err
	}
	return heap.RowID(e.Payload()), nil, true, nil
}

// GetMulti implements am_getmulti, the batched companion of am_getnext: one
// purpose-function dispatch drains the cursor's next qualifying entries —
// each visited leaf node's matches in a single pass — into the server's batch
// buffer. Returning fewer entries than the batch holds signals exhaustion.
func (k *Kernel[B, S, T]) GetMulti(ctx *mi.Context, sd *am.ScanDesc) (int, error) {
	// The descriptor holds the serial cursor or, on a parallel partition
	// descriptor, a cursor over the partitioning's shared queue.
	cur, ok := sd.UserData.(*rtree.Cursor[B])
	if !ok {
		return 0, fmt.Errorf("%s: getmulti without beginscan", k.Blade)
	}
	b := sd.Batch
	b.Reset()
	entries, err := cur.Fill(b.Cap())
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		b.Append(heap.RowID(e.Payload()), nil)
	}
	return b.N, nil
}

// Build implements am_build, the optional bulk-load purpose slot: the server
// feeds snapshot batches through next; the blade collects them and packs the
// tree bottom-up with the sort-tile-recursive BulkLoad instead of one
// am_insert per row.
func (k *Kernel[B, S, T]) Build(ctx *mi.Context, id *am.IndexDesc, next am.AmBuildNext) (int, error) {
	st, err := k.State(id)
	if err != nil {
		return 0, err
	}
	var entries []rtree.Entry[B]
	for {
		b, err := next()
		if err != nil {
			return 0, err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			key, err := st.Key(id, b.Rows[i][0], true)
			if err != nil {
				return 0, err
			}
			entries = append(entries, rtree.Entry[B]{Bound: key, Ref: uint64(b.RowIDs[i])})
		}
	}
	if err := rtree.BulkLoad(st.Tree(), st.Keys(), entries); err != nil {
		return 0, err
	}
	ctx.Tracer().Tracef(k.Prefix, 1, "build %s: bulk-loaded %d entries", id.Name, len(entries))
	return len(entries), nil
}

// Insert implements am_insert (Table 5, grt_insert).
func (k *Kernel[B, S, T]) Insert(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
	st, err := k.State(id)
	if err != nil {
		return err
	}
	key, err := st.Key(id, row[0], true)
	if err != nil {
		return err
	}
	return rtree.Insert(st.Tree(), st.Keys(), rtree.Entry[B]{Bound: key, Ref: uint64(rid)})
}

// Delete implements am_delete (Table 5, grt_delete): the entry is located
// and removed; when the tree condenses, the live Cursor restarts (step 5 —
// the Section 5.5 compromise is inside the tree's delete policy).
func (k *Kernel[B, S, T]) Delete(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
	st, err := k.State(id)
	if err != nil {
		return err
	}
	removed, condensed, err := st.Delete(id, row[0], rid)
	if err != nil {
		return err
	}
	if !removed {
		return fmt.Errorf("%s: index %s has no entry for row %v: %w", k.Blade, id.Name, rid, am.ErrNoEntry)
	}
	if condensed {
		ctx.Tracer().Tracef(k.Prefix, 2, "delete condensed the tree; cursor will restart")
	}
	return nil
}

// Update implements am_update (Table 5, grt_update): delete the old entry,
// insert the new one.
func (k *Kernel[B, S, T]) Update(ctx *mi.Context, id *am.IndexDesc, oldRow []types.Datum, oldRid heap.RowID, newRow []types.Datum, newRid heap.RowID) error {
	if err := k.Delete(ctx, id, oldRow, oldRid); err != nil {
		return err
	}
	return k.Insert(ctx, id, newRow, newRid)
}

// ScanCost implements am_scancost: a height-plus-leaf-fraction estimate the
// optimizer compares with the heap page count. With collected statistics on
// the descriptor (UPDATE STATISTICS ran for the table) the leaf fraction is
// scaled by a histogram selectivity estimate for the qualification's
// valid-time window instead of the magic 0.2 constant.
func (k *Kernel[B, S, T]) ScanCost(ctx *mi.Context, id *am.IndexDesc, q *am.Qual) (float64, error) {
	st, err := k.State(id)
	if err != nil {
		return 0, err
	}
	t := st.Tree()
	leafNodes := float64(t.Size())/float64(t.Config().MaxEntries) + 1
	if id.Stats != nil && id.Stats.Lo.Rows > 0 {
		sel := k.selectivity(st, id, q)
		cost := 1 + float64(t.Height()) + sel*leafNodes
		ctx.Tracer().Tracef(k.Prefix, 2, "scancost %s: %.2f (stats, sel %.3f over ~%.0f leaves)",
			id.Name, cost, sel, leafNodes)
		return cost, nil
	}
	cost := float64(t.Height()) + 0.2*leafNodes
	ctx.Tracer().Tracef(k.Prefix, 2, "scancost %s: %.2f (height %d, ~%.0f leaves)",
		id.Name, cost, t.Height(), leafNodes)
	return cost, nil
}

// selectivity estimates the fraction of index entries a qualification touches
// from the collected valid-time histograms. Leaves are estimated with the
// interval-overlap formula over the query's valid-time window; AND takes the
// most selective conjunct, OR saturating-adds.
func (k *Kernel[B, S, T]) selectivity(st T, id *am.IndexDesc, q *am.Qual) float64 {
	if q == nil {
		return 1
	}
	switch q.Op {
	case am.QAnd:
		sel := 1.0
		for _, c := range q.Children {
			sel = min(sel, k.selectivity(st, id, c))
		}
		return sel
	case am.QOr:
		sel := 0.0
		for _, c := range q.Children {
			sel += k.selectivity(st, id, c)
		}
		return min(sel, 1)
	case am.QFunc:
		key, err := st.Key(id, q.Const, false)
		if err != nil {
			return 1
		}
		lo, hi, ok := st.Window(key)
		if !ok {
			return 0
		}
		return id.Stats.SelectivityOverlap(lo, hi)
	}
	return 1
}

// Stats implements am_stats: a human-readable summary plus the entry count
// and per-axis valid-time histograms UPDATE STATISTICS persists into
// SYSSTATS. Each leaf entry contributes its window as of collection —
// statistics are a snapshot, aged by the catalog generation stamp.
func (k *Kernel[B, S, T]) Stats(ctx *mi.Context, id *am.IndexDesc) (*am.IndexStats, error) {
	st, err := k.State(id)
	if err != nil {
		return nil, err
	}
	keys := st.Keys()
	levels, _, err := rtree.Levels(st.Tree(), keys.Bound, keys.Resolve)
	if err != nil {
		return nil, err
	}
	nodes, overlap := 0, 0.0
	for _, l := range levels {
		nodes += l.Nodes
		overlap += l.Overlap
	}
	entries := levels[0].Entries
	lo := make([]float64, 0, entries)
	hi := make([]float64, 0, entries)
	err = st.Tree().WalkLeaves(func(e rtree.Entry[B]) error {
		l, h, _ := st.Window(e.Bound)
		lo, hi = append(lo, l), append(hi, h)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &am.IndexStats{
		Summary: fmt.Sprintf("index %s: %d entries, height %d, %d nodes, sibling overlap %.0f",
			id.Name, entries, len(levels), nodes, overlap),
		Entries: entries,
		Lo:      am.BuildHistogram(lo, histogramBuckets),
		Hi:      am.BuildHistogram(hi, histogramBuckets),
	}, nil
}

// Aggregate implements am_aggregate: COUNT is answered by the tree's
// covered-subtree traversal without producing a single rowid, MIN/MAX by the
// boundary leaf under Less. Only single-predicate qualifications the binding
// finds Aggregable are claimed — the rest decline, and the server drains
// tuples instead. MVCC visibility is the server's problem (it only trusts
// the answer when its gate proves every indexed entry visible).
func (k *Kernel[B, S, T]) Aggregate(ctx *mi.Context, id *am.IndexDesc, req *am.AggRequest) (*am.AggResult, bool, error) {
	st, err := k.State(id)
	if err != nil {
		return nil, false, err
	}
	if req.Qual == nil || req.Qual.Op != am.QFunc {
		return nil, false, nil
	}
	m, ok := st.Aggregable(req.Qual)
	if !ok {
		return nil, false, nil
	}
	switch req.Kind {
	case am.AggCount:
		n, ok, err := st.Tree().AggCount(m)
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.Tracer().Tracef(k.Prefix, 2, "aggregate %s: count=%d", id.Name, n)
		return &am.AggResult{Count: n}, true, nil
	case am.AggMin, am.AggMax:
		b, found, ok, err := st.Tree().AggExtreme(m, k.Less, k.Span, req.Kind == am.AggMax)
		if err != nil || !ok {
			return nil, false, err
		}
		if !found {
			return &am.AggResult{Empty: true}, true, nil
		}
		ctx.Tracer().Tracef(k.Prefix, 2, "aggregate %s: %s=%v", id.Name, req.Kind, b)
		return &am.AggResult{Value: k.Value(id, b)}, true, nil
	}
	return nil, false, nil
}

// Check implements am_check under the key class's Covers.
func (k *Kernel[B, S, T]) Check(ctx *mi.Context, id *am.IndexDesc) error {
	st, err := k.State(id)
	if err != nil {
		return err
	}
	return st.Tree().Check(st.Keys().Covers)
}

// Library returns every purpose function of the access method under its
// symbol name; the blade adds its UDRs.
func (k *Kernel[B, S, T]) Library() am.Library {
	lib, p := k.Method.Library(), k.Prefix+"_"
	lib[p+"beginscan"] = am.AmScanFunc(k.BeginScan)
	lib[p+"endscan"] = am.AmScanFunc(k.EndScan)
	lib[p+"rescan"] = am.AmScanFunc(k.Rescan)
	lib[p+"getnext"] = am.AmGetNextFunc(k.GetNext)
	lib[p+"getmulti"] = am.AmGetMultiFunc(k.GetMulti)
	lib[p+"build"] = am.AmBuildFunc(k.Build)
	lib[p+"insert"] = am.AmMutateFunc(k.Insert)
	lib[p+"delete"] = am.AmMutateFunc(k.Delete)
	lib[p+"update"] = am.AmUpdateFunc(k.Update)
	lib[p+"scancost"] = am.AmScanCostFunc(k.ScanCost)
	lib[p+"stats"] = am.AmStatsFunc(k.Stats)
	lib[p+"check"] = am.AmCheckFunc(k.Check)
	lib[p+"parallelscan"] = am.AmParallelScanFunc(k.ParallelScan)
	lib[p+"aggregate"] = am.AmAggregateFunc(k.Aggregate)
	return lib
}

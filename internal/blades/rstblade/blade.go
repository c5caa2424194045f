// Package rstblade is the baseline access-method DataBlade: an R*-tree
// (the index the GR-tree is derived from, and Informix's built-in spatial
// access method) indexing bitemporal time extents through ground-value
// substitution for the variables UC and NOW:
//
//   - nowsub='max' (the "maximum-timestamp" approach): UC and NOW map to a
//     timestamp larger than any real one, so growing regions are bounded by
//     enormous rectangles — correct answers, but heavy overlap and dead
//     space (experiments P1/P2 measure the cost against the GR-tree);
//   - nowsub='asof': UC and NOW resolve to the insertion-time current time,
//     freezing the region — small rectangles, but queries issued later miss
//     grown tuples (the recall loss P1 quantifies), unless the index is
//     periodically rebuilt.
//
// Unlike the GR-tree blade, this blade resolves its strategy functions
// dynamically through the UDR registry (the extensible alternative of
// Section 5.2); it reuses the Overlaps/Equal/Contains/ContainedIn UDRs that
// grtblade registers, so grtblade must be registered first.
package rstblade

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/am"
	"repro/internal/blades/grtblade"
	"repro/internal/chronon"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/nodestore"
	"repro/internal/rstar"
	"repro/internal/sbspace"
	"repro/internal/temporal"
	"repro/internal/types"
)

// LibraryPath is the "shared object" path of this blade.
const LibraryPath = "usr/functions/rstree.bld"

// AmName is the registered access method.
const AmName = "rstree_am"

// DefaultMaxTimestamp is the "maximum timestamp" ground substitute for UC
// and NOW: 9999-12-31 at day granularity.
var DefaultMaxTimestamp = chronon.FromDate(9999, 12, 31)

// RegistrationSQL registers the blade's SQL objects. The strategy functions
// are the ones grtblade registered — adding support for an existing data
// type to a new access method reuses the same function names (Section 4).
const RegistrationSQL = `
CREATE FUNCTION rst_create(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_create)' LANGUAGE c;
CREATE FUNCTION rst_drop(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_drop)' LANGUAGE c;
CREATE FUNCTION rst_open(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_open)' LANGUAGE c;
CREATE FUNCTION rst_close(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_close)' LANGUAGE c;
CREATE FUNCTION rst_beginscan(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_beginscan)' LANGUAGE c;
CREATE FUNCTION rst_endscan(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_endscan)' LANGUAGE c;
CREATE FUNCTION rst_rescan(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_rescan)' LANGUAGE c;
CREATE FUNCTION rst_getnext(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_getnext)' LANGUAGE c;
CREATE FUNCTION rst_getmulti(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_getmulti)' LANGUAGE c;
CREATE FUNCTION rst_build(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_build)' LANGUAGE c;
CREATE FUNCTION rst_insert(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_insert)' LANGUAGE c;
CREATE FUNCTION rst_delete(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_delete)' LANGUAGE c;
CREATE FUNCTION rst_update(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_update)' LANGUAGE c;
CREATE FUNCTION rst_scancost(pointer) RETURNING float EXTERNAL NAME 'usr/functions/rstree.bld(rst_scancost)' LANGUAGE c;
CREATE FUNCTION rst_stats(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_stats)' LANGUAGE c;
CREATE FUNCTION rst_check(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_check)' LANGUAGE c;
CREATE FUNCTION rst_parallelscan(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_parallelscan)' LANGUAGE c;
CREATE FUNCTION rst_aggregate(pointer) RETURNING int EXTERNAL NAME 'usr/functions/rstree.bld(rst_aggregate)' LANGUAGE c;

CREATE SECONDARY ACCESS_METHOD rstree_am (
	am_create = rst_create,
	am_drop = rst_drop,
	am_open = rst_open,
	am_close = rst_close,
	am_beginscan = rst_beginscan,
	am_endscan = rst_endscan,
	am_rescan = rst_rescan,
	am_getnext = rst_getnext,
	am_getmulti = rst_getmulti,
	am_build = rst_build,
	am_insert = rst_insert,
	am_delete = rst_delete,
	am_update = rst_update,
	am_scancost = rst_scancost,
	am_stats = rst_stats,
	am_check = rst_check,
	am_parallelscan = rst_parallelscan,
	am_aggregate = rst_aggregate,
	am_sptype = 'S'
);

CREATE OPCLASS rst_opclass FOR rstree_am
	STRATEGIES(Overlaps, Equal, Contains, ContainedIn)
	SUPPORT(GRT_Union, GRT_Size, GRT_Inter);
`

// Register installs the blade. grtblade must already be registered (it owns
// the opaque type and the strategy UDRs).
func Register(e *engine.Engine) error {
	if _, ok := e.Types().Lookup(grtblade.TypeName); !ok {
		return fmt.Errorf("rstblade: register grtblade first (%s missing)", grtblade.TypeName)
	}
	e.LoadLibrary(LibraryPath, Library())
	if _, err := e.Catalog().AmByName(AmName); err == nil {
		return nil
	}
	s := e.NewSession()
	defer s.Close()
	if _, err := s.ExecScript(RegistrationSQL); err != nil {
		return fmt.Errorf("rstblade: registration: %w", err)
	}
	return nil
}

// NowSub is the UC/NOW substitution policy.
type NowSub int

const (
	// SubMax maps UC and NOW to the maximum timestamp.
	SubMax NowSub = iota
	// SubAsOf resolves UC and NOW at the insertion-time current time.
	SubAsOf
)

type config struct {
	placement nodestore.Placement
	treeCfg   rstar.Config
	sub       NowSub
	maxTS     chronon.Instant
}

func parseConfig(params map[string]string) (config, error) {
	cfg := config{placement: nodestore.SingleLO, treeCfg: rstar.DefaultConfig(), maxTS: DefaultMaxTimestamp}
	for k, v := range params {
		switch strings.ToLower(k) {
		case "nowsub":
			switch strings.ToLower(v) {
			case "max":
				cfg.sub = SubMax
			case "asof":
				cfg.sub = SubAsOf
			default:
				return cfg, fmt.Errorf("rstblade: bad nowsub %q", v)
			}
		case "maxts":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("rstblade: bad maxts %q", v)
			}
			cfg.maxTS = chronon.Instant(n)
		case "maxentries":
			n, err := strconv.Atoi(v)
			if err != nil || n < 4 {
				return cfg, fmt.Errorf("rstblade: bad maxentries %q", v)
			}
			cfg.treeCfg.MaxEntries = n
		case "placement":
			switch {
			case strings.EqualFold(v, "single"):
				cfg.placement = nodestore.SingleLO
			case strings.EqualFold(v, "pernode"):
				cfg.placement = nodestore.PerNodeLO
			default:
				return cfg, fmt.Errorf("rstblade: bad placement %q", v)
			}
		default:
			return cfg, fmt.Errorf("rstblade: unknown index parameter %q", k)
		}
	}
	return cfg, nil
}

// MapExtent converts a time extent to the indexed rectangle under the
// policy, as of ct.
func MapExtent(e temporal.Extent, sub NowSub, maxTS, ct chronon.Instant) rstar.Rect {
	tte := e.TTEnd
	vte := e.VTEnd
	switch sub {
	case SubMax:
		if tte == chronon.UC {
			tte = maxTS
		}
		if vte == chronon.NOW {
			vte = maxTS
		}
	case SubAsOf:
		sh := e.Region().Resolve(ct).BoundingBox()
		return rstar.Rect{XMin: sh.TTBegin, XMax: sh.TTEnd, YMin: sh.VTBegin, YMax: sh.VTEnd}
	}
	return rstar.Rect{XMin: int64(e.TTBegin), XMax: int64(tte), YMin: int64(e.VTBegin), YMax: int64(vte)}
}

type openState struct {
	store *nodestore.LOStore
	tree  *rstar.Tree
	cfg   config
	ct    chronon.Instant
	// scan state
	cursor *rstar.Cursor
	qr     rstar.Rect // the current scan's conservative query rectangle
	// dynamic strategy dispatch (Section 5.2's extensible alternative):
	// exact filtering happens through registered UDRs invoked per candidate.
	qual   *am.Qual
	typeID uint32
	// ground records that every entry ever indexed was a ground extent (no
	// UC/NOW substitution happened), so the stored rectangles are exact and
	// rst_aggregate may answer from them. Persisted in the access method's
	// bookkeeping table; a single now-relative insert clears it forever.
	ground bool

	rightAfter bool
}

// groundKey is the bookkeeping record carrying the ground flag. The
// "ground|"+name shape matches the catalog's per-index record purge.
func groundKey(indexName string) string { return "ground|" + strings.ToLower(indexName) }

func state(id *am.IndexDesc) (*openState, error) {
	st, ok := id.UserData.(*openState)
	if !ok || st == nil {
		return nil, fmt.Errorf("rstblade: index %s is not open", id.Name)
	}
	return st, nil
}

// Library returns the blade's symbol table.
func Library() am.Library {
	return am.Library{
		"rst_create":       am.AmIndexFunc(rstCreate),
		"rst_drop":         am.AmIndexFunc(rstDrop),
		"rst_open":         am.AmIndexFunc(rstOpen),
		"rst_close":        am.AmIndexFunc(rstClose),
		"rst_beginscan":    am.AmScanFunc(rstBeginScan),
		"rst_endscan":      am.AmScanFunc(rstEndScan),
		"rst_rescan":       am.AmScanFunc(rstRescan),
		"rst_getnext":      am.AmGetNextFunc(rstGetNext),
		"rst_getmulti":     am.AmGetMultiFunc(rstGetMulti),
		"rst_build":        am.AmBuildFunc(rstBuild),
		"rst_insert":       am.AmMutateFunc(rstInsert),
		"rst_delete":       am.AmMutateFunc(rstDelete),
		"rst_update":       am.AmUpdateFunc(rstUpdate),
		"rst_scancost":     am.AmScanCostFunc(rstScanCost),
		"rst_stats":        am.AmStatsFunc(rstStats),
		"rst_check":        am.AmCheckFunc(rstCheck),
		"rst_parallelscan": am.AmParallelScanFunc(rstParallelScan),
		"rst_aggregate":    am.AmAggregateFunc(rstAggregate),
	}
}

func validateColumns(id *am.IndexDesc) error {
	if len(id.ColTypes) != 1 {
		return fmt.Errorf("rstblade: rstree_am indexes exactly one column")
	}
	if id.ColTypes[0].Kind != types.KOpaque || !strings.EqualFold(id.ColTypes[0].Name, grtblade.TypeName) {
		return fmt.Errorf("rstblade: rstree_am cannot handle column type %v", id.ColTypes[0])
	}
	return nil
}

func rstCreate(ctx *mi.Context, id *am.IndexDesc) error {
	if err := validateColumns(id); err != nil {
		return err
	}
	cfg, err := parseConfig(id.Params)
	if err != nil {
		return err
	}
	if id.SpaceName == "" {
		return fmt.Errorf("rstblade: rstree_am stores indexes in sbspaces; use CREATE INDEX ... IN <sbspace>")
	}
	space, err := id.Services.Space(id.SpaceName)
	if err != nil {
		return err
	}
	store, handle, err := nodestore.CreateLO(space, id.Services.TxID(), id.Services.Isolation(), cfg.placement)
	if err != nil {
		return err
	}
	tree, err := rstar.Create(store, cfg.treeCfg)
	if err != nil {
		return err
	}
	rec := make([]byte, sbspace.HandleSize)
	handle.Encode(rec)
	if err := id.Services.AMRecordPut(AmName, id.Name, rec); err != nil {
		return err
	}
	// A fresh index holds only ground rectangles (vacuously); overwrite any
	// stale flag a dropped namesake left behind.
	if err := id.Services.AMRecordPut(AmName, groundKey(id.Name), []byte{1}); err != nil {
		return err
	}
	id.UserData = &openState{
		store: store, tree: tree, cfg: cfg, ground: true,
		ct: id.Services.Clock().Now(), typeID: id.ColTypes[0].OpaqueID, rightAfter: true,
	}
	return nil
}

func rstDrop(ctx *mi.Context, id *am.IndexDesc) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	if err := st.store.Drop(); err != nil {
		return err
	}
	id.UserData = nil
	if err := id.Services.AMRecordDelete(AmName, groundKey(id.Name)); err != nil {
		return err
	}
	return id.Services.AMRecordDelete(AmName, id.Name)
}

func rstOpen(ctx *mi.Context, id *am.IndexDesc) error {
	if st, ok := id.UserData.(*openState); ok && st != nil && st.rightAfter {
		st.rightAfter = false
		return nil
	}
	cfg, err := parseConfig(id.Params)
	if err != nil {
		return err
	}
	rec, ok, err := id.Services.AMRecordGet(AmName, id.Name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("rstblade: index %s has no access-method record", id.Name)
	}
	space, err := id.Services.Space(id.SpaceName)
	if err != nil {
		return err
	}
	mode := sbspace.ReadWrite
	if id.ReadOnly {
		mode = sbspace.ReadOnly
	}
	store, err := nodestore.OpenLO(space, id.Services.TxID(), id.Services.Isolation(), sbspace.DecodeHandle(rec), mode)
	if err != nil {
		return err
	}
	tree, err := rstar.Open(store, cfg.treeCfg)
	if err != nil {
		store.Close()
		return err
	}
	// Indexes created before the flag existed have no record and load as
	// non-ground, so rst_aggregate declines on them — safe, never wrong.
	ground := false
	if g, ok, err := id.Services.AMRecordGet(AmName, groundKey(id.Name)); err != nil {
		store.Close()
		return err
	} else if ok && len(g) == 1 && g[0] == 1 {
		ground = true
	}
	id.UserData = &openState{
		store: store, tree: tree, cfg: cfg, ground: ground,
		ct: id.Services.Clock().Now(), typeID: id.ColTypes[0].OpaqueID,
	}
	return nil
}

func rstClose(ctx *mi.Context, id *am.IndexDesc) error {
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

// queryRect maps a qualification's query extents to one conservative
// rectangle: any strategy match implies region overlap, so rectangle
// overlap with the union of the query rectangles is a sound index test.
func (st *openState) queryRect(q *am.Qual) (rstar.Rect, error) {
	leaves := q.Leaves()
	if len(leaves) == 0 {
		return rstar.Rect{}, fmt.Errorf("rstblade: empty qualification")
	}
	var out rstar.Rect
	first := true
	for _, l := range leaves {
		ext, err := extentOf(l.Const)
		if err != nil {
			return rstar.Rect{}, err
		}
		r := MapExtent(ext, st.cfg.sub, st.cfg.maxTS, st.ct)
		if st.cfg.sub == SubMax {
			// Also cover the query's current resolution (ground queries over
			// growing data and vice versa).
			sh := ext.Region().Resolve(st.ct).BoundingBox()
			r = r.Union(rstar.Rect{XMin: sh.TTBegin, XMax: sh.TTEnd, YMin: sh.VTBegin, YMax: sh.VTEnd})
		}
		if first {
			out = r
			first = false
		} else {
			out = out.Union(r)
		}
	}
	return out, nil
}

func extentOf(d types.Datum) (temporal.Extent, error) {
	op, ok := d.(types.Opaque)
	if !ok {
		return temporal.Extent{}, fmt.Errorf("rstblade: expected %s, got %T", grtblade.TypeName, d)
	}
	return grtblade.DecodeExtent(op.Data)
}

func rstBeginScan(ctx *mi.Context, sd *am.ScanDesc) error {
	st, err := state(sd.Index)
	if err != nil {
		return err
	}
	if sd.Qual == nil {
		return fmt.Errorf("rstblade: scan without qualification")
	}
	qr, err := st.queryRect(sd.Qual)
	if err != nil {
		return err
	}
	cur, err := st.tree.Search(rstar.OpOverlaps, qr)
	if err != nil {
		return err
	}
	st.cursor = cur
	st.qual = sd.Qual
	st.qr = qr
	sd.UserData = cur
	ctx.Tracer().Tracef("rst", 2, "rst_beginscan %s: qual %s", sd.Index.Name, sd.Qual)
	return nil
}

// rstParallelScan implements am_parallelscan: a root fan-out partitioning
// over the conservative query rectangle, mirroring grt_parallelscan.
func rstParallelScan(ctx *mi.Context, sd *am.ScanDesc, degree int) ([]*am.ScanDesc, error) {
	st, err := state(sd.Index)
	if err != nil {
		return nil, err
	}
	if st.qual == nil {
		return nil, fmt.Errorf("rstblade: parallelscan without beginscan")
	}
	ps, err := st.tree.ParallelScan(rstar.OpOverlaps, st.qr, degree)
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
	ctx.Tracer().Tracef("rst", 2, "rst_parallelscan %s: %d workers over %d subtrees", sd.Index.Name, workers, ps.Parts())
	return out, nil
}

func rstRescan(ctx *mi.Context, sd *am.ScanDesc) error {
	if sd.Batch != nil {
		sd.Batch.Reset()
	}
	switch cur := sd.UserData.(type) {
	case *rstar.Cursor:
		cur.Reset()
		return nil
	case *rstar.ParallelScan:
		return cur.Reset()
	}
	return fmt.Errorf("rstblade: rescan without a cursor")
}

func rstEndScan(ctx *mi.Context, sd *am.ScanDesc) error {
	if st, err := state(sd.Index); err == nil {
		st.cursor = nil
		st.qual = nil
	}
	sd.UserData = nil
	return nil
}

// rstGetNext returns candidate rowids. Exactness: the engine re-evaluates
// the full WHERE clause on the fetched row, invoking the registered
// strategy UDRs — the dynamic-resolution path of Section 5.2, whose
// overhead experiment P5 measures. The candidate set may include false
// positives (SubMax) or miss grown tuples (SubAsOf); the latter is the
// recall loss experiment P1 reports.
func rstGetNext(ctx *mi.Context, sd *am.ScanDesc) (heap.RowID, []types.Datum, bool, error) {
	cur, ok := sd.UserData.(*rstar.Cursor)
	if !ok {
		return 0, nil, false, fmt.Errorf("rstblade: getnext without beginscan")
	}
	entry, ok2, err := cur.Next()
	if err != nil || !ok2 {
		return 0, nil, false, err
	}
	return heap.RowID(entry.Payload()), nil, true, nil
}

// rstGetMulti implements am_getmulti: one dispatch drains the cursor's
// next candidate rowids (rows stay nil — exactness still comes from the
// engine re-evaluating the WHERE clause per fetched row, as in
// rstGetNext).
func rstGetMulti(ctx *mi.Context, sd *am.ScanDesc) (int, error) {
	// Serial cursor or a parallel partition's PartCursor — both drain
	// through NextBatch.
	cur, ok := sd.UserData.(interface {
		NextBatch([]rstar.Entry) (int, error)
	})
	if !ok {
		return 0, fmt.Errorf("rstblade: getmulti without beginscan")
	}
	b := sd.Batch
	b.Reset()
	entries := make([]rstar.Entry, b.Cap())
	n, err := cur.NextBatch(entries)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		b.Append(heap.RowID(entries[i].Payload()), nil)
	}
	return b.N, nil
}

// rstBuild implements am_build, the optional bulk-load purpose slot: the
// server feeds snapshot batches through next; the blade maps each extent to
// its conservative rectangle and packs the tree bottom-up with the
// sort-tile-recursive BulkLoad instead of one rst_insert per row.
func rstBuild(ctx *mi.Context, id *am.IndexDesc, next am.AmBuildNext) (int, error) {
	st, err := state(id)
	if err != nil {
		return 0, err
	}
	var items []rstar.BulkItem
	for {
		b, err := next()
		if err != nil {
			return 0, err
		}
		if b == nil {
			break
		}
		for i := 0; i < b.N; i++ {
			ext, err := extentOf(b.Rows[i][0])
			if err != nil {
				return 0, err
			}
			if !ext.ValidAt(st.ct) {
				return 0, fmt.Errorf("rstblade: extent %v violates the transaction-time constraints at current time %v", ext, st.ct)
			}
			if ext.NowRelative() {
				if err := st.clearGround(id); err != nil {
					return 0, err
				}
			}
			items = append(items, rstar.BulkItem{
				Rect:    MapExtent(ext, st.cfg.sub, st.cfg.maxTS, st.ct),
				Payload: rstar.Payload(b.RowIDs[i]),
			})
		}
	}
	if err := st.tree.BulkLoad(items); err != nil {
		return 0, err
	}
	ctx.Tracer().Tracef("rst", 1, "rst_build %s: bulk-loaded %d entries", id.Name, len(items))
	return len(items), nil
}

// clearGround records that the index now holds a substituted (now-relative)
// rectangle: rst_aggregate must decline from here on, in this open state and
// every future one.
func (st *openState) clearGround(id *am.IndexDesc) error {
	if !st.ground {
		return nil
	}
	if err := id.Services.AMRecordPut(AmName, groundKey(id.Name), []byte{0}); err != nil {
		return err
	}
	st.ground = false
	return nil
}

func rstInsert(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	ext, err := extentOf(row[0])
	if err != nil {
		return err
	}
	if !ext.ValidAt(st.ct) {
		return fmt.Errorf("rstblade: extent %v violates the transaction-time constraints at current time %v", ext, st.ct)
	}
	if ext.NowRelative() {
		if err := st.clearGround(id); err != nil {
			return err
		}
	}
	return st.tree.Insert(MapExtent(ext, st.cfg.sub, st.cfg.maxTS, st.ct), rstar.Payload(rid))
}

// rstDelete locates the entry by payload (the rectangle stored at insertion
// time is not reconstructible under SubAsOf, so the blade scans the
// conservative region for the payload).
func rstDelete(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	ext, err := extentOf(row[0])
	if err != nil {
		return err
	}
	// Conservative search region: the max-substituted rectangle covers any
	// historical resolution of the extent.
	qr := MapExtent(ext, SubMax, st.cfg.maxTS, st.ct)
	cur, err := st.tree.Search(rstar.OpOverlaps, qr)
	if err != nil {
		return err
	}
	for {
		entry, ok, err := cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("rstblade: index %s has no entry for row %v: %w", id.Name, rid, am.ErrNoEntry)
		}
		if entry.Payload() == rstar.Payload(rid) {
			removed, _, err := st.tree.Delete(entry.Bound, entry.Payload())
			if err != nil {
				return err
			}
			if !removed {
				return fmt.Errorf("rstblade: delete raced on row %v", rid)
			}
			return nil
		}
	}
}

func rstUpdate(ctx *mi.Context, id *am.IndexDesc, oldRow []types.Datum, oldRid heap.RowID, newRow []types.Datum, newRid heap.RowID) error {
	if err := rstDelete(ctx, id, oldRow, oldRid); err != nil {
		return err
	}
	return rstInsert(ctx, id, newRow, newRid)
}

func rstScanCost(ctx *mi.Context, id *am.IndexDesc, q *am.Qual) (float64, error) {
	st, err := state(id)
	if err != nil {
		return 0, err
	}
	leafNodes := float64(st.tree.Size())/float64(rstar.Capacity) + 1
	if id.Stats != nil && id.Stats.Lo.Rows > 0 {
		sel := qualSelectivity(st, id.Stats, q)
		cost := 1 + float64(st.tree.Height()) + sel*leafNodes
		ctx.Tracer().Tracef("rst", 2, "rst_scancost %s: %.2f (stats, sel %.3f)", id.Name, cost, sel)
		return cost, nil
	}
	cost := float64(st.tree.Height()) + 0.2*leafNodes
	ctx.Tracer().Tracef("rst", 2, "rst_scancost %s: %.2f", id.Name, cost)
	return cost, nil
}

// qualSelectivity estimates the entry fraction a qualification touches from
// the collected valid-time (Y-axis) histograms: leaves use the interval
// overlap formula over the query's conservative rectangle, AND takes the
// most selective conjunct, OR saturating-adds.
func qualSelectivity(st *openState, stats *am.IndexStats, q *am.Qual) float64 {
	if q == nil {
		return 1
	}
	switch q.Op {
	case am.QAnd:
		sel := 1.0
		for _, c := range q.Children {
			if s := qualSelectivity(st, stats, c); s < sel {
				sel = s
			}
		}
		return sel
	case am.QOr:
		sel := 0.0
		for _, c := range q.Children {
			sel += qualSelectivity(st, stats, c)
		}
		if sel > 1 {
			sel = 1
		}
		return sel
	case am.QFunc:
		ext, err := extentOf(q.Const)
		if err != nil {
			return 1
		}
		r := MapExtent(ext, st.cfg.sub, st.cfg.maxTS, st.ct)
		return stats.SelectivityOverlap(float64(r.YMin), float64(r.YMax))
	}
	return 1
}

// histogramBuckets is the equi-depth bucket count rst_stats collects.
const histogramBuckets = 32

// rstStats implements am_stats: the human-readable summary plus the entry
// count and valid-time-axis histograms UPDATE STATISTICS persists into
// SYSSTATS for rst_scancost. The indexed rectangles already carry their
// substituted ground values, so the leaves are summarized as stored.
func rstStats(ctx *mi.Context, id *am.IndexDesc) (*am.IndexStats, error) {
	st, err := state(id)
	if err != nil {
		return nil, err
	}
	levels, err := st.tree.Stats()
	if err != nil {
		return nil, err
	}
	var overlap float64
	for _, l := range levels {
		overlap += l.Overlap
	}
	summary := fmt.Sprintf("index %s: %d entries, height %d, sibling overlap %.0f",
		id.Name, st.tree.Size(), st.tree.Height(), overlap)

	lo := make([]float64, 0, st.tree.Size())
	hi := make([]float64, 0, st.tree.Size())
	err = st.tree.WalkLeaves(func(e rstar.Entry) error {
		lo = append(lo, float64(e.Bound.YMin))
		hi = append(hi, float64(e.Bound.YMax))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &am.IndexStats{
		Summary: summary,
		Entries: st.tree.Size(),
		Lo:      am.BuildHistogram(lo, histogramBuckets),
		Hi:      am.BuildHistogram(hi, histogramBuckets),
	}, nil
}

// rstAggregate implements am_aggregate. The R*-tree scan protocol returns
// candidates for the server to re-qualify, so in general the index cannot
// answer an aggregate exactly — but when every indexed extent is ground (no
// UC/NOW substitution ever happened, tracked by the persisted ground flag)
// and the query extent is ground too, the stored rectangles are the exact
// extents and the rectangle predicates coincide with the strategy-function
// semantics. Anything else declines and the server drains tuples.
func rstAggregate(ctx *mi.Context, id *am.IndexDesc, req *am.AggRequest) (*am.AggResult, bool, error) {
	st, err := state(id)
	if err != nil {
		return nil, false, err
	}
	if !st.ground {
		return nil, false, nil
	}
	if req.Qual == nil || req.Qual.Op != am.QFunc {
		return nil, false, nil
	}
	q := req.Qual
	var op rstar.Op
	switch strings.ToLower(q.Func) {
	case "overlaps":
		op = rstar.OpOverlaps
	case "equal":
		op = rstar.OpEqual
	case "contains":
		op = rstar.OpContains
		if !q.ColFirst {
			op = rstar.OpContainedIn
		}
	case "containedin":
		op = rstar.OpContainedIn
		if !q.ColFirst {
			op = rstar.OpContains
		}
	default:
		return nil, false, nil
	}
	ext, err := extentOf(q.Const)
	if err != nil || ext.NowRelative() || !ext.Valid() {
		return nil, false, nil
	}
	query := rstar.Rect{
		XMin: int64(ext.TTBegin), XMax: int64(ext.TTEnd),
		YMin: int64(ext.VTBegin), YMax: int64(ext.VTEnd),
	}
	switch req.Kind {
	case am.AggCount:
		n, ok, err := st.tree.AggCount(op, query)
		if err != nil || !ok {
			return nil, false, err
		}
		ctx.Tracer().Tracef("rst", 2, "rst_aggregate %s: count=%d", id.Name, n)
		return &am.AggResult{Count: n}, true, nil
	case am.AggMin, am.AggMax:
		r, found, ok, err := st.tree.AggExtreme(op, query, req.Kind == am.AggMax)
		if err != nil || !ok {
			return nil, false, err
		}
		if !found {
			return &am.AggResult{Empty: true}, true, nil
		}
		out := temporal.Extent{
			TTBegin: chronon.Instant(r.XMin), TTEnd: chronon.Instant(r.XMax),
			VTBegin: chronon.Instant(r.YMin), VTEnd: chronon.Instant(r.YMax),
		}
		val := types.Opaque{TypeID: id.ColTypes[0].OpaqueID, Data: grtblade.EncodeExtent(out)}
		ctx.Tracer().Tracef("rst", 2, "rst_aggregate %s: %s=%v", id.Name, req.Kind, out)
		return &am.AggResult{Value: val}, true, nil
	}
	return nil, false, nil
}

func rstCheck(ctx *mi.Context, id *am.IndexDesc) error {
	st, err := state(id)
	if err != nil {
		return err
	}
	return st.tree.Check()
}

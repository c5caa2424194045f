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
	"repro/internal/blades/treeblade"
	"repro/internal/chronon"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/rstar"
	"repro/internal/rtree"
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

// purpose is the rst_* purpose-function set: the scaffold's, bound to a time
// extent indexed as its substituted rectangle.
var purpose = &treeblade.Kernel[rstar.Rect, rstar.Rect, *open]{
	Method: treeblade.Method[*open]{AmName: AmName, Prefix: "rst", Blade: "rstblade", Configure: configure},
	Value: func(id *am.IndexDesc, r rstar.Rect) types.Datum {
		return types.Opaque{TypeID: id.ColTypes[0].OpaqueID, Data: grtblade.EncodeExtent(temporal.Extent{
			TTBegin: chronon.Instant(r.XMin), TTEnd: chronon.Instant(r.XMax),
			VTBegin: chronon.Instant(r.YMin), VTEnd: chronon.Instant(r.YMax),
		})}
	},
	Less: rstar.KeyLess,
	Span: rstar.KeySpan,
}

// Library returns the blade's symbol table.
func Library() am.Library { return purpose.Library() }

// opclassSQL registers the operator class. The strategy functions are the
// ones grtblade registered — adding support for an existing data type to a
// new access method reuses the same function names (Section 4).
const opclassSQL = `
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
	return grtblade.Install(e, "rstblade", AmName, "rst", LibraryPath, Library(), opclassSQL)
}

// NowSub is the UC/NOW substitution policy.
type NowSub int

const (
	// SubMax maps UC and NOW to the maximum timestamp.
	SubMax NowSub = iota
	// SubAsOf resolves UC and NOW at the insertion-time current time.
	SubAsOf
)

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

// open is the blade's per-open-index state.
type open struct {
	treeblade.Storage
	tree    *rstar.Tree
	treeCfg rstar.Config
	sub     NowSub
	maxTS   chronon.Instant
	ct      chronon.Instant
	// ground records that every entry ever indexed was a ground extent (no
	// UC/NOW substitution happened), so the stored rectangles are exact and
	// rst_aggregate may answer from them. Persisted in the access method's
	// bookkeeping table; a single now-relative insert clears it forever.
	ground bool
}

func configure(ctx *mi.Context, id *am.IndexDesc, create bool) (*open, error) {
	if create {
		if len(id.ColTypes) != 1 {
			return nil, fmt.Errorf("rstblade: rstree_am indexes exactly one column")
		}
		if id.ColTypes[0].Kind != types.KOpaque || !strings.EqualFold(id.ColTypes[0].Name, grtblade.TypeName) {
			return nil, fmt.Errorf("rstblade: rstree_am cannot handle column type %v", id.ColTypes[0])
		}
	}
	st := &open{treeCfg: rstar.DefaultConfig(), maxTS: DefaultMaxTimestamp, ct: id.Services.Clock().Now()}
	for k, v := range id.Params {
		if err := st.param(k, v); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (o *open) param(k, v string) error {
	switch strings.ToLower(k) {
	case "nowsub":
		switch strings.ToLower(v) {
		case "max":
			o.sub = SubMax
		case "asof":
			o.sub = SubAsOf
		default:
			return fmt.Errorf("rstblade: bad nowsub %q", v)
		}
	case "maxts":
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("rstblade: bad maxts %q", v)
		}
		o.maxTS = chronon.Instant(n)
	case "maxentries":
		n, err := treeblade.MaxEntries("rstblade", v)
		if err != nil {
			return err
		}
		o.treeCfg.MaxEntries = n
	default:
		return o.Param("rstblade", k, v)
	}
	return nil
}

// groundKey is the bookkeeping record carrying the ground flag.
func groundKey(indexName string) string { return "ground|" + strings.ToLower(indexName) }

// Records implements treeblade.Opened: rst_drop deletes the ground flag too.
func (o *open) Records(id *am.IndexDesc) []string { return []string{groundKey(id.Name)} }

// Attach implements treeblade.Opened: the tree over the open BLOB, and the
// ground flag.
func (o *open) Attach(ctx *mi.Context, id *am.IndexDesc, create bool) (err error) {
	if create {
		// A fresh index holds only ground rectangles (vacuously); overwrite
		// any stale flag a dropped namesake left behind.
		if err := id.Services.AMRecordPut(AmName, groundKey(id.Name), []byte{1}); err != nil {
			return err
		}
		o.ground = true
		o.tree, err = rstar.Create(o.Store, o.treeCfg)
		return err
	}
	// Indexes created before the flag existed have no record and load as
	// non-ground, so rst_aggregate declines on them — safe, never wrong.
	g, ok, err := id.Services.AMRecordGet(AmName, groundKey(id.Name))
	if err != nil {
		return err
	}
	o.ground = ok && len(g) == 1 && g[0] == 1
	o.tree, err = rstar.Open(o.Store, o.treeCfg)
	return err
}

// clearGround records that the index now holds a substituted (now-relative)
// rectangle: rst_aggregate must decline from here on, in this open state and
// every future one.
func (o *open) clearGround(id *am.IndexDesc) error {
	if !o.ground {
		return nil
	}
	if err := id.Services.AMRecordPut(AmName, groundKey(id.Name), []byte{0}); err != nil {
		return err
	}
	o.ground = false
	return nil
}

// The binding (treeblade.Binding): what a time extent means to an R*-tree.

func (o *open) Tree() *rtree.Tree[rstar.Rect] { return o.tree.Tree }

func (o *open) Keys() rtree.Keys[rstar.Rect, rstar.Rect] { return rstar.Keys() }

// Key: an extent is indexed as its rectangle under the substitution policy.
// Storing a now-relative one is the moment the index stops being exact.
func (o *open) Key(id *am.IndexDesc, d types.Datum, store bool) (rstar.Rect, error) {
	ext, err := extentOf(d)
	if err != nil {
		return rstar.Rect{}, err
	}
	r := MapExtent(ext, o.sub, o.maxTS, o.ct)
	if !store {
		return r, nil
	}
	if !ext.ValidAt(o.ct) {
		return r, fmt.Errorf("rstblade: extent %v violates the transaction-time constraints at current time %v", ext, o.ct)
	}
	if r.Empty() {
		return r, fmt.Errorf("rstblade: extent %v maps to the empty rectangle %v", ext, r)
	}
	if ext.NowRelative() {
		return r, o.clearGround(id)
	}
	return r, nil
}

// Delete locates the entry by payload (the rectangle stored at insertion
// time is not reconstructible under SubAsOf, so the blade scans the
// conservative region for the payload).
func (o *open) Delete(id *am.IndexDesc, d types.Datum, rid heap.RowID) (removed, condensed bool, err error) {
	ext, err := extentOf(d)
	if err != nil {
		return false, false, err
	}
	// Conservative search region: the max-substituted rectangle covers any
	// historical resolution of the extent.
	cur, err := o.tree.Search(rstar.OpOverlaps, MapExtent(ext, SubMax, o.maxTS, o.ct))
	if err != nil {
		return false, false, err
	}
	for {
		entry, ok, err := cur.Next()
		if err != nil || !ok {
			return false, false, err
		}
		if entry.Payload() == rstar.Payload(rid) {
			removed, condensed, err = o.tree.Delete(entry.Bound, entry.Payload())
			if err == nil && !removed {
				err = fmt.Errorf("rstblade: delete raced on row %v", rid)
			}
			return removed, condensed, err
		}
	}
}

// Matcher: scans return candidate rowids (false positives under SubMax,
// missed grown tuples under SubAsOf — the recall loss experiment P1 reports),
// so they are never exact. Exactness comes from the engine re-evaluating the
// WHERE clause on the fetched row through the registered strategy UDRs: the
// dynamic-resolution path of Section 5.2, whose overhead P5 measures.
func (o *open) Matcher(ctx *mi.Context, id *am.IndexDesc, q *am.Qual) (rtree.Matcher[rstar.Rect], bool, error) {
	qr, err := o.queryRect(q)
	if err != nil {
		return nil, false, err
	}
	m, err := rstar.Query(rstar.OpOverlaps, qr)
	return m, false, err
}

// queryRect maps a qualification's query extents to one conservative
// rectangle: any strategy match implies region overlap, so rectangle
// overlap with the union of the query rectangles is a sound index test.
func (o *open) queryRect(q *am.Qual) (rstar.Rect, error) {
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
		r := MapExtent(ext, o.sub, o.maxTS, o.ct)
		if o.sub == SubMax {
			// Also cover the query's current resolution (ground queries over
			// growing data and vice versa).
			sh := ext.Region().Resolve(o.ct).BoundingBox()
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

// Window: the indexed rectangles already carry their substituted ground
// values, so the valid-time axis is summarized as stored.
func (o *open) Window(r rstar.Rect) (lo, hi float64, ok bool) {
	return float64(r.YMin), float64(r.YMax), true
}

// Aggregable: the scan protocol returns candidates for the server to
// re-qualify, so in general the index cannot answer an aggregate exactly —
// but when every indexed extent is ground (no UC/NOW substitution ever
// happened, tracked by the persisted ground flag) and the query extent is
// ground too, the stored rectangles are the exact extents and the rectangle
// predicates coincide with the strategy-function semantics. Anything else
// declines and the server drains tuples.
func (o *open) Aggregable(q *am.Qual) (rtree.Matcher[rstar.Rect], bool) {
	op, ok := treeblade.Strategy(q.Func, q.ColFirst)
	ext, err := extentOf(q.Const)
	if !o.ground || !ok || err != nil || ext.NowRelative() || !ext.Valid() {
		return nil, false
	}
	m, err := rstar.Query(op, rstar.Rect{
		XMin: int64(ext.TTBegin), XMax: int64(ext.TTEnd),
		YMin: int64(ext.VTBegin), YMax: int64(ext.VTEnd),
	})
	return m, err == nil
}

// Package grtree implements the GR-tree of [BJSS98] as summarised in
// Section 3 of the paper: an R*-tree-based index for now-relative bitemporal
// data. Node entries carry four timestamps in which the variables UC and NOW
// may appear, plus the "Rectangle" and "Hidden" flags; minimum bounding
// regions are rectangles or stair-shapes that grow as time passes; and the
// insertion algorithms are time-parameterised R* algorithms.
//
// The tree exposes exactly the object model of the paper's Appendix A: a
// Tree with insert, delete, and search methods, where search creates a
// Cursor storing the query predicate and tree-traversal information, and
// qualifying entries are retrieved by calling the Cursor's Next method. The
// deletion/condense/cursor-restart interplay of Section 5.5 is reproduced,
// with the paper's compromise (restart the scan only when the tree is
// actually condensed) as the default policy.
//
// The R* skeleton itself lives in internal/rtree. This package is the
// GR-tree's key class — the entry codec, the time-parameterised bounding and
// scoring geometry, the strategy functions — and a façade that turns each
// call's current time into the key class the kernel runs with.
package grtree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/chronon"
	"repro/internal/nodestore"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// The kernel's types, instantiated for (possibly growing) bitemporal regions.
type (
	// Payload is the opaque value carried by a leaf entry: the rowid.
	Payload = rtree.Payload
	// Entry is one node entry: its Bound is a region, its Ref a child node
	// id (internal nodes) or a payload (leaves).
	Entry = rtree.Entry[temporal.Region]
	// Cursor is a scan (Appendix A): serial, or a ParallelScan worker's.
	Cursor = rtree.Cursor[temporal.Region]
	// ParallelScan is a root-fan-out partitioned scan.
	ParallelScan = rtree.ParallelScan[temporal.Region]
	// DeletePolicy selects the Section 5.5 deletion strategy.
	DeletePolicy = rtree.DeletePolicy
)

// The Section 5.5 deletion strategies.
const (
	RestartOnCondense = rtree.RestartOnCondense
	RestartAlways     = rtree.RestartAlways
	NoCondense        = rtree.NoCondense
)

// entrySize: TTBegin, TTEnd, VTBegin, VTEnd (int64 big-endian; sentinel
// values carry UC/NOW), flags (bit0 Rectangle, bit1 Hidden), the start
// maxima, 3 pad, ref. A bounding entry's maxima are LateTT at bytes 33–34
// and LateVT at 35–36, each stored as delta+1 in 16 bits: LateUnknown wraps
// to 0, and 0 (the pad of pages written before maxima were kept) wraps back
// to LateUnknown. A leaf entry's bytes stay zero: its maxima are its own
// begins.
const entrySize = 48

// Capacity is the maximum number of entries per node (one node per page,
// Section 3).
const Capacity = (nodestore.NodeSize - rtree.HeaderSize) / entrySize

var format = rtree.Format[temporal.Region]{
	Name:      "grtree",
	NodeMagic: 0x4752544E, // "GRTN"
	MetaMagic: 0x47525452, // "GRTR"
	EntrySize: entrySize,
	Put: func(buf []byte, entries []Entry, leaf bool) {
		for _, e := range entries {
			binary.BigEndian.PutUint64(buf[0:], uint64(e.Bound.TTBegin))
			binary.BigEndian.PutUint64(buf[8:], uint64(e.Bound.TTEnd))
			binary.BigEndian.PutUint64(buf[16:], uint64(e.Bound.VTBegin))
			binary.BigEndian.PutUint64(buf[24:], uint64(e.Bound.VTEnd))
			if e.Bound.Rect {
				buf[32] |= 1
			}
			if e.Bound.Hidden {
				buf[32] |= 2
			}
			if !leaf {
				binary.BigEndian.PutUint16(buf[33:], e.Bound.LateTT+1)
				binary.BigEndian.PutUint16(buf[35:], e.Bound.LateVT+1)
			}
			binary.BigEndian.PutUint64(buf[40:], e.Ref)
			buf = buf[entrySize:]
		}
	},
	Get: func(buf []byte, entries []Entry, leaf bool) {
		for i := range entries {
			e := &entries[i]
			e.Bound = temporal.Region{
				TTBegin: chronon.Instant(binary.BigEndian.Uint64(buf[0:])),
				TTEnd:   chronon.Instant(binary.BigEndian.Uint64(buf[8:])),
				VTBegin: chronon.Instant(binary.BigEndian.Uint64(buf[16:])),
				VTEnd:   chronon.Instant(binary.BigEndian.Uint64(buf[24:])),
				Rect:    buf[32]&1 != 0,
				Hidden:  buf[32]&2 != 0,
			}
			if !leaf {
				e.Bound.LateTT = binary.BigEndian.Uint16(buf[33:]) - 1
				e.Bound.LateVT = binary.BigEndian.Uint16(buf[35:]) - 1
			}
			e.Ref = binary.BigEndian.Uint64(buf[40:])
			buf = buf[entrySize:]
		}
	},
}

// keys is the GR-tree's geometry as of one current time: bounds are computed
// at ct, and everything the R* heuristics score is resolved at the
// time-parameter horizon ct + TimeParam (Section 3).
type keys struct {
	pol temporal.BoundPolicy
	ct  chronon.Instant
}

func (k keys) Bound(es []Entry) temporal.Region {
	b := temporal.NewBounder(k.ct, k.pol)
	for i := range es {
		b.Add(es[i].Bound)
	}
	return b.Bound()
}

func (k keys) Union(a, b temporal.Region) temporal.Region { return a.Union(b, k.ct, k.pol) }

// Contains is the descent test of a deletion: the bound contains the target
// now, and its start maxima reach the target's begins.
func (k keys) Contains(outer, inner temporal.Region) bool {
	return outer.Contains(inner, k.ct) && outer.StartsCover(inner)
}

// Covers: a child region must be covered by its parent now and in the
// future, and the parent's start maxima must be at least the child's.
func (k keys) Covers(parent, child temporal.Region) bool {
	return parent.CoversRegion(child, k.ct) && parent.StartsCover(child)
}

func (k keys) Resolve(r temporal.Region) temporal.Shape {
	return r.Resolve(k.ct + chronon.Instant(k.pol.TimeParam))
}

func (keys) Centre(s temporal.Shape) (x, y float64) {
	bb := s.BoundingBox()
	return float64(bb.TTBegin+bb.TTEnd) / 2, float64(bb.VTBegin+bb.VTEnd) / 2
}

// PackKeys: STR packs on the start of transaction time first, since a
// growing bound reaches to now and says nothing about how late its entries
// start (Section 3), then on the end and the start of valid time.
func (keys) PackKeys(dst []float64, s temporal.Shape) []float64 {
	bb := s.BoundingBox()
	return append(dst, float64(bb.TTBegin), float64(bb.VTEnd), float64(bb.VTBegin))
}

// SplitKeys: axis 0 is transaction time, axis 1 valid time.
func (keys) SplitKeys(s temporal.Shape) [4]int64 {
	return [4]int64{s.TTBegin, s.TTEnd, s.VTBegin, s.VTEnd}
}

// Config tunes a GR-tree.
type Config struct {
	// Bound is the bounding-region policy (time parameter, hidden bounds).
	Bound temporal.BoundPolicy
	// MaxEntries caps node fanout (default and maximum: Capacity). Tests
	// use small values to force deep trees.
	MaxEntries int
	// MinFillPct is the underflow threshold in percent (default 40).
	MinFillPct int
	// ReinsertPct is the forced-reinsertion fraction in percent on first
	// overflow per level (R*; default 30, 0 disables).
	ReinsertPct int
	// DeletePolicy selects the Section 5.5 strategy.
	DeletePolicy DeletePolicy
}

// DefaultConfig mirrors the prototype: R* parameters with the default
// bounding policy.
func DefaultConfig() Config {
	return Config{
		Bound:       temporal.DefaultBoundPolicy,
		MaxEntries:  Capacity,
		MinFillPct:  40,
		ReinsertPct: 30,
	}
}

// Tree is a GR-tree over a node store; see rtree.Tree for the concurrency
// contract. Size, Height, Epoch, Store, Config (the normalised R* parameters)
// and WalkLeaves are the kernel's.
type Tree struct {
	*rtree.Tree[temporal.Region]
	pol temporal.BoundPolicy
}

func (c Config) kernel() rtree.Config {
	return rtree.Config{
		MaxEntries: c.MaxEntries, MinFillPct: c.MinFillPct,
		ReinsertPct: c.ReinsertPct, DeletePolicy: c.DeletePolicy,
	}
}

func (c Config) wrap(t *rtree.Tree[temporal.Region], err error) (*Tree, error) {
	if err != nil {
		return nil, err
	}
	if c.Bound.TimeParam <= 0 {
		c.Bound = temporal.DefaultBoundPolicy
	}
	return &Tree{Tree: t, pol: c.Bound}, nil
}

// Create initialises a new, empty GR-tree in the store.
func Create(store nodestore.Store, cfg Config) (*Tree, error) {
	return cfg.wrap(rtree.Create(store, &format, cfg.kernel()))
}

// Open loads an existing GR-tree from the store.
func Open(store nodestore.Store, cfg Config) (*Tree, error) {
	return cfg.wrap(rtree.Open(store, &format, cfg.kernel()))
}

// Keys is the tree's key class as of current time ct, for callers that drive
// the kernel's Insert, Delete and BulkLoad with entries of their own.
func (t *Tree) Keys(ct chronon.Instant) rtree.Keys[temporal.Region, temporal.Shape] {
	return keys{pol: t.pol, ct: ct}
}

// Insert adds an extent with its payload as of current time ct. The extent
// must be one of the six valid combinations (Figure 2); the caller enforces
// the stricter insertion constraints of Section 2 (grt_insert receives rows
// the server already accepted).
func (t *Tree) Insert(ext temporal.Extent, payload Payload, ct chronon.Instant) error {
	if !ext.Valid() {
		return fmt.Errorf("grtree: invalid extent %v", ext)
	}
	return rtree.Insert(t.Tree, t.Keys(ct), Entry{Bound: ext.Region(), Ref: uint64(payload)})
}

// Delete removes the leaf entry holding exactly this extent and payload, as
// of current time ct. It reports whether an entry was removed and whether
// the tree was condensed — the signal grt_delete uses to decide whether the
// scan cursor must be reset (Section 5.5, Table 5 step 5).
func (t *Tree) Delete(ext temporal.Extent, payload Payload, ct chronon.Instant) (removed, condensed bool, err error) {
	return rtree.Delete(t.Tree, t.Keys(ct), ext.Region(), payload)
}

// DeleteWhere removes every leaf entry matching the predicate, returning
// how many were removed. It mirrors the engine's deletion procedure
// (Section 5.5): scan with a cursor, delete each qualifying entry, and reset
// the scan when the tree condenses. The cursor restart count is returned
// for experiment P4.
func (t *Tree) DeleteWhere(pred Predicate, ct chronon.Instant) (removed int, restarts int, err error) {
	cur, err := t.Search(pred, ct)
	if err != nil {
		return 0, 0, err
	}
	for {
		e, ok, err := cur.Next()
		if err != nil || !ok {
			return removed, cur.Restarts(), err
		}
		ok, _, err = rtree.Delete(t.Tree, t.Keys(ct), e.Bound, e.Payload())
		if err != nil {
			return removed, cur.Restarts(), err
		}
		if ok {
			removed++
		}
	}
}

// BulkItem is one (extent, payload) pair for bulk loading.
type BulkItem struct {
	Extent  temporal.Extent
	Payload Payload
}

// BulkLoad builds the tree from scratch by sort-tile-recursive packing on
// the regions' pack keys (start of transaction time, end and start of valid
// time) at the time-parameter horizon. The tree must be empty.
func (t *Tree) BulkLoad(items []BulkItem, ct chronon.Instant) error {
	entries := make([]Entry, len(items))
	for i, it := range items {
		if !it.Extent.Valid() {
			return fmt.Errorf("grtree: bulk item %d has invalid extent %v", i, it.Extent)
		}
		entries[i] = Entry{Bound: it.Extent.Region(), Ref: uint64(it.Payload)}
	}
	return rtree.BulkLoad(t.Tree, t.Keys(ct), entries)
}

// Check validates the tree's structural invariants at ct (am_check).
func (t *Tree) Check(ct chronon.Instant) error { return t.Tree.Check(t.Keys(ct).Covers) }

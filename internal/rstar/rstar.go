// Package rstar implements the R*-tree of Beckmann et al. [BEC90] over
// two-dimensional integer rectangles: the access method the GR-tree is
// derived from (Section 3) and the baseline index for the performance-shape
// experiments. Bitemporal data is indexed through it by substituting ground
// values for UC and NOW (the rstblade package implements the maximum-
// timestamp and current-insertion-time substitution policies).
//
// The R* skeleton itself lives in internal/rtree; this package is the
// rectangle key class (codec, geometry, strategy functions) and a façade.
package rstar

import (
	"encoding/binary"
	"fmt"

	"repro/internal/nodestore"
	"repro/internal/rtree"
)

// Rect is a closed integer rectangle [XMin, XMax] × [YMin, YMax].
type Rect struct {
	XMin, XMax, YMin, YMax int64
}

// Empty reports whether the rectangle contains no cell.
func (r Rect) Empty() bool { return r.XMin > r.XMax || r.YMin > r.YMax }

// Area returns the number of cells.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return float64(r.XMax-r.XMin+1) * float64(r.YMax-r.YMin+1)
}

// Margin returns the half-perimeter.
func (r Rect) Margin() float64 {
	if r.Empty() {
		return 0
	}
	return float64(r.XMax-r.XMin+1) + float64(r.YMax-r.YMin+1)
}

// Union returns the minimum bounding rectangle of r and o.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Rect{
		XMin: min(r.XMin, o.XMin), XMax: max(r.XMax, o.XMax),
		YMin: min(r.YMin, o.YMin), YMax: max(r.YMax, o.YMax),
	}
}

// Intersect returns the intersection (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	return Rect{
		XMin: max(r.XMin, o.XMin), XMax: min(r.XMax, o.XMax),
		YMin: max(r.YMin, o.YMin), YMax: min(r.YMax, o.YMax),
	}
}

// Overlaps reports whether the rectangles share a cell.
func (r Rect) Overlaps(o Rect) bool { return !r.Intersect(o).Empty() }

// Contains reports whether o lies inside r.
func (r Rect) Contains(o Rect) bool {
	if o.Empty() {
		return true
	}
	return r.XMin <= o.XMin && o.XMax <= r.XMax && r.YMin <= o.YMin && o.YMax <= r.YMax
}

// IntersectionArea returns the shared cell count.
func (r Rect) IntersectionArea(o Rect) float64 { return r.Intersect(o).Area() }

func (r Rect) String() string {
	return fmt.Sprintf("[%d..%d]x[%d..%d]", r.XMin, r.XMax, r.YMin, r.YMax)
}

// The kernel's types, instantiated for rectangles.
type (
	// Payload is the opaque leaf value (rowid).
	Payload = rtree.Payload
	// Entry is a node entry: its Bound is a rectangle, its Ref a child node
	// id or a payload.
	Entry = rtree.Entry[Rect]
	// Cursor iterates qualifying entries; structural changes restart a
	// serial one, with returned-entry bookkeeping preventing duplicates.
	Cursor = rtree.Cursor[Rect]
	// ParallelScan is a root-fan-out partitioned scan.
	ParallelScan = rtree.ParallelScan[Rect]
)

// entrySize: 4 coordinates (int64 big-endian) + ref.
const entrySize = 40

// Capacity is the maximum entries per node.
const Capacity = (nodestore.NodeSize - rtree.HeaderSize) / entrySize

var format = rtree.Format[Rect]{
	Name:      "rstar",
	NodeMagic: 0x5253544E, // "RSTN"
	MetaMagic: 0x52535452, // "RSTR"
	EntrySize: entrySize,
	Put: func(buf []byte, entries []Entry, _ bool) {
		for _, e := range entries {
			binary.BigEndian.PutUint64(buf[0:], uint64(e.Bound.XMin))
			binary.BigEndian.PutUint64(buf[8:], uint64(e.Bound.XMax))
			binary.BigEndian.PutUint64(buf[16:], uint64(e.Bound.YMin))
			binary.BigEndian.PutUint64(buf[24:], uint64(e.Bound.YMax))
			binary.BigEndian.PutUint64(buf[32:], e.Ref)
			buf = buf[entrySize:]
		}
	},
	Get: func(buf []byte, entries []Entry, _ bool) {
		for i := range entries {
			entries[i] = Entry{
				Bound: Rect{
					XMin: int64(binary.BigEndian.Uint64(buf[0:])),
					XMax: int64(binary.BigEndian.Uint64(buf[8:])),
					YMin: int64(binary.BigEndian.Uint64(buf[16:])),
					YMax: int64(binary.BigEndian.Uint64(buf[24:])),
				},
				Ref: binary.BigEndian.Uint64(buf[32:]),
			}
			buf = buf[entrySize:]
		}
	},
}

// keys is the plain R*-tree geometry: a rectangle is its own shape.
type keys struct{}

func (keys) Bound(es []Entry) Rect {
	b := Rect{XMin: 1} // empty, the identity of Union
	for _, e := range es {
		b = b.Union(e.Bound)
	}
	return b
}

func (keys) Union(a, b Rect) Rect { return a.Union(b) }

func (keys) Contains(outer, inner Rect) bool { return outer.Contains(inner) }

func (keys) Covers(parent, child Rect) bool { return parent.Contains(child) }

func (keys) Resolve(r Rect) Rect { return r }

func (keys) Centre(r Rect) (x, y float64) {
	return float64(r.XMin+r.XMax) / 2, float64(r.YMin+r.YMax) / 2
}

// PackKeys: STR packs on the centre, x first.
func (k keys) PackKeys(dst []float64, r Rect) []float64 {
	x, y := k.Centre(r)
	return append(dst, x, y)
}

func (keys) SplitKeys(r Rect) [4]int64 { return [4]int64{r.XMin, r.XMax, r.YMin, r.YMax} }

// Keys is the rectangle key class, for callers that drive the kernel's
// Insert, Delete and BulkLoad with entries of their own.
func Keys() rtree.Keys[Rect, Rect] { return keys{} }

// Config tunes the R*-tree.
type Config struct {
	MaxEntries  int // default and max: Capacity
	MinFillPct  int // default 40
	ReinsertPct int // default 30; 0 disables forced reinsertion
}

// DefaultConfig returns the standard R* parameters.
func DefaultConfig() Config { return Config{MaxEntries: Capacity, MinFillPct: 40, ReinsertPct: 30} }

func (c Config) kernel() rtree.Config {
	return rtree.Config{MaxEntries: c.MaxEntries, MinFillPct: c.MinFillPct, ReinsertPct: c.ReinsertPct}
}

// Tree is an R*-tree over a node store; see rtree.Tree for the concurrency
// contract. Size, Height, Store, WalkLeaves, AggCount and AggExtreme are the
// kernel's.
type Tree struct {
	*rtree.Tree[Rect]
}

func wrap(t *rtree.Tree[Rect], err error) (*Tree, error) {
	if err != nil {
		return nil, err
	}
	return &Tree{t}, nil
}

// Create initialises an empty tree.
func Create(store nodestore.Store, cfg Config) (*Tree, error) {
	return wrap(rtree.Create(store, &format, cfg.kernel()))
}

// Open loads an existing tree.
func Open(store nodestore.Store, cfg Config) (*Tree, error) {
	return wrap(rtree.Open(store, &format, cfg.kernel()))
}

// Insert adds a rectangle with its payload.
func (t *Tree) Insert(r Rect, payload Payload) error {
	if r.Empty() {
		return fmt.Errorf("rstar: insert of empty rectangle %v", r)
	}
	return rtree.Insert(t.Tree, keys{}, Entry{Bound: r, Ref: uint64(payload)})
}

// Delete removes the leaf entry with exactly this rectangle and payload,
// reporting whether it was removed and whether the tree condensed.
func (t *Tree) Delete(r Rect, payload Payload) (removed, condensed bool, err error) {
	return rtree.Delete(t.Tree, keys{}, r, payload)
}

// BulkItem is one (rectangle, payload) pair for bulk loading.
type BulkItem struct {
	Rect    Rect
	Payload Payload
}

// BulkLoad builds the tree from scratch using sort-tile-recursive packing on
// the rectangles' centres. The tree must be empty.
func (t *Tree) BulkLoad(items []BulkItem) error {
	entries := make([]Entry, len(items))
	for i, it := range items {
		if it.Rect.Empty() {
			return fmt.Errorf("rstar: bulk item %d has empty rectangle %v", i, it.Rect)
		}
		entries[i] = Entry{Bound: it.Rect, Ref: uint64(it.Payload)}
	}
	return rtree.BulkLoad(t.Tree, keys{}, entries)
}

// Check validates the structural invariants.
func (t *Tree) Check() error { return t.Tree.Check(keys{}.Covers) }

package rstar

import (
	"fmt"

	"repro/internal/rtree"
)

// Aliases for the strategy operators that callers outside this package name;
// the enum is rtree.Op.
const (
	OpOverlaps    = rtree.OpOverlaps
	OpContainedIn = rtree.OpContainedIn
)

func leafTest(op rtree.Op, r, q Rect) bool {
	switch op {
	case rtree.OpOverlaps:
		return r.Overlaps(q)
	case rtree.OpEqual:
		return r == q
	case rtree.OpContains:
		return r.Contains(q)
	case rtree.OpContainedIn:
		return q.Contains(r)
	}
	return false
}

func internalTest(op rtree.Op, bound, q Rect) bool {
	switch op {
	case rtree.OpOverlaps, rtree.OpContainedIn:
		return bound.Overlaps(q)
	case rtree.OpEqual, rtree.OpContains:
		return bound.Contains(q)
	}
	return false
}

// query is a search qualification: an operator and a query rectangle.
type query struct {
	op rtree.Op
	q  Rect
}

func (m *query) Leaf(r Rect) bool     { return leafTest(m.op, r, m.q) }
func (m *query) Internal(r Rect) bool { return internalTest(m.op, r, m.q) }

// Covered is the kernel's covered-subtree probe: under Overlaps and
// ContainedIn every rectangle inside a bound the query contains qualifies.
func (m *query) Covered(bound Rect) bool {
	return (m.op == rtree.OpOverlaps || m.op == rtree.OpContainedIn) && m.q.Contains(bound)
}

// Query returns the kernel matcher for op against the query rectangle.
func Query(op rtree.Op, q Rect) (rtree.Matcher[Rect], error) {
	if q.Empty() {
		return nil, fmt.Errorf("rstar: empty query rectangle %v", q)
	}
	return &query{op, q}, nil
}

// Search creates a cursor for op against the query rectangle.
func (t *Tree) Search(op rtree.Op, q Rect) (*Cursor, error) {
	m, err := Query(op, q)
	if err != nil {
		return nil, err
	}
	return t.Tree.Search(m), nil
}

// SearchAll runs the query to completion (tests and benchmarks).
func (t *Tree) SearchAll(op rtree.Op, q Rect) ([]Payload, error) {
	cur, err := t.Search(op, q)
	if err != nil {
		return nil, err
	}
	return cur.All()
}

// KeyLess orders rectangles lexicographically by (XMin, XMax, YMin, YMax) —
// the rstblade maps (TTBegin, TTEnd, VTBegin, VTEnd) onto these coordinates,
// so this is the same total order the GR-tree and the server's tuple-drain
// comparator use for MIN/MAX.
func KeyLess(a, b Rect) bool {
	if a.XMin != b.XMin {
		return a.XMin < b.XMin
	}
	if a.XMax != b.XMax {
		return a.XMax < b.XMax
	}
	if a.YMin != b.YMin {
		return a.YMin < b.YMin
	}
	return a.YMax < b.YMax
}

// KeySpan bounds KeyLess's first key, XMin, over the leaves under a bound:
// a union keeps the least XMin and the greatest XMax, and no stored
// rectangle is empty (Insert, BulkLoad and rstblade's stored keys refuse
// one), so every leaf's XMin lies in [XMin, XMax].
func KeySpan(r Rect) (lo, hi int64, hiKnown bool) { return r.XMin, r.XMax, true }

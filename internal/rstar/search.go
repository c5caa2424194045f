package rstar

import (
	"fmt"

	"repro/internal/rtree"
)

// Op is a query operator, matching the R-tree operator class strategy
// functions Overlap(), Equal(), Contains(), Within() (Section 5.2).
type Op int

const (
	// OpOverlaps finds rectangles sharing a cell with the query.
	OpOverlaps Op = iota
	// OpEqual finds rectangles equal to the query.
	OpEqual
	// OpContains finds rectangles containing the query.
	OpContains
	// OpContainedIn finds rectangles inside the query (Within).
	OpContainedIn
)

func (o Op) String() string {
	switch o {
	case OpOverlaps:
		return "Overlap"
	case OpEqual:
		return "Equal"
	case OpContains:
		return "Contains"
	case OpContainedIn:
		return "Within"
	}
	return "?"
}

func leafTest(op Op, r, q Rect) bool {
	switch op {
	case OpOverlaps:
		return r.Overlaps(q)
	case OpEqual:
		return r == q
	case OpContains:
		return r.Contains(q)
	case OpContainedIn:
		return q.Contains(r)
	}
	return false
}

func internalTest(op Op, bound, q Rect) bool {
	switch op {
	case OpOverlaps, OpContainedIn:
		return bound.Overlaps(q)
	case OpEqual, OpContains:
		return bound.Contains(q)
	}
	return false
}

// query is a search qualification: an operator and a query rectangle.
type query struct {
	op Op
	q  Rect
}

func (m *query) Leaf(r Rect) bool     { return leafTest(m.op, r, m.q) }
func (m *query) Internal(r Rect) bool { return internalTest(m.op, r, m.q) }

// Query returns the kernel matcher for op against the query rectangle.
func Query(op Op, q Rect) (rtree.Matcher[Rect], error) {
	if q.Empty() {
		return nil, fmt.Errorf("rstar: empty query rectangle %v", q)
	}
	return &query{op, q}, nil
}

// Search creates a cursor for op against the query rectangle.
func (t *Tree) Search(op Op, q Rect) (*Cursor, error) {
	m, err := Query(op, q)
	if err != nil {
		return nil, err
	}
	return t.Tree.Search(m), nil
}

// SearchAll runs the query to completion (tests and benchmarks).
func (t *Tree) SearchAll(op Op, q Rect) ([]Payload, error) {
	cur, err := t.Search(op, q)
	if err != nil {
		return nil, err
	}
	return cur.All()
}

// AggCount counts qualifying leaf entries without visiting tuples
// (am_aggregate). The rstblade only offers it when the index holds ground
// (substitution-free) rectangles, so the stored geometry is exact. Subtrees
// the query contains are summed whole for Overlap and Within, where that
// implies every descendant leaf qualifies. ok is false when the query is
// empty or the tree changed structurally mid-traversal.
func (t *Tree) AggCount(op Op, q Rect) (int64, bool, error) {
	if q.Empty() {
		return 0, false, nil
	}
	var covered func(Rect) bool
	if op == OpOverlaps || op == OpContainedIn {
		covered = q.Contains
	}
	return t.Tree.AggCount(&query{op, q}, covered)
}

// rectKeyLess orders rectangles lexicographically by (XMin, XMax, YMin,
// YMax) — the rstblade maps (TTBegin, TTEnd, VTBegin, VTEnd) onto these
// coordinates, so this is the same total order the GR-tree and the server's
// tuple-drain comparator use.
func rectKeyLess(a, b Rect) bool {
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

// AggExtreme returns the minimum (wantMax=false) or maximum (wantMax=true)
// qualifying leaf rectangle under the lexicographic key. found is false when
// nothing qualifies; ok is false when the query is empty or the tree changed
// structurally.
func (t *Tree) AggExtreme(op Op, q Rect, wantMax bool) (Rect, bool, bool, error) {
	if q.Empty() {
		return Rect{}, false, false, nil
	}
	return t.Tree.AggExtreme(&query{op, q}, rectKeyLess, wantMax)
}

// LevelStats aggregates one level for the goodness measures.
type LevelStats = rtree.LevelStats

// Stats walks the tree computing structure, area, and overlap per level,
// leaves first.
func (t *Tree) Stats() ([]LevelStats, error) {
	levels, _, err := rtree.Levels(t.Tree, keys{}.Bound, keys{}.Resolve)
	return levels, err
}

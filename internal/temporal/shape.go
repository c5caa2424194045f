package temporal

import (
	"fmt"

	"repro/internal/chronon"
)

// Shape is a concrete (fully resolved, variable-free) bitemporal region in
// the transaction-time × valid-time plane, over closed chronon intervals:
//
//	{ (t, v) : TTBegin <= t <= TTEnd,
//	           VTBegin <= v <= VTEnd        (rectangle), or
//	           VTBegin <= v <= min(VTEnd,t) (stair) }
//
// The family is closed under intersection (the minimum of rectangle tops and
// stair tops is again of this form), which makes overlap, containment, and
// intersection-area computations exact and cheap. A "pure" stair as drawn in
// Figure 1 has VTEnd = TTEnd; clipped stairs with a lower cap arise from
// intersections.
type Shape struct {
	TTBegin, TTEnd int64
	VTBegin, VTEnd int64
	Stair          bool
}

// Rect returns a rectangle shape.
func Rect(ttb, tte, vtb, vte int64) Shape {
	return Shape{TTBegin: ttb, TTEnd: tte, VTBegin: vtb, VTEnd: vte}
}

// Stair returns a stair shape whose top boundary is v = t, spanning
// transaction times [ttb, tte] above valid-time floor vtb.
func StairShape(ttb, tte, vtb int64) Shape {
	return Shape{TTBegin: ttb, TTEnd: tte, VTBegin: vtb, VTEnd: tte, Stair: true}
}

// Empty reports whether the shape contains no chronon cell.
func (s Shape) Empty() bool {
	if s.TTBegin > s.TTEnd || s.VTBegin > s.VTEnd {
		return true
	}
	if s.Stair {
		// Some column t must reach the floor: need t >= VTBegin for t <= TTEnd.
		return s.TTEnd < s.VTBegin
	}
	return false
}

// Contains reports whether the cell (t, v) lies inside the shape.
func (s Shape) ContainsPoint(t, v int64) bool {
	if t < s.TTBegin || t > s.TTEnd || v < s.VTBegin || v > s.VTEnd {
		return false
	}
	if s.Stair && v > t {
		return false
	}
	return true
}

// Area returns the number of chronon cells in the shape.
func (s Shape) Area() float64 {
	if s.Empty() {
		return 0
	}
	if !s.Stair {
		return float64(s.TTEnd-s.TTBegin+1) * float64(s.VTEnd-s.VTBegin+1)
	}
	// Stair columns: for t in [a, b], height = max(0, min(VTEnd, t) - VTBegin + 1).
	a := s.TTBegin
	if a < s.VTBegin {
		a = s.VTBegin // columns left of the floor are empty
	}
	b := s.TTEnd
	if a > b {
		return 0
	}
	var area float64
	// Triangular part: t in [a, min(b, VTEnd)] has height t - VTBegin + 1.
	m := b
	if m > s.VTEnd {
		m = s.VTEnd
	}
	if a <= m {
		n := float64(m - a + 1)
		area += n*float64(1-s.VTBegin) + float64(a+m)*n/2
	}
	// Rectangular tail: t in [max(a, VTEnd+1), b] has height VTEnd - VTBegin + 1.
	ta := a
	if ta < s.VTEnd+1 {
		ta = s.VTEnd + 1
	}
	if ta <= b {
		area += float64(b-ta+1) * float64(s.VTEnd-s.VTBegin+1)
	}
	return area
}

// Intersect returns the intersection of two shapes; the result may be empty.
func (s Shape) Intersect(o Shape) Shape {
	r := Shape{
		TTBegin: maxi(s.TTBegin, o.TTBegin),
		TTEnd:   mini(s.TTEnd, o.TTEnd),
		VTBegin: maxi(s.VTBegin, o.VTBegin),
		VTEnd:   mini(s.VTEnd, o.VTEnd),
		Stair:   s.Stair || o.Stair,
	}
	return r
}

// Overlaps reports whether the two shapes share at least one cell: whether
// their intersection is non-empty, tested without building it.
func (s Shape) Overlaps(o Shape) bool {
	tte, vtb := mini(s.TTEnd, o.TTEnd), maxi(s.VTBegin, o.VTBegin)
	return maxi(s.TTBegin, o.TTBegin) <= tte && vtb <= mini(s.VTEnd, o.VTEnd) &&
		(!s.Stair && !o.Stair || tte >= vtb)
}

// IntersectionArea returns the number of cells shared by the two shapes.
func (s Shape) IntersectionArea(o Shape) float64 {
	return s.Intersect(o).Area()
}

// ContainsShape reports whether o is a (possibly improper) subset of s.
// An empty o is contained in everything.
func (s Shape) ContainsShape(o Shape) bool {
	if o.Empty() {
		return true
	}
	return s.Intersect(o).Area() == o.Area()
}

// EqualShape reports whether the two shapes cover exactly the same cells.
func (s Shape) EqualShape(o Shape) bool {
	if s.Empty() || o.Empty() {
		return s.Empty() && o.Empty()
	}
	a, b := s.Area(), o.Area()
	return a == b && s.Intersect(o).Area() == a
}

// BoundingBox returns the tight rectangular bounding box of the shape.
func (s Shape) BoundingBox() Shape {
	if s.Empty() {
		return s
	}
	if !s.Stair {
		return s
	}
	a := maxi(s.TTBegin, s.VTBegin)
	top := mini(s.TTEnd, s.VTEnd)
	return Rect(a, s.TTEnd, s.VTBegin, top)
}

// Margin returns the half-perimeter of the shape's bounding box, the measure
// used by the R*-style split axis choice.
func (s Shape) Margin() float64 {
	if s.Empty() {
		return 0
	}
	b := s.BoundingBox()
	return float64(b.TTEnd-b.TTBegin+1) + float64(b.VTEnd-b.VTBegin+1)
}

// String renders the shape for diagnostics and tree dumps.
func (s Shape) String() string {
	kind := "rect"
	if s.Stair {
		kind = "stair"
	}
	return fmt.Sprintf("%s[tt %d..%d, vt %d..%d]", kind, s.TTBegin, s.TTEnd, s.VTBegin, s.VTEnd)
}

func maxi(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func mini(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func ground(t chronon.Instant) int64 { return int64(t) }

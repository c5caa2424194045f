package temporal

import (
	"testing"
	"testing/quick"
)

// enumerate returns the set of cells of s within the window [-2, lim]², used
// to cross-check the closed-form algebra against brute force.
func enumerate(s Shape, lim int64) map[[2]int64]bool {
	cells := make(map[[2]int64]bool)
	for t := int64(-2); t <= lim; t++ {
		for v := int64(-2); v <= lim; v++ {
			if s.ContainsPoint(t, v) {
				cells[[2]int64{t, v}] = true
			}
		}
	}
	return cells
}

// smallShapes generates a diverse set of shapes with coordinates in [0, lim].
func smallShapes(lim int64) []Shape {
	var out []Shape
	for ttb := int64(0); ttb <= lim; ttb += 3 {
		for tte := ttb - 1; tte <= lim; tte += 3 {
			for vtb := int64(0); vtb <= lim; vtb += 3 {
				for vte := vtb - 1; vte <= lim; vte += 3 {
					out = append(out,
						Rect(ttb, tte, vtb, vte),
						Shape{TTBegin: ttb, TTEnd: tte, VTBegin: vtb, VTEnd: vte, Stair: true})
				}
			}
		}
	}
	return out
}

func TestShapeAreaBruteForce(t *testing.T) {
	const lim = 12
	for _, s := range smallShapes(lim) {
		want := float64(len(enumerate(s, lim+4)))
		if got := s.Area(); got != want {
			t.Fatalf("%v: Area = %v, want %v", s, got, want)
		}
		if s.Empty() != (want == 0) {
			t.Fatalf("%v: Empty = %v but area %v", s, s.Empty(), want)
		}
	}
}

func TestShapeIntersectBruteForce(t *testing.T) {
	const lim = 9
	shapes := smallShapes(lim)
	for i := 0; i < len(shapes); i += 7 {
		for j := 0; j < len(shapes); j += 11 {
			a, b := shapes[i], shapes[j]
			cellsA, cellsB := enumerate(a, lim+4), enumerate(b, lim+4)
			inter := 0
			for c := range cellsA {
				if cellsB[c] {
					inter++
				}
			}
			if got := a.IntersectionArea(b); got != float64(inter) {
				t.Fatalf("%v ∩ %v: area %v, want %d", a, b, got, inter)
			}
			if got := a.Overlaps(b); got != (inter > 0) {
				t.Fatalf("%v overlaps %v: %v, want %v", a, b, got, inter > 0)
			}
			contains := len(cellsB) > 0 || true
			for c := range cellsB {
				if !cellsA[c] {
					contains = false
					break
				}
			}
			if got := a.ContainsShape(b); got != contains {
				t.Fatalf("%v contains %v: %v, want %v", a, b, got, contains)
			}
			equal := len(cellsA) == len(cellsB) && inter == len(cellsA)
			if got := a.EqualShape(b); got != equal {
				t.Fatalf("%v equal %v: %v, want %v", a, b, got, equal)
			}
		}
	}
}

// TestOverlapsIsANonEmptyIntersection: Overlaps, which tests the
// intersection's bounds without building it, answers as the intersection's
// own Empty (held to brute force above) on every pair of shapes with
// coordinates in [0, 4], so every begin meets every end at, before and after
// it.
func TestOverlapsIsANonEmptyIntersection(t *testing.T) {
	var shapes []Shape
	for ttb := int64(0); ttb <= 4; ttb++ {
		for tte := ttb - 1; tte <= 4; tte++ {
			for vtb := int64(0); vtb <= 4; vtb++ {
				for vte := vtb - 1; vte <= 4; vte++ {
					shapes = append(shapes, Rect(ttb, tte, vtb, vte),
						Shape{TTBegin: ttb, TTEnd: tte, VTBegin: vtb, VTEnd: vte, Stair: true})
				}
			}
		}
	}
	for _, a := range shapes {
		for _, b := range shapes {
			if got, want := a.Overlaps(b), !a.Intersect(b).Empty(); got != want {
				t.Fatalf("%v overlaps %v: %v, intersection non-empty: %v", a, b, got, want)
			}
		}
	}
}

func TestStairShapeGeometry(t *testing.T) {
	// A growing stair resolved at ct=8 starting at tt=3, floor vt=1:
	// columns t=3..8 with v from 1..t.
	s := StairShape(3, 8, 1)
	if s.Empty() {
		t.Fatal("stair must be non-empty")
	}
	want := float64(0)
	for tt := int64(3); tt <= 8; tt++ {
		want += float64(tt - 1 + 1)
	}
	if got := s.Area(); got != want {
		t.Fatalf("stair area %v, want %v", got, want)
	}
	if !s.ContainsPoint(5, 5) || s.ContainsPoint(5, 6) {
		t.Fatal("stair boundary v=t must be inclusive, v>t excluded")
	}
	if !s.ContainsPoint(3, 1) || s.ContainsPoint(2, 1) {
		t.Fatal("stair tt-begin boundary")
	}
}

func TestStairHighFirstStep(t *testing.T) {
	// Case 5: tt1 > vt1 yields a high first step: at t=tt1 the column spans
	// vt1..tt1 (Figure 1, case 5).
	s := StairShape(5, 9, 2)
	for v := int64(2); v <= 5; v++ {
		if !s.ContainsPoint(5, v) {
			t.Fatalf("first step must include (5,%d)", v)
		}
	}
	if s.ContainsPoint(5, 6) {
		t.Fatal("first step must stop at v=t")
	}
}

func TestStairEmptyFloorAboveTop(t *testing.T) {
	// Floor above the last column: no cell can satisfy vtb <= v <= t.
	s := StairShape(2, 4, 6)
	if !s.Empty() || s.Area() != 0 {
		t.Fatalf("stair with floor above top must be empty, got area %v", s.Area())
	}
}

func TestBoundingBoxAndMargin(t *testing.T) {
	s := StairShape(3, 8, 1)
	bb := s.BoundingBox()
	if bb.TTBegin != 3 || bb.TTEnd != 8 || bb.VTBegin != 1 || bb.VTEnd != 8 || bb.Stair {
		t.Fatalf("stair bbox = %v", bb)
	}
	if got := s.Margin(); got != float64(8-3+1)+float64(8-1+1) {
		t.Fatalf("margin %v", got)
	}
	// Clipped stair bbox: cap below tt-end.
	c := Shape{TTBegin: 3, TTEnd: 8, VTBegin: 1, VTEnd: 5, Stair: true}
	bb = c.BoundingBox()
	if bb.VTEnd != 5 {
		t.Fatalf("clipped stair bbox top = %d, want 5", bb.VTEnd)
	}
	// Stair with floor > tt-begin: bbox tt-begin is the floor.
	f := StairShape(1, 8, 4)
	if bb := f.BoundingBox(); bb.TTBegin != 4 {
		t.Fatalf("floor-limited stair bbox tt-begin = %d, want 4", bb.TTBegin)
	}
}

func TestEqualStairRectDegenerate(t *testing.T) {
	// A stair whose constraint never binds equals the rectangle it fills.
	s := Shape{TTBegin: 5, TTEnd: 8, VTBegin: 0, VTEnd: 3, Stair: true}
	r := Rect(5, 8, 0, 3)
	if !s.EqualShape(r) || !r.EqualShape(s) {
		t.Fatal("non-binding stair must equal its rectangle")
	}
	// A single-column stair equals the column rectangle.
	col := Shape{TTBegin: 6, TTEnd: 6, VTBegin: 2, VTEnd: 6, Stair: true}
	if !col.EqualShape(Rect(6, 6, 2, 6)) {
		t.Fatal("single-column stair must equal column rect")
	}
}

func TestIntersectClosedUnderFamily(t *testing.T) {
	// rect ∩ stair is a capped stair; verify a hand-computed case.
	r := Rect(0, 10, 0, 3)
	s := StairShape(5, 8, 2)
	got := r.Intersect(s)
	// cells: t in 5..8, v in 2..min(3,t) = 2..3 → 4*2 = 8 cells.
	if got.Area() != 8 {
		t.Fatalf("capped stair area %v, want 8", got.Area())
	}
}

func TestShapePropertyIntersectionCommutes(t *testing.T) {
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 uint8, sa, sb bool) bool {
		a := Shape{TTBegin: int64(a0 % 16), TTEnd: int64(a1 % 16), VTBegin: int64(a2 % 16), VTEnd: int64(a3 % 16), Stair: sa}
		b := Shape{TTBegin: int64(b0 % 16), TTEnd: int64(b1 % 16), VTBegin: int64(b2 % 16), VTEnd: int64(b3 % 16), Stair: sb}
		return a.IntersectionArea(b) == b.IntersectionArea(a) &&
			a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestShapePropertyIntersectionBounded(t *testing.T) {
	f := func(a0, a1, a2, a3, b0, b1, b2, b3 uint8, sa, sb bool) bool {
		a := Shape{TTBegin: int64(a0 % 16), TTEnd: int64(a1 % 16), VTBegin: int64(a2 % 16), VTEnd: int64(a3 % 16), Stair: sa}
		b := Shape{TTBegin: int64(b0 % 16), TTEnd: int64(b1 % 16), VTBegin: int64(b2 % 16), VTEnd: int64(b3 % 16), Stair: sb}
		ia := a.IntersectionArea(b)
		return ia <= a.Area() && ia <= b.Area() && ia >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestShapePropertySelfIdentity(t *testing.T) {
	f := func(a0, a1, a2, a3 uint8, st bool) bool {
		a := Shape{TTBegin: int64(a0 % 16), TTEnd: int64(a1 % 16), VTBegin: int64(a2 % 16), VTEnd: int64(a3 % 16), Stair: st}
		return a.ContainsShape(a) && a.EqualShape(a) && a.IntersectionArea(a) == a.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

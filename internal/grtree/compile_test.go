package grtree

import (
	"math/rand"
	"testing"

	"repro/internal/chronon"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// randomRegion draws a stored region as of ct, leaf or bound: UC and NOW
// ends, growing rectangles, and Hidden bounds, whose fixed valid-time end
// the stair inside them outgrows once the current time passes it.
func randomRegion(rng *rand.Rand, ct chronon.Instant) temporal.Region {
	c := int64(ct)
	r := temporal.Region{TTBegin: chronon.Instant(rng.Int63n(c + 1)), VTBegin: chronon.Instant(rng.Int63n(c + 1))}
	r.TTEnd = chronon.UC
	if rng.Intn(2) == 0 {
		r.TTEnd = r.TTBegin + chronon.Instant(rng.Int63n(c-int64(r.TTBegin)+1))
	}
	switch rng.Intn(3) {
	case 0:
		r.VTEnd, r.Rect = chronon.NOW, rng.Intn(2) == 0
	case 1:
		r.VTEnd = r.VTBegin + chronon.Instant(rng.Int63n(60))
	default:
		r.VTEnd, r.Hidden = r.VTBegin+chronon.Instant(rng.Int63n(60)), true
	}
	return r
}

// randomCompound draws an AND/OR tree of predicates, depth at most depth.
func randomCompound(rng *rand.Rand, ct chronon.Instant, depth int) *Compound {
	if depth == 0 || rng.Intn(3) == 0 {
		return Leaf(Predicate{Op: rtree.Op(rng.Intn(4)), Query: randomExtent(rng, ct)})
	}
	kids := make([]*Compound, 1+rng.Intn(3))
	for i := range kids {
		kids[i] = randomCompound(rng, ct, depth-1)
	}
	if rng.Intn(2) == 0 {
		return AndOf(kids...)
	}
	return OrOf(kids...)
}

// regionLeafTest is the strategy function written with Region's own methods,
// which resolve both sides at ct on every call: the definition leafTest must
// agree with. Region's containment is structural (an empty region lies inside
// every other); the strategy functions add the rule that a region empty at ct
// neither contains nor is contained in anything.
func regionLeafTest(op rtree.Op, entry, query temporal.Region, ct chronon.Instant) bool {
	empty := entry.Resolve(ct).Empty() || query.Resolve(ct).Empty()
	switch op {
	case rtree.OpOverlaps:
		return entry.Overlaps(query, ct)
	case rtree.OpEqual:
		return entry.Equal(query, ct)
	case rtree.OpContains:
		return !empty && entry.Contains(query, ct)
	case rtree.OpContainedIn:
		return !empty && entry.ContainedIn(query, ct)
	}
	return false
}

// TestCompiledMatchesReference: a qualification compiled at ct answers every
// leaf, internal and covered test exactly as the reference evaluation
// (Compound.LeafMatch and InternalMatch, Region's own methods, Region.Contains)
// does at ct — over all four operators, AND/OR compounds, and current times on
// both sides of a Hidden bound's outgrowth.
func TestCompiledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const base = chronon.Instant(200)
	cases := 0
	for trial := 0; trial < 3000; trial++ {
		c := randomCompound(rng, base, 3)
		regions := []temporal.Region{randomRegion(rng, base), randomRegion(rng, base), randomRegion(rng, base)}
		if c.Pred != nil {
			regions = append(regions, c.Pred.Query.Region()) // Equal and Contains hold on their query
		}
		for _, r := range regions {
			cts := []chronon.Instant{base, base + 1, base + 45}
			if r.Hidden {
				cts = append(cts, r.VTEnd, r.VTEnd+1)
			}
			for _, ct := range cts {
				m, err := c.Compile(ct)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := m.Leaf(r), c.LeafMatch(r, ct); got != want {
					t.Fatalf("Leaf(%v) at %d = %v, reference %v", r, ct, got, want)
				}
				if got, want := m.Internal(r), c.InternalMatch(r, ct); got != want {
					t.Fatalf("Internal(%v) at %d = %v, reference %v", r, ct, got, want)
				}
				if c.Pred != nil {
					if got, want := m.Leaf(r), regionLeafTest(c.Pred.Op, r, c.Pred.Query.Region(), ct); got != want {
						t.Fatalf("%v Leaf(%v) at %d = %v, Region methods %v", c.Pred.Op, r, ct, got, want)
					}
					if got, want := m.covers(r), c.Pred.Query.Region().Contains(r, ct); got != want {
						t.Fatalf("covers(%v) at %d = %v, reference %v", r, ct, got, want)
					}
					// The kernel sums a covered subtree whole only where that
					// implies every leaf under it qualifies: none is empty at ct.
					sums := c.Pred.Op == rtree.OpOverlaps || c.Pred.Op == rtree.OpContainedIn
					if got, want := m.Covered(r), sums && r.StartedBy(ct) && m.covers(r); got != want {
						t.Fatalf("%v Covered(%v) at %d = %v, want %v", c.Pred.Op, r, ct, got, want)
					}
				} else if m.Covered(r) {
					t.Fatalf("Covered(%v) holds for a compound qualification", r)
				}
				cases++
			}
		}
	}
	t.Logf("%d cases", cases)
}

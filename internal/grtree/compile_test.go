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
// both sides of a Hidden bound's outgrowth. A second pass draws entries on the
// edges of Leaf's raw-time pre-check (edgeRegions), where a rejection one
// chronon too eager would drop an answer.
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
	// Regions at the edges of Leaf's raw-time pre-check, against stair and
	// rectangle queries and, for Equal's exemption, queries empty at ct.
	edges := 0
	for trial := 0; trial < 1500; trial++ {
		c := randomCompound(rng, base, 2)
		if trial%8 == 0 {
			q := randomExtent(rng, base)
			q.TTBegin, q.TTEnd = base+2+chronon.Instant(rng.Intn(40)), chronon.UC // empty until it starts
			c = Leaf(Predicate{Op: rtree.Op(rng.Intn(4)), Query: q})
		}
		for _, ct := range []chronon.Instant{base, base + 1, base + 45} {
			m, err := c.Compile(ct)
			if err != nil {
				t.Fatal(err)
			}
			var regions []temporal.Region
			for _, q := range queriesOf(c) {
				regions = append(regions, edgeRegions(rng, q.Region().Resolve(ct), ct)...)
			}
			for _, r := range regions {
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
				}
				edges++
			}
		}
	}
	t.Logf("%d cases, %d at the pre-check's edges", cases, edges)
}

// queriesOf lists the query extents of a qualification's predicates.
func queriesOf(c *Compound) []temporal.Extent {
	if c.Pred != nil {
		return []temporal.Extent{c.Pred.Query}
	}
	var out []temporal.Extent
	for _, ch := range c.Children {
		out = append(out, queriesOf(ch)...)
	}
	return out
}

// edgeRegions draws regions on each edge of Leaf's pre-check against the
// query q resolved at ct: a TTBegin one before, at or one after q's TTEnd, a
// VTBegin likewise around q's VTEnd, and a ground TTEnd around q's TTBegin.
// Each comes with every valid-time end: a NOW stair, a NOW growing
// rectangle, a fixed end, and a Hidden bound just before (VTEnd = ct) and
// just after (VTEnd = ct-1) the stair inside it outgrows it.
func edgeRegions(rng *rand.Rand, q temporal.Shape, ct chronon.Instant) []temporal.Region {
	draw := func(n int64) chronon.Instant { return chronon.Instant(rng.Int63n(n)) }
	var out []temporal.Region
	for d := int64(-1); d <= 1; d++ {
		var rs [3]temporal.Region
		// TTBegin at q's TTEnd, growing or ended.
		rs[0].TTBegin, rs[0].VTBegin = chronon.Instant(q.TTEnd+d), draw(int64(ct)+1)
		rs[0].TTEnd = chronon.UC
		if rng.Intn(2) == 0 {
			rs[0].TTEnd = rs[0].TTBegin + draw(30)
		}
		// VTBegin at q's VTEnd.
		rs[1].TTBegin, rs[1].VTBegin = draw(int64(ct)+1), chronon.Instant(q.VTEnd+d)
		rs[1].TTEnd = chronon.UC
		if rng.Intn(2) == 0 {
			rs[1].TTEnd = rs[1].TTBegin + draw(60)
		}
		// A ground TTEnd at q's TTBegin.
		rs[2].TTEnd = chronon.Instant(q.TTBegin + d)
		rs[2].TTBegin, rs[2].VTBegin = rs[2].TTEnd-draw(30), draw(int64(ct)+1)
		for _, r := range rs {
			for kind := 0; kind < 5; kind++ {
				switch kind {
				case 0:
					r.VTEnd, r.Rect, r.Hidden = chronon.NOW, false, false
				case 1:
					r.VTEnd, r.Rect, r.Hidden = chronon.NOW, true, false
				case 2:
					r.VTEnd, r.Rect, r.Hidden = r.VTBegin+draw(60), true, false
				case 3:
					r.VTEnd, r.Rect, r.Hidden = ct, true, true
				default:
					r.VTEnd, r.Rect, r.Hidden = ct-1, true, true
				}
				out = append(out, r)
			}
		}
	}
	return out
}

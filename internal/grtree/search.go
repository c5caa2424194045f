package grtree

import (
	"fmt"

	"repro/internal/chronon"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// Aliases for the strategy operators that callers outside this package name;
// the enum is rtree.Op.
const (
	OpOverlaps    = rtree.OpOverlaps
	OpContainedIn = rtree.OpContainedIn
)

// leafTest evaluates the predicate against a leaf region — the strategy
// function proper, operating on exact geometry: the entry and the query
// resolved at the same current time. A region empty at ct (one that starts
// after it) overlaps nothing, contains nothing and is contained in nothing;
// only Equal matches it, to another empty region. An empty operand of
// Contains or ContainedIn fails the geometric test already when the other
// operand is non-empty, so each case checks only the operand that could be
// vacuously contained.
func leafTest(op rtree.Op, entry, query temporal.Shape) bool {
	switch op {
	case rtree.OpOverlaps:
		return entry.Overlaps(query)
	case rtree.OpEqual:
		return entry.EqualShape(query)
	case rtree.OpContains:
		return !query.Empty() && entry.ContainsShape(query)
	case rtree.OpContainedIn:
		return !entry.Empty() && query.ContainsShape(entry)
	}
	return false
}

// internalTest is the pruning predicate for internal-node bounding regions —
// the "internal" companion of each strategy function that Section 5.2
// discusses (OverlapsInternal() etc., hard-coded in the prototype): it must
// hold whenever any descendant leaf could satisfy the strategy function.
// bound is the bounding region resolved at current time ct; starts is the
// region itself, whose start maxima say how late the leaves under it begin.
//
// The maxima prune on one fact: a valid extent that is non-empty at ct has
// its first cell at (TTBegin, VTBegin), because a valid stair has TTBegin >=
// VTBegin. So a non-empty leaf equal to, or inside, a query starts no
// earlier than the query does on either axis, and a bound none of whose
// leaves starts that late holds no answer.
func internalTest(op rtree.Op, bound temporal.Shape, starts temporal.Region, query temporal.Shape, ct chronon.Instant) bool {
	switch op {
	case rtree.OpOverlaps:
		// A leaf overlapping the query overlaps it, so its ancestors'
		// bounds do too.
		return bound.Overlaps(query)
	case rtree.OpContainedIn:
		// A leaf inside the query is not empty at ct, so it overlaps the
		// query, as its ancestors' bounds do, and starts within it.
		return bound.Overlaps(query) && startsReach(starts, query)
	case rtree.OpEqual:
		// A leaf equal to the query contains it, so its ancestors' bounds
		// contain it as well; a non-empty one starts where the query does.
		return bound.ContainsShape(query) && (query.Empty() || startsReach(starts, query))
	case rtree.OpContains:
		// A leaf containing the query contains it, so its ancestors' bounds
		// do too.
		return bound.ContainsShape(query)
	}
	return false
}

// startsReach reports whether some leaf under the bound may start as late as
// the query does, on both axes.
func startsReach(starts temporal.Region, query temporal.Shape) bool {
	return starts.StartsReach(chronon.Instant(query.TTBegin), chronon.Instant(query.VTBegin))
}

// Predicate is a search qualification: an operator and a query extent.
type Predicate struct {
	Op    rtree.Op
	Query temporal.Extent
}

// Match evaluates the predicate against an extent at ct (the non-indexed
// fallback the server uses when the optimizer skips the index).
func (p Predicate) Match(e temporal.Extent, ct chronon.Instant) bool {
	return p.LeafMatch(e.Region(), ct)
}

// Search creates a cursor for the predicate as of current time ct
// (Tree.search() of Appendix A).
func (t *Tree) Search(pred Predicate, ct chronon.Instant) (*Cursor, error) {
	if !pred.Query.Valid() {
		return nil, fmt.Errorf("grtree: invalid query extent %v", pred.Query)
	}
	return t.Tree.Search(pred.compile(ct)), nil
}

// SearchAll runs the predicate to completion and returns the payloads
// (convenience for tests and benchmarks).
func (t *Tree) SearchAll(pred Predicate, ct chronon.Instant) ([]Payload, error) {
	cur, err := t.Search(pred, ct)
	if err != nil {
		return nil, err
	}
	return cur.All()
}

// AggCount counts the leaf entries satisfying pred at ct without visiting
// tuples (am_aggregate); see Compiled.Covered for the subtrees it sums whole.
// ok is false when the query is invalid or the tree changed structurally
// during the traversal.
func (t *Tree) AggCount(pred Predicate, ct chronon.Instant) (int64, bool, error) {
	if !pred.Query.Valid() {
		return 0, false, nil
	}
	return t.Tree.AggCount(pred.compile(ct))
}

// KeyLess orders regions by the raw lexicographic instant key (TTBegin,
// TTEnd, VTBegin, VTEnd). The chronon sentinels (NOW, UC, Forever) are large
// int64 values, so now-relative extents deterministically sort above all
// ground instants — the same total order the server's tuple-drain comparator
// applies, which is what makes pushed MIN/MAX agree exactly with the
// fallback.
func KeyLess(a, b temporal.Region) bool {
	if a.TTBegin != b.TTBegin {
		return a.TTBegin < b.TTBegin
	}
	if a.TTEnd != b.TTEnd {
		return a.TTEnd < b.TTEnd
	}
	if a.VTBegin != b.VTBegin {
		return a.VTBegin < b.VTBegin
	}
	return a.VTEnd < b.VTEnd
}

// AggExtreme returns the minimum (wantMax=false) or maximum (wantMax=true)
// qualifying leaf region under KeyLess. found is false when no entry
// qualifies; ok is false when the query is invalid or the tree changed
// structurally.
func (t *Tree) AggExtreme(pred Predicate, ct chronon.Instant, wantMax bool) (temporal.Region, bool, bool, error) {
	if !pred.Query.Valid() {
		return temporal.Region{}, false, false, nil
	}
	return t.Tree.AggExtreme(pred.compile(ct), KeyLess, KeySpan, wantMax)
}

// KeySpan bounds KeyLess's first key, TTBegin, over the leaves under a
// bound: none starts before the bound's TTBegin, and none after its start
// maximum TTBegin+LateTT unless that is LateUnknown. A leaf decodes with
// LateTT 0, so its span is its own TTBegin.
func KeySpan(r temporal.Region) (lo, hi int64, hiKnown bool) {
	return int64(r.TTBegin), int64(r.TTBegin) + int64(r.LateTT), r.LateTT != temporal.LateUnknown
}

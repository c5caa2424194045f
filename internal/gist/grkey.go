package gist

import (
	"encoding/binary"

	"repro/internal/chronon"
	"repro/internal/grtree"
	"repro/internal/rstar"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// GRKeyClass expresses the GR-tree as a GiST operator class: keys are
// (possibly growing) bitemporal regions with the Rectangle and Hidden
// flags, Union is the minimum-bounding-region computation of Section 3,
// and Consistent evaluates the bitemporal strategy predicates. This is the
// paper's Section 7 suggestion made concrete: the specialized index becomes
// an opclass over a generic method. The kernel's R* heuristics score a key
// by its bounding box at the time-parameter horizon, where the dedicated
// GR-tree scores the stair-shape itself — the split quality the uniform
// extension interface gives up.
type GRKeyClass struct {
	// Clock supplies the current time for resolving UC and NOW.
	Clock chronon.Clock
	// Policy tunes bounding (time parameter, hidden bounds).
	Policy temporal.BoundPolicy
}

// NewGRKeyClass returns the class with the default bounding policy.
func NewGRKeyClass(clock chronon.Clock) *GRKeyClass {
	return &GRKeyClass{Clock: clock, Policy: temporal.DefaultBoundPolicy}
}

// GR keys serialize as 4 timestamps + 1 flag byte (Rect|Hidden) = 33 bytes.
const grKeySize = 33

// GRKey encodes a region as a key.
func GRKey(r temporal.Region) string {
	var buf [grKeySize]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(r.TTBegin))
	binary.BigEndian.PutUint64(buf[8:16], uint64(r.TTEnd))
	binary.BigEndian.PutUint64(buf[16:24], uint64(r.VTBegin))
	binary.BigEndian.PutUint64(buf[24:32], uint64(r.VTEnd))
	if r.Rect {
		buf[32] |= 1
	}
	if r.Hidden {
		buf[32] |= 2
	}
	return string(buf[:])
}

// GRExtentKey encodes a leaf extent as a key.
func GRExtentKey(e temporal.Extent) string { return GRKey(e.Region()) }

func decodeGRKey(key string) temporal.Region {
	return temporal.Region{
		TTBegin: chronon.Instant(binary.BigEndian.Uint64([]byte(key[0:8]))),
		TTEnd:   chronon.Instant(binary.BigEndian.Uint64([]byte(key[8:16]))),
		VTBegin: chronon.Instant(binary.BigEndian.Uint64([]byte(key[16:24]))),
		VTEnd:   chronon.Instant(binary.BigEndian.Uint64([]byte(key[24:32]))),
		Rect:    key[32]&1 != 0,
		Hidden:  key[32]&2 != 0,
	}
}

// Aliases for the strategy operators that callers outside this package name;
// the enum is rtree.Op.
const (
	GROverlaps    = rtree.OpOverlaps
	GRContainedIn = rtree.OpContainedIn
)

// GRQuery is a bitemporal strategy predicate.
type GRQuery struct {
	Op rtree.Op
	Q  temporal.Extent
}

// Class implements Query.
func (GRQuery) Class() string { return grName }

const grName = "grt_gist_ops"

// Name implements KeyClass.
func (*GRKeyClass) Name() string { return grName }

// KeySize implements KeyClass.
func (*GRKeyClass) KeySize() int { return grKeySize }

// Consistent implements KeyClass: on leaves, the GR-tree's own strategy
// test (grtree.Predicate.LeafMatch, so both access methods answer one rule);
// on unions, the sound internal-pruning tests (Section 5.2's Internal
// variants).
func (c *GRKeyClass) Consistent(key string, q Query, leaf bool) bool {
	gq, ok := q.(GRQuery)
	if !ok {
		return false
	}
	r, ct := decodeGRKey(key), c.Clock.Now()
	switch {
	case leaf:
		return grtree.Predicate{Op: gq.Op, Query: gq.Q}.LeafMatch(r, ct)
	case gq.Op == rtree.OpOverlaps || gq.Op == rtree.OpContainedIn:
		return r.Overlaps(gq.Q.Region(), ct)
	}
	return r.Contains(gq.Q.Region(), ct)
}

// Union implements KeyClass via the Section 3 minimum-bounding-region
// computation (stairs, growing rectangles, hidden bounds and all).
func (c *GRKeyClass) Union(keys []string) string {
	regs := make([]temporal.Region, len(keys))
	for i, k := range keys {
		regs[i] = decodeGRKey(k)
	}
	return GRKey(temporal.Bound(regs, c.Clock.Now(), c.Policy))
}

// Covers implements KeyClass: containment now.
func (c *GRKeyClass) Covers(outer, inner string) bool {
	return decodeGRKey(outer).Contains(decodeGRKey(inner), c.Clock.Now())
}

// Box implements KeyClass: the region's bounding box at the time-parameter
// horizon, transaction time on the first axis.
func (c *GRKeyClass) Box(key string) rstar.Rect {
	bb := decodeGRKey(key).Resolve(c.Clock.Now() + chronon.Instant(c.Policy.TimeParam)).BoundingBox()
	return rstar.Rect{XMin: bb.TTBegin, XMax: bb.TTEnd, YMin: bb.VTBegin, YMax: bb.VTEnd}
}

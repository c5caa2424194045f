package temporal

import (
	"fmt"

	"repro/internal/chronon"
)

// Region is a possibly growing bitemporal region as stored in a GR-tree node
// entry (Section 3): four timestamps, where TTEnd may be the variable UC and
// VTEnd the variable NOW, plus the two flags of a non-leaf entry.
//
// The "Rectangle" flag distinguishes the two readings of the timestamp
// combination (tt1, UC, vt1, NOW): with Rect set it is a rectangle growing in
// both transaction and valid time; cleared it is a stair-shape. For leaf
// extents the flag is derived (VTEnd = NOW means stair) and Hidden is false.
//
// The "Hidden" flag marks a bounding rectangle with a fixed valid-time end
// that encloses a growing stair-shape; one day the stair outgrows the
// rectangle, and Adjust repairs the region per the paper's algorithm.
//
// LateTT and LateVT are a bound's start maxima: the latest TTBegin and
// VTBegin among the regions it bounds, as deltas above its own TTBegin and
// VTBegin. A bound's lower corner says how early its entries start; these say
// how late, which a growing bound's upper corner never does. A leaf's are 0
// (its latest begins are its own), and LateUnknown records nothing.
type Region struct {
	TTBegin chronon.Instant
	TTEnd   chronon.Instant
	VTBegin chronon.Instant
	VTEnd   chronon.Instant
	Rect    bool
	Hidden  bool
	LateTT  uint16
	LateVT  uint16
}

// LateUnknown is the start-maximum delta that claims nothing: a delta too
// large to keep (about 179 years of days) saturates to it, and it absorbs in
// every bound above. It is the largest uint16: the deltas are 16 bits so
// that a Region stays 40 bytes, the size a scan decodes per entry.
const LateUnknown = 1<<16 - 1

// lateDelta is the start-maximum delta of a latest begin late above begin,
// saturated.
func lateDelta(begin, late chronon.Instant) uint16 {
	if d := int64(late) - int64(begin); d >= 0 && d < LateUnknown {
		return uint16(d)
	}
	return LateUnknown
}

// late reports whether a start maximum, delta above begin, reaches at: it
// lies at or after at, or is unknown.
func late(begin chronon.Instant, delta uint16, at chronon.Instant) bool {
	return delta == LateUnknown || begin+chronon.Instant(delta) >= at
}

// StartsReach reports whether the regions r bounds may start as late as tt
// in transaction time and as late as vt in valid time: each of r's start
// maxima reaches its bound, or is unknown. A region that fails it holds no
// entry starting at (tt, vt).
func (r Region) StartsReach(tt, vt chronon.Instant) bool {
	return late(r.TTBegin, r.LateTT, tt) && late(r.VTBegin, r.LateVT, vt)
}

// StartedBy reports whether every region r bounds has started by ct in
// transaction time: r's latest TTBegin is known and at most ct.
func (r Region) StartedBy(ct chronon.Instant) bool {
	return !late(r.TTBegin, r.LateTT, ct+1)
}

// StartsCover reports whether r's start maxima are at least o's on both
// axes: an unknown maximum covers every other, and is covered only by an
// unknown one.
func (r Region) StartsCover(o Region) bool {
	return lateCovers(r.TTBegin, r.LateTT, o.TTBegin, o.LateTT) &&
		lateCovers(r.VTBegin, r.LateVT, o.VTBegin, o.LateVT)
}

// lateCovers reports whether the start maximum d above b is at least od
// above ob.
func lateCovers(b chronon.Instant, d uint16, ob chronon.Instant, od uint16) bool {
	return d == LateUnknown || od != LateUnknown && late(b, d, ob+chronon.Instant(od))
}

// Growing reports whether the region still grows as time passes
// (TTEnd = UC; Section 2: regions stop growing when logically deleted).
func (r Region) Growing() bool { return r.TTEnd == chronon.UC }

// StairFlag reports whether the region is encoded as a stair-shape
// (VTEnd = NOW with the Rectangle flag cleared).
func (r Region) StairFlag() bool { return r.VTEnd == chronon.NOW && !r.Rect }

// Adjust applies the paper's Hidden-flag algorithm (Section 3):
//
//	IF flag Hidden is set AND VTend is fixed AND VTend is less than the
//	current time THEN set VTend to NOW
//
// After the adjustment the entry reads as a rectangle growing in both
// dimensions, a conservative superset of the hidden stair that outgrew it.
func (r Region) Adjust(ct chronon.Instant) Region {
	if r.Hidden && r.VTEnd.IsGround() && r.VTEnd < ct {
		r.VTEnd = chronon.NOW
		r.Rect = true
	}
	return r
}

// Resolve materialises the region's exact geometry at current time ct,
// applying the paper's variable-resolution algorithm (Section 3):
//
//	IF TTend is equal to UC THEN set TTend to the current time
//	IF VTend is equal to NOW THEN set VTend to TTend
func (r Region) Resolve(ct chronon.Instant) Shape {
	r = r.Adjust(ct)
	tte := r.TTEnd
	if tte == chronon.UC {
		tte = ct
	}
	vte := r.VTEnd
	if vte == chronon.NOW {
		vte = tte
	}
	return Shape{
		TTBegin: ground(r.TTBegin), TTEnd: ground(tte),
		VTBegin: ground(r.VTBegin), VTEnd: ground(vte),
		Stair: r.StairFlag(),
	}
}

// Empty reports whether the region is empty at time ct.
func (r Region) Empty(ct chronon.Instant) bool { return r.Resolve(ct).Empty() }

// Overlaps reports whether the regions share a cell at time ct.
func (r Region) Overlaps(o Region, ct chronon.Instant) bool {
	return r.Resolve(ct).Overlaps(o.Resolve(ct))
}

// Contains reports whether o lies inside r at time ct.
func (r Region) Contains(o Region, ct chronon.Instant) bool {
	return r.Resolve(ct).ContainsShape(o.Resolve(ct))
}

// ContainedIn reports whether r lies inside o at time ct.
func (r Region) ContainedIn(o Region, ct chronon.Instant) bool {
	return o.Resolve(ct).ContainsShape(r.Resolve(ct))
}

// Equal reports whether the regions cover the same cells at time ct.
func (r Region) Equal(o Region, ct chronon.Instant) bool {
	return r.Resolve(ct).EqualShape(o.Resolve(ct))
}

// Area is the support function Size: the region's area at time ct.
func (r Region) Area(ct chronon.Instant) float64 { return r.Resolve(ct).Area() }

// IntersectionArea is the support function Inter evaluated at time ct.
func (r Region) IntersectionArea(o Region, ct chronon.Instant) float64 {
	return r.Resolve(ct).IntersectionArea(o.Resolve(ct))
}

// FitsUnderStair reports whether the region stays below the line v = t at
// all current and future times, i.e., whether it can live inside a
// stair-shaped bound (Figure 4(b): "none of the included regions extend
// above the line y = x").
func (r Region) FitsUnderStair() bool {
	if r.VTEnd == chronon.NOW {
		// A stair-shape stays under v = t by construction. A growing
		// rectangle (NOW with the Rect flag) reaches (TTBegin, ct) and
		// eventually exceeds the line at its left edge.
		return !r.Rect
	}
	// Fixed valid-time top: the topmost-left cell is (TTBegin, VTEnd).
	return r.VTEnd <= r.TTBegin
}

// finalVTEnd returns the largest valid-time value the region will ever
// reach, or NOW if it grows in valid time without bound.
func (r Region) finalVTEnd() chronon.Instant {
	if r.VTEnd != chronon.NOW {
		return r.VTEnd
	}
	if r.TTEnd == chronon.UC {
		return chronon.NOW // grows forever
	}
	return r.TTEnd // static stair (or static both-dims rect) stopped at TTEnd
}

// String renders the region with its flags for diagnostics and tree dumps.
func (r Region) String() string {
	flags := ""
	if r.VTEnd == chronon.NOW {
		if r.Rect {
			flags = " R"
		} else {
			flags = " S"
		}
	}
	if r.Hidden {
		flags += " H"
	}
	return fmt.Sprintf("(%v, %v, %v, %v%s)", r.TTBegin, r.TTEnd, r.VTBegin, r.VTEnd, flags)
}

// BoundPolicy tunes the minimum-bounding-region computation.
type BoundPolicy struct {
	// TimeParam is the paper's time parameter (Section 3): candidate bounds
	// are scored by their area at current time + TimeParam chronons,
	// capturing the development of entries over time.
	TimeParam int64
	// AllowHidden permits fixed-VTEnd rectangle bounds with the Hidden flag
	// around small growing stairs (Figure 4(c)). Disabling it forces growing
	// bounds, an ablation knob.
	AllowHidden bool
}

// DefaultBoundPolicy mirrors the prototype's behaviour: a 365-chronon (one
// year at day granularity) horizon with hidden bounds enabled.
var DefaultBoundPolicy = BoundPolicy{TimeParam: 365, AllowHidden: true}

// Bound computes a minimum bounding region of the given regions as of
// current time ct: the smallest region (by area at ct+TimeParam) among the
// valid candidates — a stair-shape bound when every child fits under v = t,
// a plain rectangle, a rectangle growing in both dimensions, or a fixed
// rectangle with the Hidden flag around growing stairs (Figure 4(c)).
//
// The Hidden mechanism is not merely an optimisation: a rectangle growing in
// both dimensions has a valid-time top of only the current time, so it
// cannot bound a sibling whose fixed valid-time end lies in the future. In
// that mixed situation a fixed rectangle carrying the Hidden flag is the
// only legal bound, and Adjust repairs it once the growing regions outgrow
// it.
//
// The returned bound contains every child at ct and at every later time
// (after Adjust), which is the GR-tree's structural invariant.
func Bound(regions []Region, ct chronon.Instant, pol BoundPolicy) Region {
	b := NewBounder(ct, pol)
	for _, r := range regions {
		b.Add(r)
	}
	return b.Bound()
}

// Bounder computes Bound as a fold, so a caller holding its regions in some
// other slice bounds them without copying: Add each region, then Bound.
type Bounder struct {
	ct  chronon.Instant
	pol BoundPolicy
	n   int
	ttb chronon.Instant
	vtb chronon.Instant
	// The start maxima: the latest known begins, and whether some region's
	// is unknown.
	lateT, lateV       chronon.Instant
	unknownT, unknownV bool
	growing            bool            // some child grows in transaction time
	vtGrowing          bool            // some child grows in valid time without bound
	stairOK            bool            // a stair bound is legal
	maxTTE             chronon.Instant // max final TTEnd among non-growing
	maxFixedVTE        chronon.Instant // max final VTEnd among vt-bounded
}

// NewBounder starts a bound as of current time ct.
func NewBounder(ct chronon.Instant, pol BoundPolicy) Bounder {
	return Bounder{
		ct: ct, pol: pol, stairOK: true,
		lateT: chronon.MinInstant, lateV: chronon.MinInstant,
		maxTTE: chronon.MinInstant, maxFixedVTE: chronon.MinInstant,
	}
}

// Add extends the bound to cover r.
func (b *Bounder) Add(r Region) {
	r = r.Adjust(b.ct)
	if b.n == 0 || r.TTBegin < b.ttb {
		b.ttb = r.TTBegin
	}
	if b.n == 0 || r.VTBegin < b.vtb {
		b.vtb = r.VTBegin
	}
	if r.LateTT == LateUnknown {
		b.unknownT = true
	} else {
		b.lateT = chronon.Max(b.lateT, r.TTBegin+chronon.Instant(r.LateTT))
	}
	if r.LateVT == LateUnknown {
		b.unknownV = true
	} else {
		b.lateV = chronon.Max(b.lateV, r.VTBegin+chronon.Instant(r.LateVT))
	}
	b.n++
	if r.TTEnd == chronon.UC {
		b.growing = true
	} else if r.TTEnd > b.maxTTE {
		b.maxTTE = r.TTEnd
	}
	if !r.FitsUnderStair() {
		b.stairOK = false
	}
	fv := r.finalVTEnd()
	if fv == chronon.NOW || r.Hidden {
		// A hidden child is a grower in disguise: it will outgrow its
		// fixed top one day, so the bound must anticipate valid-time
		// growth — while still covering the hidden top now.
		b.vtGrowing = true
	}
	if fv != chronon.NOW && fv > b.maxFixedVTE {
		b.maxFixedVTE = fv
	}
}

// Bound returns the minimum bounding region of the regions added so far.
func (b *Bounder) Bound() Region {
	if b.n == 0 {
		return Region{TTBegin: 0, TTEnd: 0, VTBegin: 0, VTEnd: 0, Rect: true}
	}
	ct, pol, ttb, vtb, maxFixedVTE := b.ct, b.pol, b.ttb, b.vtb, b.maxFixedVTE
	tte := b.maxTTE
	if b.growing {
		tte = chronon.UC
	}
	// Candidate validity is analytic:
	//   - a stair bound is valid exactly when every child fits under v = t
	//     (stairOK): its transaction range and floor cover by construction;
	//   - a plain rectangle is valid when no child grows in valid time: its
	//     fixed top is the maximum final child top;
	//   - a rectangle growing in both dimensions has top = current time, so
	//     it is valid only when no fixed child top lies in the future
	//     (maxFixedVTE <= ct);
	//   - a hidden fixed rectangle is valid when its fixed top covers the
	//     growers' current tops (maxFixedVTE >= ct); Adjust repairs it after
	//     outgrowth.
	// (The randomized temporal tests verify these rules against shape
	// containment over many future probe times.)
	var buf [3]Region
	candidates := buf[:0]
	if b.stairOK {
		candidates = append(candidates, Region{
			TTBegin: ttb, TTEnd: tte, VTBegin: vtb, VTEnd: chronon.NOW, Rect: false,
		})
	}
	if !b.vtGrowing {
		candidates = append(candidates, Region{
			TTBegin: ttb, TTEnd: tte, VTBegin: vtb, VTEnd: maxFixedVTE, Rect: true,
		})
	} else {
		if maxFixedVTE <= ct {
			// Rectangle growing in both dimensions (Figure 4(a)).
			candidates = append(candidates, Region{
				TTBegin: ttb, TTEnd: tte, VTBegin: vtb, VTEnd: chronon.NOW, Rect: true,
			})
		}
		if pol.AllowHidden && maxFixedVTE >= ct {
			candidates = append(candidates, Region{
				TTBegin: ttb, TTEnd: tte, VTBegin: vtb, VTEnd: maxFixedVTE,
				Rect: true, Hidden: true,
			})
		}
	}
	if len(candidates) == 0 {
		// Mixed growing stairs and future fixed tops with hiding disabled by
		// policy: hiding is the only legal encoding, so force it.
		return b.withMaxima(Region{
			TTBegin: ttb, TTEnd: tte, VTBegin: vtb,
			VTEnd: chronon.Max(maxFixedVTE, ct), Rect: true, Hidden: true,
		})
	}

	horizon := ct + chronon.Instant(pol.TimeParam)
	best := candidates[0]
	bestArea := best.Resolve(horizon).Area()
	for _, c := range candidates[1:] {
		if a := c.Resolve(horizon).Area(); a < bestArea {
			best, bestArea = c, a
		}
	}
	return b.withMaxima(best)
}

// withMaxima sets a bound's start maxima from the regions added.
func (b *Bounder) withMaxima(r Region) Region {
	r.LateTT, r.LateVT = lateDelta(b.ttb, b.lateT), lateDelta(b.vtb, b.lateV)
	if b.unknownT {
		r.LateTT = LateUnknown
	}
	if b.unknownV {
		r.LateVT = LateUnknown
	}
	return r
}

// Union returns the minimum bounding region of r and o as of ct.
func (r Region) Union(o Region, ct chronon.Instant, pol BoundPolicy) Region {
	return Bound([]Region{r, o}, ct, pol)
}

// Enlargement returns how much r's area at ct+TimeParam grows when extended
// to also cover o, together with the extended bound. This is the metric the
// GR-tree's ChooseSubtree uses (time-parameterised R* area enlargement).
func (r Region) Enlargement(o Region, ct chronon.Instant, pol BoundPolicy) (float64, Region) {
	u := r.Union(o, ct, pol)
	horizon := ct + chronon.Instant(pol.TimeParam)
	return u.Resolve(horizon).Area() - r.Resolve(horizon).Area(), u
}

// CoversRegion reports whether bound contains child at ct and will keep
// containing it at all future times (used by invariant checks and am_check).
func (bound Region) CoversRegion(child Region, ct chronon.Instant) bool {
	if !bound.Contains(child, ct) {
		return false
	}
	b := bound.Adjust(ct)
	c := child.Adjust(ct)
	// Transaction-time future: a growing child needs a growing bound.
	if c.TTEnd == chronon.UC && b.TTEnd != chronon.UC {
		return false
	}
	// Valid-time future. A hidden child is a grower in disguise (it will be
	// adjusted to a growing rectangle once outgrown).
	if c.finalVTEnd() == chronon.NOW || c.Hidden {
		// Child's top grows without bound.
		if b.finalVTEnd() == chronon.NOW {
			// Both grow: a stair bound additionally requires the child to
			// stay under v = t.
			return !b.StairFlag() || c.FitsUnderStair()
		}
		// Fixed-top bound around a grower is legal only with the Hidden
		// flag: Adjust repairs it exactly when the child's top (the current
		// time) passes the bound's fixed top, so coverage never lapses. The
		// fixed top must also cover a hidden child's fixed top now.
		return b.Hidden && (c.finalVTEnd() == chronon.NOW || b.VTEnd >= c.VTEnd)
	}
	// Child's top is eventually fixed; containment at ct plus a monotone or
	// hidden-repaired bound keeps holding. The remaining hazard is a stair
	// bound whose top at the child's columns is the diagonal.
	if b.StairFlag() && !c.FitsUnderStair() {
		return false
	}
	return true
}

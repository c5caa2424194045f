package gist

import (
	"encoding/binary"
	"math"

	"repro/internal/rstar"
)

// IntervalClass is a one-dimensional closed-interval key class — the
// smallest non-trivial GiST opclass, and the regression baseline for the
// generic machinery.
type IntervalClass struct{}

// IntervalKey encodes a closed interval [Lo, Hi].
func IntervalKey(lo, hi int64) string {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(lo))
	binary.BigEndian.PutUint64(buf[8:16], uint64(hi))
	return string(buf[:])
}

func decodeInterval(key string) (lo, hi int64) {
	return int64(binary.BigEndian.Uint64([]byte(key[0:8]))), int64(binary.BigEndian.Uint64([]byte(key[8:16])))
}

const intervalName = "interval_ops"

// IntervalOverlaps is the overlap query.
type IntervalOverlaps struct{ Lo, Hi int64 }

// IntervalContains finds intervals containing the query interval.
type IntervalContains struct{ Lo, Hi int64 }

// Class implements Query.
func (IntervalOverlaps) Class() string { return intervalName }

// Class implements Query.
func (IntervalContains) Class() string { return intervalName }

// Name implements KeyClass.
func (IntervalClass) Name() string { return intervalName }

// KeySize implements KeyClass.
func (IntervalClass) KeySize() int { return 16 }

// Consistent implements KeyClass.
func (IntervalClass) Consistent(key string, q Query, leaf bool) bool {
	lo, hi := decodeInterval(key)
	switch t := q.(type) {
	case IntervalOverlaps:
		return lo <= t.Hi && t.Lo <= hi
	case IntervalContains:
		// A leaf containing [qlo,qhi] must itself contain it; a subtree
		// union containing such a leaf also contains it.
		return lo <= t.Lo && t.Hi <= hi
	}
	return false
}

// Union implements KeyClass; the union of no keys is the empty interval
// [MaxInt64, MinInt64].
func (IntervalClass) Union(keys []string) string {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, k := range keys {
		l, h := decodeInterval(k)
		lo, hi = min(lo, l), max(hi, h)
	}
	return IntervalKey(lo, hi)
}

// Covers implements KeyClass.
func (IntervalClass) Covers(outer, inner string) bool {
	lo, hi := decodeInterval(outer)
	ilo, ihi := decodeInterval(inner)
	return lo <= ilo && ihi <= hi
}

// Box implements KeyClass: [0,0]×[lo,hi], so the kernel's R* heuristics
// score length enlargement and overlap on the one axis that varies.
func (IntervalClass) Box(key string) rstar.Rect {
	lo, hi := decodeInterval(key)
	return rstar.Rect{YMin: lo, YMax: hi}
}

package grtblade

import (
	"fmt"

	"repro/internal/am"
	"repro/internal/chronon"
	"repro/internal/engine"
	"repro/internal/grtree"
	"repro/internal/mi"
	"repro/internal/rtree"
	"repro/internal/temporal"
	"repro/internal/types"
)

// udrCurrentTime resolves UC/NOW for SQL-level strategy functions: inside a
// transaction that already fixed its current time (Section 5.4) that value
// is used; otherwise the clock is read.
func udrCurrentTime(ctx *mi.Context, e *engine.Engine) chronon.Instant {
	if v, ok := ctx.Named("grt_current_time"); ok {
		return v.(chronon.Instant)
	}
	return e.Clock().Now()
}

// strategyUDR builds the SQL-callable strategy functions (Overlaps, Equal,
// Contains, ContainedIn) used when a statement is processed without the
// index.
func strategyUDR(e *engine.Engine, op rtree.Op) am.UDRFunc {
	return func(ctx *mi.Context, args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("grtblade: strategy function needs 2 arguments")
		}
		a, err := extentArg(args[0])
		if err != nil {
			return nil, err
		}
		b, err := extentArg(args[1])
		if err != nil {
			return nil, err
		}
		ct := udrCurrentTime(ctx, e)
		pred := grtree.Predicate{Op: op, Query: b}
		return pred.Match(a, ct), nil
	}
}

// unionUDR is the support function GRT_Union: the minimum bounding region
// of two extents, rendered as an extent (the Rectangle flag of a
// growing-both bound is not expressible in the four timestamps; such a
// bound reads back as its stair-shaped under-approximation, which is why
// the index hard-codes its internal-region functions, Section 5.2).
func unionUDR(e *engine.Engine) am.UDRFunc {
	return func(ctx *mi.Context, args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("grtblade: GRT_Union needs 2 arguments")
		}
		a, err := extentArg(args[0])
		if err != nil {
			return nil, err
		}
		b, err := extentArg(args[1])
		if err != nil {
			return nil, err
		}
		ct := udrCurrentTime(ctx, e)
		u := a.Region().Union(b.Region(), ct, temporal.DefaultBoundPolicy)
		ot, _ := e.Types().Lookup(TypeName)
		return regionValue(ot.ID, u), nil
	}
}

// sizeUDR is the support function GRT_Size: the extent's area now.
func sizeUDR(e *engine.Engine) am.UDRFunc {
	return func(ctx *mi.Context, args []types.Datum) (types.Datum, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("grtblade: GRT_Size needs 1 argument")
		}
		a, err := extentArg(args[0])
		if err != nil {
			return nil, err
		}
		return a.Region().Area(udrCurrentTime(ctx, e)), nil
	}
}

// interUDR is the support function GRT_Inter: intersection area now.
func interUDR(e *engine.Engine) am.UDRFunc {
	return func(ctx *mi.Context, args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("grtblade: GRT_Inter needs 2 arguments")
		}
		a, err := extentArg(args[0])
		if err != nil {
			return nil, err
		}
		b, err := extentArg(args[1])
		if err != nil {
			return nil, err
		}
		return a.Region().IntersectionArea(b.Region(), udrCurrentTime(ctx, e)), nil
	}
}

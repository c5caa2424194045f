// Package gistblade completes the paper's Section 7 proposal: "It is also
// possible to implement such a generic access method as a DataBlade and use
// specially designed operator classes to extend it." It registers one
// access method, gist_am, whose behaviour is selected entirely by the
// operator class named in CREATE INDEX: the opclass name resolves to a
// registered gist.KeyClass, so adding a new tree-based index to the server
// means writing a key class (four primitive operations) and an opclass —
// no new purpose functions.
//
// Two operator classes ship: gist_interval_ops (one-dimensional intervals,
// queried through IntvOverlaps/IntvContains UDRs on a small opaque
// Interval_t type) and gist_grt_ops (the GR-tree's bitemporal regions,
// queried through the Overlaps/Equal/Contains/ContainedIn strategy
// functions grtblade registers — the same SQL surface, different engine
// underneath).
package gistblade

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"repro/internal/am"
	"repro/internal/blades/grtblade"
	"repro/internal/blades/treeblade"
	"repro/internal/engine"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/types"
)

// LibraryPath is the blade's shared-object path.
const LibraryPath = "usr/functions/gist.bld"

// AmName is the generic access method.
const AmName = "gist_am"

// IntervalTypeName is the demo opaque interval type.
const IntervalTypeName = "Interval_t"

// KeyBinding adapts one operator class to the generic method: it supplies
// the key class and the translations between SQL values/qualifications and
// GiST keys/queries.
type KeyBinding struct {
	// Class is the GiST key class.
	Class gist.KeyClass
	// KeyOf converts an indexed column value to a leaf key.
	KeyOf func(d types.Datum) ([]byte, error)
	// QueryOf converts one qualification leaf to a GiST query.
	QueryOf func(fn string, colFirst bool, constant types.Datum) (gist.Query, error)
}

// bindings maps opclass name -> binding factory (per engine, so key classes
// can capture the engine clock).
var (
	bindingsMu sync.Mutex
	bindings   = map[string]func(e *engine.Engine) (*KeyBinding, error){}
)

// RegisterOpClassBinding makes an operator class available to gist_am.
// Third parties extend the generic method by calling this plus CREATE
// OPCLASS — the Section 7 extension story.
func RegisterOpClassBinding(opclass string, mk func(e *engine.Engine) (*KeyBinding, error)) {
	bindingsMu.Lock()
	defer bindingsMu.Unlock()
	bindings[strings.ToLower(opclass)] = mk
}

func bindingFor(e *engine.Engine, opclass string) (*KeyBinding, error) {
	bindingsMu.Lock()
	mk, ok := bindings[strings.ToLower(opclass)]
	bindingsMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("gistblade: no key-class binding for operator class %q", opclass)
	}
	return mk(e)
}

// udrSQL is the blade's own registration SQL, run after the purpose functions
// and the access method the scaffold generates.
const udrSQL = `
CREATE FUNCTION IntvOverlaps(Interval_t, Interval_t) RETURNING boolean EXTERNAL NAME 'usr/functions/gist.bld(IntvOverlaps)' LANGUAGE c;
CREATE FUNCTION IntvContains(Interval_t, Interval_t) RETURNING boolean EXTERNAL NAME 'usr/functions/gist.bld(IntvContains)' LANGUAGE c;

CREATE OPCLASS gist_interval_ops FOR gist_am STRATEGIES(IntvOverlaps, IntvContains);
CREATE OPCLASS gist_grt_ops FOR gist_am STRATEGIES(Overlaps, Equal, Contains, ContainedIn);
`

// Register installs the blade. grtblade must already be registered (the
// gist_grt_ops opclass reuses its strategy UDRs and opaque type).
func Register(e *engine.Engine) error {
	if _, ok := e.Types().Lookup(grtblade.TypeName); !ok {
		return fmt.Errorf("gistblade: register grtblade first")
	}
	if err := RegisterTypes(e.Types()); err != nil {
		return err
	}
	registerBuiltinBindings()
	return grtblade.Install(e, "gistblade", AmName, "gist", LibraryPath, Library(e), udrSQL)
}

// RegisterTypes registers the demo Interval_t opaque type ("lo..hi").
func RegisterTypes(reg *types.Registry) error {
	if _, ok := reg.Lookup(IntervalTypeName); ok {
		return nil
	}
	_, err := reg.RegisterOpaque(IntervalTypeName, types.SupportFuncs{
		Input: func(text string) ([]byte, error) {
			var lo, hi int64
			if _, err := fmt.Sscanf(strings.TrimSpace(text), "%d..%d", &lo, &hi); err != nil {
				return nil, fmt.Errorf("gistblade: interval literal is 'lo..hi', got %q", text)
			}
			if lo > hi {
				return nil, fmt.Errorf("gistblade: reversed interval %q", text)
			}
			return gist.IntervalKey(lo, hi), nil
		},
		Output: func(data []byte) (string, error) {
			if len(data) != 16 {
				return "", fmt.Errorf("gistblade: bad interval value")
			}
			lo := int64(binary.BigEndian.Uint64(data[0:8]))
			hi := int64(binary.BigEndian.Uint64(data[8:16]))
			return fmt.Sprintf("%d..%d", lo, hi), nil
		},
	})
	return err
}

func registerBuiltinBindings() {
	RegisterOpClassBinding("gist_interval_ops", func(e *engine.Engine) (*KeyBinding, error) {
		return &KeyBinding{
			Class: gist.IntervalClass{},
			KeyOf: func(d types.Datum) ([]byte, error) {
				op, ok := d.(types.Opaque)
				if !ok || len(op.Data) != 16 {
					return nil, fmt.Errorf("gistblade: expected %s, got %T", IntervalTypeName, d)
				}
				return append([]byte(nil), op.Data...), nil
			},
			QueryOf: func(fn string, colFirst bool, c types.Datum) (gist.Query, error) {
				op, ok := c.(types.Opaque)
				if !ok || len(op.Data) != 16 {
					return nil, fmt.Errorf("gistblade: interval query constant is %T", c)
				}
				lo := int64(binary.BigEndian.Uint64(op.Data[0:8]))
				hi := int64(binary.BigEndian.Uint64(op.Data[8:16]))
				switch strings.ToLower(fn) {
				case "intvoverlaps":
					return gist.IntervalOverlaps{Lo: lo, Hi: hi}, nil
				case "intvcontains":
					if colFirst {
						return gist.IntervalContains{Lo: lo, Hi: hi}, nil
					}
					// Contains(const, col): columns inside the constant —
					// a range query by containment: use overlap pruning
					// with exact re-filter by the engine.
					return gist.IntervalOverlaps{Lo: lo, Hi: hi}, nil
				}
				return nil, fmt.Errorf("gistblade: %q is not a gist_interval_ops strategy", fn)
			},
		}, nil
	})
	RegisterOpClassBinding("gist_grt_ops", func(e *engine.Engine) (*KeyBinding, error) {
		kc := gist.NewGRKeyClass(e.Clock())
		return &KeyBinding{
			Class: kc,
			KeyOf: func(d types.Datum) ([]byte, error) {
				op, ok := d.(types.Opaque)
				if !ok {
					return nil, fmt.Errorf("gistblade: expected %s, got %T", grtblade.TypeName, d)
				}
				ext, err := grtblade.DecodeExtent(op.Data)
				if err != nil {
					return nil, err
				}
				if !ext.ValidAt(e.Clock().Now()) {
					return nil, fmt.Errorf("gistblade: extent %v violates the transaction-time constraints", ext)
				}
				return gist.GRExtentKey(ext), nil
			},
			QueryOf: func(fn string, colFirst bool, c types.Datum) (gist.Query, error) {
				op, ok := c.(types.Opaque)
				if !ok {
					return nil, fmt.Errorf("gistblade: extent query constant is %T", c)
				}
				ext, err := grtblade.DecodeExtent(op.Data)
				if err != nil {
					return nil, err
				}
				gop, ok := treeblade.Strategy(fn, colFirst,
					gist.GROverlaps, gist.GREqual, gist.GRContains, gist.GRContainedIn)
				if !ok {
					return nil, fmt.Errorf("gistblade: %q is not a gist_grt_ops strategy", fn)
				}
				return gist.GRQuery{Op: gop, Q: ext}, nil
			},
		}, nil
	})
}

// open is the per-open-index blade state.
type open struct {
	treeblade.Storage
	tree    *gist.Tree
	binding *KeyBinding
}

// Attach implements treeblade.Opened.
func (o *open) Attach(ctx *mi.Context, id *am.IndexDesc, create bool) (err error) {
	if create {
		o.tree, err = gist.Create(o.Store, o.binding.Class)
	} else {
		o.tree, err = gist.Open(o.Store, o.binding.Class)
	}
	return err
}

// Library returns the blade's symbol table: the scaffold's storage lifecycle
// plus the generic method's own scan and maintenance functions. (The scan
// materialises its candidates; gist_am takes the scaffold's cursor scan, and
// with it am_parallelscan, am_build and am_aggregate, when internal/gist is a
// key class of the shared tree kernel.)
func Library(e *engine.Engine) am.Library {
	m := &treeblade.Method[*open]{
		AmName: AmName, Prefix: "gist", Blade: "gistblade",
		// The operator class selects the key class; the only parameter is the
		// scaffold's storage placement.
		Configure: func(ctx *mi.Context, id *am.IndexDesc, create bool) (*open, error) {
			b, err := bindingFor(e, id.OpClass)
			if err != nil {
				return nil, err
			}
			if create && len(id.ColTypes) != 1 {
				return nil, fmt.Errorf("gistblade: gist_am indexes exactly one column")
			}
			st := &open{binding: b}
			for k, v := range id.Params {
				if err := st.Param("gistblade", k, v); err != nil {
					return nil, err
				}
			}
			return st, nil
		},
	}
	insert := func(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
		st, err := m.State(id)
		if err != nil {
			return err
		}
		key, err := st.binding.KeyOf(row[0])
		if err != nil {
			return err
		}
		return st.tree.Insert(key, gist.Payload(rid))
	}
	del := func(ctx *mi.Context, id *am.IndexDesc, row []types.Datum, rid heap.RowID) error {
		st, err := m.State(id)
		if err != nil {
			return err
		}
		key, err := st.binding.KeyOf(row[0])
		if err != nil {
			return err
		}
		removed, err := st.tree.Delete(key, gist.Payload(rid))
		if err != nil {
			return err
		}
		if !removed {
			return fmt.Errorf("gistblade: index %s has no entry for row %v: %w", id.Name, rid, am.ErrNoEntry)
		}
		return nil
	}
	lib := m.Library()
	lib["gist_beginscan"] = am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error {
		st, err := m.State(sd.Index)
		if err != nil {
			return err
		}
		return gistBeginScan(ctx, st, sd)
	})
	lib["gist_endscan"] = am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error {
		sd.UserData = nil
		return nil
	})
	lib["gist_rescan"] = am.AmScanFunc(func(ctx *mi.Context, sd *am.ScanDesc) error {
		sc, ok := sd.UserData.(*scanState)
		if !ok {
			return fmt.Errorf("gistblade: rescan without a scan")
		}
		if sd.Batch != nil {
			sd.Batch.Reset()
		}
		sc.pos = 0
		return nil
	})
	lib["gist_getnext"] = am.AmGetNextFunc(func(ctx *mi.Context, sd *am.ScanDesc) (heap.RowID, []types.Datum, bool, error) {
		sc, ok := sd.UserData.(*scanState)
		if !ok {
			return 0, nil, false, fmt.Errorf("gistblade: getnext without beginscan")
		}
		if sc.pos >= len(sc.rows) {
			return 0, nil, false, nil
		}
		rid := sc.rows[sc.pos]
		sc.pos++
		return rid, nil, true, nil
	})
	// gist_getmulti: the batched companion — one dispatch hands the server a
	// slice of the materialised candidate rowids (rows stay nil; the engine's
	// WHERE re-filter restores exactness).
	lib["gist_getmulti"] = am.AmGetMultiFunc(func(ctx *mi.Context, sd *am.ScanDesc) (int, error) {
		sc, ok := sd.UserData.(*scanState)
		if !ok {
			return 0, fmt.Errorf("gistblade: getmulti without beginscan")
		}
		b := sd.Batch
		b.Reset()
		for !b.Full() && sc.pos < len(sc.rows) {
			b.Append(sc.rows[sc.pos], nil)
			sc.pos++
		}
		return b.N, nil
	})
	lib["gist_insert"] = am.AmMutateFunc(insert)
	lib["gist_delete"] = am.AmMutateFunc(del)
	lib["gist_update"] = am.AmUpdateFunc(func(ctx *mi.Context, id *am.IndexDesc, oldRow []types.Datum, oldRid heap.RowID, newRow []types.Datum, newRid heap.RowID) error {
		if err := del(ctx, id, oldRow, oldRid); err != nil {
			return err
		}
		return insert(ctx, id, newRow, newRid)
	})
	lib["gist_check"] = am.AmCheckFunc(func(ctx *mi.Context, id *am.IndexDesc) error {
		st, err := m.State(id)
		if err != nil {
			return err
		}
		return st.tree.Check()
	})
	// gist_stats: the generic method knows nothing about its keys' value
	// domain, so it reports the entry count without histograms — the
	// row-count fallback family of statistics-backed costing.
	lib["gist_stats"] = am.AmStatsFunc(func(ctx *mi.Context, id *am.IndexDesc) (*am.IndexStats, error) {
		st, err := m.State(id)
		if err != nil {
			return nil, err
		}
		return &am.IndexStats{
			Summary: fmt.Sprintf("index %s: %d entries, height %d",
				id.Name, st.tree.Size(), st.tree.Height()),
			Entries: st.tree.Size(),
		}, nil
	})
	lib["IntvOverlaps"] = intervalUDR(func(a0, a1, b0, b1 int64) bool { return a0 <= b1 && b0 <= a1 })
	lib["IntvContains"] = intervalUDR(func(a0, a1, b0, b1 int64) bool { return a0 <= b0 && b1 <= a1 })
	return lib
}

type scanState struct {
	rows []heap.RowID
	pos  int
}

// gistBeginScan translates the qualification into GiST queries. Only
// conjunctions and single leaves are pushed down (the candidate set is the
// intersection-superset via the first leaf; the engine's WHERE re-filter
// restores exactness); disjunctions run each branch and union.
func gistBeginScan(ctx *mi.Context, st *open, sd *am.ScanDesc) error {
	if sd.Qual == nil {
		return fmt.Errorf("gistblade: scan without qualification")
	}
	seen := map[heap.RowID]bool{}
	var rows []heap.RowID
	for _, leaf := range sd.Qual.Leaves() {
		q, err := st.binding.QueryOf(leaf.Func, leaf.ColFirst, leaf.Const)
		if err != nil {
			return err
		}
		ps, err := st.tree.Search(q)
		if err != nil {
			return err
		}
		for _, p := range ps {
			rid := heap.RowID(p)
			if !seen[rid] {
				seen[rid] = true
				rows = append(rows, rid)
			}
		}
		// For a pure conjunction the first leaf's candidates suffice.
		if sd.Qual.Op == am.QAnd || sd.Qual.Op == am.QFunc {
			break
		}
	}
	sd.UserData = &scanState{rows: rows}
	ctx.Tracer().Tracef("gist", 2, "gist_beginscan %s: %d candidates", sd.Index.Name, len(rows))
	return nil
}

func intervalUDR(pred func(a0, a1, b0, b1 int64) bool) am.UDRFunc {
	return func(ctx *mi.Context, args []types.Datum) (types.Datum, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("gistblade: interval strategy needs 2 arguments")
		}
		a, ok1 := args[0].(types.Opaque)
		b, ok2 := args[1].(types.Opaque)
		if !ok1 || !ok2 || len(a.Data) != 16 || len(b.Data) != 16 {
			return nil, fmt.Errorf("gistblade: interval strategy arguments must be %s", IntervalTypeName)
		}
		a0 := int64(binary.BigEndian.Uint64(a.Data[0:8]))
		a1 := int64(binary.BigEndian.Uint64(a.Data[8:16]))
		b0 := int64(binary.BigEndian.Uint64(b.Data[0:8]))
		b1 := int64(binary.BigEndian.Uint64(b.Data[8:16]))
		return pred(a0, a1, b0, b1), nil
	}
}

// Package gistblade completes the paper's Section 7 proposal: "It is also
// possible to implement such a generic access method as a DataBlade and use
// specially designed operator classes to extend it." It registers one
// access method, gist_am, whose behaviour is selected entirely by the
// operator class named in CREATE INDEX: the opclass's SUPPORT function
// yields its gist.KeyClass, so adding a new tree-based index to the server
// means writing a key class and an opclass — no new purpose functions. The
// purpose functions are the treeblade scaffold's, the tree is the kernel's
// (internal/rtree), and this blade is the binding between them: a
// column value becomes a key, a qualification a matcher over Consistent.
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
	"errors"
	"fmt"
	"strings"

	"repro/internal/am"
	"repro/internal/blades/grtblade"
	"repro/internal/blades/treeblade"
	"repro/internal/engine"
	"repro/internal/gist"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/rstar"
	"repro/internal/rtree"
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
	KeyOf func(d types.Datum) (string, error)
	// QueryOf converts one qualification leaf to a GiST query.
	QueryOf func(fn string, colFirst bool, constant types.Datum) (gist.Query, error)
}

// ErrNoKeyBinding is returned when an index's operator class names no
// support function yielding a *KeyBinding.
var ErrNoKeyBinding = errors.New("gistblade: operator class has no key binding")

// keyBinding calls the index's key-binding support function: the first
// function in its operator class's SUPPORT list (SYSOPCLASSES), declared
// over the indexed type and called without arguments, which returns the
// *KeyBinding. Third parties extend the generic method with CREATE FUNCTION
// for such a UDR plus CREATE OPCLASS ... SUPPORT(it) — the Section 7
// extension story.
func keyBinding(id *am.IndexDesc) (*KeyBinding, error) {
	if len(id.Support) == 0 {
		return nil, fmt.Errorf("%w: %q lists no SUPPORT function", ErrNoKeyBinding, id.OpClass)
	}
	out, err := id.Services.InvokeUDR(id.Support[0], nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrNoKeyBinding, id.Support[0], err)
	}
	b, ok := out.(*KeyBinding)
	if !ok {
		return nil, fmt.Errorf("%w: %s returned %T", ErrNoKeyBinding, id.Support[0], out)
	}
	return b, nil
}

// udrSQL is the blade's own registration SQL, run after the purpose functions
// and the access method the scaffold generates.
const udrSQL = `
CREATE FUNCTION IntvOverlaps(Interval_t, Interval_t) RETURNING boolean EXTERNAL NAME 'usr/functions/gist.bld(IntvOverlaps)' LANGUAGE c;
CREATE FUNCTION IntvContains(Interval_t, Interval_t) RETURNING boolean EXTERNAL NAME 'usr/functions/gist.bld(IntvContains)' LANGUAGE c;
CREATE FUNCTION gist_interval_keys(Interval_t) RETURNING pointer EXTERNAL NAME 'usr/functions/gist.bld(gist_interval_keys)' LANGUAGE c;
CREATE FUNCTION gist_grt_keys(GRT_TimeExtent_t) RETURNING pointer EXTERNAL NAME 'usr/functions/gist.bld(gist_grt_keys)' LANGUAGE c;

CREATE OPCLASS gist_interval_ops FOR gist_am STRATEGIES(IntvOverlaps, IntvContains) SUPPORT(gist_interval_keys);
CREATE OPCLASS gist_grt_ops FOR gist_am STRATEGIES(Overlaps, Equal, Contains, ContainedIn) SUPPORT(gist_grt_keys);
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
			return []byte(gist.IntervalKey(lo, hi)), nil
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

// intervalKeys is gist_interval_ops's key binding.
func intervalKeys() *KeyBinding {
	return &KeyBinding{
		Class: gist.IntervalClass{},
		KeyOf: func(d types.Datum) (string, error) {
			op, ok := d.(types.Opaque)
			if !ok || len(op.Data) != 16 {
				return "", fmt.Errorf("gistblade: expected %s, got %T", IntervalTypeName, d)
			}
			return string(op.Data), nil
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
	}
}

// grtKeys is gist_grt_ops's key binding; its key class reads e's clock.
func grtKeys(e *engine.Engine) *KeyBinding {
	kc := gist.NewGRKeyClass(e.Clock())
	return &KeyBinding{
		Class: kc,
		KeyOf: func(d types.Datum) (string, error) {
			op, ok := d.(types.Opaque)
			if !ok {
				return "", fmt.Errorf("gistblade: expected %s, got %T", grtblade.TypeName, d)
			}
			ext, err := grtblade.DecodeExtent(op.Data)
			if err != nil {
				return "", err
			}
			if !ext.ValidAt(e.Clock().Now()) {
				return "", fmt.Errorf("gistblade: extent %v violates the transaction-time constraints", ext)
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
			gop, ok := treeblade.Strategy(fn, colFirst)
			if !ok {
				return nil, fmt.Errorf("gistblade: %q is not a gist_grt_ops strategy", fn)
			}
			return gist.GRQuery{Op: gop, Q: ext}, nil
		},
	}
}

// open is the per-open-index state; it is the index's treeblade.Binding.
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

// Library returns the blade's symbol table: the scaffold's purpose functions
// over the generic method's binding, and the interval UDRs.
func Library(e *engine.Engine) am.Library {
	k := &treeblade.Kernel[string, rstar.Rect, *open]{
		Method: treeblade.Method[*open]{
			AmName: AmName, Prefix: "gist", Blade: "gistblade",
			// The operator class selects the key class; the only parameter is
			// the scaffold's storage placement.
			Configure: func(ctx *mi.Context, id *am.IndexDesc, create bool) (*open, error) {
				b, err := keyBinding(id)
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
		},
		// No Value or Less: Aggregable always declines, so am_aggregate never
		// renders a key as a column value.
	}
	lib := k.Library()
	lib["IntvOverlaps"] = intervalUDR(func(a0, a1, b0, b1 int64) bool { return a0 <= b1 && b0 <= a1 })
	lib["IntvContains"] = intervalUDR(func(a0, a1, b0, b1 int64) bool { return a0 <= b0 && b1 <= a1 })
	lib["gist_interval_keys"] = am.UDRFunc(func(*mi.Context, []types.Datum) (types.Datum, error) { return intervalKeys(), nil })
	lib["gist_grt_keys"] = am.UDRFunc(func(*mi.Context, []types.Datum) (types.Datum, error) { return grtKeys(e), nil })
	return lib
}

// The binding (treeblade.Binding): what a key of the operator class's key
// class means to the kernel.

func (o *open) Tree() *rtree.Tree[string] { return o.tree.Tree }

func (o *open) Keys() rtree.Keys[string, rstar.Rect] { return o.tree.Keys() }

// Key: the binding maps the value to a key, which must have the class's size.
func (o *open) Key(id *am.IndexDesc, d types.Datum, store bool) (string, error) {
	key, err := o.binding.KeyOf(d)
	if err != nil {
		return "", err
	}
	return key, o.tree.CheckKey(key)
}

func (o *open) Delete(id *am.IndexDesc, d types.Datum, rid heap.RowID) (removed, condensed bool, err error) {
	key, err := o.Key(id, d, false)
	if err != nil {
		return false, false, err
	}
	return rtree.Delete(o.tree.Tree, o.tree.Keys(), key, rtree.Payload(rid))
}

// Matcher compiles the qualification's AND/OR structure over the binding's
// queries. Consistent is only required never to lose a match, so the answer
// is never exact: the server re-checks every row.
func (o *open) Matcher(ctx *mi.Context, id *am.IndexDesc, q *am.Qual) (rtree.Matcher[string], bool, error) {
	m, err := o.compile(q)
	return m, false, err
}

func (o *open) compile(q *am.Qual) (rtree.Matcher[string], error) {
	if q.Op == am.QFunc {
		gq, err := o.binding.QueryOf(q.Func, q.ColFirst, q.Const)
		if err != nil {
			return nil, err
		}
		return o.tree.Match(gq)
	}
	c := &clause{and: q.Op == am.QAnd}
	for _, child := range q.Children {
		m, err := o.compile(child)
		if err != nil {
			return nil, err
		}
		c.kids = append(c.kids, m)
	}
	return c, nil
}

// clause is the AND (or the OR) of its kids' tests.
type clause struct {
	and  bool
	kids []rtree.Matcher[string]
}

func (c *clause) Leaf(key string) bool {
	for _, m := range c.kids {
		if m.Leaf(key) != c.and {
			return !c.and
		}
	}
	return c.and
}

func (c *clause) Internal(key string) bool {
	for _, m := range c.kids {
		if m.Internal(key) != c.and {
			return !c.and
		}
	}
	return c.and
}

// Window is the key's box on its second axis: valid time for GR keys, the
// interval itself for interval keys.
func (o *open) Window(key string) (lo, hi float64, ok bool) {
	box := o.tree.Keys().Resolve(key)
	return float64(box.YMin), float64(box.YMax), !box.Empty()
}

// Aggregable declines: the generic method knows its keys only through
// Consistent, which may over-approximate, so its answers are candidates.
func (o *open) Aggregable(q *am.Qual) (rtree.Matcher[string], bool) { return nil, false }

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

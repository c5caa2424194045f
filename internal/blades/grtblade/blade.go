// Package grtblade is the GR-tree DataBlade the paper describes: the opaque
// data type GRT_TimeExtent_t with its type support functions (Section 6.3),
// the grt_* access-method purpose functions (Appendix A, Table 5), the
// strategy functions Overlaps/Equal/Contains/ContainedIn and support
// functions GRT_Union/GRT_Size/GRT_Inter (Section 5.2), and the registration
// SQL that a BladeManager-style installer runs (Sections 4 and 6.1).
//
// Design choices follow the paper:
//
//   - the whole time extent is one column of one opaque type, because the
//     qualification descriptor only accommodates single-column predicates
//     (Section 5.1);
//   - functions operating on internal-node regions are hard-coded — the
//     purpose functions call the grtree package directly rather than
//     resolving UDRs, trading operator-class extensibility for simpler and
//     faster code (Section 5.2; the rstblade takes the dynamic route, and
//     experiment P5 measures the difference);
//   - the index lives in one sbspace large object by default (Section 5.3),
//     with per-node and per-subtree placements available as index
//     parameters for the P3 ablation;
//   - the current time is constant per transaction, captured at the first
//     grt_open and kept in session named memory, freed by a transaction-end
//     callback (Section 5.4); 'timepolicy=statement' switches to
//     per-statement time;
//   - deletions restart the scan only when the tree actually condenses
//     (Section 5.5), with the alternatives as parameters for P4.
package grtblade

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/am"
	"repro/internal/blades/treeblade"
	"repro/internal/chronon"
	"repro/internal/engine"
	"repro/internal/grtree"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/rtree"
	"repro/internal/temporal"
	"repro/internal/types"
)

// LibraryPath is the "shared object" path used in EXTERNAL NAME clauses.
const LibraryPath = "usr/functions/grtree.bld"

// AmName is the access method registered by the blade.
const AmName = "grtree_am"

// purpose is the grt_* purpose-function set (Appendix A, Table 5): the
// scaffold's, bound to what a GRT_TimeExtent_t key means.
var purpose = &treeblade.Kernel[temporal.Region, temporal.Shape, *open]{
	Method: treeblade.Method[*open]{AmName: AmName, Prefix: "grt", Blade: "grtblade", Configure: configure},
	Value: func(id *am.IndexDesc, r temporal.Region) types.Datum {
		return regionValue(id.ColTypes[0].OpaqueID, r)
	},
	Less: grtree.KeyLess,
	Span: grtree.KeySpan,
}

// Library returns the blade's shared-library symbol table. The engine loads
// it under LibraryPath; the registration SQL binds the symbols to SQL names.
func Library(e *engine.Engine) am.Library {
	lib := purpose.Library()
	lib["Overlaps"] = strategyUDR(e, rtree.OpOverlaps)
	lib["Equal"] = strategyUDR(e, rtree.OpEqual)
	lib["Contains"] = strategyUDR(e, rtree.OpContains)
	lib["ContainedIn"] = strategyUDR(e, rtree.OpContainedIn)
	lib["GRT_Union"] = unionUDR(e)
	lib["GRT_Size"] = sizeUDR(e)
	lib["GRT_Inter"] = interUDR(e)
	return lib
}

// udrSQL is the blade's own part of its objects.sql analogue: the statements
// a BladeManager-style installer runs after the purpose functions and the
// access method (Sections 4/6.1), which the scaffold generates.
const udrSQL = `
-- strategy functions on the opaque type (Section 5.2)
CREATE FUNCTION Overlaps(GRT_TimeExtent_t, GRT_TimeExtent_t) RETURNING boolean EXTERNAL NAME 'usr/functions/grtree.bld(Overlaps)' LANGUAGE c;
CREATE FUNCTION Equal(GRT_TimeExtent_t, GRT_TimeExtent_t) RETURNING boolean EXTERNAL NAME 'usr/functions/grtree.bld(Equal)' LANGUAGE c;
CREATE FUNCTION Contains(GRT_TimeExtent_t, GRT_TimeExtent_t) RETURNING boolean EXTERNAL NAME 'usr/functions/grtree.bld(Contains)' LANGUAGE c;
CREATE FUNCTION ContainedIn(GRT_TimeExtent_t, GRT_TimeExtent_t) RETURNING boolean EXTERNAL NAME 'usr/functions/grtree.bld(ContainedIn)' LANGUAGE c;

-- support functions, registered as UDRs though the index hard-codes them
CREATE FUNCTION GRT_Union(GRT_TimeExtent_t, GRT_TimeExtent_t) RETURNING GRT_TimeExtent_t EXTERNAL NAME 'usr/functions/grtree.bld(GRT_Union)' LANGUAGE c;
CREATE FUNCTION GRT_Size(GRT_TimeExtent_t) RETURNING float EXTERNAL NAME 'usr/functions/grtree.bld(GRT_Size)' LANGUAGE c;
CREATE FUNCTION GRT_Inter(GRT_TimeExtent_t, GRT_TimeExtent_t) RETURNING float EXTERNAL NAME 'usr/functions/grtree.bld(GRT_Inter)' LANGUAGE c;

-- the operator class (Section 4, Step 4)
CREATE OPCLASS grt_opclass FOR grtree_am
	STRATEGIES(Overlaps, Equal, Contains, ContainedIn)
	SUPPORT(GRT_Union, GRT_Size, GRT_Inter);
`

// Register installs the blade into an engine: the opaque type, the shared
// library, and the registration script.
func Register(e *engine.Engine) error {
	if err := RegisterTypes(e.Types()); err != nil {
		return err
	}
	return Install(e, "grtblade", AmName, "grt", LibraryPath, Library(e), udrSQL)
}

// Install is the BladeManager flow, for this blade and the ones that index
// its type under another access method: load the shared library, then run
// the registration script — the purpose functions and access method the
// scaffold generates from the library, followed by the blade's own objects.
// On a re-opened database only the Go artefacts are re-installed; the SQL
// objects already live in the catalog.
func Install(e *engine.Engine, blade, amName, prefix, libraryPath string, lib am.Library, objects string) error {
	e.LoadLibrary(libraryPath, lib)
	if _, err := e.Catalog().AmByName(amName); err == nil {
		return nil // already registered in a previous incarnation
	}
	s := e.NewSession()
	defer s.Close()
	if _, err := s.ExecScript(treeblade.RegistrationSQL(amName, prefix, libraryPath, lib) + objects); err != nil {
		return fmt.Errorf("%s: registration: %w", blade, err)
	}
	return nil
}

// open is the blade's per-open-index state stored in the index descriptor:
// the Tree object of Appendix A, the decoded index parameters, and the
// statement's current time.
type open struct {
	treeblade.Storage
	tree      *grtree.Tree
	treeCfg   grtree.Config
	perStmtCT bool
	// dynamic switches leaf strategy evaluation from the hard-coded path to
	// dynamic UDR resolution (the extensibility-vs-efficiency trade-off of
	// Section 5.2; experiment P5).
	dynamic bool
	ct      chronon.Instant
}

// configure implements grt_create steps 2–4 and, on grt_open, decodes the
// index parameters again.
func configure(ctx *mi.Context, id *am.IndexDesc, create bool) (*open, error) {
	// Steps 2–3: column types and operator class must suit grtree_am.
	if create {
		if err := validateColumns(id); err != nil {
			return nil, err
		}
	}
	st := &open{treeCfg: grtree.DefaultConfig()}
	for k, v := range id.Params {
		if err := st.param(k, v); err != nil {
			return nil, err
		}
	}
	// Step 4: reject a duplicate index on the same columns with the same
	// user-defined parameters.
	if create {
		if _, dup, err := id.Services.AMRecordGet(AmName, dupKey(id)); err != nil {
			return nil, err
		} else if dup {
			return nil, fmt.Errorf("grtblade: an index using %s on %s(%s) with these parameters already exists",
				AmName, id.TableName, strings.Join(id.Columns, ","))
		}
	}
	return st, nil
}

func (o *open) param(k, v string) error {
	switch strings.ToLower(k) {
	case "timeparam":
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("grtblade: bad timeparam %q", v)
		}
		o.treeCfg.Bound.TimeParam = n
	case "hidden":
		o.treeCfg.Bound.AllowHidden = !strings.EqualFold(v, "off")
	case "deletepolicy":
		switch strings.ToLower(v) {
		case "restart-on-condense":
			o.treeCfg.DeletePolicy = grtree.RestartOnCondense
		case "restart-always":
			o.treeCfg.DeletePolicy = grtree.RestartAlways
		case "no-condense":
			o.treeCfg.DeletePolicy = grtree.NoCondense
		default:
			return fmt.Errorf("grtblade: bad deletepolicy %q", v)
		}
	case "maxentries":
		n, err := treeblade.MaxEntries("grtblade", v)
		if err != nil {
			return err
		}
		o.treeCfg.MaxEntries = n
	case "timepolicy":
		switch strings.ToLower(v) {
		case "transaction":
			o.perStmtCT = false
		case "statement":
			o.perStmtCT = true
		default:
			return fmt.Errorf("grtblade: bad timepolicy %q", v)
		}
	case "dispatch":
		switch strings.ToLower(v) {
		case "hardcoded":
			o.dynamic = false
		case "dynamic":
			o.dynamic = true
		default:
			return fmt.Errorf("grtblade: bad dispatch %q", v)
		}
	default:
		return o.Param("grtblade", k, v)
	}
	return nil
}

// validateColumns implements grt_create steps 2–3: the access method only
// handles a single column of GRT_TimeExtent_t, and only its own operator
// classes.
func validateColumns(id *am.IndexDesc) error {
	if len(id.ColTypes) != 1 {
		return fmt.Errorf("grtblade: grtree_am indexes exactly one column, got %d", len(id.ColTypes))
	}
	if id.ColTypes[0].Kind != types.KOpaque || !strings.EqualFold(id.ColTypes[0].Name, TypeName) {
		return fmt.Errorf("grtblade: grtree_am cannot handle column type %v", id.ColTypes[0])
	}
	if id.OpClass != "" && !strings.EqualFold(id.OpClass, "grt_opclass") {
		return fmt.Errorf("grtblade: operator class %s cannot be used with grtree_am", id.OpClass)
	}
	return nil
}

// dupKey builds the duplicate-index detection key of grt_create step 4. The
// parameters are sorted: the key must not depend on map iteration order, or
// an identical second CREATE INDEX slips through and grt_drop misses the
// record.
func dupKey(id *am.IndexDesc) string {
	params := make([]string, 0, len(id.Params))
	for k, v := range id.Params {
		params = append(params, strings.ToLower(k)+"="+strings.ToLower(v))
	}
	sort.Strings(params)
	key := []string{"dup", strings.ToLower(id.TableName), strings.ToLower(strings.Join(id.Columns, ","))}
	return strings.Join(append(key, params...), "|")
}

// Records implements treeblade.Opened: grt_drop deletes the dup record too.
func (o *open) Records(id *am.IndexDesc) []string { return []string{dupKey(id)} }

// Attach implements treeblade.Opened: the Tree object over the open BLOB,
// and the statement's current time.
func (o *open) Attach(ctx *mi.Context, id *am.IndexDesc, create bool) (err error) {
	if create {
		// The dup record carries the owning index's name.
		if err := id.Services.AMRecordPut(AmName, dupKey(id), []byte(strings.ToLower(id.Name))); err != nil {
			return err
		}
		o.tree, err = grtree.Create(o.Store, o.treeCfg)
	} else {
		o.tree, err = grtree.Open(o.Store, o.treeCfg)
	}
	o.ct = currentTime(ctx, id.Services, o.perStmtCT)
	return err
}

// currentTime implements Section 5.4: a constant current-time value for the
// whole transaction, obtained the first time the index is used in the
// transaction, kept in named memory identified by the session, and freed by
// a transaction-end callback. Per-statement policy simply reads the clock at
// grt_open (which the server calls once per statement).
func currentTime(ctx *mi.Context, svc am.Services, perStatement bool) chronon.Instant {
	if perStatement {
		return svc.Clock().Now()
	}
	const name = "grt_current_time"
	if v, ok := ctx.Named(name); ok {
		return v.(chronon.Instant)
	}
	ct := svc.Clock().Now()
	ctx.SetNamed(name, ct)
	ctx.OnTxEnd(func(mi.TxEvent) { ctx.FreeNamed(name) })
	return ct
}

// The binding (treeblade.Binding): what a GRT_TimeExtent_t key means.

func (o *open) Tree() *rtree.Tree[temporal.Region] { return o.tree.Tree }

func (o *open) Keys() rtree.Keys[temporal.Region, temporal.Shape] { return o.tree.Keys(o.ct) }

// Key: an extent is indexed as its region; to be stored it must satisfy the
// transaction-time constraints as of the current time.
func (o *open) Key(id *am.IndexDesc, d types.Datum, store bool) (temporal.Region, error) {
	ext, err := extentArg(d)
	if err == nil && store && !ext.ValidAt(o.ct) {
		err = fmt.Errorf("grtblade: extent %v violates the transaction-time constraints at current time %v", ext, o.ct)
	}
	return ext.Region(), err
}

func (o *open) Delete(id *am.IndexDesc, d types.Datum, rid heap.RowID) (removed, condensed bool, err error) {
	ext, err := extentArg(d)
	if err != nil {
		return false, false, err
	}
	return o.tree.Delete(ext, grtree.Payload(rid), o.ct)
}

// Matcher: the hard-coded leaf test is exact for every strategy function
// (TestCompiledMatchesReference pins it to Region's own methods), so the
// answer is exact whenever the tree's ct is the one the strategy UDRs see on
// the fetched row. That holds under the transaction policy, where both read
// grt_current_time (Section 5.4); a per-statement ct is the clock at grt_open,
// and the UDR reads the clock again later. Dynamic dispatch asks the UDRs
// themselves, and its answer is left to the server's re-check as before.
func (o *open) Matcher(ctx *mi.Context, id *am.IndexDesc, q *am.Qual) (rtree.Matcher[temporal.Region], bool, error) {
	compound, err := compileQual(q)
	if err != nil {
		return nil, false, err
	}
	compiled, err := compound.Compile(o.ct)
	if err != nil {
		return nil, false, err
	}
	if !o.dynamic {
		return compiled, !o.perStmtCT, nil
	}
	// Section 5.2's extensible alternative: leaf strategy functions are
	// dynamically resolved and invoked as registered UDRs; only the
	// internal-region functions stay hard-coded. Experiment P5 measures the
	// overhead against the default.
	return &dynamicMatcher{
		compiled: compiled, qual: q, ctx: ctx,
		svc: id.Services, typeID: id.ColTypes[0].OpaqueID,
	}, false, nil
}

// Window resolves the region at the blade's current time, so now-relative
// extents contribute their geometry as of now.
func (o *open) Window(r temporal.Region) (lo, hi float64, ok bool) {
	sh := r.Resolve(o.ct)
	return float64(sh.VTBegin), float64(sh.VTEnd), !sh.Empty()
}

// Aggregable: the hard-coded leaf test is the strategy function's answer on
// a stored region, so aggregates push under either time policy. A
// dynamic-dispatch index evaluates leaves through UDRs, which the aggregate
// traversal would bypass: it declines rather than disagree with the
// configured semantics.
func (o *open) Aggregable(q *am.Qual) (rtree.Matcher[temporal.Region], bool) {
	if o.dynamic {
		return nil, false
	}
	compound, err := compileQual(q)
	if err != nil {
		return nil, false // not our strategy function: decline, don't fail
	}
	compiled, err := compound.Compile(o.ct)
	return compiled, err == nil
}

// compileQual hard-codes the strategy-function resolution (Section 5.2's
// chosen alternative): qualification leaves are mapped directly to tree
// operators instead of dynamically invoking registered UDRs.
func compileQual(q *am.Qual) (*grtree.Compound, error) {
	switch q.Op {
	case am.QAnd, am.QOr:
		kids := make([]*grtree.Compound, len(q.Children))
		for i, c := range q.Children {
			k, err := compileQual(c)
			if err != nil {
				return nil, err
			}
			kids[i] = k
		}
		if q.Op == am.QAnd {
			return grtree.AndOf(kids...), nil
		}
		return grtree.OrOf(kids...), nil
	case am.QFunc:
		op, ok := treeblade.Strategy(q.Func, q.ColFirst)
		if !ok {
			return nil, fmt.Errorf("grtblade: %q is not a grt_opclass strategy function", q.Func)
		}
		ext, err := extentArg(q.Const)
		if err != nil {
			return nil, err
		}
		return grtree.Leaf(grtree.Predicate{Op: op, Query: ext}), nil
	}
	return nil, fmt.Errorf("grtblade: bad qualification node")
}

// dynamicMatcher evaluates leaf qualifications by invoking the registered
// strategy UDRs (Overlaps, Equal, ...) per candidate entry; the UDRs read
// the current time themselves.
type dynamicMatcher struct {
	compiled *grtree.Compiled // the hard-coded internal functions, at the open's ct
	qual     *am.Qual
	ctx      *mi.Context
	svc      am.Services
	typeID   uint32
}

// Internal implements rtree.Matcher (hard-coded internal functions).
func (m *dynamicMatcher) Internal(bound temporal.Region) bool { return m.compiled.Internal(bound) }

// Leaf implements rtree.Matcher through dynamic UDR invocation.
func (m *dynamicMatcher) Leaf(r temporal.Region) bool {
	colVal := regionValue(m.typeID, r)
	ok, err := m.qual.Evaluate(func(l *am.Qual) (bool, error) {
		args := []types.Datum{colVal, l.Const}
		if !l.ColFirst {
			args = []types.Datum{l.Const, colVal}
		}
		out, err := m.svc.InvokeUDR(l.Func, args)
		if err != nil {
			return false, err
		}
		b, okb := out.(bool)
		if !okb {
			return false, fmt.Errorf("grtblade: strategy %s returned %T", l.Func, out)
		}
		return b, nil
	})
	if err != nil {
		m.ctx.Tracer().Tracef("grt", 1, "dynamic strategy dispatch failed: %v", err)
		return false
	}
	return ok
}

package engine

import (
	"context"
	"strings"
	"time"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/types"
)

// Prepared statements and the shared plan cache ------------------------------
//
// PREPARE parses a statement once and pins its AST in the session's registry;
// EXECUTE binds parameter values into the qualification descriptor and runs
// the statement without touching the parser. Planning results — index choice,
// strategy set, am_scancost verdict — live in the engine-wide shared plan
// cache (internal/plancache), keyed by the statement's normalized text (the
// deparser's output, placeholders spelled $n) and stamped with the catalog
// generation that planned them. Ad-hoc statements join in via
// auto-parameterization: a literal-only WHERE clause is rewritten to
// placeholders for keying, so repeated point queries with different constants
// share one plan too.
//
// Invalidation is two-tier. The fast tier is the generation stamp: every DDL
// (CREATE/DROP TABLE/INDEX, REBUILD, UPDATE STATISTICS) bumps the catalog
// generation, and a Get against a newer generation evicts the entry. The
// safety tier is bind-time resolution: a cached plan stores only the *name*
// (and opclass) of its chosen index, and every execution re-resolves that
// name against the indexes just opened from the live catalog — so even a
// plan cached inside the race window between a Get and a concurrent DROP
// can never scan a dropped index; the bind simply fails and the statement
// replans fresh.

// prepared is one entry of a session's PREPARE registry: the parsed AST, the
// parameter count, and the normalized text that keys its resolved plan in
// the shared cache.
type prepared struct {
	name    string
	text    string // normalized (deparsed) statement text — the plan-cache key
	stmt    sql.Statement
	nparams int
}

// qualTmpl is a qualification template: the shape of an am.Qual with each
// constant either fixed at plan time or deferred to a parameter slot.
// EXECUTE instantiates it with the bound arguments, which is what lets a
// cached plan skip qualification extraction and am_scancost entirely.
type qualTmpl struct {
	op       am.QualOp
	children []*qualTmpl

	// Leaf fields (QFunc):
	fn       string
	colPos   int
	colFirst bool
	constVal types.Datum // fixed constant, already coerced (paramOrd == 0)
	paramOrd int         // > 0: bind boundArgs[paramOrd-1], coerced at bind time
}

// cachedPlan is a shared-plan-cache entry: everything planAccess decided,
// minus anything tied to a session or an open index handle. The index is
// recorded by name (plus opclass as a sanity stamp) and re-resolved against
// the live catalog at every bind — see the invalidation note above.
type cachedPlan struct {
	op         string // SELECT / DELETE / UPDATE
	index      string // "" = sequential scan
	amName     string
	opClass    string
	strategies []string
	qual       *qualTmpl
	seqCost    float64
	cost       float64
	costed     bool
	recheck    Recheck // as planned: RecheckPerRow or RecheckUnlessExact when there is a WHERE
	full       bool    // the qual covers the whole WHERE (aggregate pushdown gate)
	costSource string  // estimate family the plan was costed from (EXPLAIN)
}

// registerPrepared validates and registers a statement under name. Only DML
// and SELECT are preparable (the Informix/PostgreSQL rule); PREPARE of DDL
// or session statements is refused.
func (s *Session) registerPrepared(name string, st sql.Statement) (*prepared, error) {
	switch st.(type) {
	case *sql.Select, *sql.Insert, *sql.Delete, *sql.Update:
	default:
		return nil, errf(CodeFeature, "cannot PREPARE this statement type (SELECT, INSERT, DELETE, UPDATE only)")
	}
	key := strings.ToLower(name)
	if _, ok := s.prepared[key]; ok {
		return nil, errf(CodeInvalidParameter, "prepared statement %q already exists (DEALLOCATE it first)", name)
	}
	p := &prepared{name: key, text: sql.Deparse(st), stmt: st, nparams: sql.NumParams(st)}
	if s.prepared == nil {
		s.prepared = make(map[string]*prepared)
	}
	s.prepared[key] = p
	return p, nil
}

func (s *Session) lookupPrepared(name string) (*prepared, error) {
	p, ok := s.prepared[strings.ToLower(name)]
	if !ok {
		return nil, errf(CodeUndefinedObject, "prepared statement %q does not exist", name)
	}
	return p, nil
}

// bindPrepared is the one bind step every EXECUTE takes (SQL EXECUTE,
// EXPLAIN EXECUTE, ExecutePrepared, the wire protocol's ExecutePrepared):
// resolve the prepared statement, evaluate SQL EXECUTE's argument
// expressions (exprs) — exactly once — or take the API's datums (args),
// check the count, and install the binding the statement's $n references
// read. It returns the statement to run; the binding lives until the
// statement scope ends (Stream.end).
func (s *Session) bindPrepared(name string, args []types.Datum, exprs []sql.Expr) (sql.Statement, error) {
	p, err := s.lookupPrepared(name)
	if err != nil {
		return nil, err
	}
	if exprs != nil {
		args = make([]types.Datum, len(exprs))
	}
	if len(args) != p.nparams {
		return nil, errf(CodeCardinality, "prepared statement %q wants %d argument(s), got %d", p.name, p.nparams, len(args))
	}
	for i, a := range exprs {
		if args[i], err = s.evalExpr(a, nil, nil, nil); err != nil {
			return nil, err
		}
	}
	s.boundArgs, s.curPrep = args, p
	return p.stmt, nil
}

// Prepare parses src (one statement) and registers it under name, returning
// the statement's parameter count. This is the embedded/network entry point;
// the SQL-level PREPARE ... AS arrives pre-parsed (exec.go sessionStmt).
func (s *Session) Prepare(name, src string) (int, error) {
	st, err := s.e.ParseSQL(src)
	if err != nil {
		return 0, err
	}
	p, err := s.registerPrepared(name, st)
	if err != nil {
		return 0, err
	}
	return p.nparams, nil
}

// Deallocate drops a prepared statement. The shared cache entry (if any)
// stays — other sessions may share it; LRU or DDL retires it.
func (s *Session) Deallocate(name string) error {
	key := strings.ToLower(name)
	if _, ok := s.prepared[key]; !ok {
		return errf(CodeUndefinedObject, "prepared statement %q does not exist", name)
	}
	delete(s.prepared, key)
	return nil
}

// ExecutePrepared runs a prepared statement with args bound to its $n slots
// and materializes the result. No parsing happens on this path; with a plan
// cache hit, no qualification extraction or am_scancost either.
func (s *Session) ExecutePrepared(ctx context.Context, name string, args []types.Datum) (*Result, error) {
	return drained(s.open(ctx, nil, name, args))
}

// ExecutePreparedStream is ExecutePrepared with streaming delivery: a
// prepared SELECT's rows flow through the cursor protocol (the network
// server's fast path). The parameter binding stays live until the stream
// finishes.
func (s *Session) ExecutePreparedStream(ctx context.Context, name string, args []types.Datum) (*Stream, error) {
	return streamed(s.open(ctx, nil, name, args))
}

// planStmt is the one planner entry (SELECT, DELETE, UPDATE, and EXPLAIN of
// each): consult the shared plan cache, bind on a hit, plan fresh (and
// publish) on a miss. op names the statement kind; st is the statement
// being planned (it derives the auto-parameterization key for ad-hoc text).
// write decides only which indexes are opened, and the caller closes them:
// DELETE and UPDATE open every index, for maintenance; a read opens only
// what it scans — on a cache hit the chosen index, none for a cached
// sequential scan, so a hot point query pays one am_open instead of one per
// candidate — and the full candidate set only to plan fresh.
//
// sql.plan_ns books the planner's own work: the cache probe, the bind and
// planAccess. am_open is not planning: it takes the index large object's
// lock, and a reader queued behind a writer waits inside it — that wait
// shows in the statement's elapsed time, not in sql.plan_ns.
func (s *Session) planStmt(op string, st sql.Statement, tb *catalog.Table, schema []types.Type, where sql.Expr, write bool) ([]openIndex, func(), accessPath, *Plan, error) {
	start := time.Now()
	var opening time.Duration
	defer func() { s.e.obs.Add(obs.SQLPlanNs, uint64(time.Since(start)-opening)) }()
	var idxs []openIndex
	var closeIdx func()
	openIdx := func(cp *cachedPlan) (err error) {
		t0 := time.Now()
		switch {
		case cp == nil:
			idxs, closeIdx, err = s.openIndexes(tb.Name, !write, "")
		case cp.index != "":
			idxs, closeIdx, err = s.openIndexes(tb.Name, true, cp.index)
		default:
			idxs, closeIdx = nil, func() {} // a cached sequential scan opens none
		}
		opening += time.Since(t0)
		return err
	}
	if write {
		if err := openIdx(nil); err != nil {
			return nil, nil, accessPath{}, nil, err
		}
	}

	key, autoArgs, pWhere, isAuto := s.planIntent(st, where)
	if isAuto {
		// Plan against the parameterized WHERE with the displaced literals
		// bound, so the extracted template carries parameter slots — the
		// cached plan then rebinds for any constants, not just today's.
		where = pWhere
		prev := s.boundArgs
		s.boundArgs = autoArgs
		defer func() { s.boundArgs = prev }()
	}
	gen := s.e.cat.Generation()
	if key != "" {
		if v, ok := s.e.planCache.Get(key, gen); ok {
			cp := v.(*cachedPlan)
			if write || openIdx(cp) == nil {
				if path, plan, ok := s.bindCached(cp, tb, idxs); ok {
					plan.Operation = op
					return idxs, closeIdx, path, plan, nil
				}
				if !write {
					closeIdx()
				}
			}
			// The entry survived the generation check but its index is gone
			// or no longer binds (DDL inside the Get→bind window, or an
			// unbindable argument): replan fresh below; the Put overwrites
			// the stale entry.
		}
	}
	if !write {
		if err := openIdx(nil); err != nil {
			return nil, nil, accessPath{}, nil, err
		}
	}
	path, plan, err := s.planAccess(tb, schema, where, idxs)
	if err != nil {
		closeIdx()
		return nil, nil, accessPath{}, nil, err
	}
	plan.Operation = op
	// Publish only if no DDL ran while we planned — a stale publish would
	// stamp an old plan with a generation it never saw.
	if key != "" && s.e.cat.Generation() == gen {
		s.e.planCache.Put(key, gen, s.cacheEntry(op, path, plan))
	}
	return idxs, closeIdx, path, plan, nil
}

// planIntent derives the shared-cache key for the current statement: the
// prepared statement's normalized text when an EXECUTE is running, or the
// auto-parameterized deparse of an ad-hoc statement with a literal-only
// WHERE. An empty key means the cache is not consulted (caching disabled,
// no WHERE clause, or unparameterizable text).
func (s *Session) planIntent(st sql.Statement, where sql.Expr) (key string, autoArgs []types.Datum, pWhere sql.Expr, isAuto bool) {
	if !s.vars.PlanCache() {
		return "", nil, nil, false
	}
	if s.curPrep != nil {
		return s.curPrep.text, nil, nil, false
	}
	if st == nil || where == nil || sql.HasParams(st) {
		return "", nil, nil, false
	}
	k, argExprs, pw, ok := paramizedKey(st)
	if !ok {
		return "", nil, nil, false
	}
	args := make([]types.Datum, len(argExprs))
	for i, a := range argExprs {
		v, err := s.evalExpr(a, nil, nil, nil)
		if err != nil {
			return "", nil, nil, false
		}
		args[i] = v
	}
	return k, args, pw, true
}

// paramizedKey rewrites the statement's WHERE literals to placeholders and
// returns the deparsed normal form, the displaced literal expressions, and
// the rewritten WHERE (the tree planning runs against). Only
// SELECT/DELETE/UPDATE participate; everything else is unkeyed.
func paramizedKey(st sql.Statement) (string, []sql.Expr, sql.Expr, bool) {
	switch t := st.(type) {
	case *sql.Select:
		pw, args := sql.ParamizeWhere(t.Where)
		cl := *t
		cl.Where = pw
		return sql.Deparse(&cl), args, pw, true
	case *sql.Delete:
		pw, args := sql.ParamizeWhere(t.Where)
		cl := *t
		cl.Where = pw
		return sql.Deparse(&cl), args, pw, true
	case *sql.Update:
		pw, args := sql.ParamizeWhere(t.Where)
		cl := *t
		cl.Where = pw
		return sql.Deparse(&cl), args, pw, true
	}
	return "", nil, nil, false
}

// bindQual instantiates a qualification template with the session's bound
// arguments, coercing each parameter to its indexed column's type. A nil
// error with a non-nil qual means the template bound cleanly; any failure
// (unbound slot, NULL argument, coercion mismatch, column out of range after
// an index was rebuilt differently) makes the caller fall back to a fresh
// plan or a sequential scan.
func (s *Session) bindQual(t *qualTmpl, colTypes []types.Type) (*am.Qual, error) {
	if t == nil {
		return nil, nil
	}
	if t.op != am.QFunc {
		kids := make([]*am.Qual, len(t.children))
		for i, c := range t.children {
			q, err := s.bindQual(c, colTypes)
			if err != nil {
				return nil, err
			}
			kids[i] = q
		}
		return am.NewBoolQual(t.op, kids...), nil
	}
	if t.colPos < 0 || t.colPos >= len(colTypes) {
		return nil, errf(CodeInternal, "qualification column %d out of range", t.colPos)
	}
	c := t.constVal
	if t.paramOrd > 0 {
		if t.paramOrd > len(s.boundArgs) {
			return nil, errf(CodeInvalidParameter, "parameter $%d is not bound (%d argument(s) given)", t.paramOrd, len(s.boundArgs))
		}
		v := s.boundArgs[t.paramOrd-1]
		if v == nil {
			return nil, errf(CodeInvalidParameter, "parameter $%d is NULL: not indexable", t.paramOrd)
		}
		cv, err := s.coerce(v, colTypes[t.colPos])
		if err != nil {
			return nil, err
		}
		c = cv
	}
	return am.NewFuncQual(t.fn, t.colPos, c, t.colFirst), nil
}

// bindCached instantiates a cached plan against the indexes the statement
// just opened from the live catalog. false means the plan no longer binds
// (its index is gone, was rebuilt under a different opclass, or an argument
// refuses to coerce) and the caller replans fresh.
func (s *Session) bindCached(cp *cachedPlan, tb *catalog.Table, idxs []openIndex) (accessPath, *Plan, bool) {
	plan := &Plan{
		Table:      tb.Name,
		SeqCost:    cp.seqCost,
		BatchCap:   s.e.opts.ScanBatchSize,
		Recheck:    cp.recheck,
		Cached:     true,
		CostSource: cp.costSource,
	}
	if cp.index == "" {
		return accessPath{}, plan, true
	}
	for i := range idxs {
		oi := &idxs[i]
		if !strings.EqualFold(oi.desc.Name, cp.index) || !strings.EqualFold(oi.desc.OpClass, cp.opClass) {
			continue
		}
		qual, err := s.bindQual(cp.qual, oi.desc.ColTypes)
		if err != nil || qual == nil {
			return accessPath{}, nil, false
		}
		plan.Choices = []PlanChoice{{
			Index: oi.desc.Name, AmName: oi.desc.AmName, OpClass: oi.desc.OpClass,
			Strategies: cp.strategies, Qual: qual.String(),
			Cost: cp.cost, Costed: cp.costed, Chosen: true,
		}}
		return accessPath{index: oi, qual: qual, tmpl: cp.qual, full: cp.full}, plan, true
	}
	return accessPath{}, nil, false
}

// cacheEntry converts a freshly planned access path into its shared-cache
// form.
func (s *Session) cacheEntry(op string, path accessPath, plan *Plan) *cachedPlan {
	cp := &cachedPlan{op: op, seqCost: plan.SeqCost, recheck: plan.Recheck,
		full: path.full, costSource: plan.CostSource}
	if path.index != nil {
		cp.index = path.index.desc.Name
		cp.opClass = path.index.desc.OpClass
		cp.amName = path.index.desc.AmName
		cp.qual = path.tmpl
		for _, ch := range plan.Choices {
			if ch.Chosen {
				cp.strategies = ch.Strategies
				cp.cost = ch.Cost
				cp.costed = ch.Costed
				break
			}
		}
	}
	return cp
}

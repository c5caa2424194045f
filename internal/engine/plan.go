package engine

import (
	"fmt"
	"strings"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/types"
)

// Plan records the optimizer's access-path decision for one statement:
// which virtual indexes were applicable, what am_scancost estimated for
// each, the sequential-scan alternative, and the batch capacity the
// executor will propose. Results carry it (Result.Plan) and EXPLAIN renders
// it without executing the statement — the reproduction's SET EXPLAIN.
type Plan struct {
	Operation string // SELECT / DELETE / UPDATE
	Table     string
	// SeqCost is the sequential alternative's cost: the heap's page count.
	SeqCost float64
	// BatchCap is the am_getmulti capacity the server will propose at
	// am_beginscan (subject to negotiation); <= 1 means the row-at-a-time
	// am_getnext protocol.
	BatchCap int
	// Recheck says whether the WHERE clause is re-checked on each row. The
	// planner decides RecheckPerRow or RecheckUnlessExact; opening the scan
	// settles the second into RecheckSkipped or RecheckPerRow once
	// am_beginscan has answered (exactAnswer, iter.go).
	Recheck Recheck
	// Workers is the degree of parallelism the executor will offer the scan
	// (SET PARALLEL capped by GOMAXPROCS and the access path's support);
	// <= 1 means a serial scan. The access method may still decline or
	// reduce the offer at am_parallelscan time.
	Workers int
	// SnapshotLSN is the MVCC read view's cut point: versions committed
	// strictly below it are visible. Zero when the statement takes no
	// snapshot (writes, or plans rendered without one).
	SnapshotLSN uint64
	// Choices are the candidate indexes considered (Section 4: a strategy
	// function over an indexed column makes the optimizer consider the
	// index; am_scancost arbitrates between applicable ones).
	Choices []PlanChoice
	// Cached reports the plan was served from the shared plan cache (bound
	// with the current parameters, no qualification extraction and no
	// am_scancost call). EXPLAIN prints it as "plan: cached" vs "plan:
	// fresh".
	Cached bool
	// CostSource names the estimate family the costs came from:
	// "stats(age N)" when SYSSTATS rows existed for the table (N is the
	// catalog-generation distance since UPDATE STATISTICS collected them),
	// "default" when the planner fell back to built-in constants.
	CostSource string
}

// Recheck is how a statement's WHERE clause is applied to the rows its scan
// returns.
type Recheck uint8

const (
	// RecheckNone: the statement has no WHERE clause.
	RecheckNone Recheck = iota
	// RecheckPerRow: every row is re-checked.
	RecheckPerRow
	// RecheckUnlessExact: planned, scan not opened. The chosen index's
	// qualification is the whole WHERE clause, so an exact answer reported
	// at am_beginscan would skip the re-check.
	RecheckUnlessExact
	// RecheckSkipped: the access method reported an exact answer at
	// am_beginscan, and no row is re-checked.
	RecheckSkipped
)

// filterLine renders the plan's filter: line, "" when there is none.
func (r Recheck) filterLine() string {
	switch r {
	case RecheckPerRow:
		return "       filter:      WHERE re-checked per row"
	case RecheckUnlessExact:
		return "       filter:      WHERE re-checked per row unless am_beginscan reports an exact answer"
	case RecheckSkipped:
		return "       filter:      WHERE re-check skipped (exact index answer)"
	}
	return ""
}

// PlanChoice is one candidate index the planner considered.
type PlanChoice struct {
	Index      string
	AmName     string
	OpClass    string
	Strategies []string // strategy functions the qualification uses (declared casing)
	Qual       string   // the pushed-down qualification descriptor
	Cost       float64  // am_scancost estimate (1.0 default when not bound)
	Costed     bool     // am_scancost was consulted
	Chosen     bool
}

// Chosen returns the winning index choice, or nil for a sequential scan.
func (p *Plan) Chosen() *PlanChoice {
	for i := range p.Choices {
		if p.Choices[i].Chosen {
			return &p.Choices[i]
		}
	}
	return nil
}

// Lines renders the plan tree, one row per line (the EXPLAIN output).
func (p *Plan) Lines() []string {
	out := []string{fmt.Sprintf("%s on %s", p.Operation, p.Table)}
	ch := p.Chosen()
	if ch == nil {
		out = append(out, fmt.Sprintf("  -> sequential heap scan (cost %.2f: heap pages)", p.SeqCost),
			"       cost source: "+p.costSource())
		if p.Workers > 1 {
			out = append(out, fmt.Sprintf("       parallel:    workers=%d (page-range partitions)", p.Workers))
		}
		if ln := p.Recheck.filterLine(); ln != "" {
			out = append(out, ln)
		}
		out = append(out, "       plan:        "+p.cacheLine())
		if p.SnapshotLSN > 0 {
			out = append(out, fmt.Sprintf("       snapshot=%d", p.SnapshotLSN))
		}
		return out
	}
	out = append(out,
		fmt.Sprintf("  -> index scan on %s via %s", ch.Index, ch.AmName),
		"       opclass:     "+ch.OpClass,
		"       strategy:    "+strings.Join(ch.Strategies, ", "),
		"       qual:        "+ch.Qual)
	if ch.Costed {
		out = append(out, fmt.Sprintf("       am_scancost: %.2f (seqscan cost %.2f)", ch.Cost, p.SeqCost))
	} else {
		out = append(out, fmt.Sprintf("       cost:        %.2f, no am_scancost bound (seqscan cost %.2f)", ch.Cost, p.SeqCost))
	}
	out = append(out, "       cost source: "+p.costSource())
	if p.BatchCap > 1 {
		out = append(out, fmt.Sprintf("       batch:       %d rows per am_getmulti", p.BatchCap))
	} else {
		out = append(out, "       batch:       row-at-a-time (am_getnext protocol)")
	}
	if p.Workers > 1 {
		out = append(out, fmt.Sprintf("       parallel:    workers=%d (am_parallelscan offer)", p.Workers))
	}
	if ln := p.Recheck.filterLine(); ln != "" {
		out = append(out, ln)
	}
	out = append(out, "       plan:        "+p.cacheLine())
	if p.SnapshotLSN > 0 {
		out = append(out, fmt.Sprintf("       snapshot=%d", p.SnapshotLSN))
	}
	for i := range p.Choices {
		c := &p.Choices[i]
		if !c.Chosen {
			out = append(out, fmt.Sprintf("  rejected: %s via %s (am_scancost %.2f)", c.Index, c.AmName, c.Cost))
		}
	}
	return out
}

func (p *Plan) String() string { return strings.Join(p.Lines(), "\n") }

func (p *Plan) cacheLine() string {
	if p.Cached {
		return "cached (shared plan cache)"
	}
	return "fresh"
}

func (p *Plan) costSource() string {
	if p.CostSource == "" {
		return "default"
	}
	return p.CostSource
}

// declaredStrategies maps the qualification's (lower-cased) strategy
// functions back to their declared casing in the operator class, for
// display.
func declaredStrategies(oc *catalog.OpClass, qual *am.Qual) []string {
	seen := map[string]bool{}
	var out []string
	for _, leaf := range qual.Leaves() {
		name := leaf.Func
		for _, st := range oc.Strategies {
			if strings.EqualFold(st, name) {
				name = st
				break
			}
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// explain runs the planning half of a statement — catalog lookup, statement
// locks, am_open, qualification extraction, am_scancost — and renders the
// resulting plan instead of executing the scan.
func (s *Session) explain(t *sql.Explain) (*Result, error) {
	st := t.Stmt
	// EXPLAIN EXECUTE name (args): plan the prepared statement under the
	// given binding, reporting whether the plan came from the shared cache.
	if ex, ok := st.(*sql.Execute); ok {
		var err error
		if st, err = s.bindPrepared(ex.Name, nil, ex.Args); err != nil {
			return nil, err
		}
	}
	var table string
	var where sql.Expr
	var op string
	switch inner := st.(type) {
	case *sql.Select:
		table, where, op = inner.Table, inner.Where, "SELECT"
	case *sql.Delete:
		table, where, op = inner.Table, inner.Where, "DELETE"
	case *sql.Update:
		table, where, op = inner.Table, inner.Where, "UPDATE"
	default:
		return nil, errf(CodeFeature, "EXPLAIN supports SELECT, DELETE, UPDATE, and EXECUTE, not %T", t.Stmt)
	}
	tb, err := s.catTable(table)
	if err != nil {
		return nil, err
	}
	hp, err := s.e.Table(tb.Name)
	if err != nil {
		return nil, err
	}
	_, closeAll, path, plan, err := s.planStmt(op, st, tb, hp.Schema(), where, false)
	if err != nil {
		return nil, err
	}
	defer closeAll()
	if op == "SELECT" {
		plan.Workers = s.scanDegree(path, plan, hp)
		// EXPLAIN takes no locks (reads are snapshot-isolated); render the
		// read view the statement would scan under.
		snap := s.stmtSnapshot(false)
		plan.SnapshotLSN = snap.ReadLSN
		s.ec.SetSnapshot(snap.ReadLSN)
		if snap.Dirty && plan.Recheck == RecheckUnlessExact {
			plan.Recheck = RecheckPerRow // exactAnswer never trusts a DIRTY READ
		}
	}
	res := &Result{
		Columns:  []string{"QUERY PLAN"},
		ColTypes: []types.Type{types.Builtin(types.KVarchar)},
		Plan:     plan,
	}
	for _, ln := range plan.Lines() {
		res.Rows = append(res.Rows, []types.Datum{ln})
	}
	res.Affected = len(res.Rows)
	return res, nil
}

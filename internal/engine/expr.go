package engine

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/sql"
	"repro/internal/types"
)

// evalExpr evaluates an expression. tb/schema/row give the column context
// (nil for constant expressions). UDR calls go through the dynamic
// resolution path, exactly as when an SQL statement is processed without
// using a virtual index (Section 4: "Overlaps() is invoked for each table
// record").
func (s *Session) evalExpr(ex sql.Expr, tb *catalog.Table, schema []types.Type, row []types.Datum) (types.Datum, error) {
	switch t := ex.(type) {
	case *sql.Null:
		return nil, nil
	case *sql.Literal:
		if t.IsString {
			return t.Text, nil
		}
		switch strings.ToLower(t.Text) {
		case "true":
			return true, nil
		case "false":
			return false, nil
		}
		if t.IsFloat {
			v, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("engine: bad float literal %q", t.Text)
			}
			return v, nil
		}
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("engine: bad integer literal %q", t.Text)
		}
		return v, nil
	case *sql.ColumnRef:
		if tb == nil {
			return nil, fmt.Errorf("engine: column %q outside row context", t.Name)
		}
		i, err := tb.ColumnIndex(t.Name)
		if err != nil {
			return nil, err
		}
		return row[i], nil
	case *sql.Param:
		if t.Ord < 1 || t.Ord > len(s.boundArgs) {
			return nil, errf(CodeInvalidParameter, "parameter $%d is not bound (%d argument(s) given)", t.Ord, len(s.boundArgs))
		}
		return s.boundArgs[t.Ord-1], nil
	case *sql.FuncCall:
		return s.evalFuncCall(t, tb, schema, row)
	case *sql.Binary:
		return s.evalBinary(t, tb, schema, row)
	case *sql.Not:
		v, err := s.evalBool(t.X, tb, schema, row)
		if err != nil {
			return nil, err
		}
		return !v, nil
	}
	return nil, fmt.Errorf("engine: unsupported expression %T", ex)
}

// fcMemo caches everything row-invariant about one call site in a
// statement's WHERE tree: the resolved procedure, its UDR symbol, the
// declared argument types, and any coerced literal/parameter argument
// values. The WHERE re-filter resolves each of these per row otherwise,
// and for opaque types re-running the Input parser on the same literal per
// row dominates a UDR-heavy residual filter.
type fcMemo struct {
	proc    *catalog.Procedure
	fn      am.UDRFunc
	targets []types.Type
	args    []types.Datum // coerced row-invariant arguments, per have[i]
	have    []bool
}

// resolveFuncCall builds the row-invariant half of a call site.
func (s *Session) resolveFuncCall(fc *sql.FuncCall) (*fcMemo, error) {
	proc, err := s.e.cat.ProcByName(fc.Name)
	if err != nil {
		return nil, err
	}
	if len(proc.ArgTypes) != len(fc.Args) {
		return nil, fmt.Errorf("engine: %s expects %d arguments, got %d", proc.Name, len(proc.ArgTypes), len(fc.Args))
	}
	m := &fcMemo{
		proc:    proc,
		targets: make([]types.Type, len(fc.Args)),
		args:    make([]types.Datum, len(fc.Args)),
		have:    make([]bool, len(fc.Args)),
	}
	for i := range fc.Args {
		if m.targets[i], err = s.e.reg.TypeByName(proc.ArgTypes[i]); err != nil {
			return nil, err
		}
	}
	sym, err := s.e.resolveSymbol(proc.Name)
	if err != nil {
		return nil, err
	}
	fn, ok := sym.(am.UDRFunc)
	if !ok {
		return nil, errf(CodeDatatype, "%s is not callable from SQL (%T)", proc.Name, sym)
	}
	m.fn = fn
	return m, nil
}

// evalFuncCall resolves the UDR from SYSPROCEDURES, coerces arguments to
// the declared parameter types (string literals become opaque values via
// the type's Input support function), and invokes it.
//
// When s.fcMemos is set (the per-statement WHERE re-filter, see iter.go),
// the resolution and the coerced literal/parameter arguments are cached
// across rows: they cannot vary within a statement. UDRs treat their
// arguments as read-only, so sharing one coerced datum across invocations
// is safe.
func (s *Session) evalFuncCall(fc *sql.FuncCall, tb *catalog.Table, schema []types.Type, row []types.Datum) (types.Datum, error) {
	m := s.fcMemos[fc] // nil map or missing entry both yield nil
	if m == nil {
		var err error
		if m, err = s.resolveFuncCall(fc); err != nil {
			return nil, err
		}
		if s.fcMemos != nil {
			s.fcMemos[fc] = m
		}
	}
	args := make([]types.Datum, len(fc.Args))
	for i, a := range fc.Args {
		if m.have[i] {
			args[i] = m.args[i]
			continue
		}
		v, err := s.evalExpr(a, tb, schema, row)
		if err != nil {
			return nil, err
		}
		cv, err := s.coerce(v, m.targets[i])
		if err != nil {
			return nil, fmt.Errorf("engine: %s argument %d: %w", m.proc.Name, i+1, err)
		}
		args[i] = cv
		if s.fcMemos != nil {
			switch a.(type) {
			case *sql.Literal, *sql.Param:
				m.args[i], m.have[i] = cv, true
			}
		}
	}
	out, err := m.fn(s.ctx, args)
	s.ctx.EndFunction()
	return out, err
}

func (s *Session) evalBinary(b *sql.Binary, tb *catalog.Table, schema []types.Type, row []types.Datum) (types.Datum, error) {
	switch b.Op {
	case "AND":
		l, err := s.evalBool(b.L, tb, schema, row)
		if err != nil {
			return nil, err
		}
		if !l {
			return false, nil
		}
		return s.evalBool(b.R, tb, schema, row)
	case "OR":
		l, err := s.evalBool(b.L, tb, schema, row)
		if err != nil {
			return nil, err
		}
		if l {
			return true, nil
		}
		return s.evalBool(b.R, tb, schema, row)
	}
	l, err := s.evalExpr(b.L, tb, schema, row)
	if err != nil {
		return nil, err
	}
	r, err := s.evalExpr(b.R, tb, schema, row)
	if err != nil {
		return nil, err
	}
	if l == nil || r == nil {
		return false, nil // SQL three-valued logic collapsed to false
	}
	l, r, err = s.harmonise(l, r)
	if err != nil {
		return nil, err
	}
	c, err := types.Compare(l, r)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case "=":
		return c == 0, nil
	case "<>":
		return c != 0, nil
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	case ">":
		return c > 0, nil
	case ">=":
		return c >= 0, nil
	}
	return nil, fmt.Errorf("engine: unsupported operator %q", b.Op)
}

// harmonise reconciles comparable representations (string literal vs DATE).
func (s *Session) harmonise(l, r types.Datum) (types.Datum, types.Datum, error) {
	if ls, ok := l.(string); ok {
		if _, ok := r.(chronon.Instant); ok {
			d, err := chronon.Parse(ls)
			if err != nil {
				return nil, nil, err
			}
			return d, r, nil
		}
	}
	if rs, ok := r.(string); ok {
		if _, ok := l.(chronon.Instant); ok {
			d, err := chronon.Parse(rs)
			if err != nil {
				return nil, nil, err
			}
			return l, d, nil
		}
	}
	return l, r, nil
}

// evalBool evaluates an expression expecting a boolean.
func (s *Session) evalBool(ex sql.Expr, tb *catalog.Table, schema []types.Type, row []types.Datum) (bool, error) {
	v, err := s.evalExpr(ex, tb, schema, row)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("engine: expression is not boolean (%T)", v)
	}
	return b, nil
}

// coerce converts a datum to the target type (string → date/opaque via the
// input support function, int ↔ float).
func (s *Session) coerce(v types.Datum, target types.Type) (types.Datum, error) {
	if v == nil {
		return nil, nil
	}
	switch target.Kind {
	case types.KInt:
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		case chronon.Instant:
			return int64(x), nil
		}
	case types.KFloat:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int64:
			return float64(x), nil
		}
	case types.KVarchar:
		if x, ok := v.(string); ok {
			return x, nil
		}
		return s.e.reg.Format(v)
	case types.KBool:
		if x, ok := v.(bool); ok {
			return x, nil
		}
	case types.KDate:
		switch x := v.(type) {
		case chronon.Instant:
			return x, nil
		case string:
			return chronon.Parse(x)
		case int64:
			return chronon.Instant(x), nil
		}
	case types.KOpaque:
		switch x := v.(type) {
		case types.Opaque:
			if x.TypeID == target.OpaqueID {
				return x, nil
			}
		case string:
			return s.e.reg.ParseLiteral(x, target)
		}
	}
	return nil, fmt.Errorf("engine: cannot coerce %T to %v", v, target)
}

// FormatResult renders a result as text (the shell's output).
func (e *Engine) FormatResult(r *Result) string {
	return FormatResultWith(e.reg, r)
}

// FormatResultWith renders a result against an arbitrary type registry. The
// network client renders with its own registry (the server's is across the
// wire), and the renderings must agree byte for byte — which is why this is
// one function, not two implementations.
func FormatResultWith(reg *types.Registry, r *Result) string {
	if r == nil {
		return ""
	}
	var sb strings.Builder
	if len(r.Columns) > 0 {
		sb.WriteString(strings.Join(r.Columns, " | "))
		sb.WriteString("\n")
		sb.WriteString(strings.Repeat("-", len(strings.Join(r.Columns, " | "))))
		sb.WriteString("\n")
		for _, row := range r.Rows {
			parts := make([]string, len(row))
			for i, d := range row {
				txt, err := reg.Format(d)
				if err != nil {
					txt = fmt.Sprintf("<%v>", err)
				}
				parts[i] = txt
			}
			sb.WriteString(strings.Join(parts, " | "))
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "(%d row(s))\n", len(r.Rows))
	}
	if r.Message != "" {
		sb.WriteString(r.Message)
		sb.WriteString("\n")
	}
	return sb.String()
}

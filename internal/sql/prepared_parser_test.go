package sql

import "testing"

func TestPreparedStatementGrammar(t *testing.T) {
	p := mustParse(t, `PREPARE byemp AS SELECT Name FROM Employees WHERE Department = $1`).(*Prepare)
	if p.Name != "byemp" {
		t.Fatalf("name: %q", p.Name)
	}
	sel, ok := p.Stmt.(*Select)
	if !ok {
		t.Fatalf("inner statement: %T", p.Stmt)
	}
	if NumParams(sel) != 1 {
		t.Fatalf("params: %d", NumParams(sel))
	}

	// Anonymous ? placeholders number left to right.
	q := mustParse(t, `SELECT a FROM t WHERE f(x, ?) AND y = ?`)
	if NumParams(q) != 2 {
		t.Fatalf("? numbering: %d", NumParams(q))
	}
	// $n ordinals can repeat and skip; the count is the highest ordinal.
	q = mustParse(t, `SELECT a FROM t WHERE x = $2 OR y = $2`)
	if NumParams(q) != 2 {
		t.Fatalf("repeated $2: %d", NumParams(q))
	}

	e := mustParse(t, `EXECUTE byemp ('Sales', 7)`).(*Execute)
	if e.Name != "byemp" || len(e.Args) != 2 {
		t.Fatalf("%+v", e)
	}
	if mustParse(t, `EXECUTE noargs`).(*Execute).Args != nil {
		t.Fatal("bare EXECUTE must carry no args")
	}

	if d := mustParse(t, `DEALLOCATE PREPARE byemp`).(*Deallocate); d.Name != "byemp" {
		t.Fatalf("%+v", d)
	}
	if d := mustParse(t, `DEALLOCATE byemp`).(*Deallocate); d.Name != "byemp" {
		t.Fatalf("%+v", d)
	}

	// Placeholders reach every DML position the engine binds.
	for _, src := range []string{
		`INSERT INTO t VALUES ($1, $2, $3)`,
		`UPDATE t SET a = $1 WHERE b = $2`,
		`DELETE FROM t WHERE Overlaps(x, $1)`,
	} {
		if !HasParams(mustParse(t, src)) {
			t.Fatalf("no params seen in %q", src)
		}
	}

	for _, bad := range []string{
		`PREPARE p AS PREPARE q AS SELECT 1`, // no nesting
		`PREPARE p AS EXECUTE q`,
		`PREPARE p AS DEALLOCATE q`,
		`PREPARE p`, // missing AS
		`EXECUTE`,   // missing name
		`DEALLOCATE`,
		`SELECT a FROM t WHERE x = $0`, // ordinals are 1-based
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) must fail", bad)
		}
	}
}

func TestPreparedDeparseRoundTrip(t *testing.T) {
	for _, src := range []string{
		`PREPARE byemp AS SELECT Name FROM Employees WHERE Department = $1`,
		`PREPARE ins AS INSERT INTO t VALUES ($1, $2)`,
		`EXECUTE byemp ('Sales')`,
		`EXECUTE noargs`,
		`DEALLOCATE byemp`,
		`SET PLAN_CACHE ON`,
		`SET PLAN_CACHE OFF`,
		`SET TRACE grt TO 2`,
		`SET TRACE GRT 3`,
		`SET PARALLEL 4`,
		`SET PARALLEL TO 0`,
		`SET COMMIT TO sync`,
		`SET COMMIT GROUP`,
		`SET ISOLATION TO COMMITTED READ`,
		`SET ISOLATION dirty read`,
		`SET widgets TO 1`,
		`SELECT a FROM t WHERE Overlaps(x, $1) OR Equal(x, $2)`,
	} {
		d1 := Deparse(mustParse(t, src))
		st2, err := Parse(d1)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", d1, src, err)
		}
		if d2 := Deparse(st2); d2 != d1 {
			t.Fatalf("deparse not stable: %q vs %q", d1, d2)
		}
	}
}

func TestParamizeWhere(t *testing.T) {
	sel := mustParse(t, `SELECT n FROM t WHERE Overlaps(x, '1/97') AND d = 'Sales'`).(*Select)
	rewritten, args := ParamizeWhere(sel.Where)
	if len(args) != 2 {
		t.Fatalf("extracted %d constants", len(args))
	}
	if NumParams(&Select{Where: rewritten}) != 2 {
		t.Fatalf("rewritten tree: %s", DeparseExpr(rewritten))
	}
	// Same shape, different constants → identical paramized deparse.
	sel2 := mustParse(t, `SELECT n FROM t WHERE Overlaps(x, '9/99') AND d = 'Toys'`).(*Select)
	r2, _ := ParamizeWhere(sel2.Where)
	if DeparseExpr(rewritten) != DeparseExpr(r2) {
		t.Fatalf("paramized shapes differ: %q vs %q", DeparseExpr(rewritten), DeparseExpr(r2))
	}
	// The original tree is untouched.
	if HasParams(sel) {
		t.Fatal("ParamizeWhere mutated its input")
	}
}

package sql

import (
	"testing"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func TestCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE Employees (Name VARCHAR(32), Department VARCHAR(32), Time_Extent GRT_TimeExtent_t)`).(*CreateTable)
	if st.Name != "Employees" || len(st.Cols) != 3 {
		t.Fatalf("%+v", st)
	}
	if st.Cols[2].TypeName != "GRT_TimeExtent_t" {
		t.Fatalf("opaque column: %+v", st.Cols[2])
	}
}

func TestCreateFunctionPaperExample(t *testing.T) {
	// The paper's Step 2 example, verbatim shape.
	st := mustParse(t, `CREATE FUNCTION grt_open(pointer) RETURNING int
		EXTERNAL NAME 'usr/functions/grtree.bld(grt_open)' LANGUAGE c`).(*CreateFunction)
	if st.Name != "grt_open" || len(st.ArgTypes) != 1 || st.ArgTypes[0] != "pointer" {
		t.Fatalf("%+v", st)
	}
	if st.Returns != "int" || st.External != "usr/functions/grtree.bld(grt_open)" || st.Language != "c" {
		t.Fatalf("%+v", st)
	}
	// Zero-argument function.
	st2 := mustParse(t, `CREATE FUNCTION f() RETURNING boolean EXTERNAL NAME 'x(y)' LANGUAGE c`).(*CreateFunction)
	if len(st2.ArgTypes) != 0 {
		t.Fatal("empty args")
	}
}

func TestCreateAccessMethodPaperExample(t *testing.T) {
	// The paper's Step 3 example.
	st := mustParse(t, `CREATE SECONDARY ACCESS_METHOD grtree_am (
		am_create = grt_create,
		am_open = grt_open,
		am_getnext = grt_getnext,
		am_close = grt_close,
		am_drop = grt_drop,
		am_sptype = 'S'
	)`).(*CreateAccessMethod)
	if st.Name != "grtree_am" || len(st.Slots) != 6 {
		t.Fatalf("%+v", st)
	}
	if st.Slots["am_sptype"] != "S" || st.Slots["am_getnext"] != "grt_getnext" {
		t.Fatalf("slots: %v", st.Slots)
	}
}

func TestCreateOpClassPaperExample(t *testing.T) {
	// The paper's Step 4 example.
	st := mustParse(t, `CREATE OPCLASS grt_opclass FOR grtree_am
		STRATEGIES(grt_overlap, grt_contains, grt_containedin, grt_equal)
		SUPPORT(grt_union, grt_size, grt_intersection)`).(*CreateOpClass)
	if st.Name != "grt_opclass" || st.AmName != "grtree_am" {
		t.Fatalf("%+v", st)
	}
	if len(st.Strategies) != 4 || len(st.Support) != 3 {
		t.Fatalf("%+v", st)
	}
}

func TestCreateIndexPaperExample(t *testing.T) {
	// The paper's Step 6 example.
	st := mustParse(t, `CREATE INDEX grt_index ON employees(column1 grt_opclass) USING grtree_am IN spc`).(*CreateIndex)
	if st.Name != "grt_index" || st.Table != "employees" || st.AmName != "grtree_am" || st.Space != "spc" {
		t.Fatalf("%+v", st)
	}
	if len(st.Columns) != 1 || st.Columns[0].Column != "column1" || st.Columns[0].OpClass != "grt_opclass" {
		t.Fatalf("%+v", st.Columns)
	}
	// Without opclass and space; with parameters.
	st2 := mustParse(t, `CREATE INDEX i ON t(c) USING am (placement='single', timeparam=365)`).(*CreateIndex)
	if st2.Columns[0].OpClass != "" || st2.Space != "" {
		t.Fatalf("%+v", st2)
	}
	if st2.Params["placement"] != "single" || st2.Params["timeparam"] != "365" {
		t.Fatalf("params: %v", st2.Params)
	}
}

func TestSelectPaperQuery(t *testing.T) {
	// The Section 5.2 sample query.
	st := mustParse(t, `SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '12/10/95, UC, 12/10/95, NOW')`).(*Select)
	if st.Table != "Employees" || len(st.Items) != 1 || st.Items[0].Column != "Name" {
		t.Fatalf("%+v", st)
	}
	fc, ok := st.Where.(*FuncCall)
	if !ok || fc.Name != "Overlaps" || len(fc.Args) != 2 {
		t.Fatalf("where: %+v", st.Where)
	}
	if _, ok := fc.Args[0].(*ColumnRef); !ok {
		t.Fatal("first arg must be a column")
	}
	if lit, ok := fc.Args[1].(*Literal); !ok || !lit.IsString {
		t.Fatal("second arg must be a string literal")
	}
}

func TestSelectVariants(t *testing.T) {
	st := mustParse(t, `SELECT * FROM t`).(*Select)
	if !st.Items[0].Star || st.Where != nil {
		t.Fatalf("%+v", st)
	}
	st = mustParse(t, `SELECT COUNT(*) FROM t WHERE a = 1 AND (b > 2 OR NOT c = 'x')`).(*Select)
	if !st.Items[0].CountStar {
		t.Fatal("count star")
	}
	b, ok := st.Where.(*Binary)
	if !ok || b.Op != "AND" {
		t.Fatalf("%+v", st.Where)
	}
	or, ok := b.R.(*Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("%+v", b.R)
	}
	if _, ok := or.R.(*Not); !ok {
		t.Fatal("NOT")
	}
}

func TestInsertVariants(t *testing.T) {
	st := mustParse(t, `INSERT INTO EmpDep VALUES ('John', 'Advertising', '4/97, UC, 3/97, 5/97')`).(*Insert)
	if st.Table != "EmpDep" || len(st.Rows) != 1 || len(st.Rows[0]) != 3 {
		t.Fatalf("%+v", st)
	}
	st = mustParse(t, `INSERT INTO t (a, b) VALUES (1, 2), (3, -4.5)`).(*Insert)
	if len(st.Columns) != 2 || len(st.Rows) != 2 {
		t.Fatalf("%+v", st)
	}
	lit := st.Rows[1][1].(*Literal)
	if lit.Text != "-4.5" || !lit.IsFloat {
		t.Fatalf("negative float: %+v", lit)
	}
	st2 := mustParse(t, `INSERT INTO t VALUES (NULL, true)`).(*Insert)
	if _, ok := st2.Rows[0][0].(*Null); !ok {
		t.Fatal("NULL literal")
	}
}

func TestDeleteUpdate(t *testing.T) {
	d := mustParse(t, `DELETE FROM t WHERE Overlaps(x, 'q')`).(*Delete)
	if d.Table != "t" || d.Where == nil {
		t.Fatalf("%+v", d)
	}
	u := mustParse(t, `UPDATE t SET a = 1, b = 'x' WHERE c = 2`).(*Update)
	if len(u.Sets) != 2 || u.Where == nil {
		t.Fatalf("%+v", u)
	}
	us := mustParse(t, `UPDATE STATISTICS FOR INDEX grt_index`).(*UpdateStatistics)
	if us.Index != "grt_index" {
		t.Fatalf("%+v", us)
	}
}

func TestTransactionsAndMisc(t *testing.T) {
	if _, ok := mustParse(t, `BEGIN WORK`).(*Begin); !ok {
		t.Fatal("begin")
	}
	if _, ok := mustParse(t, `COMMIT`).(*Commit); !ok {
		t.Fatal("commit")
	}
	if _, ok := mustParse(t, `ROLLBACK WORK`).(*Rollback); !ok {
		t.Fatal("rollback")
	}
	iso := mustParse(t, `SET ISOLATION TO REPEATABLE READ`).(*Set)
	if iso.Name != "isolation" || iso.Value != "REPEATABLE READ" {
		t.Fatalf("%+v", iso)
	}
	// Golden coverage for every level the engine accepts; the TO keyword is
	// optional (Informix accepts both spellings).
	for stmt, want := range map[string]string{
		`SET ISOLATION TO DIRTY READ`:     "DIRTY READ",
		`SET ISOLATION TO COMMITTED READ`: "COMMITTED READ",
		`SET ISOLATION TO SNAPSHOT`:       "SNAPSHOT",
		`SET ISOLATION SNAPSHOT`:          "SNAPSHOT",
		`SET ISOLATION dirty read`:        "DIRTY READ",
	} {
		got := mustParse(t, stmt).(*Set)
		if got.Value != want {
			t.Fatalf("%s: level %q, want %q", stmt, got.Value, want)
		}
	}
	sc := mustParse(t, `SET COMMIT TO group`).(*Set)
	if sc.Name != "commit" || sc.Value != "GROUP" {
		t.Fatalf("%+v", sc)
	}
	sc = mustParse(t, `SET COMMIT ASYNC`).(*Set)
	if sc.Value != "ASYNC" {
		t.Fatalf("%+v", sc)
	}
	ci := mustParse(t, `CHECK INDEX grt_index`).(*CheckIndex)
	if ci.Name != "grt_index" {
		t.Fatalf("%+v", ci)
	}
	sb := mustParse(t, `CREATE SBSPACE spc`).(*CreateSbspace)
	if sb.Name != "spc" {
		t.Fatalf("%+v", sb)
	}
	if _, ok := mustParse(t, `DROP TABLE t`).(*DropTable); !ok {
		t.Fatal("drop table")
	}
	if _, ok := mustParse(t, `DROP INDEX i`).(*DropIndex); !ok {
		t.Fatal("drop index")
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript(`
		-- registration script
		CREATE SBSPACE spc;
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("%d statements", len(stmts))
	}
}

func TestStringEscapes(t *testing.T) {
	st := mustParse(t, `INSERT INTO t VALUES ('it''s')`).(*Insert)
	lit := st.Rows[0][0].(*Literal)
	if lit.Text != "it's" {
		t.Fatalf("escape: %q", lit.Text)
	}
	// Double-quoted strings work too (the paper's examples use them).
	st2 := mustParse(t, `SELECT a FROM t WHERE f(a, "12/10/95, UC, 12/10/95, NOW")`).(*Select)
	fc := st2.Where.(*FuncCall)
	if fc.Args[1].(*Literal).Text != "12/10/95, UC, 12/10/95, NOW" {
		t.Fatal("double-quoted literal")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELEC a FROM t`,
		`CREATE TABLE t`,
		`CREATE TABLE t (a)`,
		`SELECT FROM t`,
		`SELECT a FROM`,
		`INSERT INTO t VALUES`,
		`INSERT t VALUES (1)`,
		`CREATE FUNCTION f(int) RETURNING`,
		`CREATE SECONDARY ACCESSMETHOD x (am_getnext = g)`,
		`CREATE OPCLASS o FOR`,
		`UPDATE t SET`,
		`SET ISOLATION TO`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t WHERE (a = 1`,
		`SELECT a FROM t WHERE 'unterminated`,
		`SELECT a FROM t extra`,
		`SELECT a FROM t WHERE a @ 1`,
		`SELECT a FROM t; SELECT b FROM u`, // Parse (single) rejects two
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestLexerComments(t *testing.T) {
	st := mustParse(t, "SELECT a FROM t -- trailing comment\n").(*Select)
	if st.Table != "t" {
		t.Fatal("comment handling")
	}
}

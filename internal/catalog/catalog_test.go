package catalog

import (
	"testing"
)

func TestTablesAndColumns(t *testing.T) {
	c := New()
	tb := &Table{Name: "Employees", Columns: []Column{{"Name", "VARCHAR"}, {"Time_Extent", "GRT_TimeExtent_t"}}}
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(&Table{Name: "EMPLOYEES"}); err == nil {
		t.Fatal("case-insensitive duplicate must fail")
	}
	got, err := c.TableByName("employees")
	if err != nil || got != tb {
		t.Fatal("lookup")
	}
	i, err := tb.ColumnIndex("TIME_EXTENT")
	if err != nil || i != 1 {
		t.Fatalf("column index %d %v", i, err)
	}
	if _, err := tb.ColumnIndex("nope"); err == nil {
		t.Fatal("missing column")
	}
	if _, err := c.TableByName("nope"); err == nil {
		t.Fatal("missing table")
	}
}

func TestDropTableWithIndex(t *testing.T) {
	c := New()
	c.AddTable(&Table{Name: "t"})
	c.AddIndex(&Index{Name: "ix", TableName: "t"})
	if err := c.DropTable("t"); err == nil {
		t.Fatal("drop with live index must fail")
	}
	c.DropIndex("ix")
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t"); err == nil {
		t.Fatal("double drop")
	}
}

func TestProcedures(t *testing.T) {
	c := New()
	p := &Procedure{Name: "grt_open", ArgTypes: []string{"pointer"}, Returns: "int",
		External: "usr/functions/grtree.bld(grt_open)", Language: "c"}
	if err := c.AddProcedure(p); err != nil {
		t.Fatal(err)
	}
	got, err := c.ProcByName("GRT_OPEN")
	if err != nil {
		t.Fatal(err)
	}
	lib, sym, err := got.ParseExternal()
	if err != nil || lib != "usr/functions/grtree.bld" || sym != "grt_open" {
		t.Fatalf("external: %q %q %v", lib, sym, err)
	}
	bad := Procedure{External: "nosuchformat"}
	if _, _, err := bad.ParseExternal(); err == nil {
		t.Fatal("malformed external must fail")
	}
	if err := c.AddProcedure(p); err == nil {
		t.Fatal("duplicate function")
	}
}

func TestAmsAndOpClasses(t *testing.T) {
	c := New()
	if err := c.AddAccessMethod(&AccessMethod{Name: "grtree_am", Slots: map[string]string{"am_getnext": "grt_getnext"}, SpType: "S"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddOpClass(&OpClass{Name: "grt_opclass", AmName: "grtree_am", Strategies: []string{"overlaps"}}); err != nil {
		t.Fatal(err)
	}
	// First class becomes default; second does not.
	if err := c.AddOpClass(&OpClass{Name: "grt_opclass2", AmName: "grtree_am"}); err != nil {
		t.Fatal(err)
	}
	def, err := c.DefaultOpClass("grtree_am")
	if err != nil || def.Name != "grt_opclass" {
		t.Fatalf("default opclass: %v %v", def, err)
	}
	o2, _ := c.OpClassByName("grt_opclass2")
	if o2.Default {
		t.Fatal("second class must not be default")
	}
	// Op class for a missing access method fails.
	if err := c.AddOpClass(&OpClass{Name: "x", AmName: "nope"}); err == nil {
		t.Fatal("opclass on missing am")
	}
	if _, err := c.DefaultOpClass("nope_am"); err == nil {
		t.Fatal("no default for unknown am")
	}
	if _, err := c.AmByName("nope"); err == nil {
		t.Fatal("missing am")
	}
}

func TestIndexesOn(t *testing.T) {
	c := New()
	c.AddIndex(&Index{Name: "b_ix", TableName: "emp"})
	c.AddIndex(&Index{Name: "a_ix", TableName: "emp"})
	c.AddIndex(&Index{Name: "c_ix", TableName: "other"})
	got := c.IndexesOn("EMP")
	if len(got) != 2 || got[0].Name != "a_ix" || got[1].Name != "b_ix" {
		t.Fatalf("indexes: %v", got)
	}
	if _, err := c.IndexByName("a_ix"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropIndex("zzz"); err == nil {
		t.Fatal("drop missing index")
	}
}

func TestSbspaces(t *testing.T) {
	c := New()
	s1, err := c.AddSbspace("spc", 1)
	if err != nil || s1.ID != 1 {
		t.Fatalf("%v %v", s1, err)
	}
	s2, _ := c.AddSbspace("spc2", 2)
	if s2.ID != 2 {
		t.Fatal("the sbspace must keep the id it was given")
	}
	if _, err := c.AddSbspace("SPC", 3); err == nil {
		t.Fatal("duplicate sbspace")
	}
	if _, err := c.SbspaceByName("spc"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SbspaceByName("zzz"); err == nil {
		t.Fatal("missing sbspace")
	}
}

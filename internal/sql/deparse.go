package sql

import (
	"fmt"
	"sort"
	"strings"
)

// Deparse renders a parsed statement back to SQL text. The output is a
// normal form: keywords uppercased, expressions fully parenthesised,
// placeholders as $n, map-valued clauses in sorted key order. Parsing the
// output yields an AST equal to the input (modulo `?` ordinals, which
// normalise to their assigned $n), which makes Deparse usable both as the
// plan-cache key normaliser and as the fuzz-test round-trip oracle.
func Deparse(st Statement) string {
	var b strings.Builder
	deparseStmt(&b, st)
	return b.String()
}

// DeparseExpr renders one expression in the same normal form.
func DeparseExpr(e Expr) string {
	var b strings.Builder
	deparseExpr(&b, e)
	return b.String()
}

func quoteString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

func deparseStmt(b *strings.Builder, st Statement) {
	switch t := st.(type) {
	case *CreateTable:
		fmt.Fprintf(b, "CREATE TABLE %s (", t.Name)
		for i, c := range t.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s %s", c.Name, c.TypeName)
		}
		b.WriteString(")")
	case *DropTable:
		fmt.Fprintf(b, "DROP TABLE %s", t.Name)
	case *CreateFunction:
		fmt.Fprintf(b, "CREATE FUNCTION %s(%s) RETURNING %s EXTERNAL NAME %s LANGUAGE %s",
			t.Name, strings.Join(t.ArgTypes, ", "), t.Returns, quoteString(t.External), t.Language)
	case *CreateAccessMethod:
		fmt.Fprintf(b, "CREATE SECONDARY ACCESS_METHOD %s (", t.Name)
		keys := make([]string, 0, len(t.Slots))
		for k := range t.Slots {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s = %s", k, quoteString(t.Slots[k]))
		}
		b.WriteString(")")
	case *CreateOpClass:
		fmt.Fprintf(b, "CREATE OPCLASS %s FOR %s STRATEGIES (%s)",
			t.Name, t.AmName, strings.Join(t.Strategies, ", "))
		if len(t.Support) > 0 {
			fmt.Fprintf(b, " SUPPORT (%s)", strings.Join(t.Support, ", "))
		}
	case *CreateSbspace:
		fmt.Fprintf(b, "CREATE SBSPACE %s", t.Name)
	case *CreateIndex:
		fmt.Fprintf(b, "CREATE INDEX %s ON %s (", t.Name, t.Table)
		for i, c := range t.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Column)
			if c.OpClass != "" {
				b.WriteString(" " + c.OpClass)
			}
		}
		b.WriteString(")")
		if t.AmName != "" {
			fmt.Fprintf(b, " USING %s", t.AmName)
			if len(t.Params) > 0 {
				keys := make([]string, 0, len(t.Params))
				for k := range t.Params {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				b.WriteString(" (")
				for i, k := range keys {
					if i > 0 {
						b.WriteString(", ")
					}
					fmt.Fprintf(b, "%s = %s", k, quoteString(t.Params[k]))
				}
				b.WriteString(")")
			}
		}
		if t.Space != "" {
			fmt.Fprintf(b, " IN %s", t.Space)
		}
	case *DropIndex:
		fmt.Fprintf(b, "DROP INDEX %s", t.Name)
	case *AlterIndexRebuild:
		fmt.Fprintf(b, "ALTER INDEX %s REBUILD", t.Name)
	case *Insert:
		fmt.Fprintf(b, "INSERT INTO %s", t.Table)
		if len(t.Columns) > 0 {
			fmt.Fprintf(b, " (%s)", strings.Join(t.Columns, ", "))
		}
		b.WriteString(" VALUES ")
		for i, row := range t.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for j, e := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				deparseExpr(b, e)
			}
			b.WriteString(")")
		}
	case *Select:
		b.WriteString("SELECT ")
		for i, it := range t.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			switch {
			case it.Star:
				b.WriteString("*")
			case it.CountStar:
				b.WriteString("count(*)")
			case it.Agg != "":
				fmt.Fprintf(b, "%s(%s)", it.Agg, it.Column)
			default:
				b.WriteString(it.Column)
			}
		}
		fmt.Fprintf(b, " FROM %s", t.Table)
		if t.Where != nil {
			b.WriteString(" WHERE ")
			deparseExpr(b, t.Where)
		}
	case *Delete:
		fmt.Fprintf(b, "DELETE FROM %s", t.Table)
		if t.Where != nil {
			b.WriteString(" WHERE ")
			deparseExpr(b, t.Where)
		}
	case *Update:
		fmt.Fprintf(b, "UPDATE %s SET ", t.Table)
		for i, sc := range t.Sets {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%s = ", sc.Column)
			deparseExpr(b, sc.Value)
		}
		if t.Where != nil {
			b.WriteString(" WHERE ")
			deparseExpr(b, t.Where)
		}
	case *Begin:
		b.WriteString("BEGIN")
	case *Commit:
		b.WriteString("COMMIT")
	case *Rollback:
		b.WriteString("ROLLBACK")
	case *Set:
		if cls, ok := strings.CutPrefix(t.Name, "trace."); ok {
			fmt.Fprintf(b, "SET TRACE %s TO %s", cls, t.Value)
		} else {
			fmt.Fprintf(b, "SET %s TO %s", t.Name, t.Value)
		}
	case *Show:
		if t.All {
			b.WriteString("SHOW ALL")
		} else if cls, ok := strings.CutPrefix(t.Name, "trace."); ok {
			fmt.Fprintf(b, "SHOW trace %s", cls)
		} else {
			fmt.Fprintf(b, "SHOW %s", t.Name)
		}
	case *Explain:
		b.WriteString("EXPLAIN ")
		deparseStmt(b, t.Stmt)
	case *CheckIndex:
		fmt.Fprintf(b, "CHECK INDEX %s", t.Name)
	case *UpdateStatistics:
		if t.Index != "" {
			fmt.Fprintf(b, "UPDATE STATISTICS FOR INDEX %s", t.Index)
		} else {
			fmt.Fprintf(b, "UPDATE STATISTICS FOR TABLE %s", t.Table)
		}
	case *Load:
		fmt.Fprintf(b, "LOAD FROM %s DELIMITER %s INSERT INTO %s",
			quoteString(t.File), quoteString(t.Delimiter), t.Table)
	case *Prepare:
		fmt.Fprintf(b, "PREPARE %s AS ", t.Name)
		deparseStmt(b, t.Stmt)
	case *Execute:
		fmt.Fprintf(b, "EXECUTE %s", t.Name)
		if len(t.Args) > 0 {
			b.WriteString(" (")
			for i, a := range t.Args {
				if i > 0 {
					b.WriteString(", ")
				}
				deparseExpr(b, a)
			}
			b.WriteString(")")
		}
	case *Deallocate:
		fmt.Fprintf(b, "DEALLOCATE %s", t.Name)
	default:
		fmt.Fprintf(b, "/* undeparsable %T */", st)
	}
}

func deparseExpr(b *strings.Builder, e Expr) {
	switch t := e.(type) {
	case *Literal:
		if t.IsString {
			b.WriteString(quoteString(t.Text))
		} else {
			b.WriteString(t.Text)
		}
	case *Null:
		b.WriteString("NULL")
	case *ColumnRef:
		b.WriteString(t.Name)
	case *Param:
		fmt.Fprintf(b, "$%d", t.Ord)
	case *FuncCall:
		b.WriteString(t.Name)
		b.WriteString("(")
		for i, a := range t.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			deparseExpr(b, a)
		}
		b.WriteString(")")
	case *Binary:
		b.WriteString("(")
		deparseExpr(b, t.L)
		fmt.Fprintf(b, " %s ", t.Op)
		deparseExpr(b, t.R)
		b.WriteString(")")
	case *Not:
		b.WriteString("(NOT ")
		deparseExpr(b, t.X)
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "/* undeparsable expr %T */", e)
	}
}

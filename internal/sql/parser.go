package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	stmts, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseScript parses a semicolon-separated sequence of statements
// (registration scripts, Section 6.1).
func ParseScript(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Statement
	for {
		for p.acceptPunct(";") {
		}
		if p.peek().Kind == TEOF {
			return out, nil
		}
		p.nextParam = 0 // `?` ordinals restart per statement
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.acceptPunct(";") && p.peek().Kind != TEOF {
			return nil, p.errf("expected ';' or end of input")
		}
	}
}

type parser struct {
	toks      []Token
	pos       int
	nextParam int // ordinal counter for `?` placeholders
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errf(format string, args ...any) error {
	t := p.peek()
	where := t.Text
	if t.Kind == TEOF {
		where = "<end>"
	}
	return fmt.Errorf("sql: %s (near %q)", fmt.Sprintf(format, args...), where)
}

// acceptKw consumes the keyword if present (case-insensitive).
func (p *parser) acceptKw(kw string) bool {
	t := p.peek()
	if t.Kind == TIdent && strings.EqualFold(t.Text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s", strings.ToUpper(kw))
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	t := p.peek()
	if t.Kind == TPunct && t.Text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q", s)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != TIdent {
		return "", p.errf("expected identifier")
	}
	p.pos++
	return t.Text, nil
}

// foldASCII maps the ASCII letters from..from+25 of an identifier to
// to..to+25 ('A','a' lower-cases; 'a','A' upper-cases) and leaves every other
// byte alone. Unicode case mapping could turn bytes the lexer took for
// letters into bytes it rejects, and a folded identifier must lex again when
// its statement is deparsed.
func foldASCII(s string, from, to byte) string {
	b := []byte(s)
	for i, c := range b {
		if from <= c && c < from+26 {
			b[i] = c - from + to
		}
	}
	return string(b)
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.acceptKw("CREATE"):
		return p.create()
	case p.acceptKw("DROP"):
		return p.drop()
	case p.acceptKw("ALTER"):
		if !p.acceptKw("INDEX") {
			return nil, p.errf("expected INDEX after ALTER")
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if !p.acceptKw("REBUILD") {
			return nil, p.errf("expected REBUILD after ALTER INDEX %s", name)
		}
		return &AlterIndexRebuild{Name: name}, nil
	case p.acceptKw("INSERT"):
		return p.insert()
	case p.acceptKw("SELECT"):
		return p.selectStmt()
	case p.acceptKw("DELETE"):
		return p.deleteStmt()
	case p.acceptKw("UPDATE"):
		return p.update()
	case p.acceptKw("BEGIN"):
		p.acceptKw("WORK")
		return &Begin{}, nil
	case p.acceptKw("COMMIT"):
		p.acceptKw("WORK")
		return &Commit{}, nil
	case p.acceptKw("ROLLBACK"):
		p.acceptKw("WORK")
		return &Rollback{}, nil
	case p.acceptKw("EXPLAIN"):
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner}, nil
	case p.acceptKw("PREPARE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		switch inner.(type) {
		case *Prepare, *Execute, *Deallocate:
			return nil, fmt.Errorf("sql: cannot PREPARE a %T statement", inner)
		}
		return &Prepare{Name: name, Stmt: inner, Text: Deparse(inner)}, nil
	case p.acceptKw("EXECUTE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st := &Execute{Name: name}
		if p.acceptPunct("(") {
			if !p.acceptPunct(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					st.Args = append(st.Args, a)
					if p.acceptPunct(",") {
						continue
					}
					break
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			}
		}
		return st, nil
	case p.acceptKw("DEALLOCATE"):
		p.acceptKw("PREPARE")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Deallocate{Name: name}, nil
	case p.acceptKw("SET"):
		// SET TRACE <class> [TO] <level> | SET <name> [TO] <words>.
		trace := p.acceptKw("TRACE")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if trace {
			name = "trace." + name
		} else {
			name = foldASCII(name, 'A', 'a')
		}
		p.acceptKw("TO")
		var words []string
		for t := p.peek(); t.Kind == TIdent || t.Kind == TNumber; t = p.peek() {
			w := p.next().Text
			if t.Kind == TIdent {
				w = foldASCII(w, 'a', 'A')
			}
			words = append(words, w)
		}
		if len(words) == 0 {
			return nil, p.errf("expected a value for %s", name)
		}
		return &Set{Name: name, Value: strings.Join(words, " ")}, nil
	case p.acceptKw("SHOW"):
		if p.acceptKw("ALL") {
			return &Show{All: true}, nil
		}
		name, err := p.ident()
		if err != nil {
			return nil, p.errf("expected ALL or a session variable name")
		}
		name = foldASCII(name, 'A', 'a')
		// SHOW TRACE <class> addresses one trace class's level.
		if name == "trace" && p.peek().Kind == TIdent {
			name += "." + foldASCII(p.next().Text, 'A', 'a')
		}
		return &Show{Name: name}, nil
	case p.acceptKw("CHECK"):
		if err := p.expectKw("INDEX"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &CheckIndex{Name: name}, nil
	case p.acceptKw("LOAD"):
		if err := p.expectKw("FROM"); err != nil {
			return nil, err
		}
		if p.peek().Kind != TString {
			return nil, p.errf("expected file name string")
		}
		st := &Load{File: p.next().Text, Delimiter: "|"}
		if p.acceptKw("DELIMITER") {
			if p.peek().Kind != TString {
				return nil, p.errf("expected delimiter string")
			}
			st.Delimiter = p.next().Text
		}
		if err := p.expectKw("INSERT"); err != nil {
			return nil, err
		}
		if err := p.expectKw("INTO"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Table = table
		return st, nil
	}
	return nil, p.errf("unrecognised statement")
}

func (p *parser) create() (Statement, error) {
	switch {
	case p.acceptKw("TABLE"):
		return p.createTable()
	case p.acceptKw("FUNCTION"):
		return p.createFunction()
	case p.acceptKw("SECONDARY"):
		if err := p.expectKw("ACCESS_METHOD"); err != nil {
			return nil, err
		}
		return p.createAccessMethod()
	case p.acceptKw("OPCLASS"):
		return p.createOpClass()
	case p.acceptKw("SBSPACE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &CreateSbspace{Name: name}, nil
	case p.acceptKw("INDEX"):
		return p.createIndex()
	}
	return nil, p.errf("unsupported CREATE")
}

func (p *parser) drop() (Statement, error) {
	switch {
	case p.acceptKw("TABLE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.acceptKw("INDEX"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name}, nil
	}
	return nil, p.errf("unsupported DROP")
}

func (p *parser) createTable() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	st := &CreateTable{Name: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		ty, err := p.typeName()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, ColDef{Name: col, TypeName: ty})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return st, nil
}

// typeName parses a type name, optionally with a (n) length suffix.
func (p *parser) typeName() (string, error) {
	name, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.acceptPunct("(") {
		if p.peek().Kind != TNumber {
			return "", p.errf("expected length in type")
		}
		p.next()
		if err := p.expectPunct(")"); err != nil {
			return "", err
		}
	}
	return name, nil
}

func (p *parser) createFunction() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &CreateFunction{Name: name}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if !p.acceptPunct(")") {
		for {
			ty, err := p.typeName()
			if err != nil {
				return nil, err
			}
			st.ArgTypes = append(st.ArgTypes, ty)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("RETURNING"); err != nil {
		return nil, err
	}
	ret, err := p.typeName()
	if err != nil {
		return nil, err
	}
	st.Returns = ret
	if err := p.expectKw("EXTERNAL"); err != nil {
		return nil, err
	}
	if err := p.expectKw("NAME"); err != nil {
		return nil, err
	}
	if p.peek().Kind != TString {
		return nil, p.errf("expected external name string")
	}
	st.External = p.next().Text
	if err := p.expectKw("LANGUAGE"); err != nil {
		return nil, err
	}
	lang, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Language = foldASCII(lang, 'A', 'a')
	return st, nil
}

func (p *parser) createAccessMethod() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &CreateAccessMethod{Name: name, Slots: make(map[string]string)}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		slot, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		var val string
		switch t := p.peek(); t.Kind {
		case TIdent, TString:
			val = p.next().Text
		default:
			return nil, p.errf("expected slot value")
		}
		st.Slots[foldASCII(slot, 'A', 'a')] = val
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) createOpClass() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("FOR"); err != nil {
		return nil, err
	}
	amName, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &CreateOpClass{Name: name, AmName: amName}
	if err := p.expectKw("STRATEGIES"); err != nil {
		return nil, err
	}
	list, err := p.identList()
	if err != nil {
		return nil, err
	}
	st.Strategies = list
	if p.acceptKw("SUPPORT") {
		list, err := p.identList()
		if err != nil {
			return nil, err
		}
		st.Support = list
	}
	return st, nil
}

func (p *parser) identList() ([]string, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) createIndex() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &CreateIndex{Name: name, Table: table, Params: make(map[string]string)}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		ic := IndexCol{Column: col}
		if p.peek().Kind == TIdent && !strings.EqualFold(p.peek().Text, "USING") {
			oc, err := p.ident()
			if err != nil {
				return nil, err
			}
			ic.OpClass = oc
		}
		st.Columns = append(st.Columns, ic)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.acceptKw("USING") {
		amName, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.AmName = amName
		// Optional (param='value', ...) list.
		if p.acceptPunct("(") {
			for {
				k, err := p.ident()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct("="); err != nil {
					return nil, err
				}
				t := p.peek()
				if t.Kind != TString && t.Kind != TIdent && t.Kind != TNumber {
					return nil, p.errf("expected parameter value")
				}
				p.next()
				st.Params[foldASCII(k, 'A', 'a')] = t.Text
				if p.acceptPunct(",") {
					continue
				}
				break
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
	}
	if p.acceptKw("IN") {
		space, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Space = space
	}
	return st, nil
}

func (p *parser) insert() (Statement, error) {
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &Insert{Table: table}
	if p.acceptPunct("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptPunct(",") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) selectStmt() (Statement, error) {
	st := &Select{}
	for {
		if p.acceptPunct("*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			agg := strings.ToLower(col)
			isAgg := agg == "count" || agg == "min" || agg == "max"
			// COUNT/MIN/MAX are aggregates only when a call follows; a bare
			// ident of the same spelling stays a column reference.
			if isAgg && p.acceptPunct("(") {
				if agg == "count" && p.acceptPunct("*") {
					if err := p.expectPunct(")"); err != nil {
						return nil, err
					}
					st.Items = append(st.Items, SelectItem{CountStar: true})
				} else {
					arg, err := p.ident()
					if err != nil {
						return nil, err
					}
					if err := p.expectPunct(")"); err != nil {
						return nil, err
					}
					st.Items = append(st.Items, SelectItem{Agg: agg, Column: arg})
				}
			} else {
				st.Items = append(st.Items, SelectItem{Column: col})
			}
		}
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = table
	if p.acceptKw("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &Delete{Table: table}
	if p.acceptKw("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) update() (Statement, error) {
	// UPDATE STATISTICS FOR INDEX name | UPDATE STATISTICS [FOR] [TABLE] name
	if p.acceptKw("STATISTICS") {
		if p.acceptKw("FOR") && p.acceptKw("INDEX") {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &UpdateStatistics{Index: name}, nil
		}
		p.acceptKw("TABLE")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &UpdateStatistics{Table: name}, nil
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &Update{Table: table}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, SetClause{Column: col, Value: v})
		if p.acceptPunct(",") {
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

// expressions (precedence: OR < AND < NOT < comparison < primary) -----------

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &Not{X: x}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TPunct {
		switch t.Text {
		case "=", "<", "<=", ">", ">=", "<>", "!=":
			p.pos++
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			op := t.Text
			if op == "!=" {
				op = "<>"
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TNumber:
		p.pos++
		return &Literal{Text: t.Text, IsFloat: strings.Contains(t.Text, ".")}, nil
	case TString:
		p.pos++
		return &Literal{Text: t.Text, IsString: true}, nil
	case TPunct:
		if t.Text == "(" {
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.Text == "?" {
			p.pos++
			p.nextParam++
			return &Param{Ord: p.nextParam}, nil
		}
		if strings.HasPrefix(t.Text, "$") {
			p.pos++
			ord, err := strconv.Atoi(t.Text[1:])
			if err != nil || ord < 1 {
				return nil, p.errf("bad parameter ordinal %q", t.Text)
			}
			if ord > p.nextParam {
				p.nextParam = ord
			}
			return &Param{Ord: ord}, nil
		}
		if t.Text == "-" { // negative number literal
			p.pos++
			n := p.peek()
			if n.Kind != TNumber {
				return nil, p.errf("expected number after '-'")
			}
			p.pos++
			return &Literal{Text: "-" + n.Text, IsFloat: strings.Contains(n.Text, ".")}, nil
		}
	case TIdent:
		if strings.EqualFold(t.Text, "NULL") {
			p.pos++
			return &Null{}, nil
		}
		if strings.EqualFold(t.Text, "TRUE") || strings.EqualFold(t.Text, "FALSE") {
			p.pos++
			return &Literal{Text: strings.ToLower(t.Text)}, nil
		}
		p.pos++
		if p.acceptPunct("(") {
			fc := &FuncCall{Name: t.Text}
			if !p.acceptPunct(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if p.acceptPunct(",") {
						continue
					}
					break
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			}
			return fc, nil
		}
		return &ColumnRef{Name: t.Text}, nil
	}
	return nil, p.errf("expected expression")
}

package sql

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColDef is one column definition in CREATE TABLE.
type ColDef struct {
	Name     string
	TypeName string
}

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Name string
	Cols []ColDef
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

// CreateFunction is CREATE FUNCTION name(args) RETURNING type
// EXTERNAL NAME 'lib(symbol)' LANGUAGE c (Section 4, Step 2).
type CreateFunction struct {
	Name     string
	ArgTypes []string
	Returns  string
	External string
	Language string
}

// CreateAccessMethod is CREATE SECONDARY ACCESS_METHOD name (slot = value,
// ...) (Section 4, Step 3).
type CreateAccessMethod struct {
	Name  string
	Slots map[string]string
}

// CreateOpClass is CREATE OPCLASS name FOR am STRATEGIES(...) SUPPORT(...)
// (Section 4, Step 4).
type CreateOpClass struct {
	Name       string
	AmName     string
	Strategies []string
	Support    []string
}

// CreateSbspace is CREATE SBSPACE name (the onspaces analogue, Step 5).
type CreateSbspace struct{ Name string }

// IndexCol is one indexed column with its operator class.
type IndexCol struct {
	Column  string
	OpClass string // empty = access method default
}

// CreateIndex is CREATE INDEX name ON table(col opclass, ...) USING am
// [IN space] (Section 4, Step 6).
type CreateIndex struct {
	Name    string
	Table   string
	Columns []IndexCol
	AmName  string // empty = built-in B-tree-ish (unsupported here)
	Space   string
	Params  map[string]string
}

// DropIndex is DROP INDEX name.
type DropIndex struct{ Name string }

// AlterIndexRebuild is ALTER INDEX name REBUILD: rebuild the index storage
// online, reusing the two-phase build machinery.
type AlterIndexRebuild struct{ Name string }

// Insert is INSERT INTO table [(cols)] VALUES (...), (...).
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// SelectItem is one projection item: `*`, a bare column, `COUNT(*)`, or an
// aggregate over one column (Agg is "count", "min", or "max" with Column the
// argument; empty for plain projections).
type SelectItem struct {
	Star      bool
	CountStar bool
	Column    string
	Agg       string
}

// Select is SELECT items FROM table [WHERE expr].
type Select struct {
	Items []SelectItem
	Table string
	Where Expr
}

// Delete is DELETE FROM table [WHERE expr].
type Delete struct {
	Table string
	Where Expr
}

// SetClause is one SET col = expr.
type SetClause struct {
	Column string
	Value  Expr
}

// Update is UPDATE table SET ... [WHERE expr].
type Update struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// Begin is BEGIN [WORK].
type Begin struct{}

// Commit is COMMIT [WORK].
type Commit struct{}

// Rollback is ROLLBACK [WORK].
type Rollback struct{}

// Set is SET <name> [TO] <value>: one assignment to the session's state
// (SessionVars) — SET ISOLATION (Section 5.3), SET COMMIT, SET PARALLEL,
// SET PLAN_CACHE. SET TRACE <class> [TO] <level>, the mi trace machinery's
// switch (Section 6.4: tracing is enabled selectively by class and level), is
// Name "trace.<class>". Name is lower-cased, except that a trace class keeps
// its spelling; Value is the value's words, identifiers upper-cased, joined
// by single spaces. The engine, not the parser, checks both.
type Set struct{ Name, Value string }

// Prepare is PREPARE name AS <stmt>: parse once, register the statement
// under name in the session, and plan it lazily at first EXECUTE. Text
// carries the statement's source for diagnostics and cache keying.
type Prepare struct {
	Name string
	Stmt Statement
	Text string
}

// Execute is EXECUTE name [(args...)]: bind the argument expressions to the
// prepared statement's parameter slots and run its cached plan.
type Execute struct {
	Name string
	Args []Expr
}

// Deallocate is DEALLOCATE [PREPARE] name: drop a prepared statement.
type Deallocate struct{ Name string }

// Show is SHOW ALL | SHOW <var> [<class>]: read back the session's SET
// state (SessionVars) as rows — SHOW ISOLATION, SHOW COMMIT, SHOW PARALLEL,
// SHOW TRACE <class>. Remote clients have no Session object to poke at, so
// this is how per-connection state stays inspectable over the wire.
type Show struct {
	All  bool
	Name string // lower-cased variable name ("isolation", "trace.grt", ...)
}

// Explain is EXPLAIN stmt: plan the inner statement without executing it.
type Explain struct{ Stmt Statement }

// CheckIndex is CHECK INDEX name (drives am_check).
type CheckIndex struct{ Name string }

// UpdateStatistics is UPDATE STATISTICS [FOR] [TABLE] name (collect row
// counts and per-index histograms into SYSSTATS) or UPDATE STATISTICS FOR
// INDEX name (drive a single index's am_stats). Exactly one of Table/Index
// is set.
type UpdateStatistics struct {
	Index string
	Table string
}

// Load is LOAD FROM 'file' [DELIMITER 'c'] INSERT INTO table — the Informix
// bulk-load command; values of opaque types go through the text-file import
// support function (Section 6.3, item 3).
type Load struct {
	File      string
	Delimiter string
	Table     string
}

func (*CreateTable) stmt()        {}
func (*DropTable) stmt()          {}
func (*CreateFunction) stmt()     {}
func (*CreateAccessMethod) stmt() {}
func (*CreateOpClass) stmt()      {}
func (*CreateSbspace) stmt()      {}
func (*CreateIndex) stmt()        {}
func (*DropIndex) stmt()          {}
func (*AlterIndexRebuild) stmt()  {}
func (*Insert) stmt()             {}
func (*Select) stmt()             {}
func (*Delete) stmt()             {}
func (*Update) stmt()             {}
func (*Begin) stmt()              {}
func (*Commit) stmt()             {}
func (*Rollback) stmt()           {}
func (*Set) stmt()                {}
func (*Prepare) stmt()            {}
func (*Execute) stmt()            {}
func (*Deallocate) stmt()         {}
func (*Show) stmt()               {}
func (*Explain) stmt()            {}
func (*CheckIndex) stmt()         {}
func (*UpdateStatistics) stmt()   {}
func (*Load) stmt()               {}

// Expr is a scalar or boolean expression.
type Expr interface{ expr() }

// Literal is a numeric or string literal.
type Literal struct {
	Text     string
	IsString bool
	IsFloat  bool
}

// Null is the NULL literal.
type Null struct{}

// ColumnRef names a column.
type ColumnRef struct{ Name string }

// FuncCall is f(args) — in WHERE clauses typically a strategy function.
type FuncCall struct {
	Name string
	Args []Expr
}

// Binary is a binary operation: comparisons, AND, OR.
type Binary struct {
	Op   string // "=", "<>", "<", "<=", ">", ">=", "AND", "OR"
	L, R Expr
}

// Not is NOT x.
type Not struct{ X Expr }

// Param is a parameter placeholder: `?` (ordinal assigned left to right) or
// `$n` (explicit 1-based ordinal). Bound to a datum at EXECUTE time.
type Param struct{ Ord int }

func (*Literal) expr()   {}
func (*Null) expr()      {}
func (*ColumnRef) expr() {}
func (*FuncCall) expr()  {}
func (*Binary) expr()    {}
func (*Not) expr()       {}
func (*Param) expr()     {}

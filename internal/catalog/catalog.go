// Package catalog implements the system catalogs: SYSTABLES, SYSPROCEDURES
// (CREATE FUNCTION), SYSAMS (CREATE SECONDARY ACCESS_METHOD), SYSOPCLASSES
// (CREATE OPCLASS), SYSINDICES/SYSFRAGMENTS (CREATE INDEX), and the sbspace
// registry (the onspaces analogue). DDL statements mutate it; the optimizer
// and the access-method framework read it (Section 4, Step 3: "The CREATE
// SECONDARY ACCESS_METHOD statement enters access method information into
// the system catalog table SYSAMS").
package catalog

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/am"
)

// Column is one table column.
type Column struct {
	Name     string
	TypeName string
}

// Table is a SYSTABLES entry.
type Table struct {
	Name    string
	Columns []Column
	// SpaceID is the WAL space id of the table's pager.
	SpaceID uint32
}

// Procedure is a SYSPROCEDURES entry: a UDR registered with CREATE FUNCTION.
type Procedure struct {
	Name     string
	ArgTypes []string
	Returns  string
	External string // "library(symbol)"
	Language string
}

// ParseExternal splits "usr/functions/grtree.bld(grt_open)" into library
// and symbol.
func (p Procedure) ParseExternal() (lib, symbol string, err error) {
	open := strings.IndexByte(p.External, '(')
	if open < 0 || !strings.HasSuffix(p.External, ")") {
		return "", "", fmt.Errorf("catalog: malformed EXTERNAL NAME %q", p.External)
	}
	return p.External[:open], p.External[open+1 : len(p.External)-1], nil
}

// AccessMethod is a SYSAMS entry.
type AccessMethod struct {
	Name   string
	Slots  map[string]string // am_* slot -> registered function name
	SpType string            // "S" = sbspace
}

// OpClass is a SYSOPCLASSES entry.
type OpClass struct {
	Name       string
	AmName     string
	Strategies []string
	Support    []string
	Default    bool
}

// Index states (SYSINDICES.State). An empty state means READY — catalogs
// persisted before online builds existed carry no state field.
const (
	// IndexReady is a fully built, published index: the planner may use it
	// and DML maintains it directly.
	IndexReady = "READY"
	// IndexBuilding is an index whose online build is in flight: invisible
	// to the planner, maintained through the build's side log only.
	IndexBuilding = "BUILDING"
)

// Index is a SYSINDICES entry.
type Index struct {
	Name      string
	TableName string
	Columns   []string
	OpClasses []string
	AmName    string
	SpaceName string
	Params    map[string]string
	// State is the index lifecycle state (IndexReady/IndexBuilding);
	// "" is read as READY for back-compat.
	State string `json:",omitempty"`
}

// Ready reports whether the index is published ("" is READY).
func (ix *Index) Ready() bool { return ix.State == "" || ix.State == IndexReady }

// Sbspace is a registered smart-blob space.
type Sbspace struct {
	Name string
	ID   uint32
}

// Catalog is the full system catalog. It is safe for concurrent use. The
// engine keeps its image in a large object and writes it through the log;
// this in-memory form is the cache it reloads from that image (Replace).
type Catalog struct {
	mu sync.RWMutex

	// gen counts catalog mutations. Every DDL bump invalidates shared-plan
	// -cache entries stamped with an older generation. Deliberately not
	// persisted: the plan cache is process-local and starts empty, so a
	// restart resetting the counter to zero is safe.
	gen atomic.Uint64

	Tables   map[string]*Table
	Procs    map[string]*Procedure
	Ams      map[string]*AccessMethod
	OpCls    map[string]*OpClass
	Indices  map[string]*Index
	Sbspaces map[string]*Sbspace

	// AmRecords is "the table associated with the access method" in which
	// grt_create records the index's large-object handle (Appendix A,
	// grt_create step 6 / grt_open step 3). Keys are "am|index".
	AmRecords map[string][]byte

	// Stats is SYSSTATS: per-table collected statistics (UPDATE STATISTICS),
	// keyed by lower table name. Each record is stamped with the catalog
	// generation at collection so plan-cache entries and EXPLAIN can tell
	// fresh statistics from stale ones.
	Stats map[string]*TableStats
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		Tables:   make(map[string]*Table),
		Procs:    make(map[string]*Procedure),
		Ams:      make(map[string]*AccessMethod),
		OpCls:    make(map[string]*OpClass),
		Indices:  make(map[string]*Index),
		Sbspaces: make(map[string]*Sbspace),

		AmRecords: make(map[string][]byte),
		Stats:     make(map[string]*TableStats),
	}
}

// Image encodes the catalog for storage.
func (c *Catalog) Image() ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return json.Marshal(c)
}

// Replace makes the catalog the one encoded in raw (empty raw is an empty
// catalog) and bumps the generation.
func (c *Catalog) Replace(raw []byte) error {
	n := New()
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, n); err != nil {
			return fmt.Errorf("catalog: corrupt image: %w", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Tables, c.Procs, c.Ams, c.OpCls = n.Tables, n.Procs, n.Ams, n.OpCls
	c.Indices, c.Sbspaces, c.AmRecords, c.Stats = n.Indices, n.Sbspaces, n.AmRecords, n.Stats
	c.gen.Add(1)
	return nil
}

func key(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// generation ----------------------------------------------------------------

// Generation returns the current catalog generation. Plans cache it at plan
// time; a mismatch at lookup time marks the plan stale.
func (c *Catalog) Generation() uint64 { return c.gen.Load() }

// BumpGeneration advances the catalog generation. Every mutating DDL path
// calls it (directly or through the Add/Drop helpers); the engine also
// bumps it for in-place state flips such as an online build publishing an
// index or UPDATE STATISTICS refreshing am_stats.
func (c *Catalog) BumpGeneration() { c.gen.Add(1) }

// errors -------------------------------------------------------------------

func exists(kind, name string) error  { return fmt.Errorf("catalog: %s %q already exists", kind, name) }
func missing(kind, name string) error { return fmt.Errorf("catalog: %s %q does not exist", kind, name) }

// lookup fetches name from the catalog map *m under the read lock.
func lookup[T any](c *Catalog, m *map[string]T, kind, name string) (T, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := (*m)[key(name)]
	if !ok {
		return v, missing(kind, name)
	}
	return v, nil
}

// insert enters v under name into the catalog map *m, unless the name is
// taken, and bumps the generation.
func insert[T any](c *Catalog, m *map[string]T, kind, name string, v T) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := (*m)[key(name)]; dup {
		return exists(kind, name)
	}
	(*m)[key(name)] = v
	c.gen.Add(1)
	return nil
}

// tables --------------------------------------------------------------------

// AddTable registers a table.
func (c *Catalog) AddTable(t *Table) error { return insert(c, &c.Tables, "table", t.Name, t) }

// TableByName fetches a table.
func (c *Catalog) TableByName(name string) (*Table, error) {
	return lookup(c, &c.Tables, "table", name)
}

// DropTable removes a table; indexes on it must already be gone.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.Tables[key(name)]; !ok {
		return missing("table", name)
	}
	for _, ix := range c.Indices {
		if key(ix.TableName) == key(name) {
			return fmt.Errorf("catalog: table %q still has index %q", name, ix.Name)
		}
	}
	delete(c.Tables, key(name))
	delete(c.Stats, key(name))
	c.gen.Add(1)
	return nil
}

// ColumnIndex returns a column's ordinal.
func (t *Table) ColumnIndex(col string) (int, error) {
	for i, cl := range t.Columns {
		if strings.EqualFold(cl.Name, col) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("catalog: table %q has no column %q", t.Name, col)
}

// procedures -----------------------------------------------------------------

// AddProcedure registers a UDR (CREATE FUNCTION).
func (c *Catalog) AddProcedure(p *Procedure) error {
	return insert(c, &c.Procs, "function", p.Name, p)
}

// ProcByName fetches a UDR.
func (c *Catalog) ProcByName(name string) (*Procedure, error) {
	return lookup(c, &c.Procs, "function", name)
}

// access methods --------------------------------------------------------------

// AddAccessMethod registers an access method (SYSAMS).
func (c *Catalog) AddAccessMethod(a *AccessMethod) error {
	return insert(c, &c.Ams, "access method", a.Name, a)
}

// AmByName fetches an access method.
func (c *Catalog) AmByName(name string) (*AccessMethod, error) {
	return lookup(c, &c.Ams, "access method", name)
}

// op classes -------------------------------------------------------------------

// AddOpClass registers an operator class.
func (c *Catalog) AddOpClass(o *OpClass) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.OpCls[key(o.Name)]; dup {
		return exists("operator class", o.Name)
	}
	if _, ok := c.Ams[key(o.AmName)]; !ok {
		return missing("access method", o.AmName)
	}
	// First class of an access method becomes its default.
	def := true
	for _, other := range c.OpCls {
		if key(other.AmName) == key(o.AmName) {
			def = false
			break
		}
	}
	o.Default = def
	c.OpCls[key(o.Name)] = o
	c.gen.Add(1)
	return nil
}

// OpClassByName fetches an operator class.
func (c *Catalog) OpClassByName(name string) (*OpClass, error) {
	return lookup(c, &c.OpCls, "operator class", name)
}

// DefaultOpClass returns the access method's default operator class.
func (c *Catalog) DefaultOpClass(amName string) (*OpClass, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, o := range c.OpCls {
		if key(o.AmName) == key(amName) && o.Default {
			return o, nil
		}
	}
	return nil, fmt.Errorf("catalog: access method %q has no default operator class", amName)
}

// indices -----------------------------------------------------------------------

// AddIndex registers an index (SYSINDICES).
func (c *Catalog) AddIndex(ix *Index) error { return insert(c, &c.Indices, "index", ix.Name, ix) }

// IndexByName fetches an index.
func (c *Catalog) IndexByName(name string) (*Index, error) {
	return lookup(c, &c.Indices, "index", name)
}

// SetIndexState publishes an index lifecycle transition. Sessions keep the
// *Index entries they fetched and read State without a lock, so the live
// entry is never written: a copy carrying the new state replaces it under
// the catalog lock, in the same step as the generation bump that retires
// plans made under the old state.
func (c *Catalog) SetIndexState(name, state string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, ok := c.Indices[key(name)]
	if !ok {
		return missing("index", name)
	}
	ix := *old
	ix.State = state
	c.Indices[key(name)] = &ix
	c.gen.Add(1)
	return nil
}

// DropIndex removes an index entry (and its collected statistics).
func (c *Catalog) DropIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ix, ok := c.Indices[key(name)]
	if !ok {
		return missing("index", name)
	}
	if ts, ok := c.Stats[key(ix.TableName)]; ok && ts.Indexes != nil {
		delete(ts.Indexes, key(name))
	}
	delete(c.Indices, key(name))
	c.gen.Add(1)
	return nil
}

// IndexesOn lists the indexes on a table, name-sorted.
func (c *Catalog) IndexesOn(table string) []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Index
	for _, ix := range c.Indices {
		if key(ix.TableName) == key(table) {
			out = append(out, ix)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// statistics (SYSSTATS) -------------------------------------------------------

// TableStats is one table's collected statistics: the live row/page counts
// at collection time plus each ready index's am_stats result, stamped with
// the catalog generation the collection published under.
type TableStats struct {
	Rows  int
	Pages int
	// Collected is the catalog generation this record was published at
	// (equal to Generation() right after UPDATE STATISTICS; every later DDL
	// widens the age).
	Collected uint64
	// Indexes maps lower index name → its am_stats result.
	Indexes map[string]*am.IndexStats
}

// StatsPut publishes a table's collected statistics and bumps the catalog
// generation (invalidating shared-plan-cache entries costed under the old
// statistics). The record's Collected stamp is the post-bump generation, so
// a record is age 0 immediately after collection.
func (c *Catalog) StatsPut(table string, ts *TableStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts.Collected = c.gen.Add(1)
	c.Stats[key(table)] = ts
}

// StatsGet fetches a table's collected statistics (nil when UPDATE
// STATISTICS has not run for it).
func (c *Catalog) StatsGet(table string) *TableStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.Stats[key(table)]
}

// IndexStats resolves one index's collected statistics through its table's
// record (nil when absent).
func (c *Catalog) IndexStats(table, index string) *am.IndexStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ts := c.Stats[key(table)]
	if ts == nil || ts.Indexes == nil {
		return nil
	}
	return ts.Indexes[key(index)]
}

// sbspaces -------------------------------------------------------------------------

// AMRecordPut stores an access method's bookkeeping record for an index.
func (c *Catalog) AMRecordPut(amName, index string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.AmRecords[key(amName)+"|"+key(index)] = append([]byte(nil), data...)
}

// AMRecordGet fetches an access method's bookkeeping record.
func (c *Catalog) AMRecordGet(amName, index string) ([]byte, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.AmRecords[key(amName)+"|"+key(index)]
	return d, ok
}

// AMRecordDelete removes an access method's bookkeeping record.
func (c *Catalog) AMRecordDelete(amName, index string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.AmRecords, key(amName)+"|"+key(index))
}

// AddSbspace registers an sbspace under the space id the engine minted.
func (c *Catalog) AddSbspace(name string, id uint32) (*Sbspace, error) {
	s := &Sbspace{Name: name, ID: id}
	if err := insert(c, &c.Sbspaces, "sbspace", name, s); err != nil {
		return nil, err
	}
	return s, nil
}

// SbspaceByName fetches an sbspace.
func (c *Catalog) SbspaceByName(name string) (*Sbspace, error) {
	return lookup(c, &c.Sbspaces, "sbspace", name)
}

// VirtualTables describes the onstat-style virtual catalog tables the
// engine serves from live counters (never stored): SYSPROFILE, the
// engine-wide profile counters, and SYSPTPROF, per-partition buffer-pool
// I/O. The engine materialises their rows on every read; the catalog only
// owns the schemas so SELECT projection and WHERE evaluation work unchanged.
func VirtualTables() []*Table {
	return []*Table{
		{Name: "sysprofile", Columns: []Column{
			{Name: "name", TypeName: "lvarchar"},
			{Name: "value", TypeName: "integer"},
		}},
		{Name: "sysptprof", Columns: []Column{
			{Name: "partition", TypeName: "lvarchar"},
			{Name: "kind", TypeName: "lvarchar"},
			{Name: "fetches", TypeName: "integer"},
			{Name: "hits", TypeName: "integer"},
			{Name: "reads", TypeName: "integer"},
			{Name: "writes", TypeName: "integer"},
			{Name: "evictions", TypeName: "integer"},
		}},
	}
}

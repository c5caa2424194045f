// Package engine is the server: it wires the substrates together — system
// catalogs, heap tables, sbspaces, the write-ahead log, the lock manager,
// the DataBlade API contexts, UDR libraries, and the access-method framework
// — and executes SQL through them. It stands in for the Informix Dynamic
// Server that the paper's DataBlade plugs into; the extension surface
// (CREATE FUNCTION / SECONDARY ACCESS_METHOD / OPCLASS / INDEX, purpose-
// function dispatch, qualification descriptors) follows Section 4.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/chronon"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/mi"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/sbspace"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// Options configures an engine.
type Options struct {
	// Dir is the database directory; empty means fully in-memory storage
	// (with the WAL in a temporary file so rollback still works).
	Dir string
	// Clock supplies the current time (defaults to a virtual clock at the
	// host's current day).
	Clock chronon.Clock
	// PoolPages is the per-table / per-space buffer-pool capacity in pages
	// (default 256).
	PoolPages int
	// ScanBatchSize is the number of rows the executor pulls per batch —
	// the am_getmulti capacity it proposes to access methods and the heap
	// scanner's unit (default am.DefaultBatchCap). 1 degenerates to
	// row-at-a-time pulls (benchmark ablations).
	ScanBatchSize int
	// NoWAL disables logging (benchmark configurations): crash recovery is
	// unavailable, ROLLBACK or a failed statement takes back its rows but
	// not its index pages, and DDL inside BEGIN WORK is refused (SQLSTATE
	// 25001), since nothing could take back its catalog change.
	NoWAL bool
	// CheckpointInterval is how often the background checkpointer wakes to
	// decide whether to checkpoint (default 250ms; negative disables the
	// daemon — tests drive Checkpoint explicitly).
	CheckpointInterval time.Duration
	// CheckpointThreshold is the log growth (bytes appended since the last
	// checkpoint) that triggers a checkpoint at the next wakeup (default
	// 1 MiB).
	CheckpointThreshold int64
	// VacuumInterval is how often the background version vacuum wakes to
	// reclaim tuple versions no live snapshot can see (default 1s; negative
	// disables the daemon — tests drive VacuumNow explicitly).
	VacuumInterval time.Duration
	// Types, when set, is called with the fresh type registry before the
	// catalogued storage opens — blades register their opaque types here so
	// tables with opaque columns can be re-opened from the catalog.
	Types func(*types.Registry) error
	// TraceWriter receives mi trace output (SET TRACE; Section 6.4). Nil
	// discards traces.
	TraceWriter io.Writer
}

// Engine is one database instance.
type Engine struct {
	opts  Options
	mem   bool
	clock chronon.Clock

	// cat is the catalog cache; its image lives in the large object
	// catHandle of catSpace, the system sbspace (space 0), and loadCatalog
	// reloads the cache from it. catSpace is nil on a NoWAL memory engine,
	// which can never read an image back and keeps none.
	cat      *catalog.Catalog
	catSpace *sbspace.Space
	reg      *types.Registry
	lm       *lock.Manager
	log      *wal.Log
	tmpd     string // temp dir holding the WAL for memory engines

	// obs is the engine-wide metrics registry, which SYSPROFILE serves: the
	// engine, the heaps, the log and the lock manager count into it by ID,
	// and every buffer pool and user sbspace is summed into it (AddSum).
	obs    *obs.Registry
	tracer *mi.Tracer

	// planCache is the engine-wide shared plan cache, keyed by normalized
	// (deparsed, $n-parameterized) SQL text and stamped with the catalog
	// generation that planned each entry.
	planCache *plancache.Cache

	// Checkpointer state: cpMu serialises checkpoints (daemon, Close, and
	// explicit calls), cpLast is the log size at the last checkpoint (the
	// threshold baseline).
	cpMu   sync.Mutex
	cpLast atomic.Int64
	closed atomic.Bool

	mu          sync.Mutex
	spaces      map[string]*sbspace.Space // by lower name
	spacePools  map[uint32]*storage.BufferPool
	tables      map[string]*heap.Table // by lower name
	libs        map[string]am.Library
	amCache     map[string]*am.PurposeSet
	nextSession uint64

	// MVCC state (see snapshot.go). mvccMu orders transaction-id
	// allocation (nextTx), the active set, snapshot capture/release, and
	// the vacuum horizon read against commit-time deactivation; mvccClock
	// is the commit clock every engine stamps versions with. Both nextTx
	// and mvccClock are seeded from the WAL's logical size at Open so
	// restarted engines never reuse a stamped transaction id or commit
	// stamp (every transaction, and every tick of the clock, appends more
	// than one log byte; a NoWAL engine over persistent files has no such
	// guard and is not restart-safe — it was never crash-safe to begin
	// with).
	mvccMu      sync.Mutex
	nextTx      uint64
	mvccActive  map[uint64]struct{}
	mvccSnaps   map[uint64]*heap.Snapshot // registered snapshot id -> read view
	mvccSnapSeq uint64
	mvccClock   atomic.Uint64

	// The background daemons (see daemon): every CheckpointInterval, a
	// checkpoint once the log grew past CheckpointThreshold; every
	// VacuumInterval, a version-vacuum pass reclaiming cells no live
	// snapshot can see (the MVCC analogue of log truncation). Each stop
	// waits for its goroutine and is idempotent.
	stopCheckpointer, stopVacuum func()

	// Online index builds (see idxbuild.go): the registry writer statements
	// consult (after their table X lock) to capture side-log ops, and the
	// test-only crash hook invoked at the build's named stages.
	buildsMu  sync.Mutex
	builds    []*indexBuild
	buildHook func(stage string) error

	traceOn     atomic.Bool
	traceMu     sync.Mutex
	traceEvents []string
}

// Open opens (or creates) a database, running crash recovery when a log is
// present.
func Open(opts Options) (*Engine, error) {
	if opts.Clock == nil {
		opts.Clock = chronon.NewVirtualClock(chronon.SystemClock{}.Now())
	}
	if opts.PoolPages <= 0 {
		opts.PoolPages = 256
	}
	if opts.ScanBatchSize <= 0 {
		opts.ScanBatchSize = am.DefaultBatchCap
	}
	if opts.CheckpointInterval == 0 {
		opts.CheckpointInterval = 250 * time.Millisecond
	}
	if opts.CheckpointThreshold <= 0 {
		opts.CheckpointThreshold = 1 << 20
	}
	if opts.VacuumInterval == 0 {
		opts.VacuumInterval = time.Second
	}
	e := &Engine{
		opts:       opts,
		mem:        opts.Dir == "",
		clock:      opts.Clock,
		reg:        types.NewRegistry(),
		lm:         lock.New(),
		obs:        obs.NewRegistry(),
		spaces:     make(map[string]*sbspace.Space),
		spacePools: make(map[uint32]*storage.BufferPool),
		tables:     make(map[string]*heap.Table),
		libs:       make(map[string]am.Library),
		amCache:    make(map[string]*am.PurposeSet),
		cat:        catalog.New(),
		mvccActive: make(map[uint64]struct{}),
		mvccSnaps:  make(map[uint64]*heap.Snapshot),
	}
	tw := opts.TraceWriter
	if tw == nil {
		tw = io.Discard
	}
	e.tracer = mi.NewTracer(tw)
	e.lm.SetObs(e.obs)
	e.planCache = plancache.New(plancache.DefaultCap, plancache.Stats{
		Hit:        func() { e.obs.Inc(obs.PlanCacheHits) },
		Miss:       func() { e.obs.Inc(obs.PlanCacheMisses) },
		Invalidate: func() { e.obs.Inc(obs.PlanCacheInvalidations) },
	})
	if opts.Types != nil {
		if err := opts.Types(e.reg); err != nil {
			return nil, err
		}
	}
	var err error
	if !opts.NoWAL {
		logDir := opts.Dir
		if e.mem {
			logDir, err = os.MkdirTemp("", "tinyblade-wal-*")
			if err != nil {
				return nil, err
			}
			e.tmpd = logDir
		}
		e.log, err = wal.Open(filepath.Join(logDir, "wal.log"))
		if err != nil {
			return nil, err
		}
		e.log.SetObs(e.obs)
		// Seed the transaction ids and the commit clock above every id and
		// stamp a previous incarnation can have written into version
		// headers: each transaction appends at least one multi-byte record,
		// and a commit's records before its clock tick are durable before
		// its stamps are, so both old maxima are strictly below the log's
		// logical size.
		e.nextTx = uint64(e.log.Size())
		e.mvccClock.Store(e.nextTx)
	}
	if err := e.openStorage(); err != nil {
		return nil, err
	}
	e.stopCheckpointer = func() {}
	if e.log != nil {
		e.cpLast.Store(e.log.Size())
		e.stopCheckpointer = daemon(e.opts.CheckpointInterval, e.checkpointIfDue)
	}
	// Busy tables are skipped, and errors retried at the next tick.
	e.stopVacuum = daemon(e.opts.VacuumInterval, func() { e.VacuumNow() })
	return e, nil
}

// Obs exposes the engine-wide metrics registry (SYSPROFILE's source;
// benchmarks take Snapshot deltas across workload phases).
func (e *Engine) Obs() *obs.Registry { return e.obs }

// catHandle is the catalog image's large object: the first object of the
// system sbspace, so page 1 is the space's metadata and page 2 the object's
// header. SQL cannot name the space: it is not among e.spaces.
var catHandle = sbspace.Handle{Space: 0, Header: 2, ID: 1}

// openStorage opens a pool for every space file, so every space in the log
// has one, and recovers the pools. Only then does it read the catalog and
// attach heaps and spaces (loadCatalog): heap.Open reads its header and
// counts dead cells, and both must see recovered pages.
func (e *Engine) openStorage() error {
	if !e.mem {
		if _, err := os.Stat(filepath.Join(e.opts.Dir, "catalog.json")); err == nil {
			return fmt.Errorf("engine: %s holds catalog.json, a database of an older format: the catalog now lives in space_0.dat, and this format cannot be read", e.opts.Dir)
		}
		files, err := filepath.Glob(filepath.Join(e.opts.Dir, "space_*.dat"))
		if err != nil {
			return err
		}
		for _, f := range files {
			var id uint32
			if _, err := fmt.Sscanf(filepath.Base(f), "space_%d.dat", &id); err != nil {
				return fmt.Errorf("engine: unexpected space file %s", f)
			}
			if _, _, err := e.newPool(id); err != nil {
				return err
			}
		}
		if e.log != nil {
			if _, err := wal.Recover(e.log, e.mapStores()); err != nil {
				return fmt.Errorf("engine: recovery: %w", err)
			}
		}
	}
	if e.mem && e.log == nil {
		return nil
	}
	for {
		_, bp, err := e.newPool(0)
		if err != nil {
			return err
		}
		e.catSpace = sbspace.New(0, "", bp, e.lm)
		n := bp.Pager().NumPages()
		if err := e.loadCatalog(); err == nil || n > uint64(catHandle.Header)+1 {
			// A catalog that ever held an image has a data page past its
			// header: it is never bootstrapped again.
			return err
		}
		if n <= 1 {
			break
		}
		// A bootstrap that crashed before its commit: nothing was ever
		// committed, so space 0 starts afresh (Open runs alone).
		delete(e.spacePools, 0)
		if err := errors.Join(bp.Close(), os.Remove(filepath.Join(e.opts.Dir, "space_0.dat"))); err != nil {
			return err
		}
	}
	// A fresh database: the empty catalog object, under a transaction of
	// its own.
	s := e.NewSession()
	if err := s.beginTx(false); err != nil {
		return err
	}
	if h, err := e.catSpace.Create(lock.TxID(s.tx)); err != nil || h != catHandle {
		return fmt.Errorf("engine: catalog object created at %v, want %v (%v)", h, catHandle, err)
	}
	if err := s.commitTx(); err != nil {
		return err
	}
	return e.loadCatalog()
}

// loadCatalog is the one reload of the catalog cache from its image, at Open
// and after an undo that holds the catalog lock: attached heaps and sbspaces
// the image keeps stay, missing ones are attached, cached purpose functions
// go. Only the lock's holder changes the cache, so no catalog mutex is held.
func (e *Engine) loadCatalog() error {
	lo, err := e.catSpace.Open(0, catHandle, sbspace.ReadOnly, lock.DirtyRead)
	if err != nil {
		return fmt.Errorf("engine: catalog: %w", err)
	}
	size, err := lo.Size()
	raw := make([]byte, size)
	if err == nil {
		_, err = lo.ReadAt(raw, 0)
	}
	lo.Close()
	if err == nil {
		err = e.cat.Replace(raw)
	}
	if err != nil {
		return err
	}
	var newTables []*catalog.Table
	var newSpaces []*catalog.Sbspace
	e.mu.Lock()
	kept := make(map[string]*heap.Table)
	for _, tb := range e.cat.Tables {
		if t := e.tables[strings.ToLower(tb.Name)]; t != nil && t.SpaceID == tb.SpaceID {
			kept[strings.ToLower(tb.Name)] = t
		} else {
			newTables = append(newTables, tb)
		}
	}
	keptSpaces := make(map[string]*sbspace.Space)
	for _, sp := range e.cat.Sbspaces {
		if s := e.spaces[strings.ToLower(sp.Name)]; s != nil && s.ID == sp.ID {
			keptSpaces[strings.ToLower(sp.Name)] = s
		} else {
			newSpaces = append(newSpaces, sp)
		}
	}
	e.tables, e.spaces, e.amCache = kept, keptSpaces, make(map[string]*am.PurposeSet)
	e.mu.Unlock()
	for _, tb := range newTables {
		if err := e.attachTable(tb, false); err != nil {
			return err
		}
	}
	for _, sp := range newSpaces {
		if err := e.attachSbspace(sp); err != nil {
			return err
		}
	}
	return nil
}

// anySpace asks newPool for a fresh space id: one above every id the engine
// knows, dropped and rolled-back spaces included, so no id is reused.
const anySpace = ^uint32(0)

// newPool opens the buffer pool of space id over its pager, the file
// space_<id>.dat on a file-backed engine, and registers it; an open pool is
// returned as it is. The pool forces the log before writing a page back, and
// journals every Edit to the log under space id.
func (e *Engine) newPool(id uint32) (uint32, *storage.BufferPool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id == anySpace {
		id = 1
		for known := range e.spacePools {
			id = max(id, known+1)
		}
	}
	if bp := e.spacePools[id]; bp != nil {
		return id, bp, nil
	}
	var pager storage.Pager
	if e.mem {
		pager = storage.NewMemPager()
	} else {
		p, err := storage.OpenFilePager(filepath.Join(e.opts.Dir, fmt.Sprintf("space_%d.dat", id)))
		if err != nil {
			return 0, nil, err
		}
		pager = p
	}
	bp := storage.NewBufferPool(pager, e.opts.PoolPages)
	e.obs.AddSum(func(v *obs.Values) {
		st := bp.Stats()
		v[obs.BufferpoolEvictions] += st.Evictions
		v[obs.BufferpoolFetches] += st.Fetches
		v[obs.BufferpoolHits] += st.Hits
		v[obs.BufferpoolReads] += st.Reads
		v[obs.BufferpoolWrites] += st.Writes
	})
	if e.log != nil {
		bp.FlushHook = func(storage.PageID, []byte) error { return e.log.Flush() }
		bp.JournalRuns = func(tx uint64, page storage.PageID, runs []storage.Run) error {
			_, err := e.log.UpdateRuns(tx, id, uint64(page), runs)
			return err
		}
	}
	e.spacePools[id] = bp
	return id, bp, nil
}

// attachTable opens (or, with create, formats) a catalogued table's heap
// over its space's pool and registers it.
func (e *Engine) attachTable(tb *catalog.Table, create bool) error {
	schema, err := e.tableSchema(tb)
	if err != nil {
		return err
	}
	_, bp, err := e.newPool(tb.SpaceID)
	if err != nil {
		return err
	}
	var t *heap.Table
	if create {
		t, err = heap.Create(tb.Name, tb.SpaceID, bp, schema)
	} else {
		t, err = heap.Open(tb.Name, tb.SpaceID, bp, schema)
	}
	if err != nil {
		return err
	}
	t.SetObs(e.obs)
	e.mu.Lock()
	e.tables[strings.ToLower(tb.Name)] = t
	e.mu.Unlock()
	return nil
}

// attachSbspace opens a catalogued sbspace over its space's pool and
// registers it.
func (e *Engine) attachSbspace(sp *catalog.Sbspace) error {
	_, bp, err := e.newPool(sp.ID)
	if err != nil {
		return err
	}
	s := sbspace.New(sp.ID, sp.Name, bp, e.lm)
	e.obs.AddSum(func(v *obs.Values) {
		st := s.Stats()
		v[obs.SbspaceLoCloses] += st.Closes
		v[obs.SbspaceLoCreates] += st.Creates
		v[obs.SbspaceLoDrops] += st.Drops
		v[obs.SbspaceLoOpens] += st.Opens
	})
	e.mu.Lock()
	e.spaces[strings.ToLower(sp.Name)] = s
	e.mu.Unlock()
	return nil
}

// tableSchema resolves a catalog table's column types. Opaque column types
// must already be registered (blades register types before their
// registration scripts run).
func (e *Engine) tableSchema(tb *catalog.Table) ([]types.Type, error) {
	schema := make([]types.Type, len(tb.Columns))
	for i, c := range tb.Columns {
		ty, err := e.reg.TypeByName(c.TypeName)
		if err != nil {
			return nil, fmt.Errorf("engine: table %s column %s: %w", tb.Name, c.Name, err)
		}
		schema[i] = ty
	}
	return schema, nil
}

// Close stops the background checkpointer and WAL flusher, takes a final
// checkpoint (truncating the log to near-empty so the next Open scans
// almost nothing), and flushes and closes all storage. Idempotent.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.stopVacuum()
	e.stopCheckpointer()
	var first error
	if e.log != nil {
		if err := e.Checkpoint(); err != nil && first == nil {
			first = err
		}
	}
	for _, bp := range e.pools() {
		if err := bp.Close(); err != nil && first == nil {
			first = err
		}
	}
	if e.log != nil {
		if err := e.log.Close(); err != nil && first == nil {
			first = err
		}
	}
	if e.tmpd != "" {
		os.RemoveAll(e.tmpd)
	}
	return first
}

// CrashForTesting simulates a crash in which every buffer pool was written
// back: dirty pages of possibly-uncommitted transactions reach the pagers
// (the worst case for undo), the log is made durable, and the engine is
// abandoned WITHOUT transaction cleanup. The background daemons
// are stopped so the abandoned engine does not keep flushing (or leak
// goroutines), but no checkpoint is taken and no session state is cleaned
// up. Only tests call this.
func (e *Engine) CrashForTesting() { e.crash(true) }

// CrashLosingPagesForTesting simulates a crash in which no dirty page was
// written back: like CrashForTesting it makes the log durable, but it drops
// every buffer pool unwritten, so the pagers keep only what
// eviction and checkpoints wrote (the worst case for redo). Only tests call
// this.
func (e *Engine) CrashLosingPagesForTesting() { e.crash(false) }

func (e *Engine) crash(writeBack bool) {
	e.closed.Store(true) // a later Close must not checkpoint the "dead" engine
	e.stopVacuum()
	e.stopCheckpointer()
	for _, bp := range e.pools() {
		if writeBack {
			bp.FlushAll()
		} else {
			bp.Pager().Close()
		}
	}
	if e.log != nil {
		e.log.Flush()
		e.log.Close()
	}
}

// Clock returns the engine clock.
func (e *Engine) Clock() chronon.Clock { return e.clock }

// Types returns the type registry (blades register opaque types here).
func (e *Engine) Types() *types.Registry { return e.reg }

// Catalog exposes the system catalog (tools and tests).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// LockManager exposes the lock manager (tests).
func (e *Engine) LockManager() *lock.Manager { return e.lm }

// LoadLibrary registers a "shared library" under the path used by CREATE
// FUNCTION ... EXTERNAL NAME 'path(symbol)'.
func (e *Engine) LoadLibrary(path string, lib am.Library) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.libs[path] = lib
}

// Space resolves an sbspace by name.
func (e *Engine) Space(name string) (*sbspace.Space, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.spaces[strings.ToLower(name)]
	if !ok {
		return nil, errf(CodeUndefinedObject, "no sbspace %q", name)
	}
	return s, nil
}

// Table resolves a heap table by name.
func (e *Engine) Table(name string) (*heap.Table, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[strings.ToLower(name)]
	if !ok {
		return nil, errf(CodeUndefinedTable, "no table %q", name)
	}
	return t, nil
}

// resolveSymbol maps a registered SQL function name to its Go symbol via
// SYSPROCEDURES and the loaded libraries.
func (e *Engine) resolveSymbol(fname string) (any, error) {
	p, err := e.cat.ProcByName(fname)
	if err != nil {
		return nil, err
	}
	libName, symbol, err := p.ParseExternal()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	lib, ok := e.libs[libName]
	e.mu.Unlock()
	if !ok {
		return nil, errf(CodeUndefinedObject, "library %q not loaded", libName)
	}
	sym, ok := lib[symbol]
	if !ok {
		return nil, errf(CodeUndefinedObject, "library %q has no symbol %q", libName, symbol)
	}
	return sym, nil
}

// purposeSet resolves (and caches) an access method's purpose functions.
func (e *Engine) purposeSet(amName string) (*am.PurposeSet, error) {
	e.mu.Lock()
	if ps, ok := e.amCache[strings.ToLower(amName)]; ok {
		e.mu.Unlock()
		return ps, nil
	}
	e.mu.Unlock()
	meta, err := e.cat.AmByName(amName)
	if err != nil {
		return nil, err
	}
	ps, err := am.Bind(meta.Slots, e.resolveSymbol)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.amCache[strings.ToLower(amName)] = ps
	e.mu.Unlock()
	return ps, nil
}

// EnableCallTrace switches purpose-function call tracing (experiment F6).
func (e *Engine) EnableCallTrace(on bool) {
	e.traceOn.Store(on)
	if on {
		e.traceMu.Lock()
		e.traceEvents = nil
		e.traceMu.Unlock()
	}
}

// TakeCallTrace returns and clears the recorded purpose-function calls.
func (e *Engine) TakeCallTrace() []string {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	out := e.traceEvents
	e.traceEvents = nil
	return out
}

// amCall records one purpose-function dispatch, slot being its am.<slot>
// counter: in the F6 call trace and in the registry, whose movement is the
// running statement's per-slot profile. Every dispatch site funnels through
// here.
func (s *Session) amCall(slot obs.ID, index string) {
	if s.e.traceOn.Load() {
		fn := strings.TrimPrefix(obs.Name(slot), "am.")
		s.e.traceMu.Lock()
		s.e.traceEvents = append(s.e.traceEvents, fmt.Sprintf("%s(%s)", fn, index))
		s.e.traceMu.Unlock()
	}
	s.e.obs.Inc(slot)
}

// pools lists every buffer pool.
func (e *Engine) pools() []*storage.BufferPool {
	e.mu.Lock()
	defer e.mu.Unlock()
	pools := make([]*storage.BufferPool, 0, len(e.spacePools))
	for _, bp := range e.spacePools {
		pools = append(pools, bp)
	}
	return pools
}

// mapStores snapshots the space-id → pool mapping for recovery and
// rollback.
func (e *Engine) mapStores() map[uint32]wal.PageStore {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[uint32]wal.PageStore, len(e.spacePools))
	for id, bp := range e.spacePools {
		out[id] = bp
	}
	return out
}

// Session --------------------------------------------------------------------

// Session is one client connection. Sessions are not safe for concurrent
// use; open one per goroutine.
type Session struct {
	e   *Engine
	id  uint64
	ctx *mi.Context

	// vars is the session's SET-able state (isolation, commit mode,
	// parallel degree, trace levels) behind the uniform SessionVars API —
	// shared by the REPL, the network server, and tests.
	vars *SessionVars

	tx       uint64 // 0 = idle
	explicit bool

	// stmtCtx carries the caller's cancellation (ExecCtx) into the
	// statement currently executing.
	stmtCtx context.Context

	// stream owns the statement scope currently open (beginStmt/Stream.end);
	// a session runs one statement at a time, so a new statement cannot
	// start until the stream is drained or closed.
	stream *Stream

	// ec is the profile of the statement currently executing (nil between
	// statements); beginStmt installs it and Stream.end hands the finished
	// Profile to the Result.
	ec *obs.ExecContext

	// MVCC read views (see snapshot.go): curSnap is statement-scoped,
	// txSnap transaction-scoped (REPEATABLE READ / SNAPSHOT); writes lists
	// the versions the open transaction created or ended, stamped from the
	// commit clock at commitTx.
	curSnap *heldSnap
	txSnap  *heldSnap
	writes  []verStamp

	// pendingSide holds side-log entries this transaction captured for
	// in-flight online index builds: flushed to the builds' logs at commit,
	// dropped at rollback (see idxbuild.go).
	pendingSide []pendingSideOp

	// save is where the running statement of an explicit transaction began
	// (undo); catDirty: the statement changed the catalog and writes its
	// image at its end.
	save     savepoint
	catDirty bool

	// Prepared-statement state (see prepared.go): prepared is the session's
	// PREPARE registry by lower-cased name; boundArgs holds the parameter
	// values of the statement currently executing ($n evaluates to
	// boundArgs[n-1]); curPrep points at the prepared entry an EXECUTE is
	// running, so the planner can key the shared cache by its text.
	prepared  map[string]*prepared
	boundArgs []types.Datum
	curPrep   *prepared

	// fcMemos, when non-nil, caches resolved WHERE-tree call sites (UDR
	// symbol, argument types, coerced row-invariant arguments) for the
	// statement's re-filter. Owned by filterBatchIter, which installs it
	// around each batch (see iter.go and evalFuncCall).
	fcMemos map[*sql.FuncCall]*fcMemo
}

// NewSession opens a session (default isolation: Committed Read). The
// session's mi context shares the engine tracer, so SET TRACE applies to
// blade trace messages from any session.
func (e *Engine) NewSession() *Session {
	id := atomic.AddUint64(&e.nextSession, 1)
	return &Session{e: e, id: id, ctx: mi.NewContext(id, e.tracer), vars: NewSessionVars()}
}

// Tracer exposes the engine's mi tracer (SET TRACE's target).
func (e *Engine) Tracer() *mi.Tracer { return e.tracer }

// Context returns the session's DataBlade API context.
func (s *Session) Context() *mi.Context { return s.ctx }

// Vars exposes the session's SET-able state.
func (s *Session) Vars() *SessionVars { return s.vars }

// Isolation returns the session's isolation level.
func (s *Session) Isolation() lock.IsolationLevel { return s.vars.Isolation() }

// InTx reports whether an explicit transaction is open.
func (s *Session) InTx() bool { return s.tx != 0 && s.explicit }

// beginTx starts a transaction (explicit or statement-scoped).
func (s *Session) beginTx(explicit bool) error {
	if s.tx != 0 {
		if explicit {
			return errf(CodeActiveTx, "transaction already open")
		}
		return nil
	}
	s.tx = s.e.mvccBegin()
	s.explicit = explicit
	if s.e.log != nil {
		if _, err := s.e.log.Begin(s.tx); err != nil {
			return err
		}
	}
	return nil
}

// commitTx commits the current transaction: every version it created or
// ended is stamped from the commit clock (WAL-logged page edits, appended
// before the commit record), the commit record is made durable, and only
// then is the transaction deactivated — the ordering that makes all of its
// versions turn visible atomically (snapshots captured before deactivation
// still carry it in Active and ignore the stamps).
func (s *Session) commitTx() error {
	if s.tx == 0 {
		return errf(CodeNoActiveTx, "no transaction to commit")
	}
	if len(s.writes) > 0 {
		stamp := s.e.nextStamp()
		for _, w := range s.writes {
			if err := w.table.StampVersion(s.tx, w.rid, w.kind, stamp); err != nil {
				return err // transaction stays open; the caller rolls back
			}
		}
	}
	if s.e.log != nil {
		start := time.Now()
		if _, err := s.e.log.CommitWith(s.tx, s.vars.Commit()); err != nil {
			return err
		}
		s.e.obs.Observe(obs.WalCommitLatency, time.Since(start))
	}
	// Every version this transaction ended is now a committed-dead cell
	// whose index entries linger until the vacuum (deferred maintenance).
	// Counted before mvccEnd so am_aggregate's gate — which admits only
	// dead-free tables — never sees a window where the transaction is gone
	// from the active set but its dead cells are not yet counted.
	for _, w := range s.writes {
		if w.kind&heap.StampEnd != 0 {
			w.table.AddDead(1)
		}
	}
	s.e.mvccEnd(s.tx)
	s.releaseTxSnap()
	// Committed: hand captured index-build side ops to their logs while the
	// table X locks are still held, so side logs receive whole transactions
	// in commit order (and a build snapshot captured under a later latch
	// already sees everything this transaction wrote).
	if len(s.pendingSide) > 0 {
		s.flushSideOps()
	}
	s.endTx(mi.TxCommit)
	return nil
}

// endTx releases what the ended transaction held, and ends its
// large-object drops in every sbspace: freed at commit (a failed free leaks
// the pages; the commit stands), forgotten at rollback.
func (s *Session) endTx(how mi.TxEvent) {
	s.ctx.EndTransaction(how)
	s.e.mu.Lock()
	for _, sp := range s.e.spaces {
		sp.EndTx(lock.TxID(s.tx), how == mi.TxCommit)
	}
	s.e.mu.Unlock()
	s.e.lm.ReleaseAll(lock.TxID(s.tx))
	s.tx = 0
	s.explicit = false
	s.writes = s.writes[:0]
}

// rollbackTx rolls back the current transaction, restoring page state from
// the log and then, if the transaction changed it, the catalog from its
// image, before any lock is released.
func (s *Session) rollbackTx() error {
	if s.tx == 0 {
		return errf(CodeNoActiveTx, "no transaction to roll back")
	}
	err := s.undo(savepoint{})
	if s.e.log != nil && err == nil {
		_, err = s.e.log.Abort(s.tx)
	}
	s.e.mvccEnd(s.tx)
	s.releaseTxSnap()
	s.pendingSide = s.pendingSide[:0] // rolled back: captured side ops never happened
	s.endTx(mi.TxAbort)
	return err
}

// savepoint is the transaction's last LSN and its counts of versions and
// side-log ops when a statement began; the zero savepoint is its start.
type savepoint struct {
	lsn          wal.LSN
	writes, side int
}

// undo takes back the transaction's work after sp and leaves it open: its
// pages, its versions and side-log ops recorded since, and the catalog if
// the transaction holds its lock. Physical undo through the log restores
// every version header and slot byte for byte. A NoWAL engine takes back
// its own versions from the write set instead (heap.Table.Unwrite), newest
// first: the creations it leaves are garbage, still carrying index entries,
// until the vacuum reclaims both, so they count as dead for the aggregate
// gate. Index pages do not go back without a log, and such an engine runs
// no DDL inside an explicit transaction; a crashed engine is left to the
// next Open.
func (s *Session) undo(sp savepoint) error {
	if s.e.log != nil {
		if err := wal.RollbackTo(s.e.log, s.e.mapStores(), s.tx, sp.lsn); err != nil {
			return err
		}
	} else {
		for len(s.writes) > sp.writes {
			w := s.writes[len(s.writes)-1]
			if err := w.table.Unwrite(s.tx, w.rid, w.kind); err != nil {
				return err
			}
			if w.kind&heap.StampBegin != 0 {
				w.table.AddDead(1)
			}
			s.writes = s.writes[:len(s.writes)-1]
		}
	}
	s.writes = s.writes[:sp.writes]
	s.pendingSide = s.pendingSide[:sp.side]
	if _, locked := s.e.lm.Holding(lock.TxID(s.tx), catHandle.Resource()); !locked || s.e.closed.Load() {
		return nil
	}
	return s.e.loadCatalog()
}

// Close ends the session, rolling back any open transaction.
func (s *Session) Close() {
	if s.stream != nil {
		s.stream.Close()
	}
	if s.tx != 0 {
		s.rollbackTx()
	}
	s.ctx.EndSession()
}

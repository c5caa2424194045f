// Package obs is the engine's observability layer: one table of every
// engine-wide counter and histogram, a registry of fixed arrays over it, and
// the per-statement ExecContext the engine threads through planning,
// access-method dispatch and storage so every statement gets its own profile.
//
// The paper's testbed leaned on Informix's onstat counters and §6.4 trace
// machinery to attribute costs; this package is that measurement surface for
// the reproduction. Each metric is declared once, in the table below, and
// each event is counted once: the layers that count engine-wide events
// (engine, heap, wal, lock, server) count into the registry by ID, and the
// objects that keep their own statistics (buffer pools, sbspaces) are summed
// into their rows whenever the registry is read (AddSum). SYSPROFILE serves
// those rows.
//
// A statement's profile is the registry's movement over the statement's
// window. Its one rule: it is exact when one session runs (the benchmark and
// CLI case); under concurrent sessions it also holds what the others counted
// in that window.
package obs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ID names one row of the table.
type ID uint8

// The rows of the table, in name order, four to a line (each line repeats
// the first line's values at the next iota). A histogram takes two rows: its
// observations (its ID, "<name>.n") and their total in microseconds (the
// blank row after it, "<name>.us").
const (
	AggFallback, AggFallbackColumn, AggFallbackDeclined, AggFallbackGateActive ID = 4 * iota, 4*iota + 1, 4*iota + 2, 4*iota + 3
	AggFallbackGateDead, AggFallbackGateOwnEnds, AggFallbackGateReadPoint, AggFallbackGateView
	AggFallbackGateViewTx, AggFallbackHoldsActive, AggFallbackHoldsMoved, AggFallbackPath
	AggFallbackSlot, AggPushed, AmAggregate, AmBeginscan
	AmBuild, AmCheck, AmClose, AmCreate
	AmDelete, AmDrop, AmEndscan, AmGetmulti
	AmGetnext, AmInsert, AmOpen, AmParallelscan
	AmRescan, AmScancost, AmStats, AmUpdate
	BufferpoolEvictions, BufferpoolFetches, BufferpoolHits, BufferpoolReads
	BufferpoolWrites, EngineRecheckSkipped, IdxbuildPublishLatchNs, IdxbuildRowsBulk
	IdxbuildSidelogReplayed, LockAcquires, LockDeadlocks, LockWaits
	MvccVacuumed, MvccVersionsCreated, MvccVersionsSkipped, ParallelBatches
	ParallelBusyNs, ParallelRows, ParallelScans, ParallelSendWaitNs
	ParallelWorkers, PlanCacheHits, PlanCacheInvalidations, PlanCacheMisses
	PlannerStatsHits, PlannerStatsStale, SbspaceLoCloses, SbspaceLoCreates
	SbspaceLoDrops, SbspaceLoOpens, ServerBatchesSent, ServerConnsAccepted
	ServerConnsClosed, ServerConnsRefused, ServerErrors, ServerRowsSent
	ServerSlotWaits, ServerStatements, SQLParseNs, SQLParses
	SQLPlanNs, WalAppends, WalBytes, WalCheckpoints
	WalCommitLatency, _, WalFlushes, WalFlushesForced
	WalFlushesGroup, WalFlushesSync, WalFlushesTick, WalGroupSize
	_, WalTruncatedBytes, numIDs, _
)

// table names every row: what SYSPROFILE lists and Snapshot.Get reads.
var table = [numIDs]string{
	// agg.fallback counts aggregates drained tuple by tuple, split by the
	// clause that refused the pushdown; agg.pushed those am_aggregate answered.
	AggFallback: "agg.fallback", AggFallbackColumn: "agg.fallback.column", AggFallbackDeclined: "agg.fallback.declined",
	AggFallbackGateActive: "agg.fallback.gate_active", AggFallbackGateDead: "agg.fallback.gate_dead",
	AggFallbackGateOwnEnds: "agg.fallback.gate_own_ends", AggFallbackGateReadPoint: "agg.fallback.gate_readpoint",
	AggFallbackGateView: "agg.fallback.gate_view", AggFallbackGateViewTx: "agg.fallback.gate_view_tx",
	AggFallbackHoldsActive: "agg.fallback.holds_active", AggFallbackHoldsMoved: "agg.fallback.holds_moved",
	AggFallbackPath: "agg.fallback.path", AggFallbackSlot: "agg.fallback.slot", AggPushed: "agg.pushed",
	// One row per purpose-function slot: its dispatches.
	AmAggregate: "am.am_aggregate", AmBeginscan: "am.am_beginscan", AmBuild: "am.am_build", AmCheck: "am.am_check",
	AmClose: "am.am_close", AmCreate: "am.am_create", AmDelete: "am.am_delete", AmDrop: "am.am_drop",
	AmEndscan: "am.am_endscan", AmGetmulti: "am.am_getmulti", AmGetnext: "am.am_getnext", AmInsert: "am.am_insert",
	AmOpen: "am.am_open", AmParallelscan: "am.am_parallelscan", AmRescan: "am.am_rescan",
	AmScancost: "am.am_scancost", AmStats: "am.am_stats", AmUpdate: "am.am_update",
	// The sums of every buffer pool's own Stats.
	BufferpoolEvictions: "bufferpool.evictions", BufferpoolFetches: "bufferpool.fetches",
	BufferpoolHits: "bufferpool.hits", BufferpoolReads: "bufferpool.reads", BufferpoolWrites: "bufferpool.writes",
	// engine.recheck_skipped: index scans whose exact answer skipped the
	// WHERE re-check.
	EngineRecheckSkipped: "engine.recheck_skipped", IdxbuildPublishLatchNs: "idxbuild.publish_latch_ns",
	IdxbuildRowsBulk: "idxbuild.rows_bulk", IdxbuildSidelogReplayed: "idxbuild.sidelog_replayed",
	LockAcquires: "lock.acquires", LockDeadlocks: "lock.deadlocks", LockWaits: "lock.waits",
	MvccVacuumed: "mvcc.vacuumed", MvccVersionsCreated: "mvcc.versions_created",
	MvccVersionsSkipped: "mvcc.versions_skipped",
	// Fan-out, merged volume, and worker time filling batches (busy) vs
	// blocked on a full merge queue (send_wait).
	ParallelBatches: "parallel.batches", ParallelBusyNs: "parallel.busy_ns", ParallelRows: "parallel.rows",
	ParallelScans: "parallel.scans", ParallelSendWaitNs: "parallel.send_wait_ns", ParallelWorkers: "parallel.workers",
	PlanCacheHits: "plan_cache.hits", PlanCacheInvalidations: "plan_cache.invalidations",
	PlanCacheMisses: "plan_cache.misses",
	// Fresh plans costed from SYSSTATS, and from statistics aged by later DDL.
	PlannerStatsHits: "planner.stats_hits", PlannerStatsStale: "planner.stats_stale",
	// The sums of every user sbspace's own Stats.
	SbspaceLoCloses: "sbspace.lo_closes", SbspaceLoCreates: "sbspace.lo_creates",
	SbspaceLoDrops: "sbspace.lo_drops", SbspaceLoOpens: "sbspace.lo_opens",
	ServerBatchesSent: "server.batches.sent", ServerConnsAccepted: "server.conns.accepted",
	ServerConnsClosed: "server.conns.closed", ServerConnsRefused: "server.conns.refused",
	ServerErrors: "server.errors", ServerRowsSent: "server.rows.sent", ServerSlotWaits: "server.slot.waits",
	ServerStatements: "server.statements",
	// Parser work, and planning time (fresh and cached bind alike).
	SQLParseNs: "sql.parse_ns", SQLParses: "sql.parses", SQLPlanNs: "sql.plan_ns",
	WalAppends: "wal.appends", WalBytes: "wal.bytes", WalCheckpoints: "wal.checkpoints",
	WalCommitLatency: "wal.commit_latency.n", WalCommitLatency + 1: "wal.commit_latency.us",
	// fsyncs, and the same split by who asked (see wal.Log.doFlush).
	WalFlushes: "wal.flushes", WalFlushesForced: "wal.flushes.forced", WalFlushesGroup: "wal.flushes.group",
	WalFlushesSync: "wal.flushes.sync", WalFlushesTick: "wal.flushes.tick",
	// Parked commits per fsync that served any.
	WalGroupSize: "wal.group_size.n", WalGroupSize + 1: "wal.group_size.us",
	WalTruncatedBytes: "wal.truncated_bytes",
}

// histograms lists the table's histograms; the other rows are counters.
var histograms = [...]ID{WalCommitLatency, WalGroupSize}

// Name returns id's name in the table.
func Name(id ID) string { return table[id] }

// lookup finds a row by name.
func lookup(name string) (ID, bool) {
	i, ok := slices.BinarySearch(table[:], name)
	return ID(i), ok
}

// Counter is one counter of a registry.
type Counter struct{ v atomic.Uint64 }

// Load returns the current value (0 for the nil counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations and their total. The nil histogram is a
// no-op.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Uint64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h != nil {
		h.count.Add(1)
		h.sum.Add(uint64(max(d, 0)))
	}
}

// ObserveCount records a unit-less value v (e.g. a commit-group size) as v
// microseconds, so its "<name>.us" row reads as the sum of the values.
func (h *Histogram) ObserveCount(v uint64) { h.Observe(time.Duration(v) * time.Microsecond) }

// Count returns how many durations were observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Registry holds the table's counters and histograms. Counting is one atomic
// add on a fixed array; the nil registry counts nothing.
type Registry struct {
	counters [numIDs]Counter
	hists    [len(histograms)]Histogram

	sumMu sync.Mutex
	sums  atomic.Pointer[[]func(*Values)] // copied by AddSum, read lock-free
}

// Values holds one value per row, indexed by ID.
type Values [numIDs]uint64

// NewRegistry returns a registry with every row at zero.
func NewRegistry() *Registry { return &Registry{} }

// Inc counts one event.
func (r *Registry) Inc(id ID) { r.Add(id, 1) }

// Add counts n events.
func (r *Registry) Add(id ID, n uint64) {
	if r != nil {
		r.counters[id].v.Add(n)
	}
}

// Observe records one duration into histogram id.
func (r *Registry) Observe(id ID, d time.Duration) { r.hist(id).Observe(d) }

// ObserveCount records a unit-less value into histogram id.
func (r *Registry) ObserveCount(id ID, v uint64) { r.hist(id).ObserveCount(v) }

func (r *Registry) hist(id ID) *Histogram {
	if k := slices.Index(histograms[:], id); k >= 0 && r != nil {
		return &r.hists[k]
	}
	return nil
}

// Counter returns the named counter, or nil for a name that is not a
// counter's row. It holds only what was counted by ID: what AddSum adds to a
// row shows in a Snapshot.
func (r *Registry) Counter(name string) *Counter {
	id, ok := lookup(name)
	for _, h := range histograms {
		ok = ok && id != h && id != h+1
	}
	if !ok || r == nil {
		return nil
	}
	return &r.counters[id]
}

// Histogram returns the named histogram, or nil for a name that is not one.
func (r *Registry) Histogram(name string) *Histogram {
	if id, ok := lookup(name + ".n"); ok {
		return r.hist(id)
	}
	return nil
}

// AddSum adds f to every read of the registry: f adds the counts its object
// keeps itself (a buffer pool's, an sbspace's) to their rows. A sum is never
// removed, so its rows only grow as long as the object's counts do.
func (r *Registry) AddSum(f func(*Values)) {
	r.sumMu.Lock()
	defer r.sumMu.Unlock()
	var sums []func(*Values)
	if p := r.sums.Load(); p != nil {
		sums = *p
	}
	sums = append(sums[:len(sums):len(sums)], f)
	r.sums.Store(&sums)
}

// addTo adds every row's current value to v.
func (r *Registry) addTo(v *Values) {
	if r == nil {
		return
	}
	for id := range r.counters {
		v[id] += r.counters[id].Load()
	}
	for k, id := range histograms {
		v[id] += r.hists[k].Count()
		v[id+1] += uint64(r.hists[k].Sum() / time.Microsecond)
	}
	if sums := r.sums.Load(); sums != nil {
		for _, f := range *sums {
			f(v)
		}
	}
}

// Metric is one named row value in a snapshot.
type Metric struct {
	Name  string
	Value uint64
}

// Snapshot is a point-in-time view of a registry: every row, in name order.
type Snapshot []Metric

// Snapshot reads every row.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	v := new(Values)
	r.addTo(v)
	out := make(Snapshot, numIDs)
	for id, name := range table {
		out[id] = Metric{Name: name, Value: v[id]}
	}
	return out
}

// Get returns the named metric's value (0 when absent).
func (s Snapshot) Get(name string) uint64 {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i].Value
	}
	return 0
}

// Delta returns s - base, keeping only metrics that moved. Snapshots list
// the same rows, so they subtract index for index; a nil base counts from
// zero.
func (s Snapshot) Delta(base Snapshot) Snapshot {
	var out Snapshot
	for i, m := range s {
		if i < len(base) {
			m.Value -= base[i].Value
		}
		if m.Value != 0 {
			out = append(out, m)
		}
	}
	return out
}

// ExecContext accumulates one statement's execution profile. The engine
// creates one per statement and threads it down to the access-method layer
// (via ScanDesc) and the executor; parallel scan workers share it, so its
// tallies are atomics. The nil *ExecContext is a valid no-op receiver.
type ExecContext struct {
	reg   *Registry
	start time.Time
	// moved holds the registry's values at open, negated; Finish adds the
	// values at close, which leaves each row's movement.
	moved        Values
	rowsScanned  atomic.Uint64
	rowsReturned atomic.Uint64
	snapshotLSN  atomic.Uint64 // MVCC read view cut, 0 when none captured
}

// NewExecContext opens a statement profile against the registry.
func NewExecContext(reg *Registry) *ExecContext {
	ec := &ExecContext{reg: reg, start: time.Now()}
	reg.addTo(&ec.moved)
	for i := range ec.moved {
		ec.moved[i] = -ec.moved[i]
	}
	return ec
}

// AddScanned counts rows pulled from the access method or heap source,
// before the WHERE re-check.
func (ec *ExecContext) AddScanned(n int) {
	if ec != nil && n > 0 {
		ec.rowsScanned.Add(uint64(n))
	}
}

// AddReturned counts rows surviving filtering, i.e. delivered to the client
// (or consumed by the mutating statement).
func (ec *ExecContext) AddReturned(n int) {
	if ec != nil && n > 0 {
		ec.rowsReturned.Add(uint64(n))
	}
}

// SetSnapshot records the statement's MVCC read view cut (the snapshot's
// read LSN). Zero — no snapshot captured — is ignored.
func (ec *ExecContext) SetSnapshot(lsn uint64) {
	if ec != nil && lsn != 0 {
		ec.snapshotLSN.Store(lsn)
	}
}

// Finish closes the profile: elapsed time, the row tallies, and the rows
// the registry moved in the statement's window. Call it once.
func (ec *ExecContext) Finish() *Profile {
	if ec == nil {
		return nil
	}
	ec.reg.addTo(&ec.moved)
	n := 0
	for _, d := range ec.moved {
		if d != 0 {
			n++
		}
	}
	counters := make(Snapshot, 0, n)
	for id, d := range ec.moved {
		if d != 0 {
			counters = append(counters, Metric{Name: table[id], Value: d})
		}
	}
	return &Profile{
		Elapsed:      time.Since(ec.start),
		RowsScanned:  ec.rowsScanned.Load(),
		RowsReturned: ec.rowsReturned.Load(),
		SnapshotLSN:  ec.snapshotLSN.Load(),
		Counters:     counters,
	}
}

// Profile is one statement's finished execution profile.
type Profile struct {
	Elapsed      time.Duration
	RowsScanned  uint64 // rows pulled from the source, pre-filter
	RowsReturned uint64 // rows surviving the WHERE re-check
	SnapshotLSN  uint64 // MVCC read view cut, 0 when the statement took none
	// Counters is the registry's movement over the statement window.
	Counters Snapshot
}

// Calls returns the dispatch count of one purpose slot (e.g. "am_getmulti").
func (p *Profile) Calls(slot string) uint64 { return p.Counter("am." + slot) }

// Counter returns one registry-delta value by name.
func (p *Profile) Counter(name string) uint64 {
	if p == nil {
		return 0
	}
	return p.Counters.Get(name)
}

// String renders a compact single-line profile (CLI/benchrunner output):
// the purpose-slot calls by slot name, then the other counters that moved.
func (p *Profile) String() string {
	if p == nil {
		return "<no profile>"
	}
	var b, rest strings.Builder
	fmt.Fprintf(&b, "elapsed=%v scanned=%d returned=%d", p.Elapsed.Round(time.Microsecond), p.RowsScanned, p.RowsReturned)
	for _, m := range p.Counters {
		if slot, ok := strings.CutPrefix(m.Name, "am."); ok {
			fmt.Fprintf(&b, " %s=%d", slot, m.Value)
		} else {
			fmt.Fprintf(&rest, " %s=%d", m.Name, m.Value)
		}
	}
	return b.String() + rest.String()
}

package obs

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	if c.Load() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var h *Histogram
	h.Observe(time.Millisecond)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read 0")
	}
	h.ObserveCount(4)
	if h.Count() != 0 {
		t.Fatal("nil histogram must ignore ObserveCount")
	}
	var ec *ExecContext
	ec.AddScanned(3)
	ec.AddReturned(3)
	if ec.Finish() != nil {
		t.Fatal("nil ExecContext must finish to nil")
	}
	var r *Registry
	r.Inc(WalAppends)
	r.Add(WalBytes, 7)
	r.Observe(WalCommitLatency, time.Millisecond)
	r.ObserveCount(WalGroupSize, 3)
	if r.Counter("wal.appends") != nil || r.Histogram("wal.group_size") != nil || r.Snapshot() != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if p := NewExecContext(r).Finish(); len(p.Counters) != 0 {
		t.Fatalf("a profile over the nil registry moved: %v", p.Counters)
	}
	var p *Profile
	if p.Calls("am_getnext") != 0 || p.Counter("x") != 0 {
		t.Fatal("nil profile must read 0")
	}
}

// benchReads lists every registry name the statement benchmark reads
// (bench/trace.go: the traced ladder and countMetrics). Snapshot.Get reads 0
// for a name it does not list, so a rename would otherwise zero a per-layer
// metric without any error.
var benchReads = []string{
	"agg.fallback", "agg.pushed",
	"am.am_beginscan", "am.am_getmulti", "am.am_scancost",
	"bufferpool.evictions", "bufferpool.fetches", "bufferpool.hits", "bufferpool.reads", "bufferpool.writes",
	"lock.acquires", "lock.deadlocks", "lock.waits",
	"mvcc.vacuumed", "mvcc.versions_skipped",
	"plan_cache.hits", "plan_cache.misses",
	"sbspace.lo_opens",
	"server.batches.sent", "server.slot.waits",
	"sql.parse_ns", "sql.parses", "sql.plan_ns",
	"wal.appends", "wal.bytes", "wal.checkpoints", "wal.flushes", "wal.group_size.n", "wal.group_size.us",
}

func TestTableNames(t *testing.T) {
	for id := ID(1); id < numIDs; id++ {
		if table[id-1] >= table[id] {
			t.Fatalf("table out of order or repeated at %d: %q then %q", id, table[id-1], table[id])
		}
	}
	// Snapshot.Get searches the rows by name, histogram rows included.
	r := NewRegistry()
	snap := r.Snapshot()
	if len(snap) != int(numIDs) {
		t.Fatalf("%d snapshot rows, want %d", len(snap), numIDs)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot rows out of order: %q then %q", snap[i-1].Name, snap[i].Name)
		}
	}
	for _, name := range []string{"", "x", "bufferpool", "zzz"} {
		if r.Counter(name) != nil || r.Histogram(name) != nil {
			t.Fatalf("%q: an unknown name must get the nil instruments", name)
		}
	}
	for _, name := range []string{"wal.commit_latency", "wal.commit_latency.n", "wal.commit_latency.us"} {
		if r.Counter(name) != nil {
			t.Fatalf("%q: a histogram's rows are not counters", name)
		}
	}
	if r.Histogram("wal.commit_latency") == nil || r.Histogram("wal.appends") != nil {
		t.Fatal("Histogram must find histograms, and only histograms")
	}
	names := make([]string, len(snap))
	for i, m := range snap {
		names[i] = m.Name
	}
	for _, name := range benchReads {
		if _, ok := slices.BinarySearch(names, name); !ok {
			t.Errorf("bench/ reads %q, which the table does not list", name)
		}
	}
}

func TestRegistryCountersAndSnapshot(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("wal.bytes")
	if r.Counter("wal.bytes") != a {
		t.Fatal("Counter must return the table's one counter")
	}
	r.Add(WalBytes, 3)
	r.Inc(WalAppends)
	snap := r.Snapshot()
	if snap.Get("wal.bytes") != 3 || snap.Get("wal.appends") != 1 {
		t.Fatalf("snapshot: %v", snap)
	}
	if snap.Get("missing") != 0 {
		t.Fatal("missing metric must read 0")
	}
	r.Add(WalBytes, 2)
	d := r.Snapshot().Delta(snap)
	if len(d) != 1 || d[0].Name != "wal.bytes" || d[0].Value != 2 {
		t.Fatalf("delta: %v", d)
	}
}

func TestRegistryConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Inc(LockAcquires)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("lock.acquires").Load(); got != workers*per {
		t.Fatalf("lost updates: %d", got)
	}
}

func TestObserveFeedsHistogram(t *testing.T) {
	r := NewRegistry()
	r.Observe(WalCommitLatency, 3*time.Millisecond)
	h := r.Histogram("wal.commit_latency")
	if h.Count() != 1 || h.Sum() != 3*time.Millisecond {
		t.Fatalf("histogram: n=%d sum=%v", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	if snap.Get("wal.commit_latency.n") != 1 || snap.Get("wal.commit_latency.us") != 3000 {
		t.Fatalf("derived metrics: %v", snap)
	}
}

func TestObserveCountRendersAsRawSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wal.group_size")
	h.ObserveCount(3)
	r.ObserveCount(WalGroupSize, 5)
	snap := r.Snapshot()
	if n := snap.Get("wal.group_size.n"); n != 2 {
		t.Fatalf("group_size.n = %d", n)
	}
	// ObserveCount stores v as v microseconds, so the .us metric is the
	// plain sum of observed values.
	if sum := snap.Get("wal.group_size.us"); sum != 8 {
		t.Fatalf("group_size.us = %d, want 8", sum)
	}
}

// An object that keeps its own counts is summed into its rows at every read,
// by snapshots and statement profiles alike.
func TestSumsAreReadWithTheRegistry(t *testing.T) {
	r := NewRegistry()
	var a, b atomic.Uint64
	r.AddSum(func(v *Values) { v[BufferpoolFetches] += a.Load() })
	a.Store(10)
	ec := NewExecContext(r)
	r.AddSum(func(v *Values) { v[BufferpoolFetches] += b.Load() })
	a.Add(5)
	b.Store(2)
	if got := ec.Finish().Counter("bufferpool.fetches"); got != 7 {
		t.Fatalf("profile: bufferpool.fetches moved %d, want 7", got)
	}
	if got := r.Snapshot().Get("bufferpool.fetches"); got != 17 {
		t.Fatalf("snapshot: bufferpool.fetches = %d, want 17", got)
	}
}

func TestExecContextProfile(t *testing.T) {
	r := NewRegistry()
	r.Add(BufferpoolFetches, 10) // pre-existing traffic
	r.Inc(AmGetmulti)
	ec := NewExecContext(r)
	r.Add(BufferpoolFetches, 7)
	r.Inc(AmBeginscan)
	r.Inc(AmGetmulti)
	r.Inc(AmGetmulti)
	r.Inc(AggPushed)
	ec.AddScanned(90)
	ec.AddReturned(88)
	p := ec.Finish()
	if p.Calls("am_getmulti") != 2 || p.Calls("am_beginscan") != 1 || p.Calls("am_getnext") != 0 {
		t.Fatalf("slots: %v", p.Counters)
	}
	if p.RowsScanned != 90 || p.RowsReturned != 88 {
		t.Fatalf("rows: %d/%d", p.RowsScanned, p.RowsReturned)
	}
	if p.Counter("bufferpool.fetches") != 7 {
		t.Fatalf("delta must exclude pre-statement traffic: %v", p.Counters)
	}
	// The slots render first, by slot name; then the other counters.
	p.Elapsed = 1500 * time.Microsecond
	want := "elapsed=1.5ms scanned=90 returned=88 am_beginscan=1 am_getmulti=2 agg.pushed=1 bufferpool.fetches=7"
	if s := p.String(); s != want {
		t.Fatalf("String() = %q\nwant       %q", s, want)
	}
}

// Opening and finishing a profile allocates the context, the profile and its
// counter slice, however many rows moved.
func TestProfileAllocations(t *testing.T) {
	r := NewRegistry()
	var pool atomic.Uint64
	r.AddSum(func(v *Values) { v[BufferpoolFetches] += pool.Load() })
	moved := 0
	allocs := testing.AllocsPerRun(100, func() {
		ec := NewExecContext(r)
		for id := range numIDs {
			switch {
			case slices.Contains(histograms[:], id):
				r.Observe(id, time.Microsecond) // moves both of its rows
			case !slices.Contains(histograms[:], id-1):
				r.Inc(id)
			}
		}
		pool.Add(1)
		moved = len(ec.Finish().Counters)
	})
	if moved != int(numIDs) {
		t.Fatalf("%d rows moved, want all %d", moved, numIDs)
	}
	if allocs > 3 {
		t.Fatalf("a statement profile took %.0f allocations, want at most 3", allocs)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/blades/grtblade"
	"repro/internal/blades/rstblade"
	"repro/internal/chronon"
	"repro/internal/gist"
	"repro/internal/grtree"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/nodestore"
	"repro/internal/obs"
	"repro/internal/rstar"
	"repro/internal/sbspace"
	"repro/internal/storage"
)

// The traced run produces the per-layer ledger. It has four parts, each on
// the same rig and the same seeded statement sequence as the untraced run:
//
//	U  the workload's closed loop, untraced                  (a quarter of the time)
//	T  the same loop with a span per statement; every        (a quarter)
//	   count metric is the obs registry's delta over T
//	L  the ladder: each statement is run at successive       (a third)
//	   depths, one span per depth, parent = the depth above
//	M  fixed-size timings of single layers on twin trees
//
// trace.overhead_frac compares T with U. Spans are made here, around calls
// into each layer's public functions; spans inside the engine are a later
// change (ROADMAP aim 1).

// span is one timed interval. Spans of one statement share Stmt; Parent is
// the span that encloses it (0 for a statement's outermost span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Stmt   int64  `json:"stmt"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stmts int64
}

func (t *tracer) stmt() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stmts++
	return t.stmts
}

func (t *tracer) add(parent, stmt int64, layer, name string, from, to time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{id, parent, stmt, layer, name,
		from.Sub(t.epoch).Nanoseconds(), to.Sub(t.epoch).Nanoseconds()})
	return id
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchTx is the transaction id the ladder locks the index large object
// under when a writer or the vacuum daemon may be changing it. Engine
// transaction ids count up from 1 and never get here.
const benchTx = lock.TxID(1) << 62

// twinCap bounds the rstar and gist twin trees: gist has no bulk loader, and
// the twins exist to compare the three kernels on equal input, not to scale.
const twinCap = 5000

// ladderAcc sums what the ladder saw for one statement kind.
type ladderAcc struct {
	n                                        int
	client, engine, plan, parse              time.Duration
	open, search, heap                       time.Duration
	nodes, rids, pageRuns, scanned, returned uint64
}

// residual is what of the engine depth no deeper span or counter explains.
func (a *ladderAcc) residual() time.Duration {
	return a.engine - a.plan - a.parse - a.open - a.search - a.heap
}

// ladder runs statements at successive depths against one rig.
type ladder struct {
	r    *rig
	tr   *tracer
	acc  [numOps]ladderAcc
	twin *grtree.Tree // bench-owned copy of the index, takes the replayed inserts
	// insert and commit timings of ladder transactions
	inserts   int
	insertDur time.Duration
	checks    *recorder
}

// openIndex opens the engine's own index storage the way grt_open does:
// access-method record -> large-object handle -> LOStore -> Tree.
func (b *db) openIndex() (*nodestore.LOStore, *grtree.Tree, error) {
	rec, ok := b.e.Catalog().AMRecordGet(grtblade.AmName, indexName)
	if !ok {
		return nil, nil, fmt.Errorf("bench: index %s has no access-method record", indexName)
	}
	space, err := b.e.Space(spaceName)
	if err != nil {
		return nil, nil, err
	}
	// Read-only workloads have nobody to exclude, so the open takes no
	// lock and the lock counters stay the statements' own. Beside a
	// writer it takes the shared LO lock a CommittedRead statement takes.
	iso := lock.DirtyRead
	if b.w.Writer {
		iso = lock.CommittedRead
	}
	store, err := nodestore.OpenLO(space, benchTx, iso, sbspace.DecodeHandle(rec), sbspace.ReadOnly)
	if err != nil {
		return nil, nil, err
	}
	tree, err := grtree.Open(store, grtree.DefaultConfig())
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return store, tree, nil
}

// contained reports whether st is a ContainedIn probe (else Overlaps).
func contained(st *readStmt) bool { return st.Kind == opProbe || st.Kind == opAdhoc }

func predicateOf(st *readStmt) grtree.Predicate {
	if contained(st) {
		return grtree.Predicate{Op: grtree.OpContainedIn, Query: st.Q}
	}
	return grtree.Predicate{Op: grtree.OpOverlaps, Query: st.Q}
}

// read runs one read statement down the ladder:
//
//	client  TCP Stmt.Query to the last row                (probe_tcp only)
//	engine  embedded ExecutePreparedStream/ExecStream + drain
//	tree    open the index LO, Tree.Search + NextBatch (or AggCount/AggExtreme),
//	        GetVersion for every rid found, close; the open/close and the
//	        GetVersion loop are its child spans nodestore.open and heap.getversion
//
// A layer's self time is its span minus its children. The children replay
// work the parent has just done, so they run warmer than inside it; that
// bias lands in engine.residual_us and is why unattributed_frac is reported.
func (l *ladder) read(st *readStmt) error {
	r, tr := l.r, l.tr
	a := &l.acc[st.Kind]
	id := tr.stmt()
	parent := int64(0)
	if r.w.TCP {
		t0 := time.Now()
		got, err := r.reader.run(st)
		t1 := time.Now()
		if err != nil {
			return err
		}
		l.check(st, got.Count, "client")
		parent = tr.add(0, id, "client", opNames[st.Kind], t0, t1)
		a.client += t1.Sub(t0)
	}

	reg := r.b.e.Obs()
	plan0, parse0 := reg.Counter("sql.plan_ns").Load(), reg.Counter("sql.parse_ns").Load()
	t0 := time.Now()
	got, err := r.emb.run(st)
	t1 := time.Now()
	if err != nil {
		return err
	}
	l.check(st, got.Count, "engine")
	eng := tr.add(parent, id, "engine", opNames[st.Kind], t0, t1)
	a.n++
	a.engine += t1.Sub(t0)
	a.plan += time.Duration(reg.Counter("sql.plan_ns").Load() - plan0)
	a.parse += time.Duration(reg.Counter("sql.parse_ns").Load() - parse0)
	if s := r.emb.last; s != nil {
		a.scanned += s.RowsScanned
		a.returned += s.RowsReturned
	}

	ct := r.b.clock.Now()
	table, err := r.b.e.Table("T")
	if err != nil {
		return err
	}
	t0 = time.Now()
	store, tree, err := r.b.openIndex()
	if err != nil {
		return err
	}
	tOpen := time.Now()
	var rids []heap.RowID
	name := "search"
	if st.Kind == opAgg {
		name = "aggregate"
		if st.Agg == aggCount {
			_, _, err = tree.AggCount(predicateOf(st), ct)
		} else {
			_, _, _, err = tree.AggExtreme(predicateOf(st), ct, st.Agg == aggMax)
		}
	} else {
		rids, err = drain(tree, predicateOf(st), ct)
	}
	tSearch := time.Now()
	if err != nil {
		store.Close()
		return err
	}
	visible := 0
	for _, rid := range rids {
		_, ok, err := table.GetVersion(rid, nil)
		if err != nil && !errors.Is(err, heap.ErrNoSuchRow) {
			store.Close()
			return err
		}
		if ok {
			visible++
		}
	}
	tHeap := time.Now()
	nodes := store.Stats().NodeReads
	if err := store.Close(); err != nil {
		return err
	}
	tEnd := time.Now()
	if st.Kind != opAgg {
		l.check(st, visible, "tree")
	}
	ts := tr.add(eng, id, "tree", name, t0, tEnd)
	tr.add(ts, id, "nodestore", "open", t0, tOpen)
	tr.add(ts, id, "heap", "getversion", tSearch, tHeap)
	tr.add(ts, id, "nodestore", "close", tHeap, tEnd)
	a.open += tOpen.Sub(t0) + tEnd.Sub(tHeap)
	a.search += tSearch.Sub(tOpen)
	a.heap += tHeap.Sub(tSearch)
	a.nodes += nodes
	a.rids += uint64(len(rids))
	a.pageRuns += pageRuns(rids)
	return nil
}

// check counts a ladder depth's answer against the oracle's, where the
// table is not changing underneath.
func (l *ladder) check(st *readStmt, count int, depth string) {
	if l.r.w.Writer || st.Kind == opAgg {
		return
	}
	l.checks.attempted++
	if count != st.Want.Count {
		l.checks.failed++
		complain("ladder %s depth of %s %v: %d rows, oracle %d", depth, opNames[st.Kind], st.Q, count, st.Want.Count)
	}
}

// drain collects every rid a search returns, a batch at a time.
func drain(tree *grtree.Tree, p grtree.Predicate, ct chronon.Instant) ([]heap.RowID, error) {
	cur, err := tree.Search(p, ct)
	if err != nil {
		return nil, err
	}
	var rids []heap.RowID
	buf := make([]grtree.Entry, 64)
	for {
		n, err := cur.NextBatch(buf)
		if err != nil {
			return nil, err
		}
		for _, e := range buf[:n] {
			rids = append(rids, heap.RowID(e.Payload()))
		}
		if n < len(buf) {
			return rids, nil
		}
	}
}

// pageRuns counts maximal runs of consecutive rids on one heap page.
func pageRuns(rids []heap.RowID) uint64 {
	var runs uint64
	for i, rid := range rids {
		if i == 0 || rid.Page() != rids[i-1].Page() {
			runs++
		}
	}
	return runs
}

// txn runs the writer's next transaction with spans: the whole transaction
// at depth engine, its COMMIT as child wal.commit, and the same 32 extents
// inserted into the twin tree as child tree.insert.
func (l *ladder) txn() {
	w := l.r.wr
	if w.dead || w.done >= len(w.d.Txns) {
		return
	}
	tx := &w.d.Txns[w.done]
	var rec recorder
	id := l.tr.stmt()
	t0 := time.Now()
	w.txn(&rec)
	t1 := time.Now()
	l.checks.attempted += rec.attempted
	l.checks.failed += rec.failed
	if w.dead {
		return
	}
	eng := l.tr.add(0, id, "engine", "txn", t0, t1)
	l.tr.add(eng, id, "wal", "commit", t1.Add(-rec.commit[0]), t1)
	a := &l.acc[opTxn]
	a.n++
	a.engine += t1.Sub(t0)

	t0 = time.Now()
	for _, r := range tx.Inserts {
		if err := l.twin.Insert(r.X, grtree.Payload(r.N), tx.Day); err != nil {
			complain("twin insert: %v", err)
			l.checks.failed++
			return
		}
	}
	t1 = time.Now()
	l.tr.add(eng, id, "tree", "insert", t0, t1)
	l.inserts += len(tx.Inserts)
	l.insertDur += t1.Sub(t0)
}

// newTwin bulk-loads a copy of the index into a bench-owned sbspace (memory
// pager, its own lock manager), through the same nodestore and sbspace
// layers and with the blade's default config and placement. It returns the
// tree, its space, and the bulk-load time.
func newTwin(rows []row, ct chronon.Instant) (*grtree.Tree, *sbspace.Space, time.Duration, error) {
	space := sbspace.New(1, "twin", storage.NewBufferPool(storage.NewMemPager(), 8192), lock.New())
	store, _, err := nodestore.CreateLO(space, benchTx, lock.CommittedRead, nodestore.SingleLO)
	if err != nil {
		return nil, nil, 0, err
	}
	tree, err := grtree.Create(store, grtree.DefaultConfig())
	if err != nil {
		return nil, nil, 0, err
	}
	items := make([]grtree.BulkItem, len(rows))
	for i, r := range rows {
		items[i] = grtree.BulkItem{Extent: r.X, Payload: grtree.Payload(r.N)}
	}
	start := time.Now()
	err = tree.BulkLoad(items, ct)
	return tree, space, time.Since(start), err
}

// traceRun is one traced run of a workload.
func traceRun(w *workload, seed int64, dur time.Duration) (*runResult, error) {
	r, err := newRig(w, seed, false)
	if err != nil {
		return nil, err
	}
	defer r.close()
	var checks recorder
	r.precheck(&checks)
	r.drive(min(warmup, dur)/2, 0, nil)

	m := make(map[string]float64)

	// U and T.
	recU, elU := r.drive(dur/4, 0, nil)
	tr := &tracer{epoch: time.Now()}
	reg := r.b.e.Obs()
	layer := "engine"
	if w.TCP {
		layer = "client"
	}
	if r.wr != nil {
		r.wr.onTxn = func(t0, tc, t1 time.Time) {
			id := tr.stmt()
			p := tr.add(0, id, "engine", "txn", t0, t1)
			tr.add(p, id, "wal", "commit", tc, t1)
		}
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	bytes0 := r.wireBytes()
	snap0 := reg.Snapshot()
	recT, elT := r.drive(dur/4, 0, func(st *readStmt, t0, t1 time.Time) {
		tr.add(0, tr.stmt(), layer, opNames[st.Kind], t0, t1)
	})
	delta := reg.Snapshot().Delta(snap0)
	bytes1 := r.wireBytes()
	runtime.ReadMemStats(&mem1)
	if r.wr != nil {
		r.wr.onTxn = nil
	}
	stmtsU, _, _ := recU.totals()
	stmtsT, readT, ingestedT := recT.totals()
	m["trace.overhead_frac"] = 1 - (float64(stmtsT)/elT.Seconds())/(float64(stmtsU)/elU.Seconds())
	countMetrics(m, delta, uint64(stmtsT), uint64(ingestedT), uint64(len(recT.commit)), elT)
	m["wire.bytes_per_stmt"] = float64(bytes1-bytes0) / float64(stmtsT)
	m["engine.alloc_bytes_per_stmt"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(stmtsT)
	m["engine.allocs_per_row"] = ratio(mem1.Mallocs-mem0.Mallocs, uint64(readT+ingestedT))
	m["wal.commit_p50_us"] = us(quantile(recT.commit, 0.50))
	m["wal.commit_p95_us"] = us(quantile(recT.commit, 0.95))
	m["wal.bytes_per_user_byte"] = ratio(delta.Get("wal.bytes"), uint64(ingestedT)) / userBytesPerRow
	checks.attempted += recU.attempted + recT.attempted
	checks.failed += recU.failed + recT.failed

	// L.
	twin, twinSpace, bulk, err := newTwin(r.d.Rows, r.d.Now)
	if err != nil {
		return nil, err
	}
	lad := &ladder{r: r, tr: tr, twin: twin, checks: &checks}
	deadline := time.Now().Add(dur / 3)
	for i := 0; time.Now().Before(deadline); i++ {
		if r.wr != nil && i%10 == 0 {
			lad.txn()
		}
		if err := lad.read(r.cu.stmt(r.d)); err != nil {
			return nil, err
		}
	}
	lad.metrics(m)

	// M.
	m["grtree.bulkload_rows_per_s"] = float64(len(r.d.Rows)) / bulk.Seconds()
	m["sbspace.pages_per_krow"] = float64(twinSpace.Pool().Pager().NumPages()) / (float64(len(r.d.Rows)) / 1000)
	if err := r.layerTimings(m); err != nil {
		return nil, err
	}
	if w.FileBacked {
		n, err := dirBytes(r.b.dir)
		if err != nil {
			return nil, err
		}
		rows := len(r.d.Rows)
		if r.wr != nil {
			rows += r.wr.done * insertsPerTxn
		}
		m["storage.bytes_per_user_byte"] = float64(n) / (float64(rows) * userBytesPerRow)
	}
	if w.Writer {
		took, err := r.checkDurability(&checks)
		if err != nil {
			return nil, err
		}
		m["wal.recovery_s"] = took.Seconds()
	}

	path := filepath.Join(outDir(), "trace-"+w.Name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}

	res := &runResult{Attempted: checks.attempted, Failed: checks.failed, Metrics: make(map[string]metric)}
	for _, spec := range perLayer {
		res.Metrics[spec.Name] = metric{m[spec.Name], spec.Unit}
		delete(m, spec.Name)
	}
	for name := range m {
		return nil, fmt.Errorf("bench: metric %s is measured but not declared in perLayer", name)
	}
	table, err := r.b.e.Table("T")
	if err != nil {
		return nil, err
	}
	res.Detail = append(lad.table(),
		fmt.Sprintf("sizes: %d rows loaded, %d heap pages, %.0f index nodes of height %.0f, PoolPages %d",
			len(r.d.Rows), table.Pages(), res.Metrics["grtree.nodes"].Value, res.Metrics["grtree.height"].Value, w.PoolPages),
		fmt.Sprintf("%d spans in %s; tree spans search the engine's own index storage (%s in %s), tree.insert a bench-owned twin",
			len(tr.spans), path, indexName, spaceName))
	return res, nil
}

// userBytesPerRow is the payload of one row of T: an 8-byte integer, the
// 18-byte generated name and the 32-byte extent.
const userBytesPerRow = 8 + 18 + 32

func (r *rig) wireBytes() int64 {
	if r.ns == nil {
		return 0
	}
	return r.ns.ln.bytes.Load()
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// countMetrics derives every count metric from the obs registry's delta
// over part T, in which stmts statements completed and commits
// transactions inserted ingested rows.
func countMetrics(m map[string]float64, d obs.Snapshot, stmts, ingested, commits uint64, elapsed time.Duration) {
	per := func(name, counter string) { m[name] = ratio(d.Get(counter), stmts) }
	per("server.batches_per_stmt", "server.batches.sent")
	m["server.slot_waits"] = float64(d.Get("server.slot.waits"))
	per("sql.parses_per_stmt", "sql.parses")
	m["plancache.hit_ratio"] = ratio(d.Get("plan_cache.hits"), d.Get("plan_cache.hits")+d.Get("plan_cache.misses"))
	m["engine.plan_us_per_stmt"] = ratio(d.Get("sql.plan_ns"), stmts) / 1e3
	per("am.beginscan_per_stmt", "am.am_beginscan")
	per("am.getmulti_per_stmt", "am.am_getmulti")
	per("am.scancost_per_stmt", "am.am_scancost")
	m["am.aggregate_pushed_ratio"] = ratio(d.Get("agg.pushed"), d.Get("agg.pushed")+d.Get("agg.fallback"))
	per("sbspace.lo_opens_per_stmt", "sbspace.lo_opens")
	per("bufferpool.fetches_per_stmt", "bufferpool.fetches")
	per("bufferpool.reads_per_stmt", "bufferpool.reads")
	per("bufferpool.evictions_per_stmt", "bufferpool.evictions")
	m["bufferpool.hit_ratio"] = ratio(d.Get("bufferpool.hits"), d.Get("bufferpool.fetches"))
	m["bufferpool.writes_per_row"] = ratio(d.Get("bufferpool.writes"), ingested)
	per("mvcc.versions_skipped_per_stmt", "mvcc.versions_skipped")
	m["mvcc.vacuumed_per_s"] = float64(d.Get("mvcc.vacuumed")) / elapsed.Seconds()
	m["wal.flushes_per_commit"] = ratio(d.Get("wal.flushes"), commits)
	m["wal.appends_per_row"] = ratio(d.Get("wal.appends"), ingested)
	m["wal.group_size_mean"] = ratio(d.Get("wal.group_size.us"), d.Get("wal.group_size.n"))
	m["wal.checkpoints"] = float64(d.Get("wal.checkpoints"))
	per("lock.acquires_per_stmt", "lock.acquires")
	m["lock.waits_per_ktxn"] = ratio(d.Get("lock.waits")*1000, commits)
	m["lock.deadlocks"] = float64(d.Get("lock.deadlocks"))
}

func meanUS(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return us(total) / float64(n)
}

// metrics turns the ladder's sums into per-layer metrics. Every time is a
// mean per statement, so a kind's self times add up to its exec time.
func (l *ladder) metrics(m map[string]float64) {
	var all ladderAcc
	for k := range l.acc {
		a := &l.acc[k]
		op := opNames[k]
		m["engine.exec_us."+op] = meanUS(a.engine, a.n)
		if opKind(k) == opTxn {
			continue
		}
		m["engine.residual_us."+op] = meanUS(a.residual(), a.n)
		if a.engine > 0 {
			m["engine.unattributed_frac."+op] = float64(a.residual()) / float64(a.engine)
		}
		m["grtree.search_us."+op] = meanUS(a.search, a.n)
		m["grtree.nodes_read_per_search."+op] = ratio(a.nodes, uint64(a.n))
		all.n += a.n
		all.client += a.client
		all.engine += a.engine
		all.parse += a.parse
		all.open += a.open
		all.heap += a.heap
		all.rids += a.rids
		all.pageRuns += a.pageRuns
		all.scanned += a.scanned
		all.returned += a.returned
	}
	if l.r.w.TCP {
		m["wire.roundtrip_us"] = meanUS(all.client-all.engine, all.n)
	}
	m["sql.parse_us"] = meanUS(l.acc[opAdhoc].parse, l.acc[opAdhoc].n)
	m["nodestore.open_us"] = meanUS(all.open, all.n)
	m["heap.getversion_us_per_rid"] = meanUS(all.heap, int(all.rids))
	m["heap.rids_per_page_run"] = ratio(all.rids, all.pageRuns)
	m["engine.rows_scanned_per_returned"] = ratio(all.scanned, all.returned)
	m["grtree.insert_us"] = meanUS(l.insertDur, l.inserts)
}

// table renders the self-time table: per statement kind, mean microseconds
// per layer; plan + parse + open + search + heap + residual = exec.
func (l *ladder) table() []string {
	out := []string{fmt.Sprintf("%-6s %6s %9s %9s %8s %8s %8s %9s %9s %9s %6s",
		"ladder", "n", "client", "exec", "plan", "parse", "open", "search", "heap", "residual", "unattr")}
	for k := range l.acc {
		a := &l.acc[k]
		if a.n == 0 || opKind(k) == opTxn {
			continue
		}
		out = append(out, fmt.Sprintf("%-6s %6d %9.1f %9.1f %8.1f %8.1f %8.1f %9.1f %9.1f %9.1f %6.2f",
			opNames[k], a.n, meanUS(a.client, a.n), meanUS(a.engine, a.n), meanUS(a.plan, a.n), meanUS(a.parse, a.n),
			meanUS(a.open, a.n), meanUS(a.search, a.n), meanUS(a.heap, a.n), meanUS(a.residual(), a.n),
			float64(a.residual())/float64(a.engine)))
	}
	if a := &l.acc[opTxn]; a.n > 0 {
		out = append(out, fmt.Sprintf("txn    %6d exec %.1fus; twin tree.insert %.1fus per row", a.n, meanUS(a.engine, a.n), meanUS(l.insertDur, l.inserts)))
	}
	return out
}

// layerTimings is part M: single layers timed through their public
// functions, a fixed amount of work each.
func (r *rig) layerTimings(m map[string]float64) error {
	ct := r.b.clock.Now()

	// The engine's own tree: shape.
	store, tree, err := r.b.openIndex()
	if err != nil {
		return err
	}
	ts, err := tree.Stats(ct, 0, 1)
	store.Close()
	if err != nil {
		return err
	}
	m["grtree.height"] = float64(ts.Height)
	m["grtree.nodes"] = float64(ts.Nodes)

	// The heap: one full sequential pass.
	table, err := r.b.e.Table("T")
	if err != nil {
		return err
	}
	start := time.Now()
	sc := table.NewScanner(nil)
	rows := 0
	for {
		b, err := sc.NextBatch(64)
		if err != nil {
			return err
		}
		if b == nil || len(b.Rows) == 0 {
			break
		}
		rows += len(b.Rows)
	}
	m["heap.seqscan_us_per_row"] = meanUS(time.Since(start), rows)

	// The rstar and gist kernels on twins over the same extents, searched
	// with the workload's own first statements. No workload runs them end
	// to end; they are here so a merge of the three kernels can be checked.
	stride := max(1, len(r.d.Rows)/twinCap)
	rt, err := rstar.Create(nodestore.NewMem(), rstar.DefaultConfig())
	if err != nil {
		return err
	}
	gstore := nodestore.NewMem()
	gt, err := gist.Create(gstore, gist.NewGRKeyClass(chronon.Fixed(ct)))
	if err != nil {
		return err
	}
	var items []rstar.BulkItem
	for i := 0; i < len(r.d.Rows); i += stride {
		x := r.d.Rows[i].X
		items = append(items, rstar.BulkItem{
			Rect:    rstblade.MapExtent(x, rstblade.SubMax, rstblade.DefaultMaxTimestamp, ct),
			Payload: rstar.Payload(i),
		})
		if err := gt.Insert(gist.GRExtentKey(x), gist.Payload(i)); err != nil {
			return err
		}
	}
	if err := rt.BulkLoad(items); err != nil {
		return err
	}
	var queries []*readStmt
	for k := range r.d.Pools {
		for i := 0; i < len(r.d.Pools[k]) && i < 32; i++ {
			queries = append(queries, &r.d.Pools[k][i])
		}
	}
	rt.Store().ResetStats()
	start = time.Now()
	for _, st := range queries {
		op := rstar.OpOverlaps
		if contained(st) {
			op = rstar.OpContainedIn
		}
		if _, err := rt.SearchAll(op, rstblade.MapExtent(st.Q, rstblade.SubMax, rstblade.DefaultMaxTimestamp, ct)); err != nil {
			return err
		}
	}
	m["rstar.search_us"] = meanUS(time.Since(start), len(queries))
	m["rstar.nodes_read_per_search"] = ratio(rt.Store().Stats().NodeReads, uint64(len(queries)))

	gstore.ResetStats()
	start = time.Now()
	for _, st := range queries {
		op := gist.GROverlaps
		if contained(st) {
			op = gist.GRContainedIn
		}
		if _, err := gt.Search(gist.GRQuery{Op: op, Q: st.Q}); err != nil {
			return err
		}
	}
	m["gist.search_us"] = meanUS(time.Since(start), len(queries))
	m["gist.nodes_read_per_search"] = ratio(gstore.Stats().NodeReads, uint64(len(queries)))
	return nil
}

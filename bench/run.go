package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/blades/grtblade"
	"repro/internal/engine"
	"repro/internal/types"
)

// Load shape (all workloads): closed loop. A client sends its next
// statement once the previous reply is fully drained; there is one reader,
// and in ingest_mixed one writer beside it, so never more than two client
// goroutines on the sandbox's two CPUs.

const (
	warmup     = 2 * time.Second
	warmTxns   = 64 // ingest_mixed warms up for this many transactions, about as long
	sampleSize = 64 // statements per kind checked in full before timing

	// An untraced run sets the workload up several times and reports the
	// calm fifth of them as setup_s: at least minSetups times, then on until setupBudget
	// is spent or maxSetups is reached, so that a set-up of a few
	// milliseconds is measured as often as one of half a second is not.
	minSetups   = 5
	maxSetups   = 60
	setupBudget = 1500 * time.Millisecond
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recorder collects what one client goroutine saw. lat, at, and work are
// parallel per kind: a sample's latency, when it completed (since start),
// and the statements and rows it stands for.
type recorder struct {
	start     time.Time
	lat       [numOps][]time.Duration
	at        [numOps][]time.Duration
	work      [numOps][]work
	commit    []time.Duration // COMMIT statements alone (wal.commit_*)
	attempted int64
	failed    int64
}

// work is what one sample did: a read is one statement and the rows it
// returned, a writer transaction 42 statements and the rows it inserted.
type work struct{ stmts, rows int32 }

func (r *recorder) sample(k opKind, done time.Time, lat time.Duration, w work) {
	r.lat[k] = append(r.lat[k], lat)
	r.at[k] = append(r.at[k], done.Sub(r.start))
	r.work[k] = append(r.work[k], w)
}

// totals sums the samples: statements completed, rows delivered to the
// reader, and rows inserted by committed transactions.
func (r *recorder) totals() (stmts, read, ingested int64) {
	for k := range r.work {
		for _, w := range r.work[k] {
			stmts += int64(w.stmts)
			if opKind(k) == opTxn {
				ingested += int64(w.rows)
			} else {
				read += int64(w.rows)
			}
		}
	}
	return
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
		r.at[k] = append(r.at[k], o.at[k]...)
		r.work[k] = append(r.work[k], o.work[k]...)
	}
	r.commit = append(r.commit, o.commit...)
	r.attempted += o.attempted
	r.failed += o.failed
}

// cursor walks the generated statement sequence; warm-up and the timed run
// share one, so the timed run continues where warm-up stopped.
type cursor struct {
	i    int
	next [numOps]int
}

func (cu *cursor) stmt(d *dataset) *readStmt {
	k := d.Mix[cu.i%len(d.Mix)]
	cu.i++
	p := d.Pools[k]
	st := &p[cu.next[k]%len(p)]
	cu.next[k]++
	return st
}

// readLoop issues statements until stop closes or, when limit is not 0,
// until it has issued limit of them. verify compares every answer with the
// oracle's; it is off where a writer changes the table underneath
// (ingest_mixed), and there only errors count as failures.
func readLoop(c conn, d *dataset, cu *cursor, stop <-chan struct{}, limit int, rec *recorder, verify bool, onStmt func(*readStmt, time.Time, time.Time)) {
	for n := 0; limit == 0 || n < limit; n++ {
		select {
		case <-stop:
			return
		default:
		}
		st := cu.stmt(d)
		t0 := time.Now()
		got, err := c.run(st)
		t1 := time.Now()
		rows := 0
		if st.Kind != opAgg {
			rows = got.Count
		}
		rec.sample(st.Kind, t1, t1.Sub(t0), work{1, int32(rows)})
		rec.attempted++
		if err != nil || (verify && !right(st, got)) {
			rec.failed++
			complain("%s %v: got %+v want %+v err %v", opNames[st.Kind], st.Q, got, st.Want, err)
		}
		if onStmt != nil {
			onStmt(st, t0, t1)
		}
	}
}

var complaints int

// complain reports a wrong answer on standard error, the first few only.
func complain(format string, args ...any) {
	if complaints++; complaints <= 10 {
		fmt.Fprintf(os.Stderr, "bench: WRONG: "+format+"\n", args...)
	}
}

// writer is ingest_mixed's committing session.
type writer struct {
	b    *db
	s    *engine.Session
	d    *dataset
	done int // transactions acknowledged so far, in sequence order
	dead bool
	// onTxn, when set, is told each committed transaction's BEGIN, COMMIT
	// and acknowledgement times (the traced run's spans).
	onTxn func(begin, commit, acked time.Time)
}

func (b *db) newWriter(d *dataset) (*writer, error) {
	s := b.e.NewSession()
	if _, err := s.Exec(`SET COMMIT GROUP`); err != nil {
		s.Close()
		return nil, err
	}
	for _, p := range [][2]string{{"ins", sqlIns}, {"del", sqlDel}} {
		if _, err := s.Prepare(p[0], p[1]); err != nil {
			s.Close()
			return nil, err
		}
	}
	return &writer{b: b, s: s, d: d}, nil
}

// statements runs the body of transaction tx up to limit statements (all of
// it when limit < 0) and reports how many statements it ran.
func (w *writer) statements(tx *writeTxn, limit int) (int, error) {
	ctx := context.Background()
	n := 0
	for _, del := range tx.Deletes {
		if n == limit {
			return n, nil
		}
		res, err := w.s.ExecutePrepared(ctx, "del", []types.Datum{w.b.arg(del.New), w.b.arg(del.Old)})
		if err != nil {
			return n, err
		}
		if res.Affected != len(del.Ns) {
			return n, fmt.Errorf("logical deletion of %v closed %d rows, oracle expects %d", del.Old, res.Affected, len(del.Ns))
		}
		n++
	}
	for _, r := range tx.Inserts {
		if n == limit {
			return n, nil
		}
		if _, err := w.s.ExecutePrepared(ctx, "ins", []types.Datum{r.N, r.Name, w.b.arg(r.X)}); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// txn runs the next generated transaction: BEGIN, 8 logical deletions, 32
// inserts, COMMIT. The virtual clock moves to the transaction's day first.
func (w *writer) txn(rec *recorder) {
	tx := &w.d.Txns[w.done]
	w.b.clock.Set(tx.Day)
	total := int64(len(tx.Deletes) + len(tx.Inserts) + 2)
	rec.attempted += total
	t0 := time.Now()
	_, err := w.s.Exec(`BEGIN WORK`)
	if err == nil {
		_, err = w.statements(tx, -1)
	}
	var tc time.Time
	if err == nil {
		tc = time.Now()
		_, err = w.s.Exec(`COMMIT WORK`)
	}
	if err != nil {
		// The generated sequence assumes every transaction before it
		// committed; after a failure the rest cannot be checked.
		rec.failed += total
		complain("writer transaction %d: %v", w.done, err)
		w.s.Exec(`ROLLBACK WORK`)
		w.dead = true
		return
	}
	t1 := time.Now()
	rec.commit = append(rec.commit, t1.Sub(tc))
	rec.sample(opTxn, t1, t1.Sub(t0), work{int32(total), int32(len(tx.Inserts))})
	if w.onTxn != nil {
		w.onTxn(t0, tc, t1)
	}
	w.done++
}

// loop commits transactions until stop closes or, when until is not 0, until
// that many are acknowledged in all.
func (w *writer) loop(stop <-chan struct{}, until int, rec *recorder) {
	for !w.dead && w.done < len(w.d.Txns) {
		select {
		case <-stop:
			return
		default:
		}
		if until != 0 && w.done >= until {
			return
		}
		w.txn(rec)
	}
	if !w.dead {
		<-stop // ran out of generated transactions: idle, and say so
		complain("writer exhausted its %d generated transactions", len(w.d.Txns))
		rec.failed++
	}
}

// rig is a set-up workload with its clients connected.
type rig struct {
	w       *workload
	d       *dataset
	b       *db
	scratch string
	setups  []time.Duration
	// inputsMB is the live heap once the inputs are generated and before
	// anything is set up; live_heap_mb is what has been added to it.
	inputsMB float64
	ns       *netServer
	reader   conn
	emb      *embedded // embedded session on the same engine (ladder depth "engine")
	wr       *writer
	cu       cursor
}

// outOverride redirects outDir; tests point it at a temporary directory.
var outOverride string

// outDir is where the benchmark writes: bench/out under the checkout root,
// or out/ when run from inside bench/.
func outDir() string {
	if outOverride != "" {
		return outOverride
	}
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// newRig generates the inputs, sets the workload up (once, or as often as
// setup_s needs; the last set-up is kept) and connects the clients.
func newRig(w *workload, seed int64, repeatSetup bool) (*rig, error) {
	d, err := generate(seed, w.Size)
	if err != nil {
		return nil, err
	}
	scratch, err := filepath.Abs(filepath.Join(outDir(), "tmp", fmt.Sprintf("%s-%d", w.Name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, d: d, scratch: scratch}
	r.inputsMB = heapMB()
	if err := r.prepare(repeatSetup); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) prepare(repeatSetup bool) error {
	if err := os.MkdirAll(r.scratch, 0o755); err != nil {
		return err
	}
	loadPath := filepath.Join(r.scratch, "load.txt")
	if err := os.WriteFile(loadPath, loadFile(r.d.Rows), 0o644); err != nil {
		return err
	}
	dir := filepath.Join(r.scratch, "db")
	var spent time.Duration
	for i := 0; i == 0 || (repeatSetup && i < maxSetups && (i < minSetups || spent < setupBudget)); i++ {
		if r.b != nil {
			err := r.b.e.Close()
			r.b = nil
			if err == nil {
				err = os.RemoveAll(dir)
			}
			if err != nil {
				return err
			}
		}
		b, took, err := r.w.setup(r.d, dir, loadPath)
		if err != nil {
			return err
		}
		r.b = b
		r.setups = append(r.setups, took)
		spent += took
	}
	// Have the kernel write the loaded files out now, not in the middle of
	// the timed run.
	if r.w.FileBacked {
		if err := syncFiles(dir); err != nil {
			return err
		}
	}
	return r.connect()
}

// syncFiles fsyncs every regular file under dir.
func syncFiles(dir string) error {
	return filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.Mode().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
}

func (r *rig) connect() error {
	var err error
	iso := []string(nil)
	if r.w.Writer {
		iso = []string{`SET ISOLATION TO SNAPSHOT`}
	}
	if r.emb, err = r.b.embed(iso...); err != nil {
		return err
	}
	r.reader = r.emb
	if r.w.TCP {
		if r.ns, err = r.b.serve(); err != nil {
			return err
		}
		if r.reader, err = r.ns.dial(); err != nil {
			return err
		}
	}
	if r.w.Writer {
		r.wr, err = r.b.newWriter(r.d)
	}
	return err
}

func (r *rig) disconnect() {
	if r.reader != nil && r.reader != conn(r.emb) {
		r.reader.close()
	}
	if r.emb != nil {
		r.emb.close()
	}
	if r.wr != nil {
		r.wr.s.Close()
	}
	if r.ns != nil {
		r.ns.stop()
	}
	r.reader, r.emb, r.wr, r.ns = nil, nil, nil, nil
}

func (r *rig) close() {
	r.disconnect()
	if r.b != nil {
		r.b.e.Close()
		r.b = nil
	}
	os.RemoveAll(r.scratch)
}

// drive runs the workload's clients for dur, or, when untilTxn is not 0 and
// there is a writer, until it has untilTxn transactions acknowledged in all.
// It returns what the clients saw.
func (r *rig) drive(dur time.Duration, untilTxn int, onStmt func(*readStmt, time.Time, time.Time)) (*recorder, time.Duration) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	readRec, writeRec := recorder{start: start}, recorder{start: start}
	wg.Add(1)
	go func() {
		defer wg.Done()
		readLoop(r.reader, r.d, &r.cu, stop, 0, &readRec, !r.w.Writer, onStmt)
	}()
	if r.wr != nil && untilTxn != 0 {
		r.wr.loop(stop, untilTxn, &writeRec)
	} else {
		if r.wr != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.wr.loop(stop, 0, &writeRec)
			}()
		}
		time.Sleep(dur)
	}
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	readRec.merge(&writeRec)
	return &readRec, elapsed
}

// precheck runs the first sampleSize statements of every kind in the mix
// and compares each answer in full with the oracle's.
func (r *rig) precheck(rec *recorder) {
	for k, pool := range r.d.Pools {
		for i := 0; i < len(pool) && i < sampleSize; i++ {
			st := &r.d.Pools[k][i]
			got, err := r.reader.run(st)
			rec.attempted++
			if err != nil || !right(st, got) {
				rec.failed++
				complain("precheck %s %v: got %+v want %+v err %v", opNames[st.Kind], st.Q, got, st.Want, err)
			}
		}
	}
}

// Result of one untraced run ---------------------------------------------------------

type runResult struct {
	Attempted int64
	Failed    int64
	Metrics   map[string]metric
	// Detail lines for the human-readable report: per op kind, sample
	// count and the highest percentile with ten samples beyond it.
	Detail []string
}

// measure is one untraced run: set-up, checks, warm-up, the timed run and,
// for ingest_mixed, the state and durability checks afterwards.
func measure(w *workload, seed int64, dur time.Duration) (*runResult, error) {
	r, err := newRig(w, seed, true)
	if err != nil {
		return nil, err
	}
	defer r.close()

	var checks recorder
	r.precheck(&checks)

	// Warm-up. With a writer it ends at a fixed number of transactions and
	// live_heap_mb is taken there, both clients quiet: the table and the index
	// grow with every transaction, so at the end of the timed run the heap
	// would follow the run's speed. Without one the data does not grow and the
	// heap is taken at the end of the timed run.
	var live float64
	if w.Writer {
		r.drive(0, warmTxns, nil)
		if live, err = r.liveHeap(); err != nil {
			return nil, err
		}
	} else {
		r.drive(min(warmup, dur), 0, nil)
	}
	rec, elapsed := r.drive(dur, 0, nil)
	res := &runResult{Attempted: rec.attempted, Failed: rec.failed, Metrics: make(map[string]metric)}
	vals, detail := sliced(rec, w, elapsed)
	for k, lat := range rec.lat {
		if len(lat) > 0 {
			res.Detail = append(res.Detail, describe(opNames[k], lat))
		}
	}
	res.Detail = append(res.Detail, detail...)
	if !w.Writer {
		rec = nil // 24 bytes a statement: not the engine's memory, and more of it the faster the run
		if live, err = r.liveHeap(); err != nil {
			return nil, err
		}
	}
	vals["live_heap_mb"] = live

	if w.Writer {
		if _, err := r.checkDurability(&checks); err != nil {
			return nil, err
		}
	}
	res.Attempted += checks.attempted
	res.Failed += checks.failed

	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	vals["setup_s"] = calm(setups, false)
	for _, spec := range endToEnd {
		res.Metrics[spec.Name] = metric{vals[spec.Name], spec.Unit}
	}
	return res, nil
}

// liveHeap is live_heap_mb: what the process has retained since the inputs
// were generated, with the engine open and the clients connected. Where a
// writer runs, the engine first vacuums and checkpoints, as its daemons would
// within a second: how much log and how many dead versions are in memory at
// one instant is chance (20 MB, or none).
func (r *rig) liveHeap() (float64, error) {
	if r.w.Writer {
		if _, err := r.b.e.VacuumNow(); err != nil {
			return 0, fmt.Errorf("vacuum: %w", err)
		}
		if err := r.b.e.Checkpoint(); err != nil {
			return 0, fmt.Errorf("checkpoint: %w", err)
		}
	}
	return heapMB() - r.inputsMB, nil
}

// heapMB is the live heap after two collections: what a sync.Pool holds
// survives one in its victim cache and goes with the second, so the result
// does not depend on when the last automatic collection happened to run.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// checkDurability is ingest_mixed's epilogue. With the clients quiet it
// compares the table and a statement sample with the oracle built from the
// acknowledged transactions. Then it crashes the engine and recovers from
// the directory, twice, comparing again each time: first with nothing open
// (every acknowledged transaction must be there), then with half of the
// next transaction executed and left open (none of it may be). It returns
// how long the first recovery took.
//
// The engine of the second crash runs without its daemons: the vacuum daemon
// blocks on the large-object lock the open transaction holds, and
// CrashForTesting waits for the daemon to stop.
func (r *rig) checkDurability(rec *recorder) (time.Duration, error) {
	acked := r.wr.done
	want := r.d.apply(acked)
	r.checkState("quiesced", want, rec)

	took, err := r.crash(true)
	if err != nil {
		return 0, err
	}
	r.checkState("recovered", want, rec)

	if acked < len(r.d.Txns) {
		tx := &r.d.Txns[acked]
		r.b.clock.Set(tx.Day)
		if _, err := r.wr.s.Exec(`BEGIN WORK`); err != nil {
			return 0, err
		}
		if _, err := r.wr.statements(tx, (len(tx.Deletes)+len(tx.Inserts))/2); err != nil {
			return 0, err
		}
	}
	if _, err := r.crash(false); err != nil {
		return 0, err
	}
	r.checkState("recovered with a transaction open", want, rec)
	return took, nil
}

// crash abandons the engine with CrashForTesting, recovers a new one from
// the directory and reconnects the clients to it.
func (r *rig) crash(noDaemons bool) (time.Duration, error) {
	old := r.b
	if r.ns != nil {
		r.ns.stop()
		r.ns = nil
	}
	old.e.CrashForTesting()
	r.reader, r.emb, r.wr = nil, nil, nil // sessions of the crashed engine are abandoned
	nb, took, err := old.reopen(noDaemons)
	if err != nil {
		return 0, fmt.Errorf("recovery after crash: %w", err)
	}
	r.b = nb
	return took, r.connect()
}

// checkState compares the whole table, read by a sequential scan, and the
// sample statements, answered through the index, with the oracle over want.
func (r *rig) checkState(when string, want []row, rec *recorder) {
	rec.attempted++
	res, err := r.emb.s.Exec(`SELECT N, Name, X FROM T`)
	if err != nil {
		rec.failed++
		complain("%s: full scan: %v", when, err)
		return
	}
	bad := 0
	seen := make([]bool, len(want))
	for _, row := range res.Rows {
		n, _ := row[0].(int64)
		name, _ := row[1].(string)
		x, _ := row[2].(types.Opaque)
		ext, err := grtblade.DecodeExtent(x.Data)
		if n < 0 || n >= int64(len(want)) || seen[n] || err != nil || want[n].Name != name || want[n].X != ext {
			bad++
			continue
		}
		seen[n] = true
	}
	if bad > 0 || len(res.Rows) != len(want) {
		rec.failed++
		complain("%s: table has %d rows (%d wrong), oracle has %d", when, len(res.Rows), bad, len(want))
	}

	o := newOracle(want, r.b.clock.Now())
	for _, pool := range r.d.Pools {
		for i := 0; i < len(pool) && i < sampleSize; i++ {
			st := pool[i] // a copy: the oracle's answer on the new state replaces Want
			switch {
			case st.Kind == opAgg:
				st.Want = o.evalAgg(st.Agg, st.Q)
			case contained(&st):
				st.Want = o.eval(predContainedIn, st.Q)
			default:
				st.Want = o.eval(predOverlaps, st.Q)
			}
			got, err := r.emb.run(&st)
			rec.attempted++
			if err != nil || !right(&st, got) {
				rec.failed++
				complain("%s %s %v: got %+v want %+v err %v", when, opNames[st.Kind], st.Q, got, st.Want, err)
			}
		}
	}
}

// sliceLen is the length of the slices a timed run is cut into; the engine's
// daemons (checkpoint every 250 ms, vacuum every second) complete a cycle in
// each. Throughput and every latency quantile are taken per slice.
const sliceLen = time.Second

// calmShare picks the slice that is reported: the one a fifth of the way
// from the best slice to the worst. The sandbox is a few cores of a shared
// host whose neighbours slow the benchmark by 20-100 % for seconds to
// minutes at a time and never speed it up, so the median slice follows the
// neighbours while the calm fifth follows the program. A change to the
// program moves every slice, the calm ones too.
const calmShare = 0.2

// calm returns the value of v that lies calmShare of the way from the best
// to the worst.
func calm(v []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if higherIsBetter {
		slices.Reverse(s)
	}
	i := int(calmShare*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// sliced computes the throughput and latency metrics of a timed run, and one
// line per metric for the report: the best, reported, median and worst slice.
// Slices in which a statement kind did not complete are skipped for it.
func sliced(rec *recorder, w *workload, elapsed time.Duration) (map[string]float64, []string) {
	n := max(int(elapsed/sliceLen), 1)
	width := elapsed / time.Duration(n)
	stmts, rows := make([]float64, n), make([]float64, n)
	lat := make([][numOps][]time.Duration, n)
	for k := range rec.lat {
		for i, l := range rec.lat[k] {
			si := min(int(rec.at[k][i]/width), n-1)
			lat[si][k] = append(lat[si][k], l)
			stmts[si] += float64(rec.work[k][i].stmts) / width.Seconds()
			// ingest_mixed counts the rows committed, the others the rows read.
			if !w.Writer || opKind(k) == opTxn {
				rows[si] += float64(rec.work[k][i].rows) / width.Seconds()
			}
		}
	}
	vals := make(map[string]float64)
	var detail []string
	report := func(name string, v []float64, higherIsBetter bool) {
		if len(v) == 0 {
			vals[name] = 0
			return
		}
		vals[name] = calm(v, higherIsBetter)
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		best, worst := s[0], s[len(s)-1]
		if higherIsBetter {
			best, worst = worst, best
		}
		detail = append(detail, fmt.Sprintf("%-12s %d slices: best %.1f reported %.1f median %.1f worst %.1f",
			name, len(v), best, vals[name], medianOf(s), worst))
	}
	q := func(name string, k opKind, p float64) {
		var qs []float64
		for si := range lat {
			if len(lat[si][k]) > 0 {
				qs = append(qs, us(quantile(lat[si][k], p)))
			}
		}
		report(name, qs, false)
	}
	report("stmt_per_s", stmts, true)
	report("rows_per_s", rows, true)
	q("main_p50_us", w.Main, 0.50)
	q("main_p99_us", w.Main, 0.99)
	q("side_p50_us", w.Side, 0.50)
	return vals, detail
}

// Statistics -------------------------------------------------------------------------

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func sorted(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile is the nearest-rank q-quantile; 0 for no samples.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := sorted(ds)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// describe renders one latency line: count, median, and the highest
// percentile that still has at least ten samples beyond it.
func describe(name string, ds []time.Duration) string {
	line := fmt.Sprintf("%-6s n=%-7d p50=%.1fus", name, len(ds), us(quantile(ds, 0.5)))
	for _, p := range []float64{0.9999, 0.999, 0.99, 0.95, 0.9} {
		if float64(len(ds))*(1-p) >= 10 {
			return line + fmt.Sprintf(" p%g=%.1fus", p*100, us(quantile(ds, p)))
		}
	}
	return line
}

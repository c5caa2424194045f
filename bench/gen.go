package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/chronon"
	"repro/internal/temporal"
)

// The generator owns everything the engine is fed: table rows, statement
// literals, the write transactions of ingest_mixed, and the answers an
// in-memory oracle gives for them. All of it is a pure function of the seed
// and the workload's frozen sizes, so two runs with one seed issue the same
// statements in the same order.

// row is one tuple of T(N INTEGER, Name VARCHAR(32), X GRT_TimeExtent_t).
// N is the row's index in the generated table and never changes.
type row struct {
	N    int64
	Name string
	X    temporal.Extent
}

// opKind names a statement type; latencies are kept per kind.
type opKind int

const (
	opProbe opKind = iota // prepared ContainedIn probe, a handful of rows
	opAdhoc               // the same probe as ad-hoc text with a fresh literal
	opScan                // prepared Overlaps timeslice, ~1 % of the table
	opAgg                 // prepared COUNT(*)/MIN/MAX over a ~10 % Overlaps window
	opTxn                 // ingest_mixed writer: BEGIN, 32 INSERT, 8 UPDATE, COMMIT
	numOps
)

var opNames = [numOps]string{"probe", "adhoc", "scan", "agg", "txn"}

// Aggregate flavours of opAgg, in the order the pool cycles through them.
const (
	aggCount = iota
	aggMin
	aggMax
)

var aggNames = [...]string{"COUNT(*)", "MIN(X)", "MAX(X)"}

// Statement texts. The probe and scan select every column so rid
// resolution, datum boxing and (over TCP) row encoding all do their work.
const (
	sqlProbe = `SELECT N, Name, X FROM T WHERE ContainedIn(X, $1)`
	sqlScan  = `SELECT N, Name, X FROM T WHERE Overlaps(X, $1)`
	sqlAgg   = `SELECT %s FROM T WHERE Overlaps(X, $1)`
	sqlIns   = `INSERT INTO T VALUES ($1, $2, $3)`
	// The paper's §2 logical deletion: the current version's TTEnd = UC is
	// replaced by a ground value, located by its old extent.
	sqlDel = `UPDATE T SET X = $1 WHERE Equal(X, $2)`
)

// readStmt is one generated read statement with the oracle's answer on the
// loaded table at the data set's current time.
type readStmt struct {
	Kind opKind
	Agg  int             // aggCount/aggMin/aggMax for opAgg
	Q    temporal.Extent // the query region
	Text string          // ad-hoc statements only: the full SQL text
	Want answer
}

// answer is what the oracle expects a statement to return. Count and Sum
// (of N) identify the row set without keeping it; Ext is the MIN/MAX value.
type answer struct {
	Count int
	Sum   int64
	Ext   temporal.Extent
}

// logicalDelete closes every current row whose extent equals Old.
type logicalDelete struct {
	Old, New temporal.Extent
	Ns       []int64 // rows the oracle expects the UPDATE to touch
}

// writeTxn is one writer transaction of ingest_mixed.
type writeTxn struct {
	Day     chronon.Instant // the virtual clock while it runs
	Inserts []row
	Deletes []logicalDelete
}

// dataset is everything generated for one workload run.
type dataset struct {
	Seed  int64
	Start chronon.Instant
	Now   chronon.Instant // virtual clock after the load
	Rows  []row
	Pools [numOps][]readStmt
	// Mix is the repeating pattern of statement kinds a reader cycles
	// through; its composition is the workload's stated mix.
	Mix  []opKind
	Txns []writeTxn
}

// genSizes are the frozen sizes of a workload's generated input.
type genSizes struct {
	Rows     int
	Days     int            // the history the rows are spread over
	Pool     [numOps]int    // distinct statements per kind
	ProbeMax int            // most rows a probe may return
	MixParts map[opKind]int // parts per hundred
	Txns     int            // write transactions generated (ingest_mixed)
}

const (
	insertsPerTxn = 32
	deletesPerTxn = 8
	txnsPerDay    = 10
)

// Selectivity bands, as fractions of the table, that generated statements
// are held to (probes: the workload's absolute row cap, genSizes.ProbeMax).
const (
	scanSelLo = 0.005
	scanSelHi = 0.02
	aggSelLo  = 0.05
	aggSelHi  = 0.15
)

func generate(seed int64, sz genSizes) (*dataset, error) {
	d := &dataset{Seed: seed, Start: chronon.MustParse("1/95")}
	d.Rows = genRows(rand.New(rand.NewSource(seed*7+1)), d.Start, sz.Rows, sz.Days)
	d.Now = d.Start + chronon.Instant(sz.Days) + 30

	o := newOracle(d.Rows, d.Now)
	var err error
	for k := opProbe; k <= opAgg; k++ {
		if sz.Pool[k] == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seed*7 + 2 + int64(k)))
		if d.Pools[k], err = genPool(rng, o, d, k, sz.Pool[k], sz.ProbeMax); err != nil {
			return nil, err
		}
	}
	d.Mix = genMix(rand.New(rand.NewSource(seed*7+6)), sz.MixParts)
	if sz.Txns > 0 {
		d.Txns = genTxns(rand.New(rand.NewSource(seed*7+5)), d, sz.Txns)
	}
	return d, nil
}

// genRows produces the final state of the paper's §2 insertion process:
// rows arrive day by day with TTBegin = that day and TTEnd = UC, half of
// them valid until NOW, and 30 % are logically deleted on a later day,
// which grounds their TTEnd.
func genRows(rng *rand.Rand, start chronon.Instant, n, days int) []row {
	rows := make([]row, n)
	for i := range rows {
		day := start + chronon.Instant(i*days/n)
		x := newExtent(rng, day)
		if rng.Float64() < 0.3 {
			left := int64(start) + int64(days) - int64(day)
			// Deleted on a later day dd: TTEnd = dd-1 >= day.
			x.TTEnd = day + chronon.Instant(rng.Int63n(left+1))
		}
		rows[i] = row{N: int64(i), Name: genName(rng, i), X: x}
	}
	return rows
}

// newExtent draws the extent of a row inserted on day: valid time starts up
// to 120 days back and either tracks NOW or ends within 120 days.
func newExtent(rng *rand.Rand, day chronon.Instant) temporal.Extent {
	vtb := day - chronon.Instant(rng.Int63n(120))
	x := temporal.Extent{TTBegin: day, TTEnd: chronon.UC, VTBegin: vtb, VTEnd: chronon.NOW}
	if rng.Float64() >= 0.5 {
		x.VTEnd = vtb + chronon.Instant(rng.Int63n(120))
	}
	return x
}

func genName(rng *rand.Rand, i int) string {
	return fmt.Sprintf("emp-%07d-%06x", i, rng.Intn(1<<24))
}

func genMix(rng *rand.Rand, parts map[opKind]int) []opKind {
	var mix []opKind
	for k := opKind(0); k < numOps; k++ {
		for i := 0; i < parts[k]; i++ {
			mix = append(mix, k)
		}
	}
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// genPool draws n statements of one kind, rejecting candidates whose oracle
// answer falls outside the kind's selectivity band. Positions in the history
// (the probe's anchor row, the scan's transaction time) are stratified: the
// i-th statement draws from the i-th of n equal slices, so that two seeds
// spread their statements over the history alike and a metric differs
// between seeds by the statements' details, not by where they happen to
// cluster. A slice that yields nothing in eight draws (aggregate windows
// late in the history always exceed their band) gives way to a uniform draw.
func genPool(rng *rand.Rand, o *oracle, d *dataset, kind opKind, n, probeMax int) ([]readStmt, error) {
	pool := make([]readStmt, 0, n)
	anchors := closedGroundRows(d.Rows)
	if len(anchors) == 0 {
		return nil, fmt.Errorf("gen: no closed ground row to anchor probes on")
	}
	days := float64(d.Now-d.Start) - 30
	slotTries := 0
	for tries := 0; len(pool) < n; tries++ {
		if tries > 400*n+4000 {
			return nil, fmt.Errorf("gen: %s pool: only %d of %d candidates fell in the selectivity band",
				opNames[kind], len(pool), n)
		}
		u := rng.Float64()
		if slotTries++; slotTries <= 8 {
			u = (float64(len(pool)) + u) / float64(n)
		}
		st := readStmt{Kind: kind}
		switch kind {
		case opProbe, opAdhoc:
			// A window a day or two wider than one closed, ground row:
			// ContainedIn returns that row and its few close neighbours.
			a := d.Rows[anchors[int(u*float64(len(anchors)))]].X
			st.Q = temporal.Extent{
				TTBegin: a.TTBegin - chronon.Instant(rng.Int63n(3)),
				TTEnd:   a.TTEnd + chronon.Instant(rng.Int63n(3)),
				VTBegin: a.VTBegin - chronon.Instant(rng.Int63n(3)),
				VTEnd:   a.VTEnd + chronon.Instant(rng.Int63n(3)),
			}
			st.Want = o.evalUpTo(predContainedIn, st.Q, probeMax)
			if st.Want.Count < 1 || st.Want.Count > probeMax {
				continue
			}
			if kind == opAdhoc {
				st.Text = fmt.Sprintf(`SELECT N, Name, X FROM T WHERE ContainedIn(X, '%v')`, st.Q)
			}
		case opScan:
			// A timeslice: what was recorded during a few days around t
			// about a valid-time window that lies after t. Rows still
			// valid "until NOW" as of t do not reach it, which keeps the
			// answer near 1 % wherever t falls in the history.
			t := d.Start + chronon.Instant(u*days)
			v := t + 1 + chronon.Instant(rng.Int63n(30))
			st.Q = o.fit(temporal.Extent{
				TTBegin: t, TTEnd: t + chronon.Instant(rng.Int63n(6)), VTBegin: v,
			}, scanSelLo+(scanSelHi-scanSelLo)*(0.05+0.4*rng.Float64()))
			st.Want = o.eval(predOverlaps, st.Q)
			if !inBand(st.Want.Count, len(d.Rows), scanSelLo, scanSelHi) {
				continue
			}
		case opAgg:
			// A wider window reaching back before t, so it also takes in
			// the rows valid until NOW.
			t := d.Start + chronon.Instant(u*days)
			v := t - chronon.Instant(rng.Int63n(90))
			st.Q = o.fit(temporal.Extent{
				TTBegin: t, TTEnd: t + chronon.Instant(rng.Int63n(30)), VTBegin: v,
			}, aggSelLo+(aggSelHi-aggSelLo)*(0.15+0.7*rng.Float64()))
			st.Agg = len(pool) % len(aggNames)
			st.Want = o.evalAgg(st.Agg, st.Q)
			if !inBand(st.Want.Count, len(d.Rows), aggSelLo, aggSelHi) {
				continue
			}
		}
		pool = append(pool, st)
		slotTries = 0
	}
	// Issue them in no particular order of history.
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

func closedGroundRows(rows []row) []int {
	var out []int
	for i, r := range rows {
		if r.X.TTEnd != chronon.UC && r.X.VTEnd != chronon.NOW {
			out = append(out, i)
		}
	}
	return out
}

// genTxns generates the writer's transactions against a simulated copy of
// the table, so every logical deletion names an extent that is current when
// its transaction runs and the oracle knows which rows it closes.
func genTxns(rng *rand.Rand, d *dataset, n int) []writeTxn {
	// current maps an extent to the rows that carry it with TTEnd = UC.
	current := make(map[temporal.Extent][]int64)
	var keys []temporal.Extent // extents in current, for uniform picks
	add := func(r row) {
		if _, ok := current[r.X]; !ok {
			keys = append(keys, r.X)
		}
		current[r.X] = append(current[r.X], r.N)
	}
	for _, r := range d.Rows {
		if r.X.TTEnd == chronon.UC {
			add(r)
		}
	}
	next := int64(len(d.Rows))
	txns := make([]writeTxn, n)
	// Rows become deletable the day after they arrive. A row closed on its
	// own insertion day would keep a one-chronon transaction time that, at
	// that day's current time, has the same shape as a still-current twin,
	// and Equal would then name both.
	var today []row
	for j := range txns {
		day := d.Now + chronon.Instant(j/txnsPerDay)
		if j%txnsPerDay == 0 {
			for _, r := range today {
				add(r)
			}
			today = today[:0]
		}
		tx := writeTxn{Day: day}
		for i := 0; i < deletesPerTxn && len(keys) > 0; i++ {
			k := rng.Intn(len(keys))
			old := keys[k]
			keys[k] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			closed, err := old.Deleted(day)
			if err != nil {
				panic(err) // keys holds current extents only
			}
			tx.Deletes = append(tx.Deletes, logicalDelete{Old: old, New: closed, Ns: current[old]})
			delete(current, old)
		}
		for i := 0; i < insertsPerTxn; i++ {
			r := row{N: next, Name: genName(rng, int(next)), X: newExtent(rng, day)}
			next++
			tx.Inserts = append(tx.Inserts, r)
			today = append(today, r)
		}
		txns[j] = tx
	}
	return txns
}

// apply folds the first n transactions into a copy of the loaded table:
// the state an engine must show once those n are acknowledged.
func (d *dataset) apply(n int) []row {
	rows := append([]row(nil), d.Rows...)
	for _, tx := range d.Txns[:n] {
		for _, del := range tx.Deletes {
			for _, id := range del.Ns {
				rows[id].X = del.New
			}
		}
		rows = append(rows, tx.Inserts...)
	}
	return rows
}

// loadFile renders the rows in the LOAD command's delimited text form.
func loadFile(rows []row) []byte {
	var b strings.Builder
	b.Grow(len(rows) * 80)
	for _, r := range rows {
		fmt.Fprintf(&b, "%d|%s|%v\n", r.N, r.Name, r.X)
	}
	return []byte(b.String())
}

// Oracle -----------------------------------------------------------------------

type pred int

const (
	predOverlaps pred = iota
	predContainedIn
	predEqual
)

// oracle answers a predicate by testing rows with internal/temporal at one
// current time. Shapes are resolved once per oracle, not per test: the
// predicate functions of temporal.Region resolve both sides at ct and then
// compare shapes, which is what match does. Generated tables are ordered by
// TTBegin, and a row inside or equal to q cannot begin before q does or
// after q ends, so those two predicates test only that run of rows.
type oracle struct {
	rows   []row
	shapes []temporal.Shape
	ct     chronon.Instant
	sorted bool // rows ascend by TTBegin
}

func newOracle(rows []row, ct chronon.Instant) *oracle {
	o := &oracle{rows: rows, ct: ct, shapes: make([]temporal.Shape, len(rows)), sorted: true}
	for i, r := range rows {
		o.shapes[i] = r.X.Region().Resolve(ct)
		if i > 0 && r.X.TTBegin < rows[i-1].X.TTBegin {
			o.sorted = false
		}
	}
	return o
}

func match(p pred, row, q temporal.Shape) bool {
	switch p {
	case predOverlaps:
		return row.Overlaps(q)
	case predContainedIn:
		return q.ContainsShape(row)
	default:
		return row.EqualShape(q)
	}
}

// span returns the index range of rows that can satisfy p against q.
func (o *oracle) span(p pred, qs temporal.Shape) (int, int) {
	if !o.sorted || p == predOverlaps {
		return 0, len(o.rows)
	}
	lo := sort.Search(len(o.shapes), func(i int) bool { return o.shapes[i].TTBegin >= qs.TTBegin })
	hi := sort.Search(len(o.shapes), func(i int) bool { return o.shapes[i].TTBegin > qs.TTEnd })
	return lo, hi
}

func (o *oracle) eval(p pred, q temporal.Extent) answer { return o.evalUpTo(p, q, len(o.rows)) }

// evalUpTo is eval that gives up once more than limit rows match; callers
// that only want to know whether an answer is small use it to reject a
// candidate without paying for a full pass.
func (o *oracle) evalUpTo(p pred, q temporal.Extent, limit int) answer {
	qs := q.Region().Resolve(o.ct)
	var a answer
	lo, hi := o.span(p, qs)
	for i := lo; i < hi && a.Count <= limit; i++ {
		if match(p, o.shapes[i], qs) {
			a.Count++
			a.Sum += o.rows[i].N
		}
	}
	return a
}

func inBand(count, rows int, lo, hi float64) bool {
	s := float64(count) / float64(rows)
	return s >= lo && s <= hi
}

// fit sets q's valid-time window to the length, up to 400 days, at which
// Overlaps(X, q) selects the share of the table closest to target. The
// share only grows with the length, so it bisects; it tests a sample of the
// rows, and the caller checks the exact answer against its band.
func (o *oracle) fit(q temporal.Extent, target float64) temporal.Extent {
	stride := max(1, len(o.shapes)/2000)
	share := func(length int64) float64 {
		q.VTEnd = q.VTBegin + chronon.Instant(length)
		qs := q.Region().Resolve(o.ct)
		n, hit := 0, 0
		for i := 0; i < len(o.shapes); i += stride {
			n++
			if o.shapes[i].Overlaps(qs) {
				hit++
			}
		}
		return float64(hit) / float64(n)
	}
	lo, hi := int64(1), int64(400)
	for lo < hi {
		mid := (lo + hi) / 2
		if share(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.VTEnd = q.VTBegin + chronon.Instant(lo)
	return q
}

// evalAgg answers COUNT(*), MIN(X) or MAX(X) over the rows overlapping q.
// Extents order by their four timestamps, the order the blade's Compare
// support function defines.
func (o *oracle) evalAgg(agg int, q temporal.Extent) answer {
	qs := q.Region().Resolve(o.ct)
	var a answer
	for i, s := range o.shapes {
		if !s.Overlaps(qs) {
			continue
		}
		x := o.rows[i].X
		if a.Count == 0 || (agg == aggMin && extentLess(x, a.Ext)) || (agg == aggMax && extentLess(a.Ext, x)) {
			a.Ext = x
		}
		a.Count++
	}
	return a
}

func extentLess(a, b temporal.Extent) bool {
	ka := [4]chronon.Instant{a.TTBegin, a.TTEnd, a.VTBegin, a.VTEnd}
	kb := [4]chronon.Instant{b.TTBegin, b.TTEnd, b.VTBegin, b.VTEnd}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return false
}

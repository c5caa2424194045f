package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// small returns the workload at a test-only scale: a fiftieth of the rows.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %s", name)
	}
	return w.scaled(50)
}

// scaled shrinks a workload's table. The history keeps its length: what
// share of the table a time window selects depends on the window's length
// against the history's, not on how many rows there are.
func (w *workload) scaled(div int) *workload {
	c := *w
	c.Size.Rows = max(w.Size.Rows/div, 600)
	for k := range c.Size.Pool {
		c.Size.Pool[k] = min(w.Size.Pool[k], 64)
	}
	c.Size.Txns = min(w.Size.Txns, 300)
	return &c
}

func useTempOut(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	outOverride = dir
	t.Cleanup(func() { outOverride = "" })
	return dir
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, what string, got map[string]metric, specs []metricSpec, nonzero bool) {
	t.Helper()
	if len(got) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(specs))
	}
	for _, spec := range specs {
		m, ok := got[spec.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", what, spec.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, spec.Name, m.Value)
		case nonzero && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", what, spec.Name, m.Value)
		case m.Unit != spec.Unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", what, spec.Name, m.Unit, spec.Unit)
		}
	}
}

// TestSmoke runs every workload both ways at a tiny scale for half a second:
// every declared metric comes out once with a finite value, nothing fails,
// and the trace file parses with every span's parent present.
func TestSmoke(t *testing.T) {
	out := useTempOut(t)
	for _, full := range workloads() {
		w := small(t, full.Name)
		res, err := measure(w, 3, 500*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, res.Attempted, res.Failed)
		}
		checkMetrics(t, w.Name, res.Metrics, endToEnd, true)

		res, err = traceRun(w, 3, 500*time.Millisecond)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced: attempted %d, failed %d", w.Name, res.Attempted, res.Failed)
		}
		checkMetrics(t, w.Name+" traced", res.Metrics, perLayer, false)
		checkTrace(t, filepath.Join(out, "trace-"+w.Name+".jsonl"))
	}
	if left, _ := filepath.Glob(filepath.Join(out, "tmp", "*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[int64]bool{0: true}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ids[s.ID] = true
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
	for _, s := range spans {
		if !ids[s.Parent] {
			t.Errorf("%s: span %d has unknown parent %d", path, s.ID, s.Parent)
		}
		if s.End < s.Start || s.Layer == "" || s.Name == "" || s.Stmt == 0 {
			t.Errorf("%s: malformed span %+v", path, s)
		}
	}
}

// TestGeneratorDeterminism: one seed gives byte-identical data, statements
// and oracle answers; another seed gives other literals whose answers stay
// inside the stated selectivity bands.
func TestGeneratorDeterminism(t *testing.T) {
	for _, full := range workloads() {
		w := small(t, full.Name)
		a, err := generate(7, w.Size)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(7, w.Size)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) || !bytes.Equal(loadFile(a.Rows), loadFile(b.Rows)) {
			t.Errorf("%s: two generations from seed 7 differ", w.Name)
		}
		c, err := generate(8, w.Size)
		if err != nil {
			t.Fatal(err)
		}
		for k := range a.Pools {
			if len(a.Pools[k]) > 0 && reflect.DeepEqual(a.Pools[k], c.Pools[k]) {
				t.Errorf("%s: seeds 7 and 8 generate the same %s statements", w.Name, opNames[k])
			}
		}
		for _, d := range []*dataset{a, c} {
			rows := float64(len(d.Rows))
			for _, pool := range d.Pools {
				for _, st := range pool {
					share := float64(st.Want.Count) / rows
					switch st.Kind {
					case opProbe, opAdhoc:
						if st.Want.Count < 1 || st.Want.Count > w.Size.ProbeMax {
							t.Errorf("%s seed %d: probe %v returns %d rows", w.Name, d.Seed, st.Q, st.Want.Count)
						}
					case opScan:
						if share < scanSelLo || share > scanSelHi {
							t.Errorf("%s seed %d: scan %v selects %.4f of the table", w.Name, d.Seed, st.Q, share)
						}
					case opAgg:
						if share < aggSelLo || share > aggSelHi {
							t.Errorf("%s seed %d: aggregate window %v covers %.4f of the table", w.Name, d.Seed, st.Q, share)
						}
					}
				}
			}
		}
	}
}

// TestCountsRepeat: with one client, the daemons off and a fixed number of
// statements, the count metrics are a property of the statements and repeat
// exactly from run to run.
func TestCountsRepeat(t *testing.T) {
	useTempOut(t)
	w := small(t, "scan_embedded")
	w.NoDaemons = true
	const stmts = 60
	run := func() map[string]float64 {
		r, err := newRig(w, 5, false)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		m := make(map[string]float64)
		reg := r.b.e.Obs()
		snap := reg.Snapshot()
		var rec recorder
		readLoop(r.reader, r.d, &r.cu, nil, stmts, &rec, true, nil)
		delta := reg.Snapshot().Delta(snap)
		if n, _, _ := rec.totals(); rec.failed != 0 || n != stmts {
			t.Fatalf("%d statements, %d failed", n, rec.failed)
		}
		countMetrics(m, delta, stmts, 0, 0, time.Second)
		lad := &ladder{r: r, tr: &tracer{epoch: time.Now()}, checks: &rec}
		for i := 0; i < stmts; i++ {
			if err := lad.read(r.cu.stmt(r.d)); err != nil {
				t.Fatal(err)
			}
		}
		lad.metrics(m)
		return m
	}
	a, b := run(), run()
	for _, name := range []string{
		"am.beginscan_per_stmt", "am.getmulti_per_stmt", "am.scancost_per_stmt", "am.aggregate_pushed_ratio",
		"bufferpool.fetches_per_stmt", "sbspace.lo_opens_per_stmt", "lock.acquires_per_stmt",
		"grtree.nodes_read_per_search.scan", "grtree.nodes_read_per_search.agg",
		"heap.rids_per_page_run", "engine.rows_scanned_per_returned",
	} {
		if a[name] != b[name] {
			t.Errorf("%s: %v in one run, %v in the next", name, a[name], b[name])
		}
		if strings.HasPrefix(name, "bufferpool.") && a[name] == 0 {
			t.Errorf("%s is 0", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestCompare(t *testing.T) {
	mk := func(scale, jitter float64) string {
		f := benchFile{Seconds: 10, Workloads: map[string]*benchWorkload{}}
		for _, w := range workloads() {
			bw := &benchWorkload{EndToEnd: map[string]benchSeries{}}
			for _, spec := range endToEnd {
				v := 100.0
				if spec.Name == "main_p50_us" {
					v *= scale
				}
				bw.EndToEnd[spec.Name] = benchSeries{Unit: spec.Unit,
					Values: []float64{v, v * (1 + jitter), v * (1 - jitter), v, v * (1 + jitter/2)}}
			}
			f.Workloads[w.Name] = bw
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "BENCH.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(1, 0.01)
	for _, tc := range []struct {
		name, other, want string
		code              int
	}{
		{"same", mk(1.05, 0.01), "ok", 0},
		{"slower", mk(1.30, 0.01), "worse", 1},
		{"noisy", mk(1, 0.40), "unresolved", 3},
	} {
		var out bytes.Buffer
		code, err := compareFiles(&out, base, tc.other)
		if err != nil {
			t.Fatal(err)
		}
		if code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with a %q row:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the declarations in spec.go and
// db.go, and to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var f struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", f.Paths, f.RunSeconds)
	}
	ws := workloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d defined", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %+v, defined %s: %s", i, f.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []jm, specs []metricSpec, bounded bool) {
		if len(got) != len(specs) {
			t.Fatalf("%s: %d declared in BENCHMARK.json, %d in spec.go", kind, len(got), len(specs))
		}
		for i, spec := range specs {
			g := got[i]
			if g.Name != spec.Name || g.Unit != spec.Unit || g.Better != spec.Better || !nameRE.MatchString(g.Name) || len(g.Unit) > 16 {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go has %+v", kind, i, g, spec)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != spec.Bound || *g.Bound > 0.25 || *g.Bound <= 0)) {
				t.Errorf("%s %s: bound %v, spec %v", kind, g.Name, g.Bound, spec.Bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract", len(perLayer), len(endToEnd))
	}
}

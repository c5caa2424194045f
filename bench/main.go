// Command bench is tinyblade's statement benchmark: four workloads that
// stress different layers, end-to-end metrics measured with tracing off,
// and a per-layer ledger from a separate traced run. BENCHMARK.json at the
// repository root declares it; README.md in this directory explains it.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run; last line is the result as JSON
//	bench --seed N [--runs K]                             every workload, both ways; writes out/BENCH.json
//	bench -compare A.json B.json                          compare two BENCH.json files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print one JSON result line (default: run all)")
		seed    = flag.Int64("seed", 1, "seed of the generated data and statements")
		seconds = flag.Int("seconds", 10, "length of the timed run")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
		runs    = flag.Int("runs", 1, "untraced runs per workload when running all")
		compare = flag.Bool("compare", false, "compare two BENCH.json files given as arguments")
	)
	flag.Parse()
	code, err := realMain(*name, *seed, *seconds, *trace, *runs, *compare, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// runLimit is how long a single-workload run may take before it is
// abandoned without a result.
const runLimit = 170 * time.Second

func realMain(name string, seed int64, seconds, trace, runs int, compare bool, args []string) (int, error) {
	if compare {
		if len(args) != 2 {
			return 2, fmt.Errorf("-compare takes two BENCH.json files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if seconds < 1 {
		return 2, fmt.Errorf("--seconds must be at least 1")
	}
	dur := time.Duration(seconds) * time.Second
	if name == "" {
		return runAll(seed, dur, runs)
	}
	w := workloadByName(name)
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q", name)
	}
	// A run that hangs must still end: the driver allows 180 s.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s still running after %v, giving up; goroutines:\n", name, runLimit)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(3)
	})
	res, err := runOne(w, seed, dur, trace != 0)
	if err != nil {
		return 2, err
	}
	printResult(w, res)
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	if res.Failed != 0 {
		return 1, nil
	}
	return 0, nil
}

func runOne(w *workload, seed int64, dur time.Duration, traced bool) (*runResult, error) {
	if traced {
		return traceRun(w, seed, dur)
	}
	return measure(w, seed, dur)
}

// printResult lists every metric by name with its unit, then the latency
// detail lines (sample counts and tail percentiles).
func printResult(w *workload, res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("== %s: attempted %d, failed %d\n", w.Name, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, l := range res.Detail {
		fmt.Println("  " + l)
	}
}

// benchFile is the shape of BENCH.json: per workload, every end-to-end
// metric's value in each untraced run, and the traced run's per-layer
// metrics.
type benchFile struct {
	Env       map[string]any            `json:"env"`
	Seed      int64                     `json:"seed"`
	Seconds   int                       `json:"seconds"`
	Workloads map[string]*benchWorkload `json:"workloads"`
}

type benchWorkload struct {
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]benchSeries `json:"end_to_end"`
	PerLayer  map[string]metric      `json:"per_layer"`
}

type benchSeries struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// environment is recorded beside the numbers, not as a metric.
func environment() map[string]any {
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

// runAll runs every workload untraced (runs times) and traced (once),
// prints every metric, and writes BENCH.json beside the trace files.
func runAll(seed int64, dur time.Duration, runs int) (int, error) {
	out := benchFile{Env: environment(), Seed: seed, Seconds: int(dur.Seconds()), Workloads: make(map[string]*benchWorkload)}
	fmt.Printf("env: %v\n", out.Env)
	failed := int64(0)
	for _, w := range workloads() {
		bw := &benchWorkload{EndToEnd: make(map[string]benchSeries)}
		out.Workloads[w.Name] = bw
		for i := 0; i < max(runs, 1); i++ {
			res, err := measure(w, seed, dur)
			if err != nil {
				return 2, fmt.Errorf("%s: %w", w.Name, err)
			}
			printResult(w, res)
			bw.Attempted += res.Attempted
			bw.Failed += res.Failed
			for n, m := range res.Metrics {
				s := bw.EndToEnd[n]
				s.Unit = m.Unit
				s.Values = append(s.Values, m.Value)
				bw.EndToEnd[n] = s
			}
		}
		res, err := traceRun(w, seed, dur)
		if err != nil {
			return 2, fmt.Errorf("%s traced: %w", w.Name, err)
		}
		printResult(w, res)
		bw.Attempted += res.Attempted
		bw.Failed += res.Failed
		bw.PerLayer = res.Metrics
		failed += bw.Failed
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return 2, err
	}
	path := filepath.Join(outDir(), "BENCH.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return 2, err
	}
	fmt.Printf("wrote %s\n", path)
	if failed != 0 {
		return 1, fmt.Errorf("%d statements failed or returned a wrong answer", failed)
	}
	return 0, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles prints one row per (workload, end-to-end metric) of two
// BENCH.json files, A the parent and B the change: both medians, how much
// worse B is as a share of A, the metric's bound, and a verdict:
//
//	ok          B is not worse than A by more than the bound
//	worse       it is
//	unresolved  either side's own runs spread (interquartile range over
//	            median) wider than the bound, so the comparison says nothing
//
// The exit status is 1 if any row is worse, else 3 if any is unresolved,
// else 0. A spread needs at least four runs a side (bench --runs 5).
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readBench(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readBench(pathB)
	if err != nil {
		return 2, err
	}
	if a.Seconds != b.Seconds {
		fmt.Fprintf(w, "note: run lengths differ (%ds against %ds)\n", a.Seconds, b.Seconds)
	}
	fmt.Fprintf(w, "%-14s %-13s %14s %14s %9s %6s %8s %8s  %s\n",
		"workload", "metric", "A", "B", "worse by", "bound", "spreadA", "spreadB", "verdict")
	worse, unresolved := 0, 0
	for _, wl := range workloads() {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			return 2, fmt.Errorf("workload %s is missing from one file", wl.Name)
		}
		for _, spec := range endToEnd {
			va, vb := wa.EndToEnd[spec.Name].Values, wb.EndToEnd[spec.Name].Values
			if len(va) == 0 || len(vb) == 0 {
				return 2, fmt.Errorf("%s/%s is missing from one file", wl.Name, spec.Name)
			}
			ma, mb := medianOf(va), medianOf(vb)
			by := (mb - ma) / ma
			if spec.Better == "higher" {
				by = -by
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case sa > spec.Bound || sb > spec.Bound:
				verdict = "unresolved"
				unresolved++
			case by > spec.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(w, "%-14s %-13s %14.4f %14.4f %+8.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, spec.Name, ma, mb, by*100, spec.Bound*100, sa*100, sb*100, verdict)
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			fmt.Fprintf(w, "%-14s failed statements: A %d, B %d\n", wl.Name, wa.Failed, wb.Failed)
			worse++
		}
	}
	switch {
	case worse > 0:
		return 1, nil
	case unresolved > 0:
		return 3, nil
	}
	return 0, nil
}

func readBench(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func medianOf(v []float64) float64 { return quartiles(v)[1] }

// spread is the interquartile range as a share of the median; 0 when there
// are too few runs to have one.
func spread(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	q := quartiles(v)
	return (q[2] - q[0]) / q[1]
}

// quartiles are the three cut points Python's statistics.quantiles(v, n=4)
// returns (the exclusive method), which is what the driver computes.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

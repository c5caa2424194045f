package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner executes one experiment against a writer.
type Runner struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
}

// All returns the experiment registry in run order. root is the repository
// root (T4's LOC inventory); quick shrinks the performance workloads.
func All(root string, quick bool) []Runner {
	scale := func(full, small int) int {
		if quick {
			return small
		}
		return full
	}
	return []Runner{
		{"T1", "Table 1: the EmpDep relation", RunT1},
		{"F2", "Figures 1-2: the six timestamp combinations", RunF2},
		{"F3", "Figure 3: R*-tree example, dead space", RunF3},
		{"F4", "Figure 4: minimum bounding regions", RunF4},
		{"F5", "Figure 5: GR-tree structure", RunF5},
		{"F6", "Figure 6: purpose-function call sequences", RunF6},
		{"T2", "Table 2: purpose-function tasks", RunT2},
		{"T3", "Table 3 / Figure 8: the Julie query", RunT3},
		{"T4", "Table 4: implementation inventory", func(w io.Writer) error {
			_, err := RunT4(w, root)
			return err
		}},
		{"T5", "Table 5 / Appendix A: purpose-function protocol", RunT5},
		{"P1", "Search I/O: GR-tree vs R*-tree substitutes", func(w io.Writer) error {
			cfg := DefaultWorkload()
			cfg.Tuples = scale(5000, 1200)
			cfg.Days = scale(500, 120)
			_, err := RunP1(w, cfg)
			return err
		}},
		{"P2", "Overlap and dead space", func(w io.Writer) error {
			cfg := DefaultWorkload()
			cfg.Tuples = scale(5000, 1200)
			cfg.Days = scale(500, 120)
			_, err := RunP2(w, cfg)
			return err
		}},
		{"P3", "sbspace placement ablation", func(w io.Writer) error {
			_, err := RunP3(w, scale(3000, 800))
			return err
		}},
		{"P4", "Deletion-policy ablation", func(w io.Writer) error {
			_, err := RunP4(w, scale(3000, 800))
			return err
		}},
		{"P5", "Strategy dispatch: hard-coded vs dynamic", func(w io.Writer) error {
			_, err := RunP5(w, scale(1500, 300), scale(50, 10))
			return err
		}},
		{"P6", "Current-time policy demonstration", RunP6},
	}
}

// Run executes the selected experiment ids ("all" or empty = everything).
func Run(w io.Writer, root string, quick bool, ids ...string) error {
	runners := All(root, quick)
	want := map[string]bool{}
	for _, id := range ids {
		if id != "" && id != "all" {
			want[id] = true
		}
	}
	known := map[string]bool{}
	for _, r := range runners {
		known[r.ID] = true
	}
	var unknown []string
	for id := range want {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("experiments: unknown ids %v", unknown)
	}
	for _, r := range runners {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		fmt.Fprintf(w, "=== %s — %s ===\n", r.ID, r.Title)
		if err := r.Run(w); err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

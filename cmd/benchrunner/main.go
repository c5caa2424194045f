// Command benchrunner regenerates every table and figure of the paper
// reproduction (DESIGN.md's experiment index): the functional experiments
// T1–T5 and F2–F6 plus the performance-shape experiments P1–P6. Features
// beyond the paper are measured by the statement benchmark in bench/.
//
// Usage:
//
//	benchrunner                  # run everything at full scale
//	benchrunner -quick           # smaller workloads (CI-sized)
//	benchrunner -exp P1,P2       # selected experiments
//	benchrunner -root ../..      # repository root (T4's LOC inventory)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiment ids (T1,F2,...,P6) or 'all'")
		quick = flag.Bool("quick", false, "run reduced workloads")
		root  = flag.String("root", ".", "repository root for the T4 code inventory")
	)
	flag.Parse()
	ids := strings.Split(*exp, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	if err := experiments.Run(os.Stdout, *root, *quick, ids...); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

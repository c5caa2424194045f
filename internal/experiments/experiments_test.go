package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/blades/rstblade"
	"repro/internal/chronon"
	"repro/internal/grtree"
	"repro/internal/rstar"
)

func TestFunctionalExperiments(t *testing.T) {
	// Each table/figure experiment asserts its own paper-shape conditions
	// internally; a failure here means the reproduction regressed.
	var buf bytes.Buffer
	for _, id := range []string{"T1", "F2", "F3", "F4", "F5", "F6", "T2", "T3", "T5"} {
		buf.Reset()
		if err := Run(&buf, "../..", true, id); err != nil {
			t.Fatalf("%s: %v\noutput:\n%s", id, err, buf.String())
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestT1MatchesTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := RunT1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The six tuples of Table 1 at month granularity.
	for _, want := range []string{
		"John       Advertising      4/97       UC     3/97     5/97",
		"Tom        Management       3/97     7/97     6/97     8/97",
		"Jane       Sales            5/97       UC     5/97      NOW",
		"Julie      Sales            3/97     7/97     3/97      NOW",
		"Julie      Sales            8/97       UC     3/97     7/97",
		"Michelle   Management       5/97       UC     3/97      NOW",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("T1 output missing %q\ngot:\n%s", want, out)
		}
	}
}

func TestT4CountsCode(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunT4(&buf, "../..")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]int{}
	for _, r := range rows {
		if r.LOC <= 0 {
			t.Errorf("row %q counted no code", r.Task)
		}
		listed[r.Module] = r.LOC
	}
	for _, shared := range []string{"internal/rtree", "internal/blades/treeblade"} {
		if listed[shared] == 0 {
			t.Errorf("the inventory does not list %s", shared)
		}
	}
	// The blade's two rows split one package; neither counts the other's code.
	if typ, rest := listed["internal/blades/grtblade/type.go"], listed["internal/blades/grtblade (the rest)"]; typ == 0 || rest == 0 || typ >= rest {
		t.Errorf("grtblade split %d (type) / %d (rest)", typ, rest)
	}
}

func TestWorkloadGenerator(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.Tuples = 300
	cfg.Days = 60
	w := Generate(cfg)
	if len(w.Final) != 300 {
		t.Fatalf("final tuples: %d", len(w.Final))
	}
	inserts, deletes := 0, 0
	for _, ev := range w.Events {
		if ev.Insert {
			inserts++
			if !ev.Extent.Valid() {
				t.Fatalf("invalid generated extent %v", ev.Extent)
			}
			if err := ev.Extent.ValidateInsert(ev.Day); err != nil {
				t.Fatalf("insert constraints: %v", err)
			}
		} else {
			deletes++
			if !ev.Closed.Valid() || ev.Closed.Current() {
				t.Fatalf("bad closed extent %v", ev.Closed)
			}
		}
	}
	if inserts != 300 || deletes == 0 {
		t.Fatalf("events: %d inserts %d deletes", inserts, deletes)
	}
	if len(w.Queries) == 0 || w.EndCT <= cfg.Start {
		t.Fatal("queries / end time")
	}
	// Determinism.
	w2 := Generate(cfg)
	if len(w2.Events) != len(w.Events) || w2.Events[17] != w.Events[17] {
		t.Fatal("generator must be deterministic per seed")
	}
}

// TestAdaptersAgreeWithTruth: replaying the same workload, the GR-tree and
// the max-substitution R*-tree must both produce exactly the ground truth.
func TestAdaptersAgreeWithTruth(t *testing.T) {
	cfg := DefaultWorkload()
	cfg.Tuples = 400
	cfg.Days = 80
	w := Generate(cfg)

	grt, err := NewGRTIndex(grtree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mx, err := NewRSTIndex(rstar.DefaultConfig(), rstblade.SubMax, chronon.FromDate(9999, 12, 31))
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(w, grt); err != nil {
		t.Fatal(err)
	}
	if err := Replay(w, mx); err != nil {
		t.Fatal(err)
	}
	if err := grt.Tree.Check(w.EndCT); err != nil {
		t.Fatal(err)
	}
	if err := mx.Tree.Check(); err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries[:50] {
		truth := w.TrueMatches(q, w.EndCT)
		g, err := grt.SearchCount(q, w.EndCT)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mx.SearchCount(q, w.EndCT)
		if err != nil {
			t.Fatal(err)
		}
		if g != truth {
			t.Fatalf("query %d: GR-tree %d vs truth %d", i, g, truth)
		}
		if m != truth {
			t.Fatalf("query %d: R*-MX %d vs truth %d", i, m, truth)
		}
	}
}

// TestP1Shape asserts the headline performance shape on a small workload:
// on fully now-relative data the GR-tree reads fewer nodes per query than
// the max-timestamp R*-tree, and the frozen R*-tree loses recall.
func TestP1Shape(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultWorkload()
	cfg.Tuples = 1200
	cfg.Days = 120
	rows, err := RunP1(&buf, cfg)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	byKey := map[string]P1Row{}
	for _, r := range rows {
		byKey[r.Index+"@"+itoa(r.NowFrac)] = r
	}
	grt1 := byKey["GR-tree@1.00"]
	mx1 := byKey["R*-MX@1.00"]
	ct1 := byKey["R*-CT@1.00"]
	if grt1.ReadsPerQ >= mx1.ReadsPerQ {
		t.Errorf("at nowFrac=1: GR-tree reads (%.1f) must beat R*-MX (%.1f)\n%s",
			grt1.ReadsPerQ, mx1.ReadsPerQ, buf.String())
	}
	if grt1.Recall < 0.999 || mx1.Recall < 0.999 {
		t.Errorf("GR-tree and R*-MX must have full recall: %.3f / %.3f", grt1.Recall, mx1.Recall)
	}
	if ct1.Recall > 0.95 {
		t.Errorf("R*-CT must lose recall on now-relative data: %.3f", ct1.Recall)
	}
	// With no now-relative data the indexes are on even terms: the gap at
	// nowFrac=0 must be far smaller than at nowFrac=1.
	grt0 := byKey["GR-tree@0.00"]
	mx0 := byKey["R*-MX@0.00"]
	gapNow := mx1.ReadsPerQ / grt1.ReadsPerQ
	gapGround := mx0.ReadsPerQ / grt0.ReadsPerQ
	if gapNow < gapGround {
		t.Errorf("the GR-tree advantage must grow with the now-relative fraction: %.2fx at 0 vs %.2fx at 1\n%s",
			gapGround, gapNow, buf.String())
	}
}

func itoa(f float64) string {
	switch f {
	case 0:
		return "0.00"
	case 0.25:
		return "0.25"
	case 0.5:
		return "0.50"
	case 0.75:
		return "0.75"
	default:
		return "1.00"
	}
}

// TestP2Shape: the GR-tree's leaf-level overlap must be lower than the
// max-timestamp R*-tree's on half-now-relative data.
func TestP2Shape(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultWorkload()
	cfg.Tuples = 1200
	cfg.Days = 120
	rows, err := RunP2(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	grt, mx := rows[0], rows[1]
	if grt.Overlap >= mx.Overlap {
		t.Errorf("GR-tree overlap (%.3g) must be below R*-MX (%.3g)\n%s", grt.Overlap, mx.Overlap, buf.String())
	}
	if grt.Area >= mx.Area {
		t.Errorf("GR-tree bound area (%.3g) must be below R*-MX (%.3g)", grt.Area, mx.Area)
	}
}

// TestP3Shape: per-node placement must open large objects per access;
// single-LO must not reopen.
func TestP3Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunP3(&buf, 800)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].LOOpens != 0 {
		t.Errorf("single-LO opens during search: %d", rows[0].LOOpens)
	}
	if rows[2].LOOpens == 0 || rows[2].LOOpens <= rows[1].LOOpens {
		t.Errorf("per-node (%d) must open more LOs than per-subtree (%d)", rows[2].LOOpens, rows[1].LOOpens)
	}
}

// TestP4Shape: restart-always restarts at least as much as
// restart-on-condense; no-condense leaves more nodes.
func TestP4Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunP4(&buf, 800)
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]P4Row{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	if byPolicy["restart-always"].Restarts < byPolicy["restart-on-condense"].Restarts {
		t.Errorf("restart-always (%d) must be >= restart-on-condense (%d)",
			byPolicy["restart-always"].Restarts, byPolicy["restart-on-condense"].Restarts)
	}
	// No-condense only unlinks empty nodes, so it restarts at most as often
	// as the condensing policy and leaves at least as many nodes standing.
	if byPolicy["no-condense"].Restarts > byPolicy["restart-on-condense"].Restarts {
		t.Errorf("no-condense (%d) must restart at most as often as restart-on-condense (%d)",
			byPolicy["no-condense"].Restarts, byPolicy["restart-on-condense"].Restarts)
	}
	if byPolicy["no-condense"].PostNodes < byPolicy["restart-on-condense"].PostNodes {
		t.Errorf("no-condense must keep at least as many nodes (%d vs %d)",
			byPolicy["no-condense"].PostNodes, byPolicy["restart-on-condense"].PostNodes)
	}
}

func TestP6Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := RunP6(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "transaction") || !strings.Contains(out, "statement") {
		t.Fatalf("P6 output: %s", out)
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "../..", true, "ZZ"); err == nil {
		t.Fatal("unknown experiment id must fail")
	}
}

// TestExperimentsDocMatchesRegistry: every "### <ID>" section of
// EXPERIMENTS.md has a runner in All, and every runner has a section.
func TestExperimentsDocMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	documented := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if rest, ok := strings.CutPrefix(line, "### "); ok {
			id := strings.Fields(rest)[0]
			sections = append(sections, id)
			documented[id] = true
		}
	}
	registered := map[string]bool{}
	for _, r := range All("../..", true) {
		registered[r.ID] = true
		if !documented[r.ID] {
			t.Errorf("runner %s has no ### section in EXPERIMENTS.md", r.ID)
		}
	}
	for _, id := range sections {
		if !registered[id] {
			t.Errorf("EXPERIMENTS.md section ### %s has no runner in experiments.All", id)
		}
	}
}

package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/blades/grtblade"
	"repro/internal/blades/rstblade"
	"repro/internal/chronon"
	"repro/internal/engine"
	"repro/internal/grtree"
	"repro/internal/lock"
	"repro/internal/nodestore"
	"repro/internal/rstar"
	"repro/internal/rtree"
	"repro/internal/sbspace"
	"repro/internal/storage"
	"repro/internal/temporal"
)

// P1Row is one row of the P1 sweep.
type P1Row struct {
	NowFrac    float64
	Index      string
	ReadsPerQ  float64
	Recall     float64
	Candidates float64 // fetched candidates per exact result (overfetch)
}

// RunP1 reproduces the headline performance shape ([BJSS98] as cited in
// Sections 1/3): search I/O per timeslice query for the GR-tree vs the
// R*-tree substitutes, swept over the fraction of now-relative tuples.
// Expected shape: the GR-tree's reads stay low and flat; R*-MX degrades as
// the now-relative fraction grows (max-timestamp rectangles overlap
// heavily); R*-CT reads little but loses recall.
func RunP1(w io.Writer, cfg WorkloadConfig) ([]P1Row, error) {
	var rows []P1Row
	fmt.Fprintf(w, "P1: search I/O per query (tuples=%d, queries=%d)\n", cfg.Tuples, 200)
	fmt.Fprintf(w, "%-8s %-10s %12s %8s %12s\n", "nowFrac", "index", "nodeReads/q", "recall", "candidates/q")
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		c := cfg
		c.NowFrac = frac
		wl := Generate(c)

		grt, err := NewGRTIndex(grtree.DefaultConfig())
		if err != nil {
			return nil, err
		}
		mx, err := NewRSTIndex(rstar.DefaultConfig(), rstblade.SubMax, chronon.FromDate(9999, 12, 31))
		if err != nil {
			return nil, err
		}
		ct, err2 := NewRSTIndex(rstar.DefaultConfig(), rstblade.SubAsOf, chronon.FromDate(9999, 12, 31))
		if err2 != nil {
			return nil, err2
		}
		for _, idx := range []Index{grt, mx, ct} {
			if err := Replay(wl, idx); err != nil {
				return nil, fmt.Errorf("%s: %w", idx.Name(), err)
			}
			idx.ResetReads()
			exact, truth, candidates := 0, 0, 0
			for _, q := range wl.Queries {
				if rst, ok := idx.(*RSTIndex); ok {
					e, cand, err := rst.SearchCandidates(q, wl.EndCT)
					if err != nil {
						return nil, err
					}
					exact += e
					candidates += cand
				} else {
					e, err := idx.SearchCount(q, wl.EndCT)
					if err != nil {
						return nil, err
					}
					exact += e
					candidates += e
				}
				truth += wl.TrueMatches(q, wl.EndCT)
			}
			recall := 1.0
			if truth > 0 {
				recall = float64(exact) / float64(truth)
			}
			row := P1Row{
				NowFrac:    frac,
				Index:      idx.Name(),
				ReadsPerQ:  float64(idx.NodeReads()) / float64(len(wl.Queries)),
				Recall:     recall,
				Candidates: float64(candidates) / float64(len(wl.Queries)),
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-8.2f %-10s %12.1f %8.3f %12.1f\n",
				row.NowFrac, row.Index, row.ReadsPerQ, row.Recall, row.Candidates)
		}
	}
	return rows, nil
}

// P2Row is one row of the overlap / dead-space comparison.
type P2Row struct {
	Index      string
	Overlap    float64 // total sibling-bound intersection area (leaf level)
	Area       float64 // total leaf-bound area
	DeadSpace  float64 // sampled dead-space ratio (GR-tree only)
	LeafNodes  int
	TreeHeight int
}

// RunP2 reproduces Section 3's structural claim: the GR-tree's bounding
// regions produce less overlap and dead space than max-timestamp
// rectangles over the same now-relative data.
func RunP2(w io.Writer, cfg WorkloadConfig) ([]P2Row, error) {
	wl := Generate(cfg)
	var rows []P2Row

	grt, err := NewGRTIndex(grtree.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := Replay(wl, grt); err != nil {
		return nil, err
	}
	gs, err := grt.Tree.Stats(wl.EndCT, 20000, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var gOverlap, gArea float64
	var gLeaf int
	for _, l := range gs.PerLevel {
		if l.Level == 0 {
			gOverlap, gArea, gLeaf = l.Overlap, l.Area, l.Nodes
		}
	}
	rows = append(rows, P2Row{Index: "GR-tree", Overlap: gOverlap, Area: gArea,
		DeadSpace: gs.DeadSpaceRatio, LeafNodes: gLeaf, TreeHeight: gs.Height})

	mx, err := NewRSTIndex(rstar.DefaultConfig(), rstblade.SubMax, chronon.FromDate(9999, 12, 31))
	if err != nil {
		return nil, err
	}
	if err := Replay(wl, mx); err != nil {
		return nil, err
	}
	keys := rstar.Keys()
	ls, _, err := rtree.Levels(mx.Tree.Tree, keys.Bound, keys.Resolve)
	if err != nil {
		return nil, err
	}
	var mOverlap, mArea float64
	var mLeaf int
	for _, l := range ls {
		if l.Level == 0 {
			mOverlap, mArea, mLeaf = l.Overlap, l.Area, l.Nodes
		}
	}
	rows = append(rows, P2Row{Index: "R*-MX", Overlap: mOverlap, Area: mArea,
		DeadSpace: -1, LeafNodes: mLeaf, TreeHeight: mx.Tree.Height()})

	fmt.Fprintf(w, "P2: leaf-level overlap and dead space (tuples=%d, nowFrac=%.2f)\n", cfg.Tuples, cfg.NowFrac)
	fmt.Fprintf(w, "%-10s %14s %14s %10s %8s %7s\n", "index", "overlapArea", "boundArea", "deadSpace", "leaves", "height")
	for _, r := range rows {
		ds := "n/a"
		if r.DeadSpace >= 0 {
			ds = fmt.Sprintf("%.3f", r.DeadSpace)
		}
		fmt.Fprintf(w, "%-10s %14.3g %14.3g %10s %8d %7d\n", r.Index, r.Overlap, r.Area, ds, r.LeafNodes, r.TreeHeight)
	}
	return rows, nil
}

// P3Row is one row of the storage-placement ablation.
type P3Row struct {
	Placement   string
	LOOpens     uint64
	PageFetches uint64
	HandleBytes int
}

// RunP3 reproduces the Section 5.3 design space: large-object placement
// (whole index / per subtree / per node) vs open/close traffic.
func RunP3(w io.Writer, tuples int) ([]P3Row, error) {
	placements := []struct {
		name string
		pl   nodestore.Placement
	}{
		{"single-LO", nodestore.SingleLO},
		{"subtree-LO(16)", nodestore.PerSubtreeLO(16)},
		{"per-node-LO", nodestore.PerNodeLO},
	}
	var rows []P3Row
	fmt.Fprintf(w, "P3: sbspace placement ablation (tuples=%d, 100 queries)\n", tuples)
	fmt.Fprintf(w, "%-15s %10s %12s %12s\n", "placement", "LO opens", "page I/O", "handle bytes")
	cfg := DefaultWorkload()
	cfg.Tuples = tuples
	wl := Generate(cfg)
	for _, p := range placements {
		bp := storage.NewBufferPool(storage.NewMemPager(), 64)
		lm := lock.New()
		space := sbspace.New(1, "spc", bp, lm)
		store, _, err := nodestore.CreateLO(space, 1, lock.CommittedRead, p.pl)
		if err != nil {
			return nil, err
		}
		tree, err := grtree.Create(store, grtree.DefaultConfig())
		if err != nil {
			return nil, err
		}
		for _, ev := range wl.Events {
			if !ev.Insert {
				continue
			}
			if err := tree.Insert(ev.Extent, grtree.Payload(ev.Payload), ev.Day); err != nil {
				return nil, err
			}
		}
		// Measure the query phase only.
		pool0, space0 := bp.Stats(), space.Stats()
		for _, q := range wl.Queries[:100] {
			if _, err := tree.SearchAll(grtree.Predicate{Op: grtree.OpOverlaps, Query: q}, wl.EndCT); err != nil {
				return nil, err
			}
		}
		row := P3Row{
			Placement:   p.name,
			LOOpens:     space.Stats().Opens - space0.Opens,
			PageFetches: bp.Stats().Sub(pool0).Fetches,
			HandleBytes: sbspace.HandleSize,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-15s %10d %12d %12d\n", row.Placement, row.LOOpens, row.PageFetches, row.HandleBytes)
		lm.ReleaseAll(1)
	}
	return rows, nil
}

// P4Row is one row of the deletion-policy ablation.
type P4Row struct {
	Policy       string
	Restarts     int
	NodeReads    uint64
	PostNodes    int
	PostSearchIO float64
}

// RunP4 reproduces the Section 5.5 deletion discussion: scan restarts and
// I/O under the three condensation policies, plus the search penalty of
// keeping underfull nodes.
func RunP4(w io.Writer, tuples int) ([]P4Row, error) {
	var rows []P4Row
	fmt.Fprintf(w, "P4: deletion policy ablation (tuples=%d, delete 60%% by predicate)\n", tuples)
	fmt.Fprintf(w, "%-20s %10s %12s %12s %14s\n", "policy", "restarts", "nodeReads", "nodes after", "searchIO after")
	for _, pol := range []grtree.DeletePolicy{grtree.RestartOnCondense, grtree.RestartAlways, grtree.NoCondense} {
		cfg := DefaultWorkload()
		cfg.Tuples = tuples
		wl := Generate(cfg)
		tcfg := grtree.DefaultConfig()
		tcfg.DeletePolicy = pol
		idx, err := NewGRTIndex(tcfg)
		if err != nil {
			return nil, err
		}
		if err := Replay(wl, idx); err != nil {
			return nil, err
		}
		// Delete all tuples whose transaction time started in the first 60%
		// of the simulated window.
		cut := cfg.Start + chronon.Instant(int64(float64(wl.EndCT-cfg.Start)*0.6))
		pred := grtree.Predicate{Op: grtree.OpOverlaps, Query: temporal.Extent{
			TTBegin: cfg.Start - 200, TTEnd: cut, VTBegin: cfg.Start - 400, VTEnd: wl.EndCT + 400,
		}}
		idx.ResetReads()
		_, restarts, err := idx.Tree.DeleteWhere(pred, wl.EndCT)
		if err != nil {
			return nil, err
		}
		reads := idx.NodeReads()
		st, err := idx.Tree.Stats(wl.EndCT, 0, 0)
		if err != nil {
			return nil, err
		}
		idx.ResetReads()
		for _, q := range wl.Queries[:100] {
			if _, err := idx.SearchCount(q, wl.EndCT); err != nil {
				return nil, err
			}
		}
		row := P4Row{
			Policy: pol.String(), Restarts: restarts, NodeReads: reads,
			PostNodes: st.Nodes, PostSearchIO: float64(idx.NodeReads()) / 100,
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-20s %10d %12d %12d %14.1f\n", row.Policy, row.Restarts, row.NodeReads, row.PostNodes, row.PostSearchIO)
	}
	return rows, nil
}

// P5Row compares hard-coded and dynamic strategy dispatch.
type P5Row struct {
	Dispatch string
	PerQuery time.Duration
	// Profile is the last query's per-statement execution profile
	// (Result.Stats), demonstrating that both dispatch modes do identical
	// index work — only the UDR-resolution overhead differs.
	Profile *engine.StmtStats
}

// RunP5 measures the Section 5.2 trade-off: dynamic UDR resolution of
// strategy functions vs hard-coded invocation, through full SQL queries.
func RunP5(w io.Writer, tuples, queries int) ([]P5Row, error) {
	var rows []P5Row
	fmt.Fprintf(w, "P5: strategy dispatch (tuples=%d, %d queries each)\n", tuples, queries)
	for _, mode := range []string{"hardcoded", "dynamic"} {
		clock := chronon.NewVirtualClock(chronon.MustParse("1/97"))
		e, err := engine.Open(engine.Options{Clock: clock, NoWAL: true})
		if err != nil {
			return nil, err
		}
		if err := grtblade.Register(e); err != nil {
			e.Close()
			return nil, err
		}
		s := e.NewSession()
		if _, err := s.ExecScript(`CREATE SBSPACE spc; CREATE TABLE T (N INTEGER, X GRT_TimeExtent_t)`); err != nil {
			e.Close()
			return nil, err
		}
		if _, err := s.Exec(fmt.Sprintf(
			`CREATE INDEX ix ON T(X) USING grtree_am (dispatch='%s') IN spc`, mode)); err != nil {
			e.Close()
			return nil, err
		}
		for i := 0; i < tuples; i++ {
			clock.Advance(1)
			day := clock.Now()
			if _, err := s.Exec(fmt.Sprintf(`INSERT INTO T VALUES (%d, '%s, UC, %s, NOW')`,
				i, day.String(), (day - 30).String())); err != nil {
				e.Close()
				return nil, err
			}
		}
		q := fmt.Sprintf(`SELECT COUNT(*) FROM T WHERE Overlaps(X, '%s, UC, %s, NOW')`,
			clock.Now().String(), (clock.Now() - 10).String())
		start := time.Now()
		var last *engine.Result
		for i := 0; i < queries; i++ {
			res, err := s.Exec(q)
			if err != nil {
				e.Close()
				return nil, err
			}
			last = res
		}
		per := time.Since(start) / time.Duration(queries)
		rows = append(rows, P5Row{Dispatch: mode, PerQuery: per, Profile: last.Stats})
		fmt.Fprintf(w, "  %-10s %12v/query  [%s]\n", mode, per, last.Stats)
		s.Close()
		e.Close()
	}
	return rows, nil
}

// RunP6 demonstrates the Section 5.4 current-time policies through SQL: a
// long transaction sees stable answers under the per-transaction policy and
// shifting answers under the per-statement policy.
func RunP6(w io.Writer) error {
	for _, policy := range []string{"transaction", "statement"} {
		clock := chronon.NewVirtualClock(chronon.MustParse("9/97"))
		e, err := engine.Open(engine.Options{Clock: clock, NoWAL: true})
		if err != nil {
			return err
		}
		if err := grtblade.Register(e); err != nil {
			e.Close()
			return err
		}
		s := e.NewSession()
		script := fmt.Sprintf(`CREATE SBSPACE spc;
			CREATE TABLE T (X GRT_TimeExtent_t);
			CREATE INDEX ix ON T(X) USING grtree_am (timepolicy='%s') IN spc;
			INSERT INTO T VALUES ('5/97, UC, 5/97, NOW')`, policy)
		if _, err := s.ExecScript(script); err != nil {
			e.Close()
			return err
		}
		q := `SELECT COUNT(*) FROM T WHERE Overlaps(X, '1/98, 2/98, 1/98, 2/98')`
		if _, err := s.Exec(`BEGIN WORK`); err != nil {
			e.Close()
			return err
		}
		r1, err := s.Exec(q)
		if err != nil {
			e.Close()
			return err
		}
		clock.Set(chronon.MustParse("3/98")) // months pass mid-transaction
		r2, err := s.Exec(q)
		if err != nil {
			e.Close()
			return err
		}
		s.Exec(`COMMIT`)
		fmt.Fprintf(w, "P6 timepolicy=%-12s first=%v second=%v (clock advanced 9/97 -> 3/98 mid-transaction)\n",
			policy, r1.Rows[0][0], r2.Rows[0][0])
		s.Close()
		e.Close()
	}
	fmt.Fprintln(w, "  per-transaction: both statements agree (stable reads);")
	fmt.Fprintln(w, "  per-statement:   the second statement sees the grown stair.")
	return nil
}

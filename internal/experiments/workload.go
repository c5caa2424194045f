// Package experiments implements the per-experiment harness of DESIGN.md:
// one runnable reproduction for every table and figure of the paper (T1–T5,
// F2–F6) plus the performance-shape experiments (P1–P6) that substantiate
// the claim that the GR-tree DataBlade "aims to achieve better performance,
// not just to add functionality". The benchrunner binary drives these
// functions and EXPERIMENTS.md records their output; features beyond the
// paper are measured by the statement benchmark in bench/.
package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/blades/rstblade"
	"repro/internal/chronon"
	"repro/internal/grtree"
	"repro/internal/nodestore"
	"repro/internal/rstar"
	"repro/internal/temporal"
)

// WorkloadConfig parameterises the bitemporal insertion process.
type WorkloadConfig struct {
	Tuples  int     // tuples inserted over the simulation
	Days    int     // simulated days (inserts spread evenly)
	NowFrac float64 // fraction of tuples with VTEnd = NOW
	// CloseFrac is the fraction of tuples logically deleted before the end
	// (their TTEnd becomes ground).
	CloseFrac float64
	Seed      int64
	Start     chronon.Instant // first simulated day
}

// DefaultWorkload is the P1/P2 base configuration.
func DefaultWorkload() WorkloadConfig {
	return WorkloadConfig{
		Tuples: 5000, Days: 500, NowFrac: 0.5, CloseFrac: 0.3,
		Seed: 1, Start: chronon.MustParse("1/95"),
	}
}

// Event is one index operation in day order.
type Event struct {
	Day     chronon.Instant
	Insert  bool // false = logical deletion (index delete + reinsert closed)
	Extent  temporal.Extent
	Closed  temporal.Extent // for deletions: the closed extent to re-insert
	Payload uint64
}

// Workload is a generated event sequence plus the final state for
// ground-truth evaluation.
type Workload struct {
	Config  WorkloadConfig
	Events  []Event
	Final   map[uint64]temporal.Extent // payload -> extent at EndCT
	EndCT   chronon.Instant
	Queries []temporal.Extent
}

// Generate builds a bitemporal workload: tuples are inserted day by day
// with now-relative valid-time ends in the configured fraction; a subset is
// logically deleted later (TTEnd UC -> ground, per Section 2), which at the
// index level is a delete of the growing extent plus an insert of the
// closed one.
func Generate(cfg WorkloadConfig) *Workload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{Config: cfg, Final: make(map[uint64]temporal.Extent)}
	perDay := cfg.Tuples / cfg.Days
	if perDay < 1 {
		perDay = 1
	}
	type live struct {
		payload uint64
		ext     temporal.Extent
	}
	var current []live
	payload := uint64(0)
	day := cfg.Start
	for inserted := 0; inserted < cfg.Tuples; day++ {
		for k := 0; k < perDay && inserted < cfg.Tuples; k++ {
			payload++
			inserted++
			vtb := day - chronon.Instant(rng.Int63n(120))
			e := temporal.Extent{TTBegin: day, TTEnd: chronon.UC, VTBegin: vtb}
			if rng.Float64() < cfg.NowFrac {
				e.VTEnd = chronon.NOW
			} else {
				e.VTEnd = vtb + chronon.Instant(rng.Int63n(120))
			}
			w.Events = append(w.Events, Event{Day: day, Insert: true, Extent: e, Payload: payload})
			w.Final[payload] = e
			current = append(current, live{payload, e})
		}
		// Close a few current tuples per day on average.
		expected := float64(cfg.Tuples) * cfg.CloseFrac / float64(cfg.Days)
		for n := expected; n > 0 && len(current) > 0; n-- {
			if n < 1 && rng.Float64() > n {
				break
			}
			i := rng.Intn(len(current))
			v := current[i]
			current[i] = current[len(current)-1]
			current = current[:len(current)-1]
			closed, err := v.ext.Deleted(day)
			if err != nil {
				continue
			}
			w.Events = append(w.Events, Event{Day: day, Insert: false, Extent: v.ext, Closed: closed, Payload: v.payload})
			w.Final[v.payload] = closed
		}
	}
	w.EndCT = day + 30

	// Bitemporal timeslice queries in three classes (after the [BJSS98]
	// evaluation): (a) near-diagonal points ("what did we believe about
	// then, back then"), (b) past transaction time with later valid time
	// ("what did we believe at tt about a later period") — the class where
	// maximum-timestamp rectangles overfetch catastrophically — and (c)
	// uniform small rectangles.
	span := int64(w.EndCT - cfg.Start)
	for q := 0; q < 200; q++ {
		wdt := 1 + chronon.Instant(rng.Int63n(6))
		var tt, vt chronon.Instant
		switch q % 4 {
		case 0, 1: // class (b)
			tt = cfg.Start + chronon.Instant(rng.Int63n(span))
			vt = tt + chronon.Instant(rng.Int63n(int64(w.EndCT-tt)+30))
		case 2: // class (a)
			tt = cfg.Start + chronon.Instant(rng.Int63n(span))
			vt = tt - chronon.Instant(rng.Int63n(60))
		default: // class (c)
			tt = cfg.Start + chronon.Instant(rng.Int63n(span))
			vt = cfg.Start - 60 + chronon.Instant(rng.Int63n(span))
		}
		w.Queries = append(w.Queries, temporal.Extent{
			TTBegin: tt, TTEnd: tt + wdt, VTBegin: vt, VTEnd: vt + wdt,
		})
	}
	return w
}

// TrueMatches counts the ground-truth answer set of an Overlaps query over
// the final state at ct.
func (w *Workload) TrueMatches(q temporal.Extent, ct chronon.Instant) int {
	n := 0
	qr := q.Region()
	for _, e := range w.Final {
		if e.Region().Overlaps(qr, ct) {
			n++
		}
	}
	return n
}

// Index abstracts the competing access methods for replay.
type Index interface {
	Name() string
	Insert(e temporal.Extent, payload uint64, ct chronon.Instant) error
	Delete(e temporal.Extent, payload uint64, ct chronon.Instant) error
	// SearchCount runs an Overlaps query and returns the number of results
	// after exact re-filtering (what SQL would return).
	SearchCount(q temporal.Extent, ct chronon.Instant) (int, error)
	// NodeReads returns the cumulative node-read counter.
	NodeReads() uint64
	ResetReads()
}

// GRTIndex adapts a GR-tree.
type GRTIndex struct {
	Tree  *grtree.Tree
	store nodestore.Store
}

// NewGRTIndex builds an empty in-memory GR-tree index.
func NewGRTIndex(cfg grtree.Config) (*GRTIndex, error) {
	store := nodestore.NewMem()
	tr, err := grtree.Create(store, cfg)
	if err != nil {
		return nil, err
	}
	return &GRTIndex{Tree: tr, store: store}, nil
}

// Name implements Index.
func (g *GRTIndex) Name() string { return "GR-tree" }

// Insert implements Index.
func (g *GRTIndex) Insert(e temporal.Extent, p uint64, ct chronon.Instant) error {
	return g.Tree.Insert(e, grtree.Payload(p), ct)
}

// Delete implements Index.
func (g *GRTIndex) Delete(e temporal.Extent, p uint64, ct chronon.Instant) error {
	removed, _, err := g.Tree.Delete(e, grtree.Payload(p), ct)
	if err == nil && !removed {
		return fmt.Errorf("grt: missing entry for %d", p)
	}
	return err
}

// SearchCount implements Index.
func (g *GRTIndex) SearchCount(q temporal.Extent, ct chronon.Instant) (int, error) {
	out, err := g.Tree.SearchAll(grtree.Predicate{Op: grtree.OpOverlaps, Query: q}, ct)
	return len(out), err
}

// NodeReads implements Index.
func (g *GRTIndex) NodeReads() uint64 { return g.store.Stats().NodeReads }

// ResetReads implements Index.
func (g *GRTIndex) ResetReads() { g.store.ResetStats() }

// RSTIndex adapts an R*-tree under a substitution policy.
type RSTIndex struct {
	Tree   *rstar.Tree
	store  nodestore.Store
	Sub    rstblade.NowSub
	MaxTS  chronon.Instant
	rects  map[uint64]rstar.Rect // payload -> stored rect (delete support)
	label  string
	exacts ExactSource
}

// NewRSTIndex builds an empty in-memory R*-tree baseline.
func NewRSTIndex(cfg rstar.Config, sub rstblade.NowSub, maxTS chronon.Instant) (*RSTIndex, error) {
	store := nodestore.NewMem()
	tr, err := rstar.Create(store, cfg)
	if err != nil {
		return nil, err
	}
	label := "R*-MX"
	if sub == rstblade.SubAsOf {
		label = "R*-CT"
	}
	return &RSTIndex{Tree: tr, store: store, Sub: sub, MaxTS: maxTS, rects: make(map[uint64]rstar.Rect), label: label}, nil
}

// Name implements Index.
func (r *RSTIndex) Name() string { return r.label }

// Insert implements Index.
func (r *RSTIndex) Insert(e temporal.Extent, p uint64, ct chronon.Instant) error {
	rect := rstblade.MapExtent(e, r.Sub, r.MaxTS, ct)
	r.rects[p] = rect
	return r.Tree.Insert(rect, rstar.Payload(p))
}

// Delete implements Index.
func (r *RSTIndex) Delete(e temporal.Extent, p uint64, ct chronon.Instant) error {
	rect, ok := r.rects[p]
	if !ok {
		return fmt.Errorf("rst: no stored rect for %d", p)
	}
	removed, _, err := r.Tree.Delete(rect, rstar.Payload(p))
	if err == nil && !removed {
		return fmt.Errorf("rst: missing entry for %d", p)
	}
	delete(r.rects, p)
	return err
}

// SearchCount implements Index: candidates come from the rectangle index;
// exactness requires the re-filter the engine applies (the extra fetched
// candidates are exactly the baseline's I/O penalty). The returned count is
// the number of exact matches among candidates, which for SubAsOf may be
// fewer than the truth (recall loss).
func (r *RSTIndex) SearchCount(q temporal.Extent, ct chronon.Instant) (int, error) {
	return r.searchCount(q, ct, nil)
}

// SearchCandidates additionally reports the candidate count.
func (r *RSTIndex) SearchCandidates(q temporal.Extent, ct chronon.Instant) (exact, candidates int, err error) {
	exact, err = r.searchCount(q, ct, &candidates)
	return exact, candidates, err
}

func (r *RSTIndex) searchCount(q temporal.Extent, ct chronon.Instant, candidates *int) (int, error) {
	qr := rstblade.MapExtent(q, r.Sub, r.MaxTS, ct)
	// Cover the query's current resolution too (ground query over grown
	// data under SubMax).
	sh := q.Region().Resolve(ct).BoundingBox()
	qr = qr.Union(rstar.Rect{XMin: sh.TTBegin, XMax: sh.TTEnd, YMin: sh.VTBegin, YMax: sh.VTEnd})
	cur, err := r.Tree.Search(rstar.OpOverlaps, qr)
	if err != nil {
		return 0, err
	}
	exact := 0
	qreg := q.Region()
	for {
		e, ok, err := cur.Next()
		if err != nil {
			return exact, err
		}
		if !ok {
			return exact, nil
		}
		if candidates != nil {
			*candidates++
		}
		// Exact re-filter needs the tuple's true extent — a heap fetch in
		// the engine; here the final map substitutes for the heap.
		if ext, ok := r.exactExtent(uint64(e.Payload())); ok {
			if ext.Region().Overlaps(qreg, ct) {
				exact++
			}
		}
	}
}

// ExactSource supplies true extents for re-filtering.
type ExactSource map[uint64]temporal.Extent

// exact source attached by Replay.
func (r *RSTIndex) exactExtent(p uint64) (temporal.Extent, bool) {
	e, ok := r.exacts[p]
	return e, ok
}

// SetExactSource attaches the payload -> extent map used for re-filtering.
func (r *RSTIndex) SetExactSource(m ExactSource) { r.exacts = m }

// NodeReads implements Index.
func (r *RSTIndex) NodeReads() uint64 { return r.store.Stats().NodeReads }

// ResetReads implements Index.
func (r *RSTIndex) ResetReads() { r.store.ResetStats() }

// Replay drives a workload into an index, maintaining an exact-extent map
// for baselines that need re-filtering.
func Replay(w *Workload, idx Index) error {
	exacts := make(ExactSource)
	if rst, ok := idx.(*RSTIndex); ok {
		rst.SetExactSource(exacts)
	}
	for _, ev := range w.Events {
		if ev.Insert {
			if err := idx.Insert(ev.Extent, ev.Payload, ev.Day); err != nil {
				return fmt.Errorf("replay insert day %v: %w", ev.Day, err)
			}
			exacts[ev.Payload] = ev.Extent
		} else {
			if err := idx.Delete(ev.Extent, ev.Payload, ev.Day); err != nil {
				return fmt.Errorf("replay delete day %v: %w", ev.Day, err)
			}
			if err := idx.Insert(ev.Closed, ev.Payload, ev.Day); err != nil {
				return fmt.Errorf("replay reinsert day %v: %w", ev.Day, err)
			}
			exacts[ev.Payload] = ev.Closed
		}
	}
	return nil
}

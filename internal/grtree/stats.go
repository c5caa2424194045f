package grtree

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/chronon"
	"repro/internal/nodestore"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

// LevelStats aggregates one tree level (level 0 = leaves): Area is the total
// area of the level's node bounding regions at the measurement time, Overlap
// the total pairwise intersection area between them.
type LevelStats = rtree.LevelStats

// TreeStats summarises the tree structure and its goodness measures.
type TreeStats struct {
	Height      int
	Nodes       int
	LeafEntries int
	PerLevel    []LevelStats
	// DeadSpaceRatio estimates the fraction of leaf-bound area not covered
	// by any data region (Section 3's "dead space"), when sampled.
	DeadSpaceRatio float64
}

// Stats walks the tree and computes structure and overlap statistics at ct.
// deadSpaceSamples > 0 additionally estimates the dead-space ratio by Monte
// Carlo sampling with the given seed.
func (t *Tree) Stats(ct chronon.Instant, deadSpaceSamples int, seed int64) (TreeStats, error) {
	st := TreeStats{Height: t.Height()}
	resolve := func(r temporal.Region) temporal.Shape { return r.Resolve(ct) }
	levels, shapes, err := rtree.Levels(t.Tree, t.Keys(ct).Bound, resolve)
	if err != nil {
		return st, err
	}
	st.PerLevel, st.LeafEntries = levels, levels[0].Entries
	for _, l := range levels {
		st.Nodes += l.Nodes
	}
	if root := shapes[len(shapes)-1][0]; deadSpaceSamples > 0 && !root.Empty() {
		st.DeadSpaceRatio = deadSpace(root, shapes[1], shapes[0], deadSpaceSamples, seed)
	}
	return st, nil
}

// deadSpace estimates the fraction of total leaf-bound area that is covered
// by some leaf node's bound but by no data region.
func deadSpace(root temporal.Shape, leafBounds, dataShapes []temporal.Shape, samples int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	bb := root.BoundingBox()
	w := bb.TTEnd - bb.TTBegin + 1
	h := bb.VTEnd - bb.VTBegin + 1
	if w <= 0 || h <= 0 {
		return 0
	}
	inBound, dead := 0, 0
	for i := 0; i < samples; i++ {
		tt := bb.TTBegin + rng.Int63n(w)
		vv := bb.VTBegin + rng.Int63n(h)
		covered := false
		for _, b := range leafBounds {
			if b.ContainsPoint(tt, vv) {
				covered = true
				break
			}
		}
		if !covered {
			continue
		}
		inBound++
		hit := false
		for _, d := range dataShapes {
			if d.ContainsPoint(tt, vv) {
				hit = true
				break
			}
		}
		if !hit {
			dead++
		}
	}
	if inBound == 0 {
		return 0
	}
	return float64(dead) / float64(inBound)
}

// Dump renders the tree structure (Figure 5 style) for grtinspect.
func (t *Tree) Dump(ct chronon.Instant) (string, error) {
	var out strings.Builder
	err := t.Walk(func(id nodestore.NodeID, level int, entries []Entry) error {
		indent := strings.Repeat("  ", t.Height()-1-level)
		kind, target := "node", "node"
		if level == 0 {
			kind, target = "leaf", "row"
		}
		fmt.Fprintf(&out, "%s%s %d (level %d, %d entries)\n", indent, kind, id, level, len(entries))
		for _, e := range entries {
			fmt.Fprintf(&out, "%s  %v -> %s %d\n", indent, e.Bound, target, e.Ref)
		}
		return nil
	})
	return out.String(), err
}

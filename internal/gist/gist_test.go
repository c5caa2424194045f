package gist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/grtree"
	"repro/internal/nodestore"
	"repro/internal/rtree"
	"repro/internal/temporal"
)

func TestIntervalClassBruteForce(t *testing.T) {
	tr, err := Create(nodestore.NewMem(), IntervalClass{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	model := map[Payload][2]int64{}
	for i := 0; i < 3000; i++ {
		lo := rng.Int63n(10000)
		hi := lo + rng.Int63n(50)
		p := Payload(i + 1)
		if err := tr.Insert(IntervalKey(lo, hi), p); err != nil {
			t.Fatal(err)
		}
		model[p] = [2]int64{lo, hi}
	}
	if tr.Height() < 2 {
		t.Fatalf("height %d", tr.Height())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		qlo := rng.Int63n(10000)
		qhi := qlo + rng.Int63n(100)
		got, err := tr.Search(IntervalOverlaps{qlo, qhi})
		if err != nil {
			t.Fatal(err)
		}
		want := map[Payload]bool{}
		for p, iv := range model {
			if iv[0] <= qhi && qlo <= iv[1] {
				want[p] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("overlap [%d,%d]: got %d want %d", qlo, qhi, len(got), len(want))
		}
		for _, p := range got {
			if !want[p] {
				t.Fatalf("false positive %d", p)
			}
		}
		// Contains query.
		gotC, err := tr.Search(IntervalContains{qlo, qlo + 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range gotC {
			iv := model[p]
			if !(iv[0] <= qlo && qlo+2 <= iv[1]) {
				t.Fatalf("contains false positive %v", iv)
			}
		}
	}
}

func TestIntervalDelete(t *testing.T) {
	tr, err := Create(nodestore.NewMem(), IntervalClass{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	model := map[Payload][2]int64{}
	for i := 0; i < 800; i++ {
		lo := rng.Int63n(2000)
		hi := lo + rng.Int63n(40)
		p := Payload(i + 1)
		tr.Insert(IntervalKey(lo, hi), p)
		model[p] = [2]int64{lo, hi}
	}
	var ids []Payload
	for p := range model {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, p := range ids[:600] {
		iv := model[p]
		ok, err := tr.Delete(IntervalKey(iv[0], iv[1]), p)
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", p, ok, err)
		}
		delete(model, p)
	}
	if tr.Size() != 200 {
		t.Fatalf("size %d", tr.Size())
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// Survivors searchable.
	got, _ := tr.Search(IntervalOverlaps{0, 3000})
	if len(got) != 200 {
		t.Fatalf("survivors %d", len(got))
	}
	// Missing delete reports false.
	if ok, _ := tr.Delete(IntervalKey(1, 2), 99999); ok {
		t.Fatal("phantom delete")
	}
}

func TestPersistenceAndKeyClassGuard(t *testing.T) {
	store := nodestore.NewMem()
	tr, _ := Create(store, IntervalClass{})
	for i := int64(0); i < 100; i++ {
		tr.Insert(IntervalKey(i, i+5), Payload(i+1))
	}
	tr2, err := Open(store, IntervalClass{})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Size() != 100 || tr2.Height() != tr.Height() {
		t.Fatal("reopen mismatch")
	}
	if err := tr2.Check(); err != nil {
		t.Fatal(err)
	}
	// Opening under a different key class is rejected.
	if _, err := Open(store, NewGRKeyClass(chronon.Fixed(0))); err == nil {
		t.Fatal("key-class mismatch must be rejected")
	}
	if _, err := Open(nodestore.NewMem(), IntervalClass{}); err == nil {
		t.Fatal("open of empty store must fail")
	}
}

func TestOversizedKeyRejected(t *testing.T) {
	tr, _ := Create(nodestore.NewMem(), IntervalClass{})
	for _, n := range []int{64, 17, 15, 0} {
		key := strings.Repeat("k", n)
		if err := tr.Insert(key, 1); err == nil {
			t.Fatalf("%d-byte key inserted into a 16-byte class", n)
		}
		if _, err := tr.Delete(key, 1); err == nil {
			t.Fatalf("%d-byte key reached a delete", n)
		}
	}
	if tr.Size() != 0 {
		t.Fatalf("size %d after refused inserts", tr.Size())
	}
}

// randomExtent mirrors the generators used elsewhere.
func randomExtent(rng *rand.Rand, ct chronon.Instant) temporal.Extent {
	c := int64(ct)
	vtb := rng.Int63n(c + 1)
	ttb := vtb + rng.Int63n(c-vtb+1)
	switch rng.Intn(4) {
	case 0:
		return temporal.Extent{TTBegin: chronon.Instant(ttb), TTEnd: chronon.UC, VTBegin: chronon.Instant(vtb), VTEnd: chronon.Instant(vtb + rng.Int63n(60))}
	case 1:
		tte := ttb + rng.Int63n(c-ttb+1)
		return temporal.Extent{TTBegin: chronon.Instant(ttb), TTEnd: chronon.Instant(tte), VTBegin: chronon.Instant(vtb), VTEnd: chronon.Instant(vtb + rng.Int63n(60))}
	case 2:
		return temporal.Extent{TTBegin: chronon.Instant(ttb), TTEnd: chronon.UC, VTBegin: chronon.Instant(vtb), VTEnd: chronon.NOW}
	default:
		tte := ttb + rng.Int63n(c-ttb+1)
		return temporal.Extent{TTBegin: chronon.Instant(ttb), TTEnd: chronon.Instant(tte), VTBegin: chronon.Instant(vtb), VTEnd: chronon.NOW}
	}
}

// TestGRKeyClassMatchesDedicatedTree: the GR-tree-as-GiST-opclass must
// return exactly the dedicated GR-tree's answers for every operator — the
// paper's Section 7 vision, functionally verified.
func TestGRKeyClassMatchesDedicatedTree(t *testing.T) {
	clock := chronon.NewVirtualClock(300)
	ct := clock.Now()
	kc := NewGRKeyClass(clock)
	gt, err := Create(nodestore.NewMem(), kc)
	if err != nil {
		t.Fatal(err)
	}
	dedicated, err := grtree.Create(nodestore.NewMem(), grtree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		e := randomExtent(rng, ct)
		p := uint64(i + 1)
		if err := gt.Insert(GRExtentKey(e), Payload(p)); err != nil {
			t.Fatal(err)
		}
		if err := dedicated.Insert(e, grtree.Payload(p), ct); err != nil {
			t.Fatal(err)
		}
	}
	if err := gt.Check(); err != nil {
		t.Fatal(err)
	}
	ops := []rtree.Op{rtree.OpOverlaps, rtree.OpEqual, rtree.OpContains, rtree.OpContainedIn}
	// Current time and a later time (growth seen identically by both).
	for _, at := range []chronon.Instant{300, 420} {
		clock.Set(at)
		for trial := 0; trial < 25; trial++ {
			q := randomExtent(rng, 300)
			for _, op := range ops {
				got, err := gt.Search(GRQuery{Op: op, Q: q})
				if err != nil {
					t.Fatal(err)
				}
				want, err := dedicated.SearchAll(grtree.Predicate{Op: op, Query: q}, at)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("at ct=%d op %v on %v: gist %d vs dedicated %d", at, op, q, len(got), len(want))
				}
				ws := map[grtree.Payload]bool{}
				for _, p := range want {
					ws[p] = true
				}
				for _, p := range got {
					if !ws[grtree.Payload(p)] {
						t.Fatalf("gist returned %d not in dedicated answer", p)
					}
				}
			}
		}
	}
	// Deletion through the generic path.
	removed, err := gt.Delete(GRExtentKey(temporal.Extent{TTBegin: 1, TTEnd: 2, VTBegin: 1, VTEnd: 2}), 424242)
	if err != nil || removed {
		t.Fatalf("phantom delete: %v %v", removed, err)
	}
}

// TestGRKeyClassSplitQualityGap quantifies the Section 7 trade-off. Both
// trees run the kernel's R* split; the dedicated GR-tree scores stair-shapes
// resolved at the time-parameter horizon, the GR key class only their
// bounding boxes. The test logs the ratio of node reads for the same
// queries; a box-scored tree reading half as many would mean the two no
// longer search the same data.
func TestGRKeyClassSplitQualityGap(t *testing.T) {
	clock := chronon.NewVirtualClock(300)
	ct := clock.Now()
	gt, _ := Create(nodestore.NewMem(), NewGRKeyClass(clock))
	dedicated, _ := grtree.Create(nodestore.NewMem(), grtree.DefaultConfig())
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		e := randomExtent(rng, ct)
		gt.Insert(GRExtentKey(e), Payload(i+1))
		dedicated.Insert(e, grtree.Payload(i+1), ct)
	}
	// Compare search I/O over the same queries.
	gt.Store().ResetStats()
	dedicated.Store().ResetStats()
	for trial := 0; trial < 60; trial++ {
		q := randomExtent(rng, 280)
		if _, err := gt.Search(GRQuery{Op: GROverlaps, Q: q}); err != nil {
			t.Fatal(err)
		}
		if _, err := dedicated.SearchAll(grtree.Predicate{Op: grtree.OpOverlaps, Query: q}, ct); err != nil {
			t.Fatal(err)
		}
	}
	g, d := gt.Store().Stats().NodeReads, dedicated.Store().Stats().NodeReads
	t.Logf("search reads: gist-GR %d, dedicated GR-tree %d (ratio %.2f)", g, d, float64(g)/float64(d))
	if g < d/2 {
		t.Fatalf("box-scored tree reads under half the shape-scored tree's nodes: %d vs %d", g, d)
	}
}

// rootOf returns the id of the tree's root node.
func rootOf(t *testing.T, tr *Tree) nodestore.NodeID {
	t.Helper()
	root := nodestore.NilNode
	err := tr.Walk(func(id nodestore.NodeID, _ int, _ []Entry) error {
		if root == nodestore.NilNode {
			root = id
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestDecodeNodeRejectsBadPages: a garbage root page fails the check and the
// search with an error naming the node, never a panic (CHECK INDEX reports
// it; the server survives it). The decoder's own cases are the kernel's
// TestDecodeRejectsBadPages.
func TestDecodeNodeRejectsBadPages(t *testing.T) {
	store := nodestore.NewMem()
	tr, err := Create(store, IntervalClass{})
	if err != nil {
		t.Fatal(err)
	}
	root := rootOf(t, tr)
	if err := store.Write(root, bytes.Repeat([]byte{0xff}, nodestore.NodeSize)); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("node %d", root)
	if err := tr.Check(); err == nil || !strings.Contains(err.Error(), name) {
		t.Errorf("Check over a corrupt root page: %v", err)
	}
	if _, err := tr.Search(IntervalOverlaps{0, 10}); err == nil || !strings.Contains(err.Error(), name) {
		t.Errorf("Search over a corrupt root page: %v", err)
	}
}

// TestParentFormatPageRefused: a node page in the layout before the kernel
// (magic "GIST", length-prefixed keys) is refused, not misread.
func TestParentFormatPageRefused(t *testing.T) {
	store := nodestore.NewMem()
	tr, err := Create(store, IntervalClass{})
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, nodestore.NodeSize)
	binary.BigEndian.PutUint32(page[0:4], 0x47495354) // "GIST"
	page[4] = 1                                       // leaf
	binary.BigEndian.PutUint16(page[6:8], 1)
	binary.BigEndian.PutUint16(page[16:18], 16)
	copy(page[18:], IntervalKey(1, 5))
	binary.BigEndian.PutUint64(page[34:], 1)
	if err := store.Write(rootOf(t, tr), page); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Search(IntervalOverlaps{0, 10}); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("search over a parent-format page: %v", err)
	}
}

// TestDecodedKeysSurvivePageRewrite: a node is decoded from the store's page
// in place, and that page is rewritten in place by the next write, so every
// decoded key must be a copy.
func TestDecodedKeysSurvivePageRewrite(t *testing.T) {
	store := nodestore.NewMem()
	tr, err := Create(store, IntervalClass{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if err := tr.Insert(IntervalKey(i, i+3), Payload(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var kept []string
	var want [][]byte
	err = tr.Walk(func(_ nodestore.NodeID, _ int, entries []Entry) error {
		for _, e := range entries {
			kept = append(kept, e.Bound)
			want = append(want, []byte(e.Bound))
		}
		return nil
	})
	if err != nil || len(kept) != 5 {
		t.Fatalf("walk: %d keys, %v", len(kept), err)
	}
	if err := store.Write(rootOf(t, tr), bytes.Repeat([]byte{0xa5}, nodestore.NodeSize)); err != nil {
		t.Fatal(err)
	}
	for i, k := range kept {
		if !bytes.Equal([]byte(k), want[i]) {
			t.Fatalf("key %d became %x after its page was rewritten, want %x", i, k, want[i])
		}
	}
}

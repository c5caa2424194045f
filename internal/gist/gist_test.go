package gist

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/grtree"
	"repro/internal/nodestore"
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
	if err := tr.Insert(make([]byte, 64), 1); err == nil {
		t.Fatal("oversized key must fail")
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
	ops := map[GROp]grtree.Op{
		GROverlaps: grtree.OpOverlaps, GREqual: grtree.OpEqual,
		GRContains: grtree.OpContains, GRContainedIn: grtree.OpContainedIn,
	}
	// Current time and a later time (growth seen identically by both).
	for _, at := range []chronon.Instant{300, 420} {
		clock.Set(at)
		for trial := 0; trial < 25; trial++ {
			q := randomExtent(rng, 300)
			for gop, dop := range ops {
				got, err := gt.Search(GRQuery{Op: gop, Q: q})
				if err != nil {
					t.Fatal(err)
				}
				want, err := dedicated.SearchAll(grtree.Predicate{Op: dop, Query: q}, at)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("at ct=%d op %v on %v: gist %d vs dedicated %d", at, dop, q, len(got), len(want))
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

// TestGRKeyClassSplitQualityGap quantifies the Section 7 trade-off: the
// generic sort-split produces at least as much leaf-bound overlap as the
// dedicated GR-tree's adapted R* split.
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
	gistReads := func() uint64 { return gt.store.Stats().NodeReads }
	dedReads := func() uint64 { return dedicated.Store().Stats().NodeReads }
	gt.store.ResetStats()
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
	g, d := gistReads(), dedReads()
	t.Logf("search reads: gist-GR %d, dedicated GR-tree %d (ratio %.2f)", g, d, float64(g)/float64(d))
	if g < d/2 {
		t.Fatalf("generic split unexpectedly beats the dedicated split by 2x: %d vs %d", g, d)
	}
}

// TestDecodeNodeRejectsBadPages feeds the decoder truncated, foreign and
// corrupt pages: count and key lengths come from disk, so every one must be
// an error naming the node and none a panic (CHECK INDEX reports it; the
// server survives it).
func TestDecodeNodeRejectsBadPages(t *testing.T) {
	good := make([]byte, nodestore.NodeSize)
	n := &node{id: 7, leaf: true, entries: []Entry{{Key: IntervalKey(1, 5), Ref: 1}, {Key: IntervalKey(2, 9), Ref: 2}}}
	if err := n.encode(good); err != nil {
		t.Fatal(err)
	}
	if back, err := decodeNode(7, good); err != nil || len(back.entries) != 2 {
		t.Fatalf("good page: %v", err)
	}
	corrupt := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		edit(b)
		return b
	}
	firstKeyLen := nodeHeader
	cases := map[string][]byte{
		"empty":            nil,
		"short header":     good[:10],
		"foreign magic":    corrupt(func(b []byte) { b[0] ^= 0xff }),
		"all ones":         bytes.Repeat([]byte{0xff}, nodestore.NodeSize),
		"count too large":  corrupt(func(b []byte) { binary.BigEndian.PutUint16(b[6:8], 0xffff) }),
		"count past data":  corrupt(func(b []byte) { binary.BigEndian.PutUint16(b[6:8], 400) })[:nodeHeader+30],
		"key length 65535": corrupt(func(b []byte) { binary.BigEndian.PutUint16(b[firstKeyLen:], 0xffff) }),
		"truncated key":    good[:nodeHeader+2+4],
		"truncated ref":    good[:nodeHeader+2+len(n.entries[0].Key)+3],
		"no second entry":  good[:nodeHeader+2+len(n.entries[0].Key)+8+1],
	}
	for name, page := range cases {
		if got, err := decodeNode(7, page); err == nil {
			t.Errorf("%s: decoded %d entries, want an error", name, len(got.entries))
		} else if !strings.Contains(err.Error(), "node 7") {
			t.Errorf("%s: error %q does not name the node", name, err)
		}
	}

	// Through a tree: a garbage root page fails the search and the check.
	store := nodestore.NewMem()
	tr, err := Create(store, IntervalClass{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(tr.root, cases["key length 65535"]); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err == nil {
		t.Error("Check passed over a corrupt root page")
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
	n, err := tr.readNode(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for _, e := range n.entries {
		want = append(want, append([]byte(nil), e.Key...))
	}
	if err := store.Write(tr.root, bytes.Repeat([]byte{0xa5}, nodestore.NodeSize)); err != nil {
		t.Fatal(err)
	}
	for i, e := range n.entries {
		if !bytes.Equal(e.Key, want[i]) {
			t.Fatalf("key %d became %x after its page was rewritten, want %x", i, e.Key, want[i])
		}
	}
}

package rtree

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/nodestore"
)

// FuzzEvenPartition pins the run-partitioning invariants the STR packer
// relies on: the runs cover n exactly, none exceeds maxRun, none is empty,
// and the sizes are balanced to within one.
func FuzzEvenPartition(f *testing.F) {
	f.Add(0, 1)
	f.Add(1, 1)
	f.Add(7, 3)
	f.Add(100, 8)
	f.Add(64, 64)
	f.Add(65, 64)
	f.Add(4096, 6)
	f.Fuzz(func(t *testing.T, n, maxRun int) {
		if n < 0 || n > 1<<20 || maxRun < 1 || maxRun > 1<<20 {
			t.Skip()
		}
		runs := evenPartition(n, maxRun)
		if len(runs) < 1 {
			t.Fatalf("evenPartition(%d, %d): no runs", n, maxRun)
		}
		wantRuns := (n + maxRun - 1) / maxRun
		if wantRuns < 1 {
			wantRuns = 1
		}
		if len(runs) != wantRuns {
			t.Fatalf("evenPartition(%d, %d): %d runs, want %d", n, maxRun, len(runs), wantRuns)
		}
		sum, min, max := 0, runs[0], runs[0]
		for _, r := range runs {
			sum += r
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
		}
		if sum != n {
			t.Fatalf("evenPartition(%d, %d): runs sum to %d", n, maxRun, sum)
		}
		if max > maxRun {
			t.Fatalf("evenPartition(%d, %d): run of %d exceeds maxRun", n, maxRun, max)
		}
		if n > 0 && min < 1 {
			t.Fatalf("evenPartition(%d, %d): empty run", n, maxRun)
		}
		if max-min > 1 {
			t.Fatalf("evenPartition(%d, %d): unbalanced runs (min %d, max %d)", n, maxRun, min, max)
		}
	})
}

// spans is the smallest key class: a bound is one int64.
var spans = Format[int64]{
	Name: "spans", NodeMagic: 0x5350414E, MetaMagic: 0x5350414D, EntrySize: 16,
	Put: func(buf []byte, entries []Entry[int64], _ bool) {
		for i, e := range entries {
			binary.BigEndian.PutUint64(buf[16*i:], uint64(e.Bound))
			binary.BigEndian.PutUint64(buf[16*i+8:], e.Ref)
		}
	},
	Get: func(buf []byte, entries []Entry[int64], _ bool) {
		for i := range entries {
			entries[i] = Entry[int64]{Bound: int64(binary.BigEndian.Uint64(buf[16*i:])), Ref: binary.BigEndian.Uint64(buf[16*i+8:])}
		}
	},
}

// TestDecodeRejectsBadPages feeds the kernel's one decoder truncated, foreign
// and corrupt pages: each must be an error naming the node, none a panic.
func TestDecodeRejectsBadPages(t *testing.T) {
	tr, err := Create(nodestore.NewMem(), &spans, Config{})
	if err != nil {
		t.Fatal(err)
	}
	good := make([]byte, nodestore.NodeSize)
	tr.encode(&node[int64]{id: 7, entries: []Entry[int64]{{Bound: 3, Ref: 1}, {Bound: 9, Ref: 2}}}, good)
	if _, es, err := tr.decode(7, good, nil); err != nil || len(es) != 2 || es[1].Bound != 9 {
		t.Fatalf("good page: %v", err)
	}
	corrupt := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		edit(b)
		return b
	}
	cases := map[string][]byte{
		"empty":             nil,
		"short header":      good[:10],
		"foreign magic":     corrupt(func(b []byte) { b[0] ^= 0xff }),
		"all ones":          bytes.Repeat([]byte{0xff}, nodestore.NodeSize),
		"count > capacity":  corrupt(func(b []byte) { binary.BigEndian.PutUint16(b[6:8], uint16(spans.Capacity()+1)) }),
		"count past data":   good[:HeaderSize+20],
		"leaf at level 3":   corrupt(func(b []byte) { b[5] = 3 }),
		"internal at level": corrupt(func(b []byte) { b[4] = 0 }),
	}
	for name, page := range cases {
		if _, es, err := tr.decode(7, page, nil); err == nil {
			t.Errorf("%s: decoded %d entries, want an error", name, len(es))
		} else if !strings.Contains(err.Error(), "spans: node 7") {
			t.Errorf("%s: error %q does not name the tree and node", name, err)
		}
	}

	// Through the tree: a corrupt root fails every traversal.
	if err := tr.store.Write(tr.root, cases["count > capacity"]); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(func(p, c int64) bool { return true }); err == nil {
		t.Error("Check passed over a corrupt root page")
	}
	if _, _, err := tr.Search(nil).Next(); err == nil {
		t.Error("a search read a corrupt root page without an error")
	}
}

package nodestore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/lock"
	"repro/internal/sbspace"
	"repro/internal/storage"
)

func newSpace() (*sbspace.Space, *lock.Manager) {
	bp := storage.NewBufferPool(storage.NewMemPager(), 512)
	lm := lock.New()
	return sbspace.New(1, "spc", bp, lm), lm
}

// storesUnderTest returns each Store implementation plus a reopen function
// (nil when reopening is not applicable).
func storesUnderTest(t *testing.T) map[string]func() (Store, func() Store) {
	return map[string]func() (Store, func() Store){
		"mem": func() (Store, func() Store) { return NewMem(), nil },
		"single-lo": func() (Store, func() Store) {
			space, lm := newSpace()
			s, h, err := CreateLO(space, 1, lock.CommittedRead, SingleLO)
			if err != nil {
				t.Fatal(err)
			}
			reopen := func() Store {
				s.Close()
				lm.ReleaseAll(1)
				s2, err := OpenLO(space, 2, lock.CommittedRead, h, sbspace.ReadWrite)
				if err != nil {
					t.Fatal(err)
				}
				return s2
			}
			return s, reopen
		},
		"per-node-lo": func() (Store, func() Store) {
			space, lm := newSpace()
			s, h, err := CreateLO(space, 1, lock.CommittedRead, PerNodeLO)
			if err != nil {
				t.Fatal(err)
			}
			reopen := func() Store {
				s.Close()
				lm.ReleaseAll(1)
				s2, err := OpenLO(space, 2, lock.CommittedRead, h, sbspace.ReadWrite)
				if err != nil {
					t.Fatal(err)
				}
				return s2
			}
			return s, reopen
		},
		"subtree-lo": func() (Store, func() Store) {
			space, lm := newSpace()
			s, h, err := CreateLO(space, 1, lock.CommittedRead, PerSubtreeLO(4))
			if err != nil {
				t.Fatal(err)
			}
			reopen := func() Store {
				s.Close()
				lm.ReleaseAll(1)
				s2, err := OpenLO(space, 2, lock.CommittedRead, h, sbspace.ReadWrite)
				if err != nil {
					t.Fatal(err)
				}
				return s2
			}
			return s, reopen
		},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, mk := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			s, reopen := mk()
			var ids []NodeID
			for i := 0; i < 10; i++ {
				id, err := s.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]byte, NodeSize)
				for j := range buf {
					buf[j] = byte(i + 1)
				}
				if err := s.Write(id, buf); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			check := func(s Store) {
				for i, id := range ids {
					buf := make([]byte, NodeSize)
					if err := Read(s, id, buf); err != nil {
						t.Fatal(err)
					}
					want := bytes.Repeat([]byte{byte(i + 1)}, NodeSize)
					if !bytes.Equal(buf, want) {
						t.Fatalf("node %d content mismatch", id)
					}
				}
			}
			check(s)
			if err := s.SetMeta([]byte("tree meta")); err != nil {
				t.Fatal(err)
			}
			m, err := s.Meta()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(m, []byte("tree meta")) {
				t.Fatalf("meta: %q", m[:16])
			}
			if reopen != nil {
				s2 := reopen()
				check(s2)
				m, err := s2.Meta()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(m, []byte("tree meta")) {
					t.Fatal("meta lost across reopen")
				}
			}
		})
	}
}

func TestStoreFreeReuse(t *testing.T) {
	for name, mk := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			s, _ := mk()
			id1, _ := s.Alloc()
			id2, _ := s.Alloc()
			if err := s.Free(id1); err != nil {
				t.Fatal(err)
			}
			id3, err := s.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if id3 != id1 {
				t.Fatalf("freed node not reused: got %d want %d", id3, id1)
			}
			buf := make([]byte, NodeSize)
			if err := Read(s, id3, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, make([]byte, NodeSize)) {
				t.Fatal("reused node not zeroed")
			}
			_ = id2
		})
	}
}

func TestStoreStats(t *testing.T) {
	for name, mk := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			s, _ := mk()
			id, _ := s.Alloc()
			buf := make([]byte, NodeSize)
			s.Write(id, buf)
			Read(s, id, buf)
			st := s.Stats()
			if st.NodeAllocs != 1 || st.NodeWrites < 1 || st.NodeReads < 1 {
				t.Fatalf("stats: %+v", st)
			}
			s.ResetStats()
			if s.Stats() != (Stats{}) {
				t.Fatal("reset")
			}
			d := st.Sub(Stats{NodeReads: 1})
			if d.NodeReads != st.NodeReads-1 {
				t.Fatal("sub")
			}
		})
	}
}

func TestPerNodePlacementOpensPerAccess(t *testing.T) {
	// Section 5.3: per-node LOs pay an open/close per node access.
	space, lm := newSpace()
	defer lm.ReleaseAll(1)
	s, _, err := CreateLO(space, 1, lock.CommittedRead, PerNodeLO)
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := s.Alloc()
	id2, _ := s.Alloc()
	buf := make([]byte, NodeSize)
	before := space.Stats()
	for i := 0; i < 5; i++ {
		if err := Read(s, id1, buf); err != nil {
			t.Fatal(err)
		}
		if err := Read(s, id2, buf); err != nil {
			t.Fatal(err)
		}
	}
	d := space.Stats()
	// Alternating nodes defeats the one-slot group cache: every access pays
	// an open (the Section 5.3 cost of per-node placement).
	if d.Opens-before.Opens < 9 {
		t.Fatalf("per-node alternating reads must reopen per access: %+v vs %+v", before, d)
	}
	// Repeated access to the same node reuses the cached open object.
	mid := space.Stats()
	for i := 0; i < 5; i++ {
		if err := Read(s, id2, buf); err != nil {
			t.Fatal(err)
		}
	}
	if space.Stats().Opens != mid.Opens {
		t.Fatal("same-node reads must reuse the cached open LO")
	}

	// Single-LO placement reads without extra opens.
	s2, _, err := CreateLO(space, 1, lock.CommittedRead, SingleLO)
	if err != nil {
		t.Fatal(err)
	}
	id3, _ := s2.Alloc()
	before = space.Stats()
	for i := 0; i < 5; i++ {
		if err := Read(s2, id3, buf); err != nil {
			t.Fatal(err)
		}
	}
	d = space.Stats()
	if d.Opens != before.Opens {
		t.Fatal("single-LO reads must not reopen")
	}
}

func TestMetaTooLarge(t *testing.T) {
	s := NewMem()
	if err := s.SetMeta(make([]byte, MetaSize+1)); err == nil {
		t.Fatal("oversized meta must fail")
	}
}

func TestReadMissingNode(t *testing.T) {
	s := NewMem()
	if err := Read(s, 42, make([]byte, NodeSize)); err == nil {
		t.Fatal("read of unallocated node must fail")
	}
}

// TestConcurrentViews: scan workers view nodes from several goroutines at
// once, and every view sees its page and is counted.
func TestConcurrentViews(t *testing.T) {
	for name, mk := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			s, _ := mk()
			var ids []NodeID
			for i := 0; i < 8; i++ {
				id, err := s.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Write(id, bytes.Repeat([]byte{byte(id)}, NodeSize)); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			s.ResetStats()
			const workers, views = 4, 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < views; i++ {
						id := ids[(w+i)%len(ids)]
						err := s.View(id, func(page []byte) error {
							if page[0] != byte(id) || page[NodeSize-1] != byte(id) {
								return fmt.Errorf("node %d viewed as %d", id, page[0])
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if got := s.Stats().NodeReads; got != workers*views {
				t.Fatalf("%d views counted, want %d", got, workers*views)
			}
		})
	}
}

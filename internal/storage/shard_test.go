package storage

import (
	"sync"
	"testing"
)

// TestShardHeuristic: small pools keep the exact single-LRU semantics the
// experiment harnesses rely on; server-sized pools split into shards.
func TestShardHeuristic(t *testing.T) {
	cases := []struct{ capacity, shards int }{
		{1, 1}, {2, 1}, {64, 1}, {127, 1},
		{128, 2}, {256, 4}, {512, 8}, {4096, 8},
	}
	for _, c := range cases {
		bp := NewBufferPool(NewMemPager(), c.capacity)
		if got := bp.Shards(); got != c.shards {
			t.Errorf("capacity %d: %d shards, want %d", c.capacity, got, c.shards)
		}
	}
}

// TestShardedCapacitySplit: the frame budget is divided across shards
// without loss.
func TestShardedCapacitySplit(t *testing.T) {
	bp := NewShardedBufferPool(NewMemPager(), 10, 4)
	total := 0
	for _, sh := range bp.shards {
		if sh.capacity < 2 || sh.capacity > 3 {
			t.Fatalf("uneven shard capacity %d", sh.capacity)
		}
		total += sh.capacity
	}
	if total != 10 {
		t.Fatalf("shard capacities sum to %d, want 10", total)
	}
}

// TestShardedPoolConcurrentFetch: many goroutines hammering fetch/unpin
// across all shards — run under -race by `make check`. Fetches must always
// equal hits + physical reads, whatever the interleaving.
func TestShardedPoolConcurrentFetch(t *testing.T) {
	pager := NewMemPager()
	bp := NewShardedBufferPool(pager, 64, 4)
	var ids []PageID
	for i := 0; i < 128; i++ {
		f, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, f.ID)
		bp.Unpin(f, true)
	}
	before := bp.Stats()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids[(seed*37+i)%len(ids)]
				f, err := bp.Fetch(id)
				if err != nil {
					errs <- err
					return
				}
				if f.ID != id {
					errs <- ErrPoolFull // any sentinel; checked below
					return
				}
				bp.Unpin(f, false)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent fetch: %v", err)
	}
	st := bp.Stats().Sub(before)
	if st.Fetches != workers*500 {
		t.Fatalf("fetches = %d, want %d", st.Fetches, workers*500)
	}
	if st.Fetches != st.Hits+st.Reads {
		t.Fatalf("fetches (%d) != hits (%d) + reads (%d)", st.Fetches, st.Hits, st.Reads)
	}
}

// TestStatsConcurrentWithFetch: Stats() is an atomic snapshot, callable
// while other sessions fetch (SYSPROFILE and the benchmark harness read the
// counters mid-run), and a fetch counts itself before its hit.
func TestStatsConcurrentWithFetch(t *testing.T) {
	bp := NewBufferPool(NewMemPager(), 256)
	f, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID
	bp.Unpin(f, true)
	fetching := func() (stop func()) {
		var wg sync.WaitGroup
		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				fr, err := bp.Fetch(id)
				if err != nil {
					return
				}
				bp.Unpin(fr, false)
			}
		}()
		return func() { close(done); wg.Wait() }
	}

	stop := fetching()
	defer stop()
	for i := 0; i < 1000; i++ {
		if st := bp.Stats(); st.Fetches < st.Hits {
			t.Fatalf("inconsistent snapshot: %v", st)
		}
	}
}

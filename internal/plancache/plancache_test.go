package plancache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

// counters returns a registry and a reader of the cache's three counters in it.
func counters() (*obs.Registry, func() (hits, misses, invals uint64)) {
	reg := obs.NewRegistry()
	return reg, func() (uint64, uint64, uint64) {
		s := reg.Snapshot()
		return s.Get("plan_cache.hits"), s.Get("plan_cache.misses"), s.Get("plan_cache.invalidations")
	}
}

func TestHitMiss(t *testing.T) {
	reg, read := counters()
	c := New(4, reg)
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put("k", 1, "plan")
	v, ok := c.Get("k", 1)
	if !ok || v.(string) != "plan" {
		t.Fatalf("want hit with plan, got %v %v", v, ok)
	}
	if hits, misses, _ := read(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestGenerationInvalidation(t *testing.T) {
	reg, read := counters()
	c := New(4, reg)
	c.Put("k", 1, "old")
	if _, ok := c.Get("k", 2); ok {
		t.Fatal("stale-generation entry must not hit")
	}
	if _, misses, invals := read(); invals != 1 || misses != 1 {
		t.Fatalf("invals=%d misses=%d", invals, misses)
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not evicted, len=%d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, nil)
	c.Put("a", 1, 1)
	c.Put("b", 1, 2)
	c.Get("a", 1) // a is now most recent
	c.Put("c", 1, 3)
	if _, ok := c.Get("b", 1); ok {
		t.Fatal("LRU entry b should have been evicted")
	}
	if _, ok := c.Get("a", 1); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if _, ok := c.Get("c", 1); !ok {
		t.Fatal("new entry c missing")
	}
}

func TestInvalidateSweep(t *testing.T) {
	reg, read := counters()
	c := New(8, reg)
	c.Put("a", 1, 1)
	c.Put("b", 2, 2)
	c.Put("c", 2, 3)
	c.Invalidate(2)
	if c.Len() != 2 {
		t.Fatalf("want 2 surviving entries, got %d", c.Len())
	}
	if _, _, invals := read(); invals != 1 {
		t.Fatalf("invals=%d", invals)
	}
}

func TestPutReplace(t *testing.T) {
	c := New(2, nil)
	c.Put("k", 1, "one")
	c.Put("k", 2, "two")
	if c.Len() != 1 {
		t.Fatalf("replace grew the cache: len=%d", c.Len())
	}
	v, ok := c.Get("k", 2)
	if !ok || v.(string) != "two" {
		t.Fatalf("want replaced value, got %v %v", v, ok)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(32, obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%64)
				if i%3 == 0 {
					c.Put(key, uint64(i%5), i)
				} else {
					c.Get(key, uint64(i%5))
				}
				if i%100 == 0 {
					c.Invalidate(uint64(i % 5))
				}
			}
		}(g)
	}
	wg.Wait()
}

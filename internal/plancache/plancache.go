// Package plancache implements the engine-wide shared plan cache: a
// bounded, mutex-guarded LRU keyed by normalized SQL text, with every
// entry stamped by the catalog generation that planned it. DDL bumps the
// generation; a Get that finds an entry from an older generation evicts it
// and reports a miss (counted as an invalidation), so no statement can
// ever run a plan that references a dropped or rebuilt index.
package plancache

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

type entry struct {
	key string
	gen uint64
	val any
}

// Cache is a bounded LRU of planned statements.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	obs   *obs.Registry
}

// DefaultCap is the cache capacity when the caller passes cap <= 0.
const DefaultCap = 256

// New builds a cache holding at most cap entries that counts its hits,
// misses and invalidations in reg (a nil registry counts nothing).
func New(cap int, reg *obs.Registry) *Cache {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Cache{
		cap:   cap,
		ll:    list.New(),
		items: make(map[string]*list.Element, cap),
		obs:   reg,
	}
}

// Get returns the cached value for key if present and planned at the
// current catalog generation. A stale entry is evicted and counted as an
// invalidation (plus the miss the caller is about to repair).
func (c *Cache) Get(key string, gen uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.obs.Inc(obs.PlanCacheMisses)
		return nil, false
	}
	en := el.Value.(*entry)
	if en.gen != gen {
		c.ll.Remove(el)
		delete(c.items, key)
		c.obs.Inc(obs.PlanCacheInvalidations)
		c.obs.Inc(obs.PlanCacheMisses)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.obs.Inc(obs.PlanCacheHits)
	return en.val, true
}

// Put stores val under key at generation gen, evicting the least recently
// used entry if the cache is full.
func (c *Cache) Put(key string, gen uint64, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		en := el.Value.(*entry)
		en.gen, en.val = gen, val
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&entry{key: key, gen: gen, val: val})
	c.items[key] = el
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*entry).key)
	}
}

// Invalidate drops every entry not planned at generation gen. The engine
// calls it opportunistically after DDL so stale plans don't occupy LRU
// slots until their keys are touched again.
func (c *Cache) Invalidate(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		en := el.Value.(*entry)
		if en.gen != gen {
			c.ll.Remove(el)
			delete(c.items, en.key)
			c.obs.Inc(obs.PlanCacheInvalidations)
		}
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

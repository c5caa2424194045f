package storage

import (
	"errors"
	"reflect"
	"testing"
)

// lruPool is a single-shard pool of capacity frames holding that many
// allocated pages, every one pinned; ids are in allocation order.
func lruPool(t *testing.T, capacity int) (*BufferPool, []*Frame) {
	t.Helper()
	bp := NewShardedBufferPool(NewMemPager(), capacity, 1)
	frames := make([]*Frame, capacity)
	for i := range frames {
		f, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return bp, frames
}

// evictions allocates n fresh pages, unpinning each at once, and returns the
// page each allocation evicted (0 when it evicted none), in order. A fresh
// page goes to the front of the list, so the pages evicted are the ones
// ahead of it in victim order.
func evictions(t *testing.T, bp *BufferPool, n int) []PageID {
	t.Helper()
	sh := bp.shards[0]
	var out []PageID
	for i := 0; i < n; i++ {
		before := make(map[PageID]bool, len(sh.frames))
		for id := range sh.frames {
			before[id] = true
		}
		f, err := bp.Allocate()
		if err != nil {
			t.Fatalf("allocation %d: %v", i, err)
		}
		bp.Unpin(f, false)
		gone := PageID(0)
		for id := range before {
			if _, ok := sh.frames[id]; !ok {
				if gone != 0 {
					t.Fatalf("allocation %d evicted both %d and %d", i, gone, id)
				}
				gone = id
			}
		}
		out = append(out, gone)
	}
	return out
}

func ids(fs ...*Frame) []PageID {
	out := make([]PageID, len(fs))
	for i, f := range fs {
		out[i] = f.ID
	}
	return out
}

// TestLRUVictimOrder pins the buffer pool's replacement order: the victim is
// the least recently unpinned frame that is not pinned again. The small
// single-shard pools of the experiments depend on this exact order.
func TestLRUVictimOrder(t *testing.T) {
	t.Run("unpin order", func(t *testing.T) {
		bp, f := lruPool(t, 3)
		bp.Unpin(f[1], false)
		bp.Unpin(f[2], false)
		bp.Unpin(f[0], false)
		if got, want := evictions(t, bp, 3), ids(f[1], f[2], f[0]); !reflect.DeepEqual(got, want) {
			t.Fatalf("evicted %v, want %v", got, want)
		}
	})

	t.Run("re-pinned frame is skipped", func(t *testing.T) {
		bp, f := lruPool(t, 3)
		for _, fr := range f {
			bp.Unpin(fr, false)
		}
		// f[0] is the least recently unpinned, but pinned again: it stays
		// listed and the victim search passes over it.
		if _, err := bp.Fetch(f[0].ID); err != nil {
			t.Fatal(err)
		}
		if got, want := evictions(t, bp, 2), ids(f[1], f[2]); !reflect.DeepEqual(got, want) {
			t.Fatalf("evicted %v, want %v", got, want)
		}
		// Its unpin makes it the most recent of the three still resident.
		bp.Unpin(f[0], false)
		got := evictions(t, bp, 3)
		if got[2] != f[0].ID {
			t.Fatalf("evicted %v, want %d last", got, f[0].ID)
		}
	})

	t.Run("a frame pinned twice stays pinned after one unpin", func(t *testing.T) {
		bp, f := lruPool(t, 2)
		bp.Unpin(f[0], false)
		bp.Unpin(f[1], false)
		g0, _ := bp.Fetch(f[0].ID)
		bp.Fetch(f[0].ID)
		bp.Unpin(g0, false)
		if got, want := evictions(t, bp, 1), ids(f[1]); !reflect.DeepEqual(got, want) {
			t.Fatalf("evicted %v, want %v", got, want)
		}
	})

	t.Run("free of a listed frame", func(t *testing.T) {
		bp, f := lruPool(t, 3)
		for _, fr := range f {
			bp.Unpin(fr, false)
		}
		if err := bp.Free(f[1].ID); err != nil {
			t.Fatal(err)
		}
		// The freed frame left a slot that the first allocation takes without
		// evicting; after it the others go in order.
		got := evictions(t, bp, 3)
		if want := []PageID{0, f[0].ID, f[2].ID}; !reflect.DeepEqual(got, want) {
			t.Fatalf("evicted %v, want %v", got, want)
		}
	})

	t.Run("every frame pinned", func(t *testing.T) {
		bp, f := lruPool(t, 2)
		bp.Unpin(f[0], false)
		bp.Unpin(f[1], false)
		// Both frames listed, both pinned again: no victim.
		bp.Fetch(f[0].ID)
		bp.Fetch(f[1].ID)
		if _, err := bp.Allocate(); !errors.Is(err, ErrPoolFull) {
			t.Fatalf("allocation with every frame pinned: %v, want ErrPoolFull", err)
		}
		if _, err := bp.Fetch(PageID(99)); !errors.Is(err, ErrPoolFull) {
			t.Fatalf("fetch with every frame pinned: %v, want ErrPoolFull", err)
		}
		bp.Unpin(f[1], false)
		if got, want := evictions(t, bp, 1), ids(f[1]); !reflect.DeepEqual(got, want) {
			t.Fatalf("evicted %v, want %v", got, want)
		}
	})

	t.Run("front-of-list unpins", func(t *testing.T) {
		bp, f := lruPool(t, 3)
		for _, fr := range f {
			bp.Unpin(fr, false)
		}
		// f[2] is at the front already: a fetch and unpin leaves the order.
		for i := 0; i < 3; i++ {
			g, err := bp.Fetch(f[2].ID)
			if err != nil {
				t.Fatal(err)
			}
			bp.Unpin(g, false)
		}
		// f[0] moves from the back to the front.
		g, _ := bp.Fetch(f[0].ID)
		bp.Unpin(g, false)
		if got, want := evictions(t, bp, 3), ids(f[1], f[2], f[0]); !reflect.DeepEqual(got, want) {
			t.Fatalf("evicted %v, want %v", got, want)
		}
	})
}

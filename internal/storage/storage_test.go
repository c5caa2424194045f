package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func testPagers(t *testing.T) map[string]Pager {
	t.Helper()
	fp, err := OpenFilePager(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fp.Close() })
	return map[string]Pager{"mem": NewMemPager(), "file": fp}
}

func TestPagerBasics(t *testing.T) {
	for name, p := range testPagers(t) {
		t.Run(name, func(t *testing.T) {
			id1, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			id2, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id1 == InvalidPage || id2 == InvalidPage || id1 == id2 {
				t.Fatalf("ids %d %d", id1, id2)
			}
			w := make([]byte, PageSize)
			copy(w, []byte("hello page"))
			if err := p.WritePage(id2, w); err != nil {
				t.Fatal(err)
			}
			r := make([]byte, PageSize)
			if err := p.ReadPage(id2, r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r, w) {
				t.Fatal("read != write")
			}
			// Fresh pages are zeroed.
			if err := p.ReadPage(id1, r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r, make([]byte, PageSize)) {
				t.Fatal("fresh page not zeroed")
			}
		})
	}
}

func TestPagerFreeReuse(t *testing.T) {
	for name, p := range testPagers(t) {
		t.Run(name, func(t *testing.T) {
			id1, _ := p.Allocate()
			id2, _ := p.Allocate()
			if err := p.Free(id1); err != nil {
				t.Fatal(err)
			}
			id3, err := p.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id3 != id1 {
				t.Fatalf("freed page not reused: got %d want %d", id3, id1)
			}
			// Reused page is zeroed.
			r := make([]byte, PageSize)
			if err := p.ReadPage(id3, r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r, make([]byte, PageSize)) {
				t.Fatal("reused page not zeroed")
			}
			_ = id2
		})
	}
}

func TestPagerErrors(t *testing.T) {
	for name, p := range testPagers(t) {
		t.Run(name, func(t *testing.T) {
			buf := make([]byte, PageSize)
			if err := p.ReadPage(999, buf); err == nil {
				t.Error("read out of range must fail")
			}
			if err := p.WritePage(0, buf); err == nil {
				t.Error("write page 0 must fail")
			}
			if err := p.Free(999); err == nil {
				t.Error("free out of range must fail")
			}
		})
	}
}

func TestFilePagerPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.db")
	p, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Allocate()
	w := make([]byte, PageSize)
	copy(w, []byte("durable"))
	if err := p.WritePage(id, w); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, err := OpenFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.NumPages() != 2 {
		t.Fatalf("NumPages after reopen = %d", p2.NumPages())
	}
	r := make([]byte, PageSize)
	if err := p2.ReadPage(id, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, w) {
		t.Fatal("page not durable")
	}
}

func TestBufferPoolHitsAndEviction(t *testing.T) {
	bp := NewBufferPool(NewMemPager(), 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		f, err := bp.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		copy(f.Data, []byte{byte(i + 1)})
		ids = append(ids, f.ID)
		bp.Unpin(f, true)
	}
	// Pool holds 2 frames; page ids[0] must have been evicted and written.
	st := bp.Stats()
	if st.Evictions == 0 || st.Writes == 0 {
		t.Fatalf("expected evictions: %v", st)
	}
	f, err := bp.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if f.Data[0] != 1 {
		t.Fatalf("evicted page content lost: %d", f.Data[0])
	}
	bp.Unpin(f, false)
	st2 := bp.Stats()
	if st2.Reads == 0 {
		t.Fatalf("fetch after eviction must be a miss: %v", st2)
	}
	// Re-fetch is a hit.
	before := bp.Stats()
	f, _ = bp.Fetch(ids[0])
	bp.Unpin(f, false)
	d := bp.Stats().Sub(before)
	if d.Hits != 1 || d.Reads != 0 {
		t.Fatalf("expected pure hit: %v", d)
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	bp := NewBufferPool(NewMemPager(), 2)
	f1, _ := bp.Allocate()
	f2, _ := bp.Allocate()
	if _, err := bp.Allocate(); err == nil {
		t.Fatal("allocation with all frames pinned must fail")
	}
	bp.Unpin(f1, false)
	bp.Unpin(f2, false)
	if _, err := bp.Allocate(); err != nil {
		t.Fatalf("allocation after unpin: %v", err)
	}
}

func TestBufferPoolFlushAll(t *testing.T) {
	mp := NewMemPager()
	bp := NewBufferPool(mp, 8)
	f, _ := bp.Allocate()
	copy(f.Data, []byte("flushed"))
	id := f.ID
	bp.Unpin(f, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, PageSize)
	if err := mp.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("flushed")) {
		t.Fatal("FlushAll did not reach the pager")
	}
}

// The flush hook runs before a dirty page's write-back, and the write waits
// for it: inside the hook the pager still holds the page's old bytes, and a
// hook that fails leaves the pager unwritten and the page dirty.
func TestBufferPoolFlushHookOrdering(t *testing.T) {
	mp := NewMemPager()
	bp := NewBufferPool(mp, 8)
	f, _ := bp.Allocate()
	bp.Unpin(f, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	onDisk := func() string {
		raw := make([]byte, PageSize)
		if err := mp.ReadPage(f.ID, raw); err != nil {
			t.Fatal(err)
		}
		return string(raw[:3])
	}
	if err := bp.Edit(1, f.ID, func(p []byte) error { copy(p, "new"); return nil }); err != nil {
		t.Fatal(err)
	}
	calls := 0
	var hookErr error
	bp.FlushHook = func() error {
		calls++
		if got := onDisk(); got != "\x00\x00\x00" {
			t.Errorf("hook call %d: the pager already holds %q", calls, got)
		}
		return hookErr
	}
	hookErr = errors.New("log unavailable")
	if err := bp.FlushAll(); err != hookErr {
		t.Fatalf("FlushAll with a failing hook: %v", err)
	}
	if got := onDisk(); got != "\x00\x00\x00" || !f.dirty.Load() {
		t.Fatalf("a failed hook let the write through: pager holds %q, dirty %v", got, f.dirty.Load())
	}
	hookErr = nil
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := onDisk(); calls != 2 || got != "new" || f.dirty.Load() {
		t.Fatalf("after %d hook calls the pager holds %q, dirty %v", calls, got, f.dirty.Load())
	}
}

func TestSlottedPageBasics(t *testing.T) {
	buf := make([]byte, PageSize)
	p := InitSlotted(buf)
	s1, err := p.Insert([]byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("beta"))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := p.Read(s1); !ok || string(got) != "alpha" {
		t.Fatalf("read s1: %q %v", got, ok)
	}
	if got, ok := p.Read(s2); !ok || string(got) != "beta" {
		t.Fatalf("read s2: %q %v", got, ok)
	}
	if !p.Delete(s1) {
		t.Fatal("delete failed")
	}
	if _, ok := p.Read(s1); ok {
		t.Fatal("read after delete")
	}
	if p.Delete(s1) {
		t.Fatal("double delete must fail")
	}
	// Dead slot is reused.
	s3, err := p.Insert([]byte("gamma"))
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Fatalf("dead slot not reused: %d vs %d", s3, s1)
	}
}

// TestSlottedPageNextSlot: NextSlot predicts Insert's slot choice — fresh
// index, dead-slot reuse — without mutating the page.
func TestSlottedPageNextSlot(t *testing.T) {
	buf := make([]byte, PageSize)
	p := InitSlotted(buf)
	if got := p.NextSlot(); got != 0 {
		t.Fatalf("empty page NextSlot %d", got)
	}
	before := append([]byte(nil), buf...)
	p.NextSlot()
	if !bytes.Equal(before, buf) {
		t.Fatal("NextSlot mutated the page")
	}
	s0, _ := p.Insert([]byte("a"))
	s1, _ := p.Insert([]byte("b"))
	if got := p.NextSlot(); got != s1+1 {
		t.Fatalf("NextSlot %d, want fresh %d", got, s1+1)
	}
	p.Delete(s0)
	if got := p.NextSlot(); got != s0 {
		t.Fatalf("NextSlot %d, want dead slot %d", got, s0)
	}
	s2, _ := p.Insert([]byte("c"))
	if s2 != s0 {
		t.Fatalf("Insert chose %d, NextSlot predicted %d", s2, s0)
	}
}

func TestSlottedPageUpdate(t *testing.T) {
	buf := make([]byte, PageSize)
	p := InitSlotted(buf)
	s, _ := p.Insert([]byte("short"))
	if err := p.Update(s, []byte("st")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Read(s); string(got) != "st" {
		t.Fatalf("shrink update: %q", got)
	}
	if err := p.Update(s, bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Read(s); len(got) != 100 {
		t.Fatalf("grow update: %d", len(got))
	}
	if err := p.Update(99, []byte("y")); err == nil {
		t.Fatal("update of missing slot must fail")
	}
}

func TestSlottedPageFillAndCompact(t *testing.T) {
	buf := make([]byte, PageSize)
	p := InitSlotted(buf)
	var slots []int
	payload := bytes.Repeat([]byte("z"), 64)
	for {
		s, err := p.Insert(payload)
		if err != nil {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 50 {
		t.Fatalf("page held only %d 64-byte tuples", len(slots))
	}
	// Delete every other tuple, then the freed space must be reusable via
	// compaction.
	for i := 0; i < len(slots); i += 2 {
		p.Delete(slots[i])
	}
	big := bytes.Repeat([]byte("B"), 200)
	if _, err := p.Insert(big); err != nil {
		t.Fatalf("insert after fragmentation: %v", err)
	}
	// Survivors intact after compaction.
	for i := 1; i < len(slots); i += 2 {
		got, ok := p.Read(slots[i])
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("survivor %d corrupted after compaction", slots[i])
		}
	}
}

func TestSlottedPageRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, PageSize)
	p := InitSlotted(buf)
	model := map[int][]byte{}
	for op := 0; op < 3000; op++ {
		switch rng.Intn(3) {
		case 0: // insert
			data := make([]byte, 1+rng.Intn(120))
			rng.Read(data)
			s, err := p.Insert(data)
			if err == nil {
				if _, exists := model[s]; exists {
					t.Fatalf("op %d: slot %d double-allocated", op, s)
				}
				model[s] = append([]byte(nil), data...)
			}
		case 1: // delete a random live slot
			for s := range model {
				if !p.Delete(s) {
					t.Fatalf("op %d: delete live slot %d failed", op, s)
				}
				delete(model, s)
				break
			}
		case 2: // update a random live slot
			for s := range model {
				data := make([]byte, 1+rng.Intn(120))
				rng.Read(data)
				if err := p.Update(s, data); err == nil {
					model[s] = append([]byte(nil), data...)
				}
				break
			}
		}
		// Verify all live slots every 100 ops.
		if op%100 == 0 {
			for s, want := range model {
				got, ok := p.Read(s)
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("op %d: slot %d mismatch", op, s)
				}
			}
		}
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Reads: 10, Writes: 5, Hits: 20, Fetches: 30, Evictions: 2}
	b := Stats{Reads: 4, Writes: 1, Hits: 15, Fetches: 19, Evictions: 1}
	d := a.Sub(b)
	if d.Reads != 6 || d.Writes != 4 || d.Hits != 5 || d.Fetches != 11 || d.Evictions != 1 {
		t.Fatalf("Sub: %+v", d)
	}
	if d.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestEndianHelpersProperty(t *testing.T) {
	f := func(v uint64) bool {
		var b [8]byte
		putBE64(b[:], v)
		return be64(b[:]) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(v uint16) bool {
		var b [2]byte
		putBE16(b[:], v)
		return be16(b[:]) == v
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkBufferPoolFetchHit(b *testing.B) {
	bp := NewBufferPool(NewMemPager(), 64)
	f, _ := bp.Allocate()
	id := f.ID
	bp.Unpin(f, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := bp.Fetch(id)
		if err != nil {
			b.Fatal(err)
		}
		bp.Unpin(fr, false)
	}
}

func BenchmarkSlottedInsert(b *testing.B) {
	buf := make([]byte, PageSize)
	payload := []byte("0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := InitSlotted(buf)
		for {
			if _, err := p.Insert(payload); err != nil {
				break
			}
		}
	}
}

var _ = fmt.Sprintf // keep fmt import if unused in some build configs

// loggedEdit is one journaled run.
type loggedEdit struct {
	tx            uint64
	id            PageID
	off           int
	before, after string
}

// journalTo sets bp's journal to record every run of every edit in log.
func journalTo(bp *BufferPool, log *[]loggedEdit) {
	bp.Journal = func(tx uint64, id PageID, runs []Run) error {
		for _, r := range runs {
			*log = append(*log, loggedEdit{tx, id, r.Off, string(r.Before), string(r.After)})
		}
		return nil
	}
}

// Edit journals exactly the changed byte range with both images, nothing for
// an edit that changes nothing or fails, and Apply journals nothing.
func TestEditJournalsTheChangedRange(t *testing.T) {
	bp := NewBufferPool(NewMemPager(), 8)
	var log []loggedEdit
	journalTo(bp, &log)
	f, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID
	bp.Unpin(f, true)
	page := func() string {
		f, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		defer bp.Unpin(f, false)
		return string(f.Data)
	}

	if err := bp.Edit(7, id, func(p []byte) error { copy(p[100:], "abc"); p[110] = 'z'; return nil }); err != nil {
		t.Fatal(err)
	}
	want := loggedEdit{7, id, 100, "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00", "abc\x00\x00\x00\x00\x00\x00\x00z"}
	if len(log) != 1 || log[0] != want {
		t.Fatalf("journal after one edit: %q, want %q", log, want)
	}
	if err := bp.Edit(7, id, func(p []byte) error { copy(p[100:], "abc"); return nil }); err != nil || len(log) != 1 {
		t.Fatalf("an edit that changes nothing journaled %d records (err %v)", len(log)-1, err)
	}
	before := page()
	failure := fmt.Errorf("refused")
	if err := bp.Edit(7, id, func(p []byte) error { return failure }); err != failure {
		t.Fatalf("failed edit returned %v", err)
	}
	if len(log) != 1 || page() != before {
		t.Fatal("a failed edit changed the page or the journal")
	}
	if err := bp.Apply(uint64(id), 200, []byte("redo")); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || page()[200:204] != "redo" {
		t.Fatalf("Apply journaled %d records or missed the page", len(log)-1)
	}
	if err := bp.Apply(uint64(id), PageSize-2, []byte("long")); err == nil {
		t.Fatal("an image overflowing the page was applied")
	}
	if err := bp.Apply(uint64(id)+3, 0, []byte("x")); err != nil || bp.Pager().NumPages() != uint64(id)+4 {
		t.Fatalf("Apply past the pager's end: %v, %d pages", err, bp.Pager().NumPages())
	}
}

// changedRuns finds the exact changed bytes wherever a change falls relative
// to its 64-byte blocks: a page changed at lo and at hi-1 only is one run
// [lo, hi) while fewer than mergeGap equal bytes lie between the two changes,
// and two one-byte runs otherwise.
func TestDiffRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]byte, PageSize)
	rng.Read(a)
	b := append([]byte(nil), a...)
	if runs := changedRuns(nil, a, b); len(runs) != 0 {
		t.Fatalf("equal pages: %d runs", len(runs))
	}
	for i := 0; i < 2000; i++ {
		lo := rng.Intn(PageSize)
		hi := lo + 1 + rng.Intn(PageSize-lo)
		copy(b, a)
		b[lo] ^= 1
		b[hi-1] ^= 0x80
		want := [][2]int{{lo, hi}}
		if hi-lo-2 >= mergeGap {
			want = [][2]int{{lo, lo + 1}, {hi - 1, hi}}
		}
		var got [][2]int
		for _, r := range changedRuns(nil, a, b) {
			got = append(got, [2]int{r.Off, r.Off + len(r.After)})
			if !bytes.Equal(r.Before, a[r.Off:r.Off+len(r.Before)]) || !bytes.Equal(r.After, b[r.Off:r.Off+len(r.After)]) {
				t.Fatalf("run at %d carries the wrong images", r.Off)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("change at %d and %d: runs %v, want %v", lo, hi-1, got, want)
		}
	}
}

// TestEditJournalsEachChangedRun holds Edit's split rule: each changed run is
// journaled apart, two changes share a record only while fewer than mergeGap
// equal bytes lie between them, and the journaled images take the page from
// before the edit to after it and back.
func TestEditJournalsEachChangedRun(t *testing.T) {
	bp := NewBufferPool(NewMemPager(), 8)
	var log []loggedEdit
	journalTo(bp, &log)
	f, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID
	bp.Unpin(f, true)
	page := func() []byte {
		f, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		defer bp.Unpin(f, false)
		return append([]byte(nil), f.Data...)
	}
	apply := func(p []byte, images func(loggedEdit) (int, string)) []byte {
		p = append([]byte(nil), p...)
		for _, e := range log {
			off, img := images(e)
			copy(p[off:], img)
		}
		return p
	}
	afterImage := func(e loggedEdit) (int, string) { return e.off, e.after }
	beforeImage := func(e loggedEdit) (int, string) { return e.off, e.before }

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		// 1-4 disjoint changes at random gaps, some under the merge gap.
		type change struct{ off, n int }
		var changes []change
		at := rng.Intn(200)
		for c := 1 + rng.Intn(4); c > 0 && at < PageSize; c-- {
			n := 1 + rng.Intn(min(100, PageSize-at))
			changes = append(changes, change{at, n})
			at += n + 1 + rng.Intn(2*mergeGap)
		}
		before := page()
		log = log[:0]
		if err := bp.Edit(9, id, func(p []byte) error {
			for _, c := range changes {
				for j := c.off; j < c.off+c.n; j++ {
					p[j] ^= byte(1 + rng.Intn(255))
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		after := page()
		if got := apply(before, afterImage); !bytes.Equal(got, after) {
			t.Fatalf("edit %d: after images do not rebuild the page (%d records)", i, len(log))
		}
		if got := apply(after, beforeImage); !bytes.Equal(got, before) {
			t.Fatalf("edit %d: before images do not restore the page (%d records)", i, len(log))
		}
		want := 1
		for c := 1; c < len(changes); c++ {
			if changes[c].off-(changes[c-1].off+changes[c-1].n) >= mergeGap {
				want++
			}
		}
		if len(log) != want {
			t.Fatalf("edit %d: changes %v journaled %d records, want %d", i, changes, len(log), want)
		}
		for j, e := range log {
			if e.tx != 9 || e.id != id || len(e.before) != len(e.after) || e.before == e.after ||
				e.before[0] == e.after[0] || e.before[len(e.before)-1] == e.after[len(e.after)-1] {
				t.Fatalf("edit %d: record %d is not a changed run: %+v", i, j, e)
			}
			if j > 0 && e.off-(log[j-1].off+len(log[j-1].after)) < mergeGap {
				t.Fatalf("edit %d: records %d and %d lie closer than the merge gap", i, j-1, j)
			}
		}
	}

	// The split point: mergeGap equal bytes between two changes split them,
	// one fewer does not.
	for _, gap := range []int{mergeGap - 1, mergeGap} {
		log = log[:0]
		if err := bp.Edit(9, id, func(p []byte) error { p[1000] ^= 1; p[1001+gap] ^= 1; return nil }); err != nil {
			t.Fatal(err)
		}
		if want := 1 + gap/mergeGap; len(log) != want {
			t.Fatalf("gap of %d equal bytes: %d records, want %d", gap, len(log), want)
		}
	}

	// An edit that changes nothing, or fails, journals nothing.
	log = log[:0]
	if err := bp.Edit(9, id, func(p []byte) error { copy(p[5:6], p[5:6]); return nil }); err != nil || len(log) != 0 {
		t.Fatalf("an edit that changes nothing journaled %d records (%v)", len(log), err)
	}
	failure := fmt.Errorf("refused")
	if err := bp.Edit(9, id, func(p []byte) error { return failure }); err != failure || len(log) != 0 {
		t.Fatalf("a failed edit journaled %d records (%v)", len(log), err)
	}

	// A redo-only edit (transaction 0) stays one record, however many runs
	// it changes. A heap-shaped insert (slot near the page's start, cell
	// near its end) into a page that already holds 20 slots journals the
	// header, the slot and the cell, not the page between them.
	log = log[:0]
	if err := bp.Edit(0, id, func(p []byte) error {
		clear(p)
		sp := InitSlotted(p)
		for i := 0; i < 20; i++ {
			if _, err := sp.Insert(bytes.Repeat([]byte{byte(i + 1)}, 40)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0].tx != 0 {
		t.Fatalf("a redo-only edit of many runs journaled %d records", len(log))
	}
	log = log[:0]
	if err := bp.Edit(9, id, func(p []byte) error {
		_, err := SlottedPage{Buf: p}.Insert(append(make([]byte, 8, 48), bytes.Repeat([]byte("r"), 40)...))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, e := range log {
		logged += len(e.after)
	}
	if len(log) > 3 || logged > 200 {
		t.Fatalf("a slotted insert journaled %d records, %d image bytes", len(log), logged)
	}
}

// Creating a pager's file syncs its directory, so the file's name is as
// durable as the pages later synced into it; opening an existing one does
// not.
func TestFilePagerSyncsItsDirectoryOnCreate(t *testing.T) {
	defer func(f func(string) error) { syncDir = f }(syncDir)
	var synced []string
	syncDir = func(d string) error { synced = append(synced, d); return nil }
	dir := t.TempDir()
	path := filepath.Join(dir, "space_1.dat")
	for i := 0; i < 2; i++ {
		p, err := OpenFilePager(path)
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("creating and reopening a pager synced %q, want [%s]", synced, dir)
	}
}

package sbspace

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/storage"
)

func newTestSpace(t *testing.T) (*Space, *lock.Manager) {
	t.Helper()
	bp := storage.NewBufferPool(storage.NewMemPager(), 256)
	lm := lock.New()
	return New(1, "spc", bp, lm), lm
}

func TestCreateWriteRead(t *testing.T) {
	s, lm := newTestSpace(t)
	h, err := s.Create(1)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := s.Open(1, h, ReadWrite, lock.CommittedRead)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello large object")
	if n, err := lo.WriteAt(msg, 0); err != nil || n != len(msg) {
		t.Fatalf("write: %d %v", n, err)
	}
	if sz, _ := lo.Size(); sz != int64(len(msg)) {
		t.Fatalf("size %d", sz)
	}
	got := make([]byte, len(msg))
	if n, err := lo.ReadAt(got, 0); err != nil || n != len(msg) {
		t.Fatalf("read: %d %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	if err := lo.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lo.Close(); err != ErrClosed {
		t.Fatal("double close must fail")
	}
	lm.ReleaseAll(1)
}

func TestCrossPageAndSparse(t *testing.T) {
	s, lm := newTestSpace(t)
	defer lm.ReleaseAll(1)
	h, _ := s.Create(1)
	lo, _ := s.Open(1, h, ReadWrite, lock.CommittedRead)

	// Write spanning three pages at a page-unaligned offset.
	data := bytes.Repeat([]byte("abcdefgh"), 1500) // 12000 bytes
	off := int64(storage.PageSize - 100)
	if _, err := lo.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := lo.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip")
	}
	// The hole before the write reads as zeros.
	hole := make([]byte, 50)
	if n, err := lo.ReadAt(hole, 10); err != nil || n != 50 {
		t.Fatalf("hole read: %d %v", n, err)
	}
	if !bytes.Equal(hole, make([]byte, 50)) {
		t.Fatal("hole must be zero-filled")
	}
	// Reads past the end are short.
	if n, _ := lo.ReadAt(make([]byte, 10), off+int64(len(data))+5); n != 0 {
		t.Fatalf("read past end: %d", n)
	}
}

func TestIndirectPages(t *testing.T) {
	s, lm := newTestSpace(t)
	defer lm.ReleaseAll(1)
	h, _ := s.Create(1)
	lo, _ := s.Open(1, h, ReadWrite, lock.CommittedRead)

	// Write a page far beyond the direct area to force the indirect chain.
	far := int64(directSlots+indirectSlots+10) * storage.PageSize
	probe := []byte("beyond direct pages")
	if _, err := lo.WriteAt(probe, far); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(probe))
	if _, err := lo.ReadAt(got, far); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, probe) {
		t.Fatal("indirect page round trip")
	}
	// Direct-area data coexists.
	if _, err := lo.WriteAt([]byte("front"), 0); err != nil {
		t.Fatal(err)
	}
	front := make([]byte, 5)
	lo.ReadAt(front, 0)
	if string(front) != "front" {
		t.Fatal("front data lost")
	}
}

func TestRandomisedReadWrite(t *testing.T) {
	s, lm := newTestSpace(t)
	defer lm.ReleaseAll(1)
	h, _ := s.Create(1)
	lo, _ := s.Open(1, h, ReadWrite, lock.CommittedRead)

	rng := rand.New(rand.NewSource(11))
	const extent = 64 * 1024
	model := make([]byte, extent)
	for op := 0; op < 300; op++ {
		off := rng.Int63n(extent - 512)
		n := 1 + rng.Intn(511)
		data := make([]byte, n)
		rng.Read(data)
		if _, err := lo.WriteAt(data, off); err != nil {
			t.Fatal(err)
		}
		copy(model[off:], data)
	}
	size, _ := lo.Size()
	got := make([]byte, size)
	if _, err := lo.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model[:size]) {
		t.Fatal("randomised content mismatch")
	}
}

func TestLOLocking(t *testing.T) {
	s, _ := newTestSpace(t)
	h, _ := s.Create(1)
	s.ReleaseTxLocks(1)

	// Two readers under committed read share the object.
	lo1, err := s.Open(1, h, ReadOnly, lock.CommittedRead)
	if err != nil {
		t.Fatal(err)
	}
	lo2, err := s.Open(2, h, ReadOnly, lock.CommittedRead)
	if err != nil {
		t.Fatal(err)
	}
	// A writer blocks until both close.
	opened := make(chan error, 1)
	go func() {
		lo, err := s.Open(3, h, ReadWrite, lock.CommittedRead)
		if err == nil {
			lo.Close()
		}
		opened <- err
	}()
	select {
	case <-opened:
		t.Fatal("writer admitted alongside readers")
	case <-time.After(20 * time.Millisecond):
	}
	lo1.Close()
	lo2.Close() // committed read: closing releases the shared locks
	if err := <-opened; err != nil {
		t.Fatal(err)
	}
	s.ReleaseTxLocks(3)
}

func TestRepeatableReadHoldsSharedLockPastClose(t *testing.T) {
	// Section 5.3: under repeatable read even shared LO locks are released
	// only at transaction end.
	s, lm := newTestSpace(t)
	h, _ := s.Create(1)
	s.ReleaseTxLocks(1)

	lo, err := s.Open(1, h, ReadOnly, lock.RepeatableRead)
	if err != nil {
		t.Fatal(err)
	}
	lo.Close()
	if !lm.TryAcquire(2, lock.Resource{Kind: lock.KindLargeObject, A: 1, B: uint64(h.Header)}, lock.Shared) {
		t.Fatal("second reader must still be able to share")
	}
	lm.ReleaseAll(2)
	if got := lm.HeldCount(1); got != 1 {
		t.Fatalf("repeatable read must hold the S lock past close, held=%d", got)
	}
	s.ReleaseTxLocks(1)
	if lm.HeldCount(1) != 0 {
		t.Fatal("transaction end must release")
	}
}

func TestDirtyReadTakesNoLock(t *testing.T) {
	s, lm := newTestSpace(t)
	h, _ := s.Create(1)
	s.ReleaseTxLocks(1)
	lo, err := s.Open(1, h, ReadOnly, lock.DirtyRead)
	if err != nil {
		t.Fatal(err)
	}
	if lm.HeldCount(1) != 0 {
		t.Fatal("dirty read must not lock")
	}
	lo.Close()
}

func TestWriteToReadOnlyFails(t *testing.T) {
	s, lm := newTestSpace(t)
	defer lm.ReleaseAll(1)
	h, _ := s.Create(1)
	s.ReleaseTxLocks(1)
	lo, _ := s.Open(1, h, ReadOnly, lock.CommittedRead)
	if _, err := lo.WriteAt([]byte("x"), 0); err == nil {
		t.Fatal("write through read-only open must fail")
	}
	if err := lo.Truncate(0); err == nil {
		t.Fatal("truncate through read-only open must fail")
	}
}

func TestDropFreesPages(t *testing.T) {
	s, lm := newTestSpace(t)
	h, _ := s.Create(1)
	lo, _ := s.Open(1, h, ReadWrite, lock.CommittedRead)
	lo.WriteAt(bytes.Repeat([]byte("d"), 5*storage.PageSize), 0)
	lo.Close()
	before := s.Pool().Pager().NumPages()
	if err := s.Drop(1, h); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(1)
	// Creating a new object of the same size must reuse the freed pages.
	h2, _ := s.Create(2)
	lo2, _ := s.Open(2, h2, ReadWrite, lock.CommittedRead)
	lo2.WriteAt(bytes.Repeat([]byte("e"), 5*storage.PageSize), 0)
	lo2.Close()
	lm.ReleaseAll(2)
	if after := s.Pool().Pager().NumPages(); after > before {
		t.Fatalf("pages not reused: before drop %d, after recreate %d", before, after)
	}
	// Opening a dropped object fails.
	if _, err := s.Open(3, h, ReadOnly, lock.DirtyRead); err == nil {
		t.Fatal("open of dropped LO must fail")
	}
}

// With a journal, a drop can be undone: its pages stay allocated until the
// dropping transaction commits, a commit after an undo of the drop frees
// nothing, and an undo restores the object.
func TestJournaledDropFreesAtCommit(t *testing.T) {
	s, lm := newTestSpace(t)
	type edit struct {
		page   storage.PageID
		off    int
		before []byte
	}
	var undo []edit
	s.Pool().Journal = func(tx uint64, page storage.PageID, runs []storage.Run) error {
		for _, r := range runs {
			undo = append(undo, edit{page, r.Off, append([]byte(nil), r.Before...)})
		}
		return nil
	}
	h, _ := s.Create(1)
	lo, _ := s.Open(1, h, ReadWrite, lock.CommittedRead)
	lo.WriteAt(bytes.Repeat([]byte("d"), 3*storage.PageSize), 0)
	lo.Close()
	lm.ReleaseAll(1)
	pages := s.Pool().Pager().NumPages()

	// Dropped, then undone: the object is back and its commit frees nothing.
	undo = nil
	if err := s.Drop(2, h); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(2, h, ReadOnly, lock.DirtyRead); err == nil {
		t.Fatal("open of a dropped LO must fail")
	}
	for i := len(undo) - 1; i >= 0; i-- {
		s.Pool().Apply(uint64(undo[i].page), uint16(undo[i].off), undo[i].before)
	}
	if err := s.EndTx(2, true); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(2)
	lo, err := s.Open(3, h, ReadOnly, lock.DirtyRead)
	if err != nil {
		t.Fatalf("undone drop: %v", err)
	}
	got := make([]byte, 3*storage.PageSize)
	if n, _ := lo.ReadAt(got, 0); n != len(got) || !bytes.Equal(got, bytes.Repeat([]byte("d"), len(got))) {
		t.Fatal("undone drop lost the object's data")
	}
	lo.Close()

	// Dropped and committed: the pages are reused.
	if err := s.Drop(4, h); err != nil {
		t.Fatal(err)
	}
	if err := s.EndTx(4, true); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(4)
	h2, _ := s.Create(5)
	lo2, _ := s.Open(5, h2, ReadWrite, lock.CommittedRead)
	lo2.WriteAt(bytes.Repeat([]byte("e"), 3*storage.PageSize), 0)
	lo2.Close()
	if after := s.Pool().Pager().NumPages(); after > pages {
		t.Fatalf("pages not reused after the commit: %d -> %d", pages, after)
	}
}

func TestHandleEncoding(t *testing.T) {
	h := Handle{Space: 7, Header: 1234}
	buf := make([]byte, HandleSize)
	h.Encode(buf)
	if got := DecodeHandle(buf); got != h {
		t.Fatalf("handle round trip: %v", got)
	}
	if h.String() == "" {
		t.Fatal("handle string")
	}
}

func TestStatsCounting(t *testing.T) {
	s, lm := newTestSpace(t)
	defer lm.ReleaseAll(1)
	h, _ := s.Create(1)
	lo, _ := s.Open(1, h, ReadWrite, lock.CommittedRead)
	lo.Close()
	st := s.Stats()
	if st.Creates != 1 || st.Opens != 1 || st.Closes != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

type captureJournal struct{ records int }

func (c *captureJournal) LogUpdate(tx uint64, page storage.PageID, runs []storage.Run) error {
	c.records += len(runs)
	return nil
}

func TestJournalReceivesWrites(t *testing.T) {
	s, lm := newTestSpace(t)
	defer lm.ReleaseAll(1)
	j := &captureJournal{}
	s.Pool().Journal = j.LogUpdate
	h, _ := s.Create(1)
	lo, _ := s.Open(1, h, ReadWrite, lock.CommittedRead)
	lo.WriteAt([]byte("logged"), 0)
	if j.records == 0 {
		t.Fatal("journal must observe LO writes")
	}
}

func TestOpenWrongSpace(t *testing.T) {
	s, _ := newTestSpace(t)
	if _, err := s.Open(1, Handle{Space: 99, Header: 1}, ReadOnly, lock.DirtyRead); err == nil {
		t.Fatal("cross-space open must fail")
	}
}

func TestTruncate(t *testing.T) {
	s, lm := newTestSpace(t)
	defer lm.ReleaseAll(1)
	h, _ := s.Create(1)
	lo, _ := s.Open(1, h, ReadWrite, lock.CommittedRead)
	lo.WriteAt([]byte("0123456789"), 0)
	if err := lo.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if sz, _ := lo.Size(); sz != 4 {
		t.Fatalf("size after truncate: %d", sz)
	}
	buf := make([]byte, 10)
	n, _ := lo.ReadAt(buf, 0)
	if n != 4 || string(buf[:4]) != "0123" {
		t.Fatalf("read after truncate: %d %q", n, buf[:n])
	}
}

// Every byte a space writes reaches the pool's journal: replaying only the
// after-images, in order, onto an empty pager rebuilds every large object,
// its size, page map and indirect chain included.
func TestJournalAfterImagesRebuildTheSpace(t *testing.T) {
	s, lm := newTestSpace(t)
	defer lm.ReleaseAll(1)
	type image struct {
		page uint64
		off  uint16
		img  []byte
	}
	var log []image
	s.Pool().Journal = func(tx uint64, page storage.PageID, runs []storage.Run) error {
		for _, r := range runs {
			log = append(log, image{uint64(page), uint16(r.Off), append([]byte(nil), r.After...)})
		}
		return nil
	}
	rng := rand.New(rand.NewSource(1))
	var handles []Handle
	for i := 0; i < 3; i++ {
		h, err := s.Create(1)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := s.Open(1, h, ReadWrite, lock.CommittedRead)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int64{0, 5000, int64(directSlots+3) * storage.PageSize} {
			buf := make([]byte, 100+rng.Intn(6000))
			rng.Read(buf)
			if _, err := lo.WriteAt(buf, off+int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if i == 1 {
			if err := lo.Truncate(7000); err != nil {
				t.Fatal(err)
			}
		}
		lo.Close()
		handles = append(handles, h)
	}

	replayed := storage.NewBufferPool(storage.NewMemPager(), 256)
	for _, r := range log {
		if err := replayed.Apply(r.page, r.off, r.img); err != nil {
			t.Fatal(err)
		}
	}
	twin := New(1, "spc", replayed, lm)
	for _, h := range handles {
		want, got := readAll(t, s, h), readAll(t, twin, h)
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: replayed object has %d bytes, differing from the original's %d", h, len(got), len(want))
		}
	}
}

// readAll returns a large object's whole contents.
func readAll(t *testing.T, s *Space, h Handle) []byte {
	t.Helper()
	lo, err := s.Open(1, h, ReadOnly, lock.CommittedRead)
	if err != nil {
		t.Fatal(err)
	}
	defer lo.Close()
	size, err := lo.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := lo.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}

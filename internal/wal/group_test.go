package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// durableImage returns the bytes a crash at this instant would leave on
// disk: the file prefix up to the last completed write. The caller must
// hold l.ioMu so no flush is in flight (written is then stable and nothing
// beyond it has been handed to the OS).
func durableImage(t *testing.T, l *Log) []byte {
	t.Helper()
	l.mu.Lock()
	n := l.fileOff(l.written)
	l.mu.Unlock()
	img := make([]byte, n)
	if _, err := l.f.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return img
}

// parkCommits starts a GROUP commit for each of n fresh transactions from
// tx while the flusher is stalled, and returns once all n are parked. The
// returned release lets the flusher run and waits for the commits.
func parkCommits(t *testing.T, l *Log, tx uint64, n int) (release func()) {
	t.Helper()
	l.ioMu.Lock()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		tx := tx + uint64(i)
		if _, err := l.Begin(tx); err != nil {
			l.ioMu.Unlock()
			t.Fatal(err)
		}
		if _, err := update(l, tx, 1, uint64(i), 0, []byte("a"), []byte("b")); err != nil {
			l.ioMu.Unlock()
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, tx uint64) {
			defer wg.Done()
			_, errs[i] = l.CommitWith(tx, CommitGroup)
		}(i, tx)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		parked := l.nparked
		l.mu.Unlock()
		if parked == n {
			break
		}
		if time.Now().After(deadline) {
			l.ioMu.Unlock()
			t.Fatalf("only %d/%d commits parked", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		l.ioMu.Unlock()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("commit %d: %v", i, err)
			}
		}
	}
}

func TestGroupCommitCoalescesFsyncs(t *testing.T) {
	l, _ := openTestLog(t)
	reg := obs.NewRegistry()
	l.SetObs(reg)
	flushes, group := reg.Counter("wal.flushes"), reg.Histogram("wal.group_size")

	// Stall the flusher so every committer parks before any fsync runs.
	const N = 8
	release := parkCommits(t, l, 1, N)
	before := flushes.Load()
	release()
	if d := flushes.Load() - before; d > 2 {
		t.Fatalf("%d parked commits took %d fsyncs, want coalescing", N, d)
	}
	if group.Count() == 0 || group.Sum()/time.Microsecond < N {
		t.Fatalf("group_size histogram: n=%d sum=%dus, want one group of %d",
			group.Count(), group.Sum()/time.Microsecond, N)
	}
}

// TestFlushCausesAddUp drives each reason for an fsync once: a SYNC commit's
// own, the flusher's for parked committers and for an ASYNC tail, and a
// forced Flush. Each moves its wal.flushes.* counter, and the four always
// sum to wal.flushes.
func TestFlushCausesAddUp(t *testing.T) {
	l, _ := openTestLog(t)
	reg := obs.NewRegistry()
	l.SetObs(reg)
	cause := func(name string) uint64 { return reg.Counter("wal.flushes." + name).Load() }
	addsUp := func() {
		t.Helper()
		s := reg.Snapshot()
		sum := s.Get("wal.flushes.group") + s.Get("wal.flushes.tick") + s.Get("wal.flushes.sync") + s.Get("wal.flushes.forced")
		if sum != s.Get("wal.flushes") {
			t.Fatalf("wal.flushes = %d, its causes sum to %d", s.Get("wal.flushes"), sum)
		}
	}

	l.Begin(1)
	if _, err := l.CommitWith(1, CommitSync); err != nil {
		t.Fatal(err)
	}
	if got := cause("sync"); got != 1 {
		t.Fatalf("a SYNC commit counted %d sync flushes, want 1", got)
	}
	addsUp()

	parkCommits(t, l, 2, 2)()
	if cause("group") == 0 {
		t.Fatal("the flusher served parked commits without a group flush")
	}
	addsUp()

	l.Begin(10)
	lsn, err := l.CommitWith(10, CommitAsync)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !l.FlushedTo(lsn); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("async commit never became durable")
		}
	}
	if cause("tick") == 0 {
		t.Fatal("the flusher made an ASYNC tail durable without a tick flush")
	}
	addsUp()

	// The flusher's tick may beat Flush to a pending record; a forced flush
	// needs one that is still pending when Flush runs.
	for tx := uint64(20); cause("forced") == 0; tx++ {
		if tx == 1000 {
			t.Fatal("Flush never forced a pending record")
		}
		l.Begin(tx)
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	addsUp()
}

func TestAsyncCommitDurableWithoutWait(t *testing.T) {
	l, _ := openTestLog(t)
	l.Begin(1)
	update(l, 1, 1, 2, 0, []byte("x"), []byte("y"))
	lsn, err := l.CommitWith(1, CommitAsync)
	if err != nil {
		t.Fatal(err)
	}
	// ASYNC returns immediately; the flusher must make it durable within
	// its bounded-loss window on its own.
	deadline := time.Now().Add(5 * time.Second)
	for !l.FlushedTo(lsn) {
		if time.Now().After(deadline) {
			t.Fatal("async commit never became durable")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseDrainsAsyncTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Begin(1)
	update(l, 1, 1, 2, 0, []byte("x"), []byte("y"))
	if _, err := l.CommitWith(1, CommitAsync); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // clean shutdown flushes the tail
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	l2.Scan(func(Record) error { n++; return nil })
	if n != 3 {
		t.Fatalf("async tail lost on clean close: %d records", n)
	}
}

func TestUpdateCopiesImagesOnce(t *testing.T) {
	l, _ := openTestLog(t)
	l.Begin(1)
	before := []byte("aaaa")
	after := []byte("bbbb")
	lsn, err := update(l, 1, 1, 2, 0, before, after)
	if err != nil {
		t.Fatal(err)
	}
	// The images are copied into the log at append time; the caller may
	// reuse its slices immediately.
	before[0], after[0] = 'X', 'Y'
	r, err := l.ReadRecord(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Before) != "aaaa" || string(r.After) != "bbbb" {
		t.Fatalf("images aliased caller slices: %q %q", r.Before, r.After)
	}
}

func TestTornCommitClassifiedLoser(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spaces, bp := testSpaces(t)
	id := allocPage(t, bp)
	page := make([]byte, storage.PageSize)
	copy(page, []byte("orig"))
	bp.Apply(uint64(id), 0, page)

	l.Begin(1)
	update(l, 1, 1, uint64(id), 0, []byte("orig"), []byte("torn"))
	copy(page, []byte("torn")) // the update reached the page store
	bp.Apply(uint64(id), 0, page)
	commitLSN, err := l.CommitWith(1, CommitSync)
	if err != nil {
		t.Fatal(err)
	}
	base := l.Base()
	l.Close()

	// Tear the COMMIT record: the crash happened mid-write, leaving only
	// half of its header on disk.
	cut := logHeaderSize + int64(commitLSN-base) + 4
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rep, err := Recover(l2, spaces)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.UndoneTx) != 1 || rep.UndoneTx[0] != 1 {
		t.Fatalf("torn commit must make tx 1 a loser: %+v", rep)
	}
	got := readPage(t, bp, id)
	if !bytes.Equal(got[:4], []byte("orig")) {
		t.Fatalf("before image not restored: %q", got[:4])
	}
	// The undo went through the CLR path and closed with an ABORT.
	var tail []RecType
	l2.Scan(func(r Record) error { tail = append(tail, r.Type); return nil })
	if len(tail) < 2 || tail[len(tail)-1] != RecAbort || tail[len(tail)-2] != RecCLR {
		t.Fatalf("expected ...CLR,ABORT tail, got %v", tail)
	}
}

// TestCrashPointMatrix kills the log at both sides of the flush boundary
// and checks what each crash image recovers to: before the flush the
// commit is simply absent (lost but consistent); after it, the commit is
// durable and redone.
func TestCrashPointMatrix(t *testing.T) {
	for _, tc := range []struct {
		name       string
		flush      bool
		wantCommit bool
	}{
		{"crash-before-flush", false, false},
		{"crash-after-flush", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, _ := openTestLog(t)
			spaces, bp := testSpaces(t)
			id := allocPage(t, bp)

			// Hold the I/O lock across append (and optional inline flush)
			// so the background flusher cannot move the boundary under us.
			l.ioMu.Lock()
			l.Begin(1)
			update(l, 1, 1, uint64(id), 0, make([]byte, 4), []byte("data"))
			if _, err := l.CommitWith(1, CommitAsync); err != nil {
				l.ioMu.Unlock()
				t.Fatal(err)
			}
			if tc.flush {
				l.ioMu.Unlock()
				if err := l.Flush(); err != nil {
					t.Fatal(err)
				}
				l.ioMu.Lock()
			}
			img := durableImage(t, l)
			l.ioMu.Unlock()

			crashPath := filepath.Join(t.TempDir(), "crash.log")
			if err := os.WriteFile(crashPath, img, 0o644); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(crashPath)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			rep, err := Recover(l2, spaces)
			if err != nil {
				t.Fatal(err)
			}
			got := readPage(t, bp, id)
			if tc.wantCommit {
				if rep.Redone == 0 || !bytes.Equal(got[:4], []byte("data")) {
					t.Fatalf("flushed commit lost: %+v page=%q", rep, got[:4])
				}
			} else {
				if rep.RecordsScanned != 0 || !bytes.Equal(got[:4], make([]byte, 4)) {
					t.Fatalf("unflushed tail leaked into crash image: %+v page=%q", rep, got[:4])
				}
			}
		})
	}
}

func TestCheckpointTruncateShrinksLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 100)
	for tx := uint64(1); tx <= 20; tx++ {
		l.Begin(tx)
		update(l, tx, 1, tx, 0, img, img)
		if _, err := l.CommitWith(tx, CommitSync); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := os.Stat(path)
	sizeBefore := st.Size()

	cp, cutoff, err := l.CheckpointCut()
	if err != nil {
		t.Fatal(err)
	}
	if cutoff != cp {
		t.Fatalf("no live txs: cutoff %d should equal checkpoint LSN %d", cutoff, cp)
	}
	dropped, err := l.TruncateTo(cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("nothing truncated")
	}
	st, _ = os.Stat(path)
	if st.Size() >= sizeBefore {
		t.Fatalf("log file did not shrink: %d -> %d", sizeBefore, st.Size())
	}

	// The rotated log must keep working: append, reopen, scan from the new
	// base, and still refuse reads below it.
	l.Begin(30)
	update(l, 30, 1, 1, 0, []byte("x"), []byte("y"))
	if _, err := l.CommitWith(30, CommitGroup); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Base() != cutoff {
		t.Fatalf("reopened base %d, want %d", l2.Base(), cutoff)
	}
	var types []RecType
	l2.Scan(func(r Record) error { types = append(types, r.Type); return nil })
	if len(types) != 4 || types[0] != RecCheckpoint {
		t.Fatalf("retained records: %v", types)
	}
	if _, err := l2.ReadRecord(NilLSN + 32); err == nil {
		t.Fatal("read below the truncated base must fail")
	}
}

func TestTruncateRespectsLiveTx(t *testing.T) {
	l, _ := openTestLog(t)
	spaces, bp := testSpaces(t)
	id := allocPage(t, bp)
	page := make([]byte, storage.PageSize)
	copy(page, []byte("base"))
	bp.Apply(uint64(id), 0, page)

	// Committed ballast first, then a transaction left open across the
	// checkpoint.
	for tx := uint64(1); tx <= 5; tx++ {
		l.Begin(tx)
		update(l, tx, 1, 99, 0, make([]byte, 64), make([]byte, 64))
		l.CommitWith(tx, CommitSync)
	}
	l.Begin(7)
	update(l, 7, 1, uint64(id), 0, []byte("base"), []byte("live"))
	copy(page, []byte("live"))
	bp.Apply(uint64(id), 0, page)

	cp, cutoff, err := l.CheckpointCut()
	if err != nil {
		t.Fatal(err)
	}
	if cutoff >= cp {
		t.Fatalf("cutoff %d must stop at live tx 7's first record (cp %d)", cutoff, cp)
	}
	if _, err := l.TruncateTo(cutoff); err != nil {
		t.Fatal(err)
	}
	// Tx 7's undo chain must have survived the truncation.
	if err := RollbackTo(l, spaces, 7, NilLSN); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Abort(7); err != nil {
		t.Fatal(err)
	}
	got := readPage(t, bp, id)
	if !bytes.Equal(got[:4], []byte("base")) {
		t.Fatalf("live tx not undoable after truncation: %q", got[:4])
	}
}

func TestRecoverIgnoresStaleCheckpointEntry(t *testing.T) {
	// A checkpoint whose active table is stale — it lists a transaction
	// that committed before the checkpoint record was appended — must not
	// resurrect the committed transaction as a loser.
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spaces, bp := testSpaces(t)
	id := allocPage(t, bp)

	l.Begin(1)
	lsn, _ := update(l, 1, 1, uint64(id), 0, make([]byte, 4), []byte("keep"))
	l.CommitWith(1, CommitGroup)
	stale := Record{Type: RecCheckpoint, Active: map[uint64]LSN{1: lsn}}
	if _, err := l.Append(stale); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rep, err := Recover(l2, spaces)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.UndoneTx) != 0 {
		t.Fatalf("committed tx resurrected as loser: %+v", rep)
	}
	got := readPage(t, bp, id)
	if !bytes.Equal(got[:4], []byte("keep")) {
		t.Fatalf("committed data undone: %q", got[:4])
	}
}

func TestCommitOnClosedLogFails(t *testing.T) {
	l, _ := openTestLog(t)
	l.Begin(1)
	l.Close()
	if _, err := l.CommitWith(1, CommitGroup); err == nil {
		t.Fatal("commit on closed log must fail")
	}
	if _, err := l.Append(Record{Type: RecBegin, Tx: 2}); err == nil {
		t.Fatal("append on closed log must fail")
	}
}

func TestCommitModeStrings(t *testing.T) {
	for _, m := range []CommitMode{CommitSync, CommitGroup, CommitAsync} {
		if m.String() == "?" {
			t.Fatalf("mode %d has no name", m)
		}
		got, ok := ParseCommitMode(m.String())
		if !ok || got != m {
			t.Fatalf("round trip %v -> %v %v", m, got, ok)
		}
	}
	if _, ok := ParseCommitMode("BOGUS"); ok {
		t.Fatal("BOGUS parsed")
	}
}

// The log's directory is synced when Open creates the log file and when a
// rotation renames the new file over it, inside ioMu, so no flush reports
// the new file durable before its name is; a failed sync fails the log.
func TestLogSyncsItsDirectory(t *testing.T) {
	defer func(f func(string) error) { syncDir = f }(syncDir)
	dir := t.TempDir()
	var l *Log
	var synced []string
	var syncErr error
	syncDir = func(d string) error {
		if l != nil && l.ioMu.TryLock() {
			l.ioMu.Unlock()
			t.Error("directory synced outside ioMu")
		}
		synced = append(synced, d)
		return syncErr
	}
	path := filepath.Join(dir, "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("creating the log synced %q, want [%s]", synced, dir)
	}
	l.Close()
	if l, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(synced) != 1 {
		t.Fatalf("reopening an existing log synced %q", synced[1:])
	}
	rotate := func(tx uint64) error {
		l.Begin(tx)
		update(l, tx, 1, 1, 0, []byte("x"), []byte("y"))
		if _, err := l.CommitWith(tx, CommitSync); err != nil {
			t.Fatal(err)
		}
		_, cutoff, err := l.CheckpointCut()
		if err != nil {
			t.Fatal(err)
		}
		_, err = l.TruncateTo(cutoff)
		return err
	}
	if err := rotate(1); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 2 || synced[1] != dir {
		t.Fatalf("rotating the log synced %q, want a second %s", synced, dir)
	}
	syncErr = errors.New("directory sync failed")
	if err := rotate(2); err != syncErr {
		t.Fatalf("rotation with a failing directory sync: %v", err)
	}
	if _, err := l.CommitWith(3, CommitGroup); err != syncErr {
		t.Fatalf("a commit after a failed directory sync: %v, want the sync's error", err)
	}
}

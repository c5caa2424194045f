package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage"
)

func openTestLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

// testSpaces returns space 1 wired as the engine wires its spaces: a buffer
// pool, whose Apply is the PageStore recovery and rollback write through.
func testSpaces(t *testing.T) (map[uint32]PageStore, *storage.BufferPool) {
	t.Helper()
	bp := storage.NewBufferPool(storage.NewMemPager(), 16)
	return map[uint32]PageStore{1: bp}, bp
}

// allocPage allocates a zeroed page in bp.
func allocPage(t *testing.T, bp *storage.BufferPool) storage.PageID {
	t.Helper()
	f, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, true)
	return f.ID
}

// readPage returns a copy of page id as bp holds it.
func readPage(t *testing.T, bp *storage.BufferPool, id storage.PageID) []byte {
	t.Helper()
	f, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(f, false)
	return append([]byte(nil), f.Data...)
}

// update appends the record of an edit that changed one run.
func update(l *Log, tx uint64, space uint32, page uint64, off uint16, before, after []byte) (LSN, error) {
	return l.Update(tx, space, page, []storage.Run{{Off: int(off), Before: before, After: after}})
}

func TestAppendScanRoundTrip(t *testing.T) {
	l, _ := openTestLog(t)
	if _, err := l.Begin(7); err != nil {
		t.Fatal(err)
	}
	lsn, err := update(l, 7, 1, 3, 16, []byte("old"), []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.CommitWith(7, CommitGroup); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := l.Scan(func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("scanned %d records", len(recs))
	}
	if recs[0].Type != RecBegin || recs[1].Type != RecUpdate || recs[2].Type != RecCommit {
		t.Fatalf("types: %v %v %v", recs[0].Type, recs[1].Type, recs[2].Type)
	}
	u := recs[1]
	if u.LSN != lsn || u.Space != 1 || u.Page != 3 || u.Offset != 16 ||
		string(u.Before) != "old" || string(u.After) != "new" {
		t.Fatalf("update record: %+v", u)
	}
	if u.PrevLSN != recs[0].LSN {
		t.Fatal("undo chain broken")
	}
	// Random access.
	got, err := l.ReadRecord(lsn)
	if err != nil || got.Type != RecUpdate || string(got.After) != "new" {
		t.Fatalf("ReadRecord: %+v %v", got, err)
	}
}

func TestReopenFindsAppendPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Begin(1)
	update(l, 1, 1, 2, 0, []byte("a"), []byte("b"))
	l.Flush()
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN(1) == NilLSN {
		t.Fatal("reopen must rebuild undo chains for live transactions")
	}
	if _, err := l2.CommitWith(1, CommitGroup); err != nil {
		t.Fatal(err)
	}
	count := 0
	l2.Scan(func(Record) error { count++; return nil })
	if count != 3 {
		t.Fatalf("records after reopen+append: %d", count)
	}
}

func TestTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Begin(1)
	update(l, 1, 1, 2, 0, []byte("aaaa"), []byte("bbbb"))
	l.Flush()
	l.Close()

	// Corrupt the last few bytes (torn write).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	count := 0
	l2.Scan(func(Record) error { count++; return nil })
	if count != 1 {
		t.Fatalf("torn record not dropped: %d records", count)
	}
}

func TestRollbackRestoresBeforeImages(t *testing.T) {
	l, _ := openTestLog(t)
	spaces, bp := testSpaces(t)
	id := allocPage(t, bp)
	page := make([]byte, storage.PageSize)
	copy(page[100:], []byte("original"))
	bp.Apply(uint64(id), 0, page)

	l.Begin(9)
	// Mutate and log.
	before := append([]byte(nil), page[100:108]...)
	copy(page[100:], []byte("mutated!"))
	update(l, 9, 1, uint64(id), 100, before, page[100:108])
	bp.Apply(uint64(id), 0, page)

	if err := RollbackTo(l, spaces, 9, NilLSN); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Abort(9); err != nil {
		t.Fatal(err)
	}
	got := readPage(t, bp, id)
	if !bytes.Equal(got[100:108], []byte("original")) {
		t.Fatalf("rollback left %q", got[100:108])
	}
	// The log ends with CLR + ABORT.
	var types []RecType
	l.Scan(func(r Record) error { types = append(types, r.Type); return nil })
	if types[len(types)-1] != RecAbort || types[len(types)-2] != RecCLR {
		t.Fatalf("tail types: %v", types)
	}
}

// A statement's undo stops at the LSN the statement began at and leaves the
// transaction open; the CLRs' UndoNext then carry a later rollback of the
// whole transaction, and a crash recovery, past the compensated work.
func TestRollbackToStopsAtTheStatement(t *testing.T) {
	for _, crash := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "wal.log")
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		spaces, bp := testSpaces(t)
		id := allocPage(t, bp)
		read := func() string {
			got := readPage(t, bp, id)
			return string(got[0:2]) + string(got[10:12])
		}
		write := func(off uint16, before, after string) {
			update(l, 7, 1, uint64(id), off, []byte(before), []byte(after))
			bp.Apply(uint64(id), off, []byte(after))
		}
		l.Begin(7)
		write(0, "\x00\x00", "s1")
		stop := l.LastLSN(7)
		write(10, "\x00\x00", "s2")
		write(0, "s1", "xx")
		if err := RollbackTo(l, spaces, 7, stop); err != nil {
			t.Fatal(err)
		}
		if got := read(); got != "s1\x00\x00" {
			t.Fatalf("after the statement undo: %q", got)
		}
		write(10, "\x00\x00", "s3")
		if crash {
			l.Flush()
			l.Close()
			if l, err = Open(path); err != nil {
				t.Fatal(err)
			}
			rep, err := Recover(l, spaces)
			if err != nil {
				t.Fatal(err)
			}
			if rep.UndoneRecords != 2 {
				t.Fatalf("recovery undid %d records, want 2 (s3 and s1)", rep.UndoneRecords)
			}
		} else if err := RollbackTo(l, spaces, 7, NilLSN); err != nil {
			t.Fatal(err)
		} else if _, err := l.Abort(7); err != nil {
			t.Fatal(err)
		}
		if got := read(); got != "\x00\x00\x00\x00" {
			t.Fatalf("after the whole rollback (crash %v): %q", crash, got)
		}
		l.Close()
	}
}

func TestRecoverRedoCommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spaces, bp := testSpaces(t)
	id := allocPage(t, bp)

	// Committed transaction whose page write never reached the pager
	// (simulating a crash before buffer-pool flush).
	l.Begin(1)
	update(l, 1, 1, uint64(id), 10, make([]byte, 9), []byte("committed"))
	l.CommitWith(1, CommitGroup)
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
	if rep.Redone != 1 || len(rep.UndoneTx) != 0 {
		t.Fatalf("report: %+v", rep)
	}
	got := readPage(t, bp, id)
	if !bytes.Equal(got[10:19], []byte("committed")) {
		t.Fatalf("redo missing: %q", got[10:19])
	}
}

func TestRecoverUndoLoser(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spaces, bp := testSpaces(t)
	id := allocPage(t, bp)
	page := make([]byte, storage.PageSize)
	copy(page[0:], []byte("keep"))
	bp.Apply(uint64(id), 0, page)

	// Winner commits, loser doesn't.
	l.Begin(1)
	update(l, 1, 1, uint64(id), 50, make([]byte, 6), []byte("winner"))
	l.CommitWith(1, CommitGroup)
	l.Begin(2)
	update(l, 2, 1, uint64(id), 0, []byte("keep"), []byte("lose"))
	update(l, 2, 1, uint64(id), 60, make([]byte, 5), []byte("loser"))
	l.Flush()
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
	if len(rep.UndoneTx) != 1 || rep.UndoneTx[0] != 2 || rep.UndoneRecords != 2 {
		t.Fatalf("report: %+v", rep)
	}
	got := readPage(t, bp, id)
	if !bytes.Equal(got[0:4], []byte("keep")) {
		t.Fatalf("loser not undone: %q", got[0:4])
	}
	if !bytes.Equal(got[50:56], []byte("winner")) {
		t.Fatalf("winner lost: %q", got[50:56])
	}
	if !bytes.Equal(got[60:65], make([]byte, 5)) {
		t.Fatalf("loser tail not undone: %q", got[60:65])
	}
}

// Transaction 0's updates are redo-only: recovery redoes them, undoes only
// the real loser beside them, and a checkpoint's truncation cutoff is not
// held back by them.
func TestRedoOnlyUpdatesAreNeverUndone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spaces, bp := testSpaces(t)
	id := allocPage(t, bp)
	update(l, 0, 1, uint64(id), 0, make([]byte, 6), []byte("format"))
	l.Begin(2)
	update(l, 2, 1, uint64(id), 10, make([]byte, 5), []byte("loser"))
	update(l, 0, 1, uint64(id), 20, make([]byte, 7), []byte("counter"))
	cp, cutoff, err := l.CheckpointCut()
	if err != nil {
		t.Fatal(err)
	}
	if first := l.firstLSN[2]; cutoff != first || cutoff >= cp {
		t.Fatalf("cutoff %d, want loser 2's first record %d (checkpoint %d)", cutoff, first, cp)
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
	if len(rep.UndoneTx) != 1 || rep.UndoneTx[0] != 2 || rep.UndoneRecords != 1 {
		t.Fatalf("report: %+v", rep)
	}
	got := readPage(t, bp, id)
	if string(got[0:6]) != "format" || string(got[20:27]) != "counter" {
		t.Fatalf("redo-only images undone: %q %q", got[0:6], got[20:27])
	}
	if !bytes.Equal(got[10:15], make([]byte, 5)) {
		t.Fatalf("loser not undone: %q", got[10:15])
	}
}

func TestRecoverIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spaces, bp := testSpaces(t)
	id := allocPage(t, bp)
	l.Begin(1)
	update(l, 1, 1, uint64(id), 0, make([]byte, 4), []byte("data"))
	l.Flush()
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(l2, spaces); err != nil {
		t.Fatal(err)
	}
	// Crash during recovery: run recovery again on the same log.
	if _, err := Recover(l2, spaces); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	got := readPage(t, bp, id)
	if !bytes.Equal(got[0:4], make([]byte, 4)) {
		t.Fatalf("double recovery corrupted page: %q", got[0:4])
	}
}

func TestRecoverExtendsSpace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Log an update to page 5 of a pager that has no pages yet.
	l.Begin(1)
	update(l, 1, 1, 5, 0, make([]byte, 3), []byte("hi!"))
	l.CommitWith(1, CommitGroup)
	l.Close()

	spaces, bp := testSpaces(t)
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := Recover(l2, spaces); err != nil {
		t.Fatal(err)
	}
	got := readPage(t, bp, 5)
	if !bytes.Equal(got[0:3], []byte("hi!")) {
		t.Fatalf("redo to unallocated page: %q", got[0:3])
	}
}

func TestCheckpointCarriesActiveTx(t *testing.T) {
	l, _ := openTestLog(t)
	l.Begin(3)
	lsn, _ := update(l, 3, 1, 1, 0, []byte("x"), []byte("y"))
	if _, _, err := l.CheckpointCut(); err != nil {
		t.Fatal(err)
	}
	var cp *Record
	l.Scan(func(r Record) error {
		if r.Type == RecCheckpoint {
			rc := r
			cp = &rc
		}
		return nil
	})
	if cp == nil || cp.Active[3] != lsn {
		t.Fatalf("checkpoint: %+v", cp)
	}
}

func TestUnknownSpaceError(t *testing.T) {
	l, _ := openTestLog(t)
	l.Begin(1)
	update(l, 1, 42, 1, 0, []byte("x"), []byte("y"))
	l.Flush()
	if _, err := Recover(l, map[uint32]PageStore{}); err == nil {
		t.Fatal("recovery with unknown space must fail")
	}
}

func TestRecTypeStrings(t *testing.T) {
	for _, ty := range []RecType{RecBegin, RecCommit, RecAbort, RecUpdate, RecCLR, RecCheckpoint, RecType(99)} {
		if ty.String() == "" {
			t.Fatal("empty type string")
		}
	}
}

// flushingStore forces the log before every page write, as the engine's
// buffer pool does when a write evicts a dirty page.
type flushingStore struct {
	PageStore
	l *Log
}

func (s flushingStore) Apply(id uint64, off uint16, img []byte) error {
	if err := s.l.Flush(); err != nil {
		return err
	}
	return s.PageStore.Apply(id, off, img)
}

// TestRecoverRedoMayFlushTheLog: redo's page writes may flush the log, so the
// scan that drives redo must not hold the log's mutex while it runs them.
func TestRecoverRedoMayFlushTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, bp := testSpaces(t)
	id := allocPage(t, bp)
	l.Begin(1)
	update(l, 1, 1, uint64(id), 10, make([]byte, 9), []byte("committed"))
	l.CommitWith(1, CommitGroup)
	l.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spaces := map[uint32]PageStore{1: flushingStore{PageStore: bp, l: l2}}
	done := make(chan error, 1)
	go func() {
		_, err := Recover(l2, spaces)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("recovery deadlocked: a page write's log flush waited on the scan")
	}
	defer l2.Close()
	got := readPage(t, bp, id)
	if !bytes.Equal(got[10:19], []byte("committed")) {
		t.Fatalf("redo missing: %q", got[10:19])
	}
}

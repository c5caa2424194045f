package wal

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// TestRecoveryAcrossASplitEdit holds recovery of one uncommitted page edit
// that the buffer pool journaled as two records, one per changed run: with
// both records durable and the edited page on disk, undo restores both runs;
// with a torn tail cutting between the records and the page on disk holding
// only the logged run (write-ahead order forbids more), redo and undo leave
// the page as it was before the edit. Either way the page comes back byte
// for byte.
func TestRecoveryAcrossASplitEdit(t *testing.T) {
	for _, torn := range []bool{false, true} {
		name := "both-runs-logged"
		if torn {
			name = "torn-between-runs"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			l, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			pager := storage.NewMemPager()
			bp := storage.NewBufferPool(pager, 8)
			bp.JournalRuns = func(tx uint64, id storage.PageID, runs []storage.Run) error {
				_, err := l.UpdateRuns(tx, 1, uint64(id), runs)
				return err
			}
			f, err := bp.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			id := f.ID
			rand.New(rand.NewSource(3)).Read(f.Data)
			before := append([]byte(nil), f.Data...)
			bp.Unpin(f, true)
			if err := bp.FlushAll(); err != nil {
				t.Fatal(err)
			}

			if _, err := l.Begin(1); err != nil {
				t.Fatal(err)
			}
			if err := bp.Edit(1, id, func(p []byte) error {
				copy(p[100:], "first run")
				copy(p[3000:], "second run")
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var runs []Record
			l.Scan(func(r Record) error {
				if r.Type == RecUpdate {
					runs = append(runs, r)
				}
				return nil
			})
			if len(runs) != 2 || runs[1].PrevLSN != runs[0].LSN {
				t.Fatalf("the edit logged %d update records (want 2, chained)", len(runs))
			}
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if torn {
				// The page on disk holds the first run only.
				page := append([]byte(nil), before...)
				copy(page[runs[0].Offset:], runs[0].After)
				if err := pager.WritePage(id, page); err != nil {
					t.Fatal(err)
				}
			} else if err := bp.FlushAll(); err != nil {
				t.Fatal(err)
			}
			cut := logHeaderSize + int64(runs[1].LSN-l.Base()) + 12
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if torn {
				if err := os.Truncate(path, cut); err != nil {
					t.Fatal(err)
				}
			}

			l2, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			rep, err := Recover(l2, map[uint32]PageStore{1: storage.WALStore{P: pager}})
			if err != nil {
				t.Fatal(err)
			}
			want := 2
			if torn {
				want = 1
			}
			if rep.UndoneRecords != want || len(rep.UndoneTx) != 1 {
				t.Fatalf("recovery undid %d records of %v, want %d of tx 1", rep.UndoneRecords, rep.UndoneTx, want)
			}
			got := make([]byte, storage.PageSize)
			if err := pager.ReadPage(id, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, before) {
				lo, hi := 0, len(got)
				for lo < hi && got[lo] == before[lo] {
					lo++
				}
				for hi > lo && got[hi-1] == before[hi-1] {
					hi--
				}
				t.Fatalf("recovered page differs from the page before the edit in [%d, %d)", lo, hi)
			}
		})
	}
}

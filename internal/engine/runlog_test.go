package engine

import (
	"cmp"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/chronon"
	"repro/internal/types"
	"repro/internal/wal"
)

// quietDirEngine opens a file engine with a log and neither background
// daemon, so the log grows only by what the statements write.
func quietDirEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := Open(Options{Dir: dir, Clock: chronon.NewVirtualClock(chronon.MustParse("9/97")),
		CheckpointInterval: -1, VacuumInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestOneRowInsertLogBytes holds what a one-row INSERT costs the log: the
// heap page's changed runs (slot array, header, cell), BEGIN and COMMIT, not
// the page between the slot and the cell. Journaling one span per edit
// logged about 5-8 KiB an INSERT here, falling as the page filled.
func TestOneRowInsertLogBytes(t *testing.T) {
	e := quietDirEngine(t, t.TempDir())
	defer e.Close()
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER)`)
	most := uint64(0)
	for i := 0; i < 20; i++ {
		before := e.Obs().Snapshot().Get("wal.bytes")
		exec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
		if grew := e.Obs().Snapshot().Get("wal.bytes") - before; grew > 1024 {
			t.Fatalf("INSERT %d grew the log by %d bytes, want at most 1024", i, grew)
		} else {
			most = max(most, grew)
		}
	}
	t.Logf("a one-row INSERT grew the log by at most %d bytes", most)
}

// TestSplitEditsSurviveCrashes: a committed transaction whose page edits
// were journaled as several records each (one per changed run) comes back
// whole after a crash that writes every dirty page back and after one that
// writes none, and so does an uncommitted one's undo.
func TestSplitEditsSurviveCrashes(t *testing.T) {
	for _, mode := range []string{"write-back", "lose-pages"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			e := quietDirEngine(t, dir)
			s := e.NewSession()
			exec(t, s, `CREATE TABLE t (a INTEGER, b VARCHAR(32))`)
			var want []string
			for i := 0; i < 30; i++ {
				exec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row %d')`, i, i))
			}
			exec(t, s, `BEGIN WORK`)
			for i := 30; i < 40; i++ {
				exec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row %d')`, i, i))
			}
			exec(t, s, `UPDATE t SET b = 'changed' WHERE a = 3`)
			exec(t, s, `DELETE FROM t WHERE a = 7`)
			exec(t, s, `COMMIT WORK`)
			exec(t, s, `BEGIN WORK`)
			exec(t, s, `INSERT INTO t VALUES (99, 'loser')`)
			exec(t, s, `UPDATE t SET b = 'loser' WHERE a = 4`)
			for i := 0; i < 40; i++ {
				switch i {
				case 3:
					want = append(want, "3 changed")
				case 7:
				default:
					want = append(want, fmt.Sprintf("%d row %d", i, i))
				}
			}
			if mode == "write-back" {
				e.CrashForTesting()
			} else {
				e.CrashLosingPagesForTesting()
			}
			s.Close()

			if split := splitEdits(t, filepath.Join(dir, "wal.log")); split == 0 {
				t.Fatal("no edit of the workload was journaled as more than one record")
			}
			e2 := quietDirEngine(t, dir)
			defer e2.Close()
			s2 := e2.NewSession()
			defer s2.Close()
			rows := exec(t, s2, `SELECT a, b FROM t`).Rows
			slices.SortFunc(rows, func(x, y []types.Datum) int { return cmp.Compare(x[0].(int64), y[0].(int64)) })
			var got []string
			for _, r := range rows {
				got = append(got, fmt.Sprintf("%v %v", r[0], r[1]))
			}
			if strings.Join(got, ", ") != strings.Join(want, ", ") {
				t.Fatalf("after recovery:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// splitEdits counts the update records in the log at path that directly
// follow an update of the same transaction on the same page, which is how
// one edit's runs lie in the log.
func splitEdits(t *testing.T, path string) int {
	t.Helper()
	l, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	n := 0
	var prev wal.Record
	l.Scan(func(r wal.Record) error {
		if r.Type == wal.RecUpdate && r.Tx != 0 && prev.Type == wal.RecUpdate &&
			r.PrevLSN == prev.LSN && r.Space == prev.Space && r.Page == prev.Page {
			n++
		}
		prev = r
		return nil
	})
	return n
}

package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chronon"
)

// dirEngine opens an on-disk engine with the background checkpointer
// disabled, so tests drive Checkpoint explicitly.
func dirEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := Open(Options{
		Dir:                dir,
		Clock:              chronon.NewVirtualClock(chronon.MustParse("9/97")),
		CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// crashHard abandons the engine with the log durable but the buffer pools
// NOT flushed — the harshest crash for redo: committed work exists only in
// the log.
func crashHard(e *Engine) {
	e.closed.Store(true)
	e.stopCheckpointer()
	if e.log != nil {
		e.log.Flush()
		e.log.Close()
	}
}

func TestCheckpointShrinksLogAndRecovers(t *testing.T) {
	dir := t.TempDir()
	e := dirEngine(t, dir)
	s := e.NewSession()
	exec(t, s, `CREATE TABLE t (a INTEGER, pad VARCHAR(64))`)
	for i := 0; i < 50; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row-%d-0123456789abcdefghijklmnopqrstuvwxyz')`, i, i))
	}
	walPath := filepath.Join(dir, "wal.log")
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore := st.Size()

	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ = os.Stat(walPath)
	if st.Size() >= sizeBefore {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d bytes", sizeBefore, st.Size())
	}
	if got := e.Obs().Snapshot().Get("wal.checkpoints"); got != 1 {
		t.Fatalf("wal.checkpoints = %d", got)
	}
	if e.Obs().Snapshot().Get("wal.truncated_bytes") == 0 {
		t.Fatal("wal.truncated_bytes not counted")
	}

	// Commit more work after the checkpoint, then crash with the pools
	// unflushed: recovery must replay it from the rotated log.
	for i := 50; i < 60; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'post-checkpoint')`, i))
	}
	crashHard(e)

	e2, err := Open(Options{Dir: dir, Clock: chronon.NewVirtualClock(chronon.MustParse("9/97"))})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	s2 := e2.NewSession()
	defer s2.Close()
	res := exec(t, s2, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0] != int64(60) {
		t.Fatalf("rows after recovery from rotated log: %v", res.Rows[0][0])
	}
}

func TestCheckpointKeepsOpenTransactionUndoable(t *testing.T) {
	dir := t.TempDir()
	e := dirEngine(t, dir)
	s := e.NewSession()
	exec(t, s, `CREATE TABLE t (a INTEGER)`)
	exec(t, s, `INSERT INTO t VALUES (1)`)
	// Checkpoint with an explicit transaction mid-flight, then crash: the
	// open transaction must survive truncation as an undoable loser.
	exec(t, s, `BEGIN`)
	exec(t, s, `INSERT INTO t VALUES (2)`)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	exec(t, s, `INSERT INTO t VALUES (3)`)
	e.CrashForTesting() // flushes pools: the loser's pages are on disk

	e2, err := Open(Options{Dir: dir, Clock: chronon.NewVirtualClock(chronon.MustParse("9/97"))})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	s2 := e2.NewSession()
	defer s2.Close()
	res := exec(t, s2, `SELECT a FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(1) {
		t.Fatalf("loser not undone across checkpoint: %v", res.Rows)
	}
}

func TestBackgroundCheckpointerTriggers(t *testing.T) {
	e, err := Open(Options{
		Clock:               chronon.NewVirtualClock(chronon.MustParse("9/97")),
		CheckpointInterval:  2 * time.Millisecond,
		CheckpointThreshold: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.NewSession()
	defer s.Close()
	exec(t, s, `CREATE TABLE t (a INTEGER, pad VARCHAR(64))`)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')`, i))
		if e.Obs().Snapshot().Get("wal.checkpoints") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never fired")
		}
	}
}

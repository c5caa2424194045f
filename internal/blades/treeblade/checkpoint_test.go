package treeblade_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/engine"
)

// A checkpoint that fires while CREATE INDEX writes the tree flushes the
// large-object pages the build is copying into. Every sbspace write into a
// frame holds the frame's write latch and the pool's flusher reads under the
// read latch, so under -race this reports nothing, and the index still
// answers as the table does.
func TestCheckpointDuringIndexBuild(t *testing.T) {
	each(t, func(t *testing.T, m method) {
		e := open(t, engine.Options{CheckpointInterval: time.Millisecond, CheckpointThreshold: 64 << 10})
		s := populate(t, e, m, "")
		exec(t, s, `CHECK INDEX ix`)
		if e.Obs().Snapshot().Get("wal.checkpoints") == 0 {
			t.Fatal("no checkpoint fired during the inserts and the build")
		}
		indexed := column(exec(t, s, query))
		exec(t, s, `DROP INDEX ix`)
		scanned := column(exec(t, s, query))
		sort.Strings(indexed)
		sort.Strings(scanned)
		if fmt.Sprint(indexed) != fmt.Sprint(scanned) {
			t.Fatalf("index scan %v, sequential scan %v", indexed, scanned)
		}
	})
}

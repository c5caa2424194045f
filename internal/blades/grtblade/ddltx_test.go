package grtblade

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/engine"
)

const overlapsCount = `SELECT COUNT(*) FROM BT WHERE Overlaps(Time_Extent, '1/97, UC, 1/97, NOW')`

// fillBT creates table BT with n rows and the index t_x on it.
func fillBT(t *testing.T, s *engine.Session, n int) int64 {
	t.Helper()
	exec(t, s, `CREATE SBSPACE spc`)
	exec(t, s, `CREATE TABLE BT (Name VARCHAR(16), Time_Extent GRT_TimeExtent_t)`)
	for i := 0; i < n; i++ {
		exec(t, s, fmt.Sprintf(`INSERT INTO BT VALUES ('r%d', '%s')`, i, buildExtent(i)))
	}
	exec(t, s, `CREATE INDEX t_x ON BT(Time_Extent grt_opclass) USING grtree_am IN spc`)
	return exec(t, s, overlapsCount).Rows[0][0].(int64)
}

// TestRolledBackDropIndexKeepsIndex: DROP INDEX joins its transaction. A
// rollback brings back the catalog entry, the access-method records and the
// large object they point at; a committed drop then frees the object.
func TestRolledBackDropIndexKeepsIndex(t *testing.T) {
	e, _ := newDB(t)
	s := e.NewSession()
	defer s.Close()
	want := fillBT(t, s, 150)
	exec(t, s, `BEGIN WORK`)
	exec(t, s, `DROP INDEX t_x`)
	exec(t, s, `ROLLBACK WORK`)
	exec(t, s, `CHECK INDEX t_x`)
	if got := exec(t, s, overlapsCount).Rows[0][0].(int64); got != want {
		t.Fatalf("after the rolled-back drop: %d rows, want %d", got, want)
	}
	exec(t, s, `DROP INDEX t_x`)
	exec(t, s, `CREATE INDEX t_x ON BT(Time_Extent grt_opclass) USING grtree_am IN spc`)
	exec(t, s, `CHECK INDEX t_x`)
}

// TestDropIndexWaitsForWriters: DROP INDEX holds its table's lock until it
// resolves, so another session's INSERT waits for it, and a rolled-back drop
// brings back an index that misses no committed row.
func TestDropIndexWaitsForWriters(t *testing.T) {
	e, _ := newDB(t)
	d, w := e.NewSession(), e.NewSession()
	defer d.Close()
	defer w.Close()
	want := fillBT(t, d, 150)
	exec(t, d, `BEGIN WORK`)
	exec(t, d, `DROP INDEX t_x`)
	done := make(chan error, 1)
	go func() {
		_, err := w.Exec(`INSERT INTO BT VALUES ('late', '5/97, UC, 5/97, NOW')`)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("INSERT returned (%v) while DROP INDEX was unresolved", err)
	case <-time.After(100 * time.Millisecond):
	}
	exec(t, d, `ROLLBACK WORK`)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("INSERT after the rolled-back drop: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("INSERT still waits after the drop rolled back")
	}
	exec(t, d, `CHECK INDEX t_x`)
	if got := exec(t, d, overlapsCount).Rows[0][0].(int64); got != want+1 {
		t.Fatalf("index count after the committed INSERT: %d, want %d", got, want+1)
	}
}

// TestCrashDuringRebuildKeepsIndex: a crash in the middle of ALTER INDEX
// REBUILD, in either crash mode, leaves the committed index as it was.
func TestCrashDuringRebuildKeepsIndex(t *testing.T) {
	for name, crash := range map[string]func(*engine.Engine){
		"written back": (*engine.Engine).CrashForTesting,
		"pages lost":   (*engine.Engine).CrashLosingPagesForTesting,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			clock := chronon.NewVirtualClock(chronon.MustParse("9/97"))
			e, err := engine.Open(engine.Options{Dir: dir, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			if err := Register(e); err != nil {
				t.Fatal(err)
			}
			s := e.NewSession()
			want := fillBT(t, s, 60)
			e.SetBuildHookForTesting(func(stage string) error {
				if stage != "bulk" {
					return nil
				}
				crash(e)
				return fmt.Errorf("simulated crash at %s", stage)
			})
			if _, err := s.Exec(`ALTER INDEX t_x REBUILD`); err == nil {
				t.Fatal("REBUILD must fail when the engine crashes under it")
			}

			e2, err := engine.Open(engine.Options{Dir: dir, Clock: clock, Types: RegisterTypes})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if err := Register(e2); err != nil {
				t.Fatal(err)
			}
			s2 := e2.NewSession()
			defer s2.Close()
			exec(t, s2, `CHECK INDEX t_x`)
			if got := exec(t, s2, overlapsCount).Rows[0][0].(int64); got != want {
				t.Fatalf("after the crash: %d rows, want %d", got, want)
			}
			exec(t, s2, `ALTER INDEX t_x REBUILD`)
			exec(t, s2, `CHECK INDEX t_x`)
		})
	}
}

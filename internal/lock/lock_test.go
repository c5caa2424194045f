package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var resA = Resource{Kind: KindTable, A: 1}
var resB = Resource{Kind: KindTable, A: 2}

func TestSharedCompatibility(t *testing.T) {
	m := New()
	if err := m.Acquire(1, resA, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, resA, Shared); err != nil {
		t.Fatal(err)
	}
	if n := m.HeldCount(1); n != 1 {
		t.Fatalf("held count %d", n)
	}
	if mode, ok := m.Holding(2, resA); !ok || mode != Shared {
		t.Fatal("tx 2 must hold S")
	}
}

func TestExclusiveBlocks(t *testing.T) {
	m := New()
	if err := m.Acquire(1, resA, Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- m.Acquire(2, resA, Shared) }()
	select {
	case <-acquired:
		t.Fatal("S granted while X held")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
}

func TestReentrantAndUpgrade(t *testing.T) {
	m := New()
	if err := m.Acquire(1, resA, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, resA, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, resA, Exclusive); err != nil {
		t.Fatalf("sole-owner upgrade: %v", err)
	}
	if mode, _ := m.Holding(1, resA); mode != Exclusive {
		t.Fatal("upgrade not recorded")
	}
	// X then S by same owner is a no-op.
	if err := m.Acquire(1, resA, Shared); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeWaitsForReaders(t *testing.T) {
	m := New()
	if err := m.Acquire(1, resA, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, resA, Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(1, resA, Exclusive) }()
	select {
	case <-done:
		t.Fatal("upgrade granted while another reader holds S")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := New()
	if err := m.Acquire(1, resA, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, resB, Exclusive); err != nil {
		t.Fatal(err)
	}
	// tx 1 waits for B.
	firstBlocked := make(chan error, 1)
	go func() { firstBlocked <- m.Acquire(1, resB, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	// tx 2 requesting A closes the cycle: it must get ErrDeadlock.
	err := m.Acquire(2, resA, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	// Victim aborts; tx 1 proceeds.
	m.ReleaseAll(2)
	if err := <-firstBlocked; err != nil {
		t.Fatalf("survivor: %v", err)
	}
}

func TestUpgradeDeadlock(t *testing.T) {
	// Two readers both upgrading is the classic upgrade deadlock.
	m := New()
	if err := m.Acquire(1, resA, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, resA, Shared); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- m.Acquire(1, resA, Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	err := m.Acquire(2, resA, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected upgrade deadlock, got %v", err)
	}
	m.ReleaseAll(2)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}

func TestTryAcquire(t *testing.T) {
	m := New()
	if !m.TryAcquire(1, resA, Exclusive) {
		t.Fatal("try on free resource")
	}
	if m.TryAcquire(2, resA, Shared) {
		t.Fatal("try must fail against X")
	}
	if !m.TryAcquire(1, resA, Shared) {
		t.Fatal("re-entrant try")
	}
	m.ReleaseAll(1)
	if !m.TryAcquire(2, resA, Shared) {
		t.Fatal("try after release")
	}
	if !m.TryAcquire(3, resA, Shared) {
		t.Fatal("S-S try")
	}
	if m.TryAcquire(3, resA, Exclusive) {
		t.Fatal("upgrade try with other reader must fail")
	}
	m.ReleaseAll(2)
	if !m.TryAcquire(3, resA, Exclusive) {
		t.Fatal("sole-owner upgrade try")
	}
}

func TestExplicitRelease(t *testing.T) {
	m := New()
	if err := m.Acquire(1, resA, Shared); err != nil {
		t.Fatal(err)
	}
	m.Release(1, resA)
	if _, ok := m.Holding(1, resA); ok {
		t.Fatal("release did not drop lock")
	}
	if err := m.Acquire(2, resA, Exclusive); err != nil {
		t.Fatal(err)
	}
}

func TestFIFONoStarvation(t *testing.T) {
	// A writer queued behind readers must not be starved by later readers.
	m := New()
	if err := m.Acquire(1, resA, Shared); err != nil {
		t.Fatal(err)
	}
	writerDone := make(chan error, 1)
	go func() { writerDone <- m.Acquire(2, resA, Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	readerDone := make(chan error, 1)
	go func() { readerDone <- m.Acquire(3, resA, Shared) }()
	select {
	case <-readerDone:
		t.Fatal("late reader jumped over queued writer")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStress(t *testing.T) {
	m := New()
	const txs = 16
	const rounds = 200
	var counter int64
	var wg sync.WaitGroup
	for i := 0; i < txs; i++ {
		wg.Add(1)
		go func(tx TxID) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := m.Acquire(tx, resA, Exclusive); err != nil {
					t.Errorf("tx %d: %v", tx, err)
					return
				}
				// Critical section: only one tx at a time.
				v := atomic.AddInt64(&counter, 1)
				if v != 1 {
					t.Errorf("mutual exclusion violated: %d", v)
				}
				atomic.AddInt64(&counter, -1)
				m.ReleaseAll(tx)
			}
		}(TxID(i + 1))
	}
	wg.Wait()
}

func TestIsolationLevelString(t *testing.T) {
	for _, l := range []IsolationLevel{DirtyRead, CommittedRead, RepeatableRead, Snapshot} {
		if l.String() == "" {
			t.Fatal("empty isolation string")
		}
	}
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatal("mode strings")
	}
	if (Resource{Kind: KindTable, A: 1, B: 2}).String() == "" {
		t.Fatal("resource string")
	}
}

// TestUpgradeDeadlockStorm drives many S→X upgrade collisions concurrently:
// per resource, two transactions both hold Shared and both request the
// Exclusive upgrade at once. Exactly one of each pair must be chosen as the
// deadlock victim, the survivor must obtain the upgrade once the victim
// releases, and the manager must end fully drained — no leaked waiters, no
// leaked queue entries. Run under -race this also exercises the
// grant/victim handoff for data races.
func TestUpgradeDeadlockStorm(t *testing.T) {
	m := New()
	const pairs = 32
	var wg sync.WaitGroup
	var victims, winners atomic.Int64
	for p := 0; p < pairs; p++ {
		res := Resource{Kind: KindNamed, A: uint64(p)}
		a, b := TxID(2*p+1), TxID(2*p+2)
		for _, tx := range []TxID{a, b} {
			if err := m.Acquire(tx, res, Shared); err != nil {
				t.Fatalf("shared acquire: %v", err)
			}
		}
		for _, tx := range []TxID{a, b} {
			wg.Add(1)
			go func(tx TxID) {
				defer wg.Done()
				err := m.Acquire(tx, res, Exclusive)
				switch err {
				case nil:
					if mode, ok := m.Holding(tx, res); !ok || mode != Exclusive {
						t.Errorf("tx %d: winner does not hold X", tx)
					}
					winners.Add(1)
					m.ReleaseAll(tx)
				case ErrDeadlock:
					victims.Add(1)
					m.ReleaseAll(tx) // victim aborts: drop its shared lock
				default:
					t.Errorf("tx %d: unexpected error %v", tx, err)
				}
			}(tx)
		}
	}
	wg.Wait()
	if victims.Load() != pairs || winners.Load() != pairs {
		t.Fatalf("victims=%d winners=%d, want %d each", victims.Load(), winners.Load(), pairs)
	}
	if n := m.WaiterCount(); n != 0 {
		t.Fatalf("leaked waiters: %d", n)
	}
	for p := 0; p < pairs; p++ {
		for _, tx := range []TxID{TxID(2*p + 1), TxID(2*p + 2)} {
			if n := m.HeldCount(tx); n != 0 {
				t.Fatalf("tx %d still holds %d locks", tx, n)
			}
		}
	}
}

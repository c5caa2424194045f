// Package lock provides the engine's lock manager: shared/exclusive locks on
// arbitrary resources (tables, rows, large objects) with strict two-phase
// locking, the isolation levels the paper discusses in Sections 5.3 and 5.5,
// and wait-for-graph deadlock detection.
//
// The sbspace layer uses it to implement Informix's "automatic two-phase
// locking at the large-object level": locks are acquired when a large object
// is opened and, depending on the lock mode and the transaction's isolation
// level, released either on close or at transaction end (Section 5.3).
package lock

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Mode is a lock mode.
type Mode int

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single owner.
	Exclusive
)

func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// compatible reports whether a lock in mode a held by one transaction is
// compatible with a request in mode b by another.
func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// IsolationLevel selects when read locks are released (Informix levels).
type IsolationLevel int

const (
	// DirtyRead takes no read locks at all.
	DirtyRead IsolationLevel = iota
	// CommittedRead releases shared locks as soon as the protected object
	// is closed; writers still hold exclusive locks to transaction end.
	CommittedRead
	// RepeatableRead holds even shared locks until the transaction ends
	// (Section 5.3: "If the repeatable-read isolation level is set, even the
	// shared locks on large objects will be released only when a
	// transaction commits").
	RepeatableRead
	// Snapshot reads from an MVCC snapshot captured at transaction start:
	// readers take no locks at all (the heap's version chains provide the
	// stable view), while writers keep two-phase exclusive locks. Not an
	// Informix level; it is what the version-chained heap enables.
	Snapshot
)

func (l IsolationLevel) String() string {
	switch l {
	case DirtyRead:
		return "DIRTY READ"
	case CommittedRead:
		return "COMMITTED READ"
	case Snapshot:
		return "SNAPSHOT"
	default:
		return "REPEATABLE READ"
	}
}

// ResourceKind tags the namespace of a lockable resource.
type ResourceKind uint8

const (
	// KindTable locks a whole table.
	KindTable ResourceKind = iota + 1
	// KindLargeObject locks an sbspace large object.
	KindLargeObject
	// KindNamed locks an arbitrary named resource.
	KindNamed
)

// Resource identifies a lockable object.
type Resource struct {
	Kind ResourceKind
	A, B uint64 // kind-specific (table id / LO handle / hash)
}

func (r Resource) String() string {
	return fmt.Sprintf("%d:%d/%d", r.Kind, r.A, r.B)
}

// TxID identifies a lock owner.
type TxID uint64

// ErrDeadlock is returned to the transaction chosen as the deadlock victim.
var ErrDeadlock = errors.New("lock: deadlock detected")

// ErrAborted is returned to waiters whose wait was cancelled.
var ErrAborted = errors.New("lock: wait cancelled")

type request struct {
	tx      TxID
	mode    Mode
	granted bool
	ready   chan error
}

type lockState struct {
	queue []*request // granted prefix, then waiters in FIFO order
}

// Manager is the lock manager. The zero value is not usable; call New.
type Manager struct {
	mu    sync.Mutex
	locks map[Resource]*lockState
	held  map[TxID]map[Resource]Mode
	waits map[TxID]Resource // which resource each blocked tx waits for

	obs *obs.Registry
}

// SetObs attaches the registry that counts granted lock acquisitions,
// blocked waits, and deadlock victims. Call before concurrent use.
func (m *Manager) SetObs(reg *obs.Registry) { m.obs = reg }

// New returns an empty lock manager.
func New() *Manager {
	return &Manager{
		locks: make(map[Resource]*lockState),
		held:  make(map[TxID]map[Resource]Mode),
		waits: make(map[TxID]Resource),
	}
}

// Acquire obtains the lock, blocking until granted. Lock upgrades (Shared →
// Exclusive by the same transaction) are supported. If granting would close
// a cycle in the wait-for graph, the requesting transaction receives
// ErrDeadlock instead of blocking forever.
func (m *Manager) Acquire(tx TxID, res Resource, mode Mode) error {
	m.mu.Lock()
	st := m.locks[res]
	if st == nil {
		st = &lockState{}
		m.locks[res] = st
	}

	// Re-entrant and upgrade handling.
	if cur, ok := m.held[tx][res]; ok {
		if cur == Exclusive || mode == Shared {
			m.mu.Unlock()
			return nil // already sufficient
		}
		// Upgrade S → X: legal once no other transaction holds the lock.
		if m.wouldDeadlock(tx, res) {
			m.mu.Unlock()
			m.obs.Inc(obs.LockDeadlocks)
			return ErrDeadlock
		}
		req := &request{tx: tx, mode: Exclusive, ready: make(chan error, 1)}
		st.queue = append([]*request{req}, st.queue...) // upgrades go first
		m.promoteLocked(res)
		if req.granted {
			m.recordLocked(tx, res, Exclusive)
			m.mu.Unlock()
			m.obs.Inc(obs.LockAcquires)
			return nil
		}
		m.waits[tx] = res
		m.mu.Unlock()
		m.obs.Inc(obs.LockWaits)
		err := <-req.ready
		m.mu.Lock()
		delete(m.waits, tx)
		if err == nil {
			m.recordLocked(tx, res, Exclusive)
		}
		m.mu.Unlock()
		if err == nil {
			m.obs.Inc(obs.LockAcquires)
		} else if err == ErrDeadlock {
			m.obs.Inc(obs.LockDeadlocks)
		}
		return err
	}

	req := &request{tx: tx, mode: mode, ready: make(chan error, 1)}
	st.queue = append(st.queue, req)
	m.promoteLocked(res)
	if req.granted {
		m.recordLocked(tx, res, mode)
		m.mu.Unlock()
		m.obs.Inc(obs.LockAcquires)
		return nil
	}
	if m.wouldDeadlock(tx, res) {
		// Remove our request and fail.
		m.removeRequestLocked(res, req)
		m.mu.Unlock()
		m.obs.Inc(obs.LockDeadlocks)
		return ErrDeadlock
	}
	m.waits[tx] = res
	m.mu.Unlock()
	m.obs.Inc(obs.LockWaits)
	err := <-req.ready
	m.mu.Lock()
	delete(m.waits, tx)
	if err == nil {
		m.recordLocked(tx, res, mode)
	}
	m.mu.Unlock()
	if err == nil {
		m.obs.Inc(obs.LockAcquires)
	} else if err == ErrDeadlock {
		m.obs.Inc(obs.LockDeadlocks)
	}
	return err
}

// TryAcquire obtains the lock without blocking; it reports whether the lock
// was granted.
func (m *Manager) TryAcquire(tx TxID, res Resource, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.locks[res]
	if st == nil {
		st = &lockState{}
		m.locks[res] = st
	}
	if cur, ok := m.held[tx][res]; ok {
		if cur == Exclusive || mode == Shared {
			return true
		}
		// Upgrade possible only when tx is the sole granted owner.
		for _, r := range st.queue {
			if r.granted && r.tx != tx {
				return false
			}
		}
		for _, r := range st.queue {
			if r.granted && r.tx == tx {
				r.mode = Exclusive
			}
		}
		m.recordLocked(tx, res, Exclusive)
		m.obs.Inc(obs.LockAcquires)
		return true
	}
	for _, r := range st.queue {
		if r.granted && r.tx != tx && !compatible(r.mode, mode) {
			return false
		}
		if !r.granted {
			return false // FIFO fairness: don't jump the queue
		}
	}
	req := &request{tx: tx, mode: mode, granted: true}
	st.queue = append(st.queue, req)
	m.recordLocked(tx, res, mode)
	m.obs.Inc(obs.LockAcquires)
	return true
}

// Release drops one lock held by tx. Transactions normally release through
// ReleaseAll at commit (strict 2PL); explicit Release exists for the
// committed-read shared-lock-on-close behaviour of sbspaces.
func (m *Manager) Release(tx TxID, res Resource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseLocked(tx, res)
}

// ReleaseAll drops every lock held by tx (commit or abort).
func (m *Manager) ReleaseAll(tx TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for res := range m.held[tx] {
		m.releaseLocked(tx, res)
	}
	delete(m.held, tx)
}

// Holding returns the mode in which tx holds res, if any.
func (m *Manager) Holding(tx TxID, res Resource) (Mode, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mode, ok := m.held[tx][res]
	return mode, ok
}

// HeldCount returns how many locks tx currently holds.
func (m *Manager) HeldCount(tx TxID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.held[tx])
}

// WaiterCount returns the number of blocked requests across all resources
// (zero in a quiesced manager — deadlock victims and released waiters must
// not leak queue entries).
func (m *Manager) WaiterCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, st := range m.locks {
		for _, r := range st.queue {
			if !r.granted {
				n++
			}
		}
	}
	return n
}

func (m *Manager) recordLocked(tx TxID, res Resource, mode Mode) {
	h := m.held[tx]
	if h == nil {
		h = make(map[Resource]Mode)
		m.held[tx] = h
	}
	if cur, ok := h[res]; !ok || mode == Exclusive && cur == Shared {
		h[res] = mode
	}
}

func (m *Manager) releaseLocked(tx TxID, res Resource) {
	st := m.locks[res]
	if st == nil {
		return
	}
	out := st.queue[:0]
	for _, r := range st.queue {
		if r.granted && r.tx == tx {
			continue
		}
		out = append(out, r)
	}
	st.queue = out
	if h := m.held[tx]; h != nil {
		delete(h, res)
	}
	if len(st.queue) == 0 {
		delete(m.locks, res)
		return
	}
	m.promoteLocked(res)
}

// promoteLocked grants as many queued requests as compatibility allows, in
// FIFO order. Caller holds m.mu.
func (m *Manager) promoteLocked(res Resource) {
	st := m.locks[res]
	for _, r := range st.queue {
		if r.granted {
			continue
		}
		ok := true
		for _, g := range st.queue {
			if g == r || !g.granted {
				continue
			}
			if g.tx == r.tx {
				continue // own lock (upgrade path)
			}
			if !compatible(g.mode, r.mode) {
				ok = false
				break
			}
		}
		if !ok {
			break // FIFO: don't let later requests starve this one
		}
		r.granted = true
		if r.ready != nil {
			r.ready <- nil
		}
	}
}

func (m *Manager) removeRequestLocked(res Resource, req *request) {
	st := m.locks[res]
	if st == nil {
		return
	}
	out := st.queue[:0]
	for _, r := range st.queue {
		if r != req {
			out = append(out, r)
		}
	}
	st.queue = out
	if len(st.queue) == 0 {
		delete(m.locks, res)
	} else {
		m.promoteLocked(res)
	}
}

// wouldDeadlock reports whether tx blocking on res would close a cycle in
// the wait-for graph. Caller holds m.mu.
func (m *Manager) wouldDeadlock(tx TxID, res Resource) bool {
	// tx would wait for every holder of res (and, transitively, whatever
	// they wait for). DFS over the wait-for graph looking for tx itself.
	visited := make(map[TxID]bool)
	var visit func(holder TxID) bool
	visit = func(holder TxID) bool {
		if holder == tx {
			return true
		}
		if visited[holder] {
			return false
		}
		visited[holder] = true
		waitRes, blocked := m.waits[holder]
		if !blocked {
			return false
		}
		for _, g := range m.locks[waitRes].queue {
			if g.granted && g.tx != holder && visit(g.tx) {
				return true
			}
		}
		return false
	}
	for _, g := range m.locks[res].queue {
		if g.granted && g.tx != tx && visit(g.tx) {
			return true
		}
	}
	return false
}

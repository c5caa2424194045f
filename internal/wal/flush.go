package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
)

// CommitMode selects how a committing session waits for durability.
type CommitMode uint8

const (
	// CommitSync forces a private flush+fsync for this commit (the classic
	// one-fsync-per-commit baseline).
	CommitSync CommitMode = iota
	// CommitGroup parks the session on the flusher until the commit record
	// is durable; concurrent committers coalesce into ~1 fsync (the
	// default).
	CommitGroup
	// CommitAsync returns at append time. Durability lags by up to the
	// flusher interval: a crash may lose the last few milliseconds of
	// commits (bounded loss), but never corrupts — recovery undoes them.
	CommitAsync
)

func (m CommitMode) String() string {
	switch m {
	case CommitSync:
		return "SYNC"
	case CommitGroup:
		return "GROUP"
	case CommitAsync:
		return "ASYNC"
	}
	return "?"
}

// ParseCommitMode maps the SET COMMIT argument to a mode.
func ParseCommitMode(s string) (CommitMode, bool) {
	switch s {
	case "SYNC":
		return CommitSync, true
	case "GROUP":
		return CommitGroup, true
	case "ASYNC":
		return CommitAsync, true
	}
	return 0, false
}

// asyncFlushInterval bounds how long an ASYNC commit (or any buffered
// append) can sit in memory before the flusher forces it out.
const asyncFlushInterval = 5 * time.Millisecond

// CommitWith appends a COMMIT record for tx and waits (or not) per mode.
func (l *Log) CommitWith(tx uint64, mode CommitMode) (LSN, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return NilLSN, errClosed
	}
	lsn := l.appendLocked(Record{Type: RecCommit, Tx: tx})
	target := l.size
	switch mode {
	case CommitAsync:
		l.mu.Unlock()
		l.kick()
		return lsn, nil
	case CommitSync:
		l.mu.Unlock()
		// The classic baseline: this commit issues its own fsync, always —
		// even when a concurrent flush already covered its record. SYNC
		// commits therefore serialise on the log I/O, one fsync each.
		return lsn, l.doFlush(obs.WalFlushesSync)
	default:
		return lsn, l.waitDurable(target)
	}
}

// waitDurable parks the caller until flushed covers target. Parked sessions
// are what the flusher counts as a commit group. Caller holds mu; released
// on return.
func (l *Log) waitDurable(target int64) error {
	l.nparked++
	l.mu.Unlock()
	l.kick()
	l.mu.Lock()
	for l.flushed < target && l.ioErr == nil && !l.closed {
		l.cond.Wait()
	}
	l.nparked--
	err := l.ioErr
	if err == nil && l.flushed < target {
		err = errClosed
	}
	l.mu.Unlock()
	return err
}

// gather gives a forming commit group a brief window to grow before the
// flusher pays the fsync: while new committers keep parking, yield the
// processor to them. A lone committer passes through after a few
// nanosecond-scale yields, so the added latency is noise next to the fsync;
// under concurrency the group roughly doubles, halving fsyncs per commit.
func (l *Log) gather() {
	l.mu.Lock()
	last := l.nparked
	l.mu.Unlock()
	if last == 0 {
		return
	}
	still := 0
	for i := 0; i < 256 && still < 8; i++ {
		runtime.Gosched()
		l.mu.Lock()
		n := l.nparked
		l.mu.Unlock()
		if n > last {
			last, still = n, 0
		} else {
			still++
		}
	}
}

// kick nudges the flusher without blocking (the channel has capacity 1, so
// a pending kick absorbs further ones).
func (l *Log) kick() {
	select {
	case l.flushC <- struct{}{}:
	default:
	}
}

// flusher is the dedicated goroutine that drains the tail buffer. It wakes
// on kicks (commits) and on a ticker (ASYNC bounded loss), and performs one
// final drain on Close.
func (l *Log) flusher() {
	defer close(l.done)
	tick := time.NewTicker(asyncFlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.quit:
			l.doFlush(obs.WalFlushesForced) // final drain: ASYNC commits become durable on clean shutdown
			return
		case <-l.flushC:
		case <-tick.C:
		}
		l.gather()
		l.mu.Lock()
		dirty := l.flushed < l.size
		l.mu.Unlock()
		if dirty {
			if err := l.doFlush(obs.WalFlushesTick); err != nil {
				l.fail(err)
			}
		}
	}
}

// flushTo makes everything below target durable, driving flushes inline
// (SYNC commits and explicit Flush calls do their own I/O rather than wait
// for the flusher's cadence).
func (l *Log) flushTo(target int64) error {
	for {
		l.mu.Lock()
		if l.ioErr != nil {
			err := l.ioErr
			l.mu.Unlock()
			return err
		}
		if l.flushed >= target {
			l.mu.Unlock()
			return nil
		}
		l.mu.Unlock()
		if err := l.doFlush(obs.WalFlushesForced); err != nil {
			l.fail(err)
			return err
		}
	}
}

// fail makes err the log's sticky I/O error, which every later flush and
// waiting commit reports, and wakes the waiters.
func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.ioErr == nil {
		l.ioErr = err
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// doFlush writes and fsyncs whatever is pending. ioMu serialises the file
// I/O; mu is only held to swap buffers and publish results, so appends
// proceed while the fsync runs — the next group forms during this one.
//
// cause is the wal.flushes.* counter of whoever asked: the flusher
// (WalFlushesTick, counted as WalFlushesGroup when committers are parked), a
// SYNC commit (WalFlushesSync), or Flush and Close (WalFlushesForced). Only
// a SYNC commit fsyncs when everything appended is already durable: it gets
// its private per-commit fsync.
func (l *Log) doFlush(cause obs.ID) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	if cause != obs.WalFlushesSync && l.flushed >= l.size {
		l.mu.Unlock()
		return nil
	}
	chunk := l.pending
	l.pending = nil
	l.writing = chunk
	start := l.written
	target := l.size
	group := l.nparked
	l.mu.Unlock()

	var err error
	if len(chunk) > 0 {
		_, err = l.f.WriteAt(chunk, l.fileOff(start))
	}
	if err == nil {
		err = l.f.Sync()
	}

	l.mu.Lock()
	l.writing = nil
	if err != nil {
		// Put the unwritten chunk back so state stays consistent; callers
		// will see the sticky error.
		if len(chunk) > 0 {
			l.pending = append(chunk, l.pending...)
		}
		l.mu.Unlock()
		return err
	}
	l.written = start + int64(len(chunk))
	l.flushed = target
	if group > 0 {
		l.obs.ObserveCount(obs.WalGroupSize, uint64(group))
		if cause == obs.WalFlushesTick {
			cause = obs.WalFlushesGroup
		}
	}
	l.obs.Inc(obs.WalFlushes)
	l.obs.Inc(cause)
	l.cond.Broadcast()
	l.mu.Unlock()
	if chunk != nil && cap(chunk) <= maxPooledBuf {
		chunk = chunk[:0]
		bufPool.Put(&chunk)
	}
	return nil
}

// TruncateTo drops the log prefix below cutoff by rotating the file: the
// retained suffix is copied to a sibling file with a new base-LSN header,
// fsynced, and renamed over the log. LSNs are logical, so survivors keep
// their numbers. The cutoff is clamped to what recovery still needs (the
// durable boundary and every live transaction's first record); the caller
// must have forced dirty pages whose updates sit below cutoff (the engine's
// checkpointer does). Returns the number of bytes dropped.
//
// The rename is durable only once the directory is synced: until then a
// crash can bring back the old file and lose what was appended to the new
// one. The sync runs under ioMu but not mu, so appends go on while no flush
// can report the new file durable first; if it fails, no flush ever does.
func (l *Log) TruncateTo(cutoff LSN) (int64, error) {
	if err := l.Flush(); err != nil {
		return 0, err
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	dropped, err := l.rotate(cutoff)
	if err == nil && dropped > 0 {
		if err = syncDir(filepath.Dir(l.path)); err != nil {
			l.fail(err)
		}
	}
	return dropped, err
}

// rotate copies the log from cutoff on into a new file renamed over the log,
// and switches appends to it. Caller holds ioMu.
func (l *Log) rotate(cutoff LSN) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errClosed
	}
	if int64(cutoff) > l.flushed {
		cutoff = LSN(l.flushed)
	}
	for _, first := range l.firstLSN {
		if first < cutoff {
			cutoff = first
		}
	}
	if cutoff <= l.base {
		return 0, nil
	}
	dropped := int64(cutoff - l.base)
	keep := l.written - int64(cutoff) // bytes of retained, durable suffix

	tmpPath := l.path + ".rotate"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: rotate: %w", err)
	}
	cleanup := func(err error) (int64, error) {
		tmp.Close()
		os.Remove(tmpPath)
		return 0, err
	}
	if err := writeHeader(tmp, cutoff); err != nil {
		return cleanup(err)
	}
	if keep > 0 {
		src := io.NewSectionReader(l.f, l.fileOff(int64(cutoff)), keep)
		if _, err := tmp.Seek(logHeaderSize, io.SeekStart); err != nil {
			return cleanup(err)
		}
		if _, err := io.Copy(tmp, src); err != nil {
			return cleanup(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		return cleanup(err)
	}
	old := l.f
	l.f = tmp
	l.base = cutoff
	old.Close()
	l.obs.Add(obs.WalTruncatedBytes, uint64(dropped))
	return dropped, nil
}

// syncDir makes dir's entries durable: a file created in it, or renamed into
// it, survives a crash only once the directory is fsynced (fsync(2)). Tests
// replace it to see where it is called.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	return err
}

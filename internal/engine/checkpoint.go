package engine

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Checkpoint takes a fuzzy checkpoint and truncates the log: it appends a
// RecCheckpoint record carrying the active-transaction table (snapshotted
// atomically with the append), forces every buffer pool's dirty pages to
// their pagers, and rotates the log so the prefix recovery no longer needs
// is dropped. The truncation cutoff is the minimum of the checkpoint LSN
// and every live transaction's first record — computed at append time, so a
// transaction whose page writes were still in flight when the checkpoint
// was cut keeps its log suffix. Safe to call concurrently (checkpoints
// serialise on cpMu) and alongside running transactions.
func (e *Engine) Checkpoint() error {
	if e.log == nil {
		return nil
	}
	e.cpMu.Lock()
	defer e.cpMu.Unlock()
	_, cutoff, err := e.log.CheckpointCut()
	if err != nil {
		return err
	}
	for _, bp := range e.pools() {
		if err := bp.FlushAll(); err != nil {
			return err
		}
	}
	if _, err := e.log.TruncateTo(cutoff); err != nil {
		return err
	}
	e.obs.Inc(obs.WalCheckpoints)
	e.cpLast.Store(e.log.Size())
	return nil
}

// checkpointIfDue is the checkpoint daemon's tick: it checkpoints once the
// log has grown past CheckpointThreshold since the last checkpoint.
func (e *Engine) checkpointIfDue() {
	if e.log.Size()-e.cpLast.Load() >= e.opts.CheckpointThreshold {
		// Errors here are sticky in the WAL and will surface to the next
		// committing session; the daemon just keeps its cadence.
		_ = e.Checkpoint()
	}
}

// daemon calls tick every interval on its own goroutine until the returned
// stop is called. stop waits for the goroutine to exit and is idempotent. A
// negative interval starts nothing (tests drive the work directly).
func daemon(interval time.Duration, tick func()) (stop func()) {
	if interval < 0 {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				tick()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

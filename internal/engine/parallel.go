package engine

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/am"
	"repro/internal/heap"
	"repro/internal/mi"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Intra-query parallel scans: when the session's SET PARALLEL degree allows
// it, the server offers the chosen access path a degree of parallelism. A
// virtual index accepts through its optional am_parallelscan purpose
// function, returning one partition ScanDesc per worker; the heap accepts by
// splitting its data pages into contiguous ranges. A bounded pool of worker
// goroutines then drives the partitions through the normal am_getmulti batch
// protocol and a merger funnels their batches back into the ordinary
// batchIterator pipeline, so everything downstream (WHERE re-filter,
// projection, row-at-a-time spill) is unchanged. Only SELECT parallelises:
// the target scans of DELETE and UPDATE run serially.

// parallelObs caches the parallel.* counters (registered in
// registerCoreCounters so SYSPROFILE always lists them): fan-out volume,
// worker utilisation (busy_ns vs send_wait_ns — time filling batches vs time
// blocked on a full merge queue), and merged throughput.
type parallelObs struct {
	Scans      *obs.Counter // parallel scans executed
	Workers    *obs.Counter // workers launched across all parallel scans
	Batches    *obs.Counter // batches merged from workers
	Rows       *obs.Counter // rows produced by workers
	BusyNs     *obs.Counter // worker time spent filling/resolving batches
	SendWaitNs *obs.Counter // worker time blocked sending into the merge queue
}

// scanDegree decides how many workers to offer a SELECT scan: the SET
// PARALLEL knob, capped by GOMAXPROCS, gated by what the access path can
// support — an index must bind am_parallelscan and the batch protocol, and
// am_scancost must suggest enough work to amortise the fan-out; a heap scan
// needs at least one data page per worker.
func (s *Session) scanDegree(path accessPath, plan *Plan, table *heap.Table) int {
	deg := s.vars.Parallel()
	if max := runtime.GOMAXPROCS(0); deg > max {
		deg = max
	}
	if deg < 2 {
		return 1
	}
	if path.index != nil {
		ps := path.index.ps
		// The parallel protocol is batch-only: partitions are driven through
		// am_getmulti, so a getnext-only access method stays serial.
		if ps.ParallelScan == nil || ps.GetMulti == nil || ps.BeginScan == nil {
			return 1
		}
		if ch := plan.Chosen(); ch != nil && ch.Costed && ch.Cost < 2 {
			return 1 // am_scancost says the scan is too small to fan out
		}
		return deg
	}
	pages := table.Pages()
	if pages < 2 {
		return 1
	}
	if deg > pages {
		deg = pages
	}
	return deg
}

// stmtContext returns the cancellation context of the statement currently
// executing (ExecCtx threads it in; Background between statements).
func (s *Session) stmtContext() context.Context {
	if s.stmtCtx != nil {
		return s.stmtCtx
	}
	return context.Background()
}

// parMsg is one message from a worker to the merger: a batch, or the error
// that stopped the worker.
type parMsg struct {
	rb  *rowBatch
	err error
}

// parallelBatchIter is the merge end of a parallel scan. Workers send
// batches into out; next() receives them (or the first worker error, or the
// statement context's cancellation). close() shuts the pool down and waits
// for every worker to exit before tearing down the parent scan, so early
// termination (first-row-only consumers, statement errors) never leaks a
// goroutine into a scan the server is about to end.
type parallelBatchIter struct {
	s       *Session
	out     chan parMsg
	stop    chan struct{}
	wg      sync.WaitGroup
	stopped bool
	closed  bool
	cleanup func() // parent-scan teardown (am_endscan), after workers exit
}

// startParallel launches one goroutine per worker, each with its own mi
// context (mi contexts are single-threaded; the tracer they share is not),
// plus a merger goroutine that closes the stream once every worker exits.
func (s *Session) startParallel(workers int, run func(it *parallelBatchIter, w int, wctx *mi.Context) error, cleanup func()) *parallelBatchIter {
	it := &parallelBatchIter{
		s:       s,
		out:     make(chan parMsg, workers),
		stop:    make(chan struct{}),
		cleanup: cleanup,
	}
	s.e.parObs.Scans.Inc()
	s.e.parObs.Workers.Add(uint64(workers))
	for w := 0; w < workers; w++ {
		it.wg.Add(1)
		wctx := mi.NewContext(s.id, s.e.tracer)
		go func(w int, wctx *mi.Context) {
			defer it.wg.Done()
			if err := run(it, w, wctx); err != nil {
				it.send(parMsg{err: err})
			}
		}(w, wctx)
	}
	go func() {
		it.wg.Wait()
		close(it.out)
	}()
	return it
}

// send delivers a message unless the scan is shutting down; false tells the
// worker to stop. The channel's buffer (one slot per worker) guarantees the
// single error message a worker may send never deadlocks against a merger
// that has stopped receiving.
func (it *parallelBatchIter) send(m parMsg) bool {
	select {
	case it.out <- m:
		return true
	case <-it.stop:
		return false
	}
}

func (it *parallelBatchIter) halt() {
	if !it.stopped {
		it.stopped = true
		close(it.stop)
	}
}

func (it *parallelBatchIter) next() (*rowBatch, error) {
	ctx := it.s.stmtContext()
	select {
	case m, ok := <-it.out:
		if !ok {
			return nil, nil
		}
		if m.err != nil {
			it.halt()
			return nil, m.err
		}
		return m.rb, nil
	case <-ctx.Done():
		it.halt()
		return nil, ctx.Err()
	}
}

// close stops the workers, drains the stream so none stay blocked on a
// send, waits for all of them to exit (the merger closes out only after
// wg.Wait), and then ends the parent scan.
func (it *parallelBatchIter) close() {
	if it.closed {
		return
	}
	it.closed = true
	it.halt()
	for range it.out {
	}
	if it.cleanup != nil {
		it.cleanup()
	}
}

// newParallelIndexIter offers the access method the degree through
// am_parallelscan on a parent scan already begun, and fans the returned
// partitions out to workers. A declined offer (nil or fewer than two
// partitions) falls back to the serial batch protocol on the parent scan.
func (s *Session) newParallelIndexIter(oi *openIndex, table *heap.Table, sd *am.ScanDesc, workers int) (batchIterator, error) {
	s.amCall("am_parallelscan", oi.desc.Name)
	parts, err := oi.ps.ParallelScan(s.ctx, sd, workers)
	s.ctx.EndFunction()
	if err != nil {
		s.endScan(oi, sd)
		return nil, err
	}
	if len(parts) < 2 {
		return s.newIndexBatchIter(oi, table, sd), nil
	}
	run := func(it *parallelBatchIter, w int, wctx *mi.Context) error {
		return s.runIndexWorker(it, parts[w], oi, table, wctx)
	}
	return s.startParallel(len(parts), run, func() { s.endScan(oi, sd) }), nil
}

// runIndexWorker drives one partition descriptor through am_getmulti until
// the partition reports exhaustion (a short batch) or the scan stops.
func (s *Session) runIndexWorker(it *parallelBatchIter, sd *am.ScanDesc, oi *openIndex, table *heap.Table, wctx *mi.Context) error {
	po := s.e.parObs
	for {
		select {
		case <-it.stop:
			return nil
		default:
		}
		t0 := time.Now()
		s.amCall("am_getmulti", oi.desc.Name)
		n, err := am.FillFrom(wctx, sd, oi.ps.GetMulti)
		wctx.EndFunction()
		if err != nil {
			return err
		}
		done := n < sd.Batch.Cap()
		if n > 0 {
			// Workers share the statement's immutable snapshot: each rid the
			// partition returns is resolved under it, invisible versions drop.
			rb, err := resolveBatch(oi, table, sd, n)
			if err != nil {
				return err
			}
			po.BusyNs.Add(uint64(time.Since(t0)))
			if len(rb.rows) > 0 {
				po.Rows.Add(uint64(len(rb.rows)))
				po.Batches.Inc()
				ts := time.Now()
				if !it.send(parMsg{rb: rb}) {
					return nil
				}
				po.SendWaitNs.Add(uint64(time.Since(ts)))
			}
		} else {
			po.BusyNs.Add(uint64(time.Since(t0)))
		}
		if done {
			return nil
		}
	}
}

// newParallelHeapIter splits the table's data pages into one contiguous
// range per worker (pages start at PageID 2; NewRangeScanner clamps the last
// range to the current page count).
func (s *Session) newParallelHeapIter(table *heap.Table, batch, workers int, snap *heap.Snapshot) batchIterator {
	pages := table.Pages()
	per := (pages + workers - 1) / workers
	scanners := make([]*heap.Scanner, workers)
	start := storage.PageID(2)
	for w := range scanners {
		end := start + storage.PageID(per)
		scanners[w] = table.NewRangeScanner(snap, start, end)
		start = end
	}
	run := func(it *parallelBatchIter, w int, wctx *mi.Context) error {
		po := s.e.parObs
		sc := scanners[w]
		for {
			select {
			case <-it.stop:
				return nil
			default:
			}
			t0 := time.Now()
			rb, err := sc.NextBatch(batch)
			if err != nil {
				return err
			}
			if rb == nil {
				return nil
			}
			s.ec.AddScanned(len(rb.Rows))
			po.BusyNs.Add(uint64(time.Since(t0)))
			po.Rows.Add(uint64(len(rb.Rows)))
			po.Batches.Inc()
			ts := time.Now()
			if !it.send(parMsg{rb: &rowBatch{rids: rb.RowIDs, rows: rb.Rows}}) {
				return nil
			}
			po.SendWaitNs.Add(uint64(time.Since(ts)))
		}
	}
	return s.startParallel(workers, run, nil)
}

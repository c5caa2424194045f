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
// goroutines then pulls one source per partition — the indexSource or
// heapSource a serial scan pulls inline — and a merger funnels their batches
// back into the ordinary batchIterator pipeline, so everything downstream (WHERE re-filter,
// projection, row-at-a-time spill) is unchanged. Only SELECT parallelises:
// the target scans of DELETE and UPDATE run serially.

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

// startParallel launches one worker goroutine per source, each with its own
// mi context (mi contexts are single-threaded; the tracer they share is
// not), plus a merger goroutine that closes the stream once every worker
// exits.
func (s *Session) startParallel(srcs []source, cleanup func()) *parallelBatchIter {
	it := &parallelBatchIter{
		s:       s,
		out:     make(chan parMsg, len(srcs)),
		stop:    make(chan struct{}),
		cleanup: cleanup,
	}
	s.e.obs.Inc(obs.ParallelScans)
	s.e.obs.Add(obs.ParallelWorkers, uint64(len(srcs)))
	for _, src := range srcs {
		it.wg.Add(1)
		go it.work(src, mi.NewContext(s.id, s.e.tracer))
	}
	go func() {
		it.wg.Wait()
		close(it.out)
	}()
	return it
}

// work is the worker loop: it pulls its source until exhaustion, an error
// or the scan stopping, and sends every batch to the merger.
func (it *parallelBatchIter) work(src source, ctx *mi.Context) {
	defer it.wg.Done()
	reg := it.s.e.obs
	for {
		select {
		case <-it.stop:
			return
		default:
		}
		t0 := time.Now()
		rb, err := src(ctx)
		reg.Add(obs.ParallelBusyNs, uint64(time.Since(t0)))
		if err != nil {
			it.send(parMsg{err: err})
			return
		}
		if rb == nil {
			return
		}
		reg.Add(obs.ParallelRows, uint64(len(rb.rows)))
		reg.Inc(obs.ParallelBatches)
		ts := time.Now()
		if !it.send(parMsg{rb: rb}) {
			return
		}
		reg.Add(obs.ParallelSendWaitNs, uint64(time.Since(ts)))
	}
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

// indexScan pulls an index scan whose am_beginscan has run. Offered more
// than one worker, the access method may accept through am_parallelscan: its
// partitions then fan out to workers. A declined offer (nil or fewer than two
// partitions) leaves the serial batch protocol on the parent scan.
func (s *Session) indexScan(oi *openIndex, table *heap.Table, sd *am.ScanDesc, workers int) (batchIterator, error) {
	end := func() { s.endScan(oi, sd) }
	if workers > 1 {
		s.amCall(obs.AmParallelscan, oi.desc.Name)
		parts, err := oi.ps.ParallelScan(s.ctx, sd, workers)
		s.ctx.EndFunction()
		if err != nil {
			end()
			return nil, err
		}
		if len(parts) >= 2 {
			srcs := make([]source, len(parts))
			for w, part := range parts {
				srcs[w] = s.indexSource(oi, table, part)
			}
			return s.startParallel(srcs, end), nil
		}
	}
	return &serialIter{ctx: s.ctx, src: s.indexSource(oi, table, sd), end: end}, nil
}

// heapScan reads the heap in storage order. Given more than one worker, it
// splits the table's data pages into one contiguous range per worker (pages
// start at PageID 2; NewRangeScanner clamps the last range to the current
// page count).
func (s *Session) heapScan(table *heap.Table, batch, workers int, snap *heap.Snapshot) batchIterator {
	if workers <= 1 {
		return &serialIter{ctx: s.ctx, src: heapSource(table.NewScanner(snap), batch, s.ec)}
	}
	per := (table.Pages() + workers - 1) / workers
	srcs := make([]source, workers)
	start := storage.PageID(2)
	for w := range srcs {
		end := start + storage.PageID(per)
		srcs[w] = heapSource(table.NewRangeScanner(snap, start, end), batch, s.ec)
		start = end
	}
	return s.startParallel(srcs, nil)
}

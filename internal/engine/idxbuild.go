package engine

// Online index build (two-phase, PostgreSQL CREATE INDEX CONCURRENTLY
// style, adapted to this engine's strict-2PL writers and MVCC readers):
//
//   Phase 0 (the catalog lock, then a short table X latch: the building
//   transaction's own table lock, so the deadlock detector sees both): the
//   index is entered into the catalog cache in the BUILDING state
//   (invisible to the planner, skipped by DML index maintenance), its
//   storage is created via am_create/am_open, a side log is registered so
//   every later writer statement captures its index-relevant changes, and
//   an MVCC snapshot is taken. The latch waits out in-flight writers, which
//   flush their side ops before releasing their locks, so the hand-off is
//   exact: a writer that committed before the latch is fully visible to the
//   snapshot and never saw the side log; a writer that runs after it sees
//   the side log registration before it touches any row. The two row sets
//   are disjoint and their union is exactly the committed table.
//
//   Phase 1 (no locks): the table is scanned under the snapshot in
//   am_getmulti-style batches and bulk-loaded through the AM's optional
//   am_build slot (sort-tile-recursive bottom-up packing in the tree
//   blades) or, when the AM lacks the slot, through batched am_insert.
//   Concurrent DML proceeds untouched; committed changes queue in the side
//   log (appended at commit, in commit order, while the committing
//   transaction still holds its table X lock).
//
//   Publish (short table X latch again): the side-log tail is replayed,
//   the log closes and the catalog entry flips to READY; the statement's
//   end writes the catalog image and commits, making the index pages and
//   the image durable together. BUILDING is never in the image, so a
//   crash or a failure anywhere before that commit leaves nothing behind:
//   the undo takes back the index storage and the catalog alike, and a
//   REBUILD's old index comes back as it was.

import (
	"strings"
	"sync"
	"time"

	"repro/internal/am"
	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/types"
)

// sideOp is one captured DML change relevant to a building index: a new
// version's row id plus its indexed-column projection. INSERT, LOAD and the
// new version of an UPDATE are captured; a DELETE or an UPDATE's old version
// is not, because index maintenance is deferred — the entry stays until the
// vacuum removes it, as it does in every ready index.
type sideOp struct {
	rid  heap.RowID
	vals []types.Datum
}

// indexBuild is one in-flight online build: the side log plus the
// identifiers writer statements need to find it.
type indexBuild struct {
	table string // lower-cased table name
	desc  *am.IndexDesc

	mu     sync.Mutex
	ops    []sideOp
	closed bool
}

// append queues captured ops; a closed log (the build is publishing or
// failed) drops them — the index either already replayed everything under
// the final latch or is being torn down.
func (b *indexBuild) append(ops []sideOp) {
	b.mu.Lock()
	if !b.closed {
		b.ops = append(b.ops, ops...)
	}
	b.mu.Unlock()
}

// drain takes the currently queued ops (in capture = commit order).
func (b *indexBuild) drain() []sideOp {
	b.mu.Lock()
	ops := b.ops
	b.ops = nil
	b.mu.Unlock()
	return ops
}

// close stops further capture.
func (b *indexBuild) close() {
	b.mu.Lock()
	b.closed = true
	b.ops = nil
	b.mu.Unlock()
}

// pendingSideOp is a captured-but-uncommitted change held in the writing
// session until its transaction resolves: flushed to the build's side log
// at commit (while the table X lock is still held, so log order is commit
// order), discarded at rollback.
type pendingSideOp struct {
	b  *indexBuild
	op sideOp
}

// registerBuild publishes a build so writer statements start capturing.
func (e *Engine) registerBuild(b *indexBuild) {
	e.buildsMu.Lock()
	e.builds = append(e.builds, b)
	e.buildsMu.Unlock()
}

// unregisterBuild removes a finished (or failed) build.
func (e *Engine) unregisterBuild(b *indexBuild) {
	e.buildsMu.Lock()
	for i, x := range e.builds {
		if x == b {
			e.builds = append(e.builds[:i], e.builds[i+1:]...)
			break
		}
	}
	e.buildsMu.Unlock()
}

// activeBuilds returns the builds capturing DML on a table. Writer
// statements call it after taking their table X lock, so the phase-0
// latch orders registration against every writer exactly.
func (e *Engine) activeBuilds(table string) []*indexBuild {
	e.buildsMu.Lock()
	defer e.buildsMu.Unlock()
	var out []*indexBuild
	for _, b := range e.builds {
		if b.table == strings.ToLower(table) {
			out = append(out, b)
		}
	}
	return out
}

// captureSide queues one side-log entry on the session, to be flushed at
// commit or dropped at rollback.
func (s *Session) captureSide(builds []*indexBuild, rid heap.RowID, row []types.Datum) {
	for _, b := range builds {
		s.pendingSide = append(s.pendingSide, pendingSideOp{
			b:  b,
			op: sideOp{rid: rid, vals: projectIndexed(b.desc, row)},
		})
	}
}

// flushSideOps moves the committed transaction's captured changes into
// their side logs. Called from commitTx after the commit record is durable
// and the transaction deactivated, but before its table X locks release —
// so each build's log receives whole transactions in commit order.
func (s *Session) flushSideOps() {
	byBuild := make(map[*indexBuild][]sideOp)
	for _, p := range s.pendingSide {
		byBuild[p.b] = append(byBuild[p.b], p.op)
	}
	for b, ops := range byBuild {
		b.append(ops)
	}
	s.pendingSide = s.pendingSide[:0]
}

// buildStage invokes the test-only crash hook at a named point of the
// build ("bulk", "replay", "prepublish"). A non-nil error aborts the build
// as if the stage itself had failed.
func (s *Session) buildStage(stage string) error {
	if h := s.e.buildHook; h != nil {
		return h(stage)
	}
	return nil
}

// buildFeed streams a snapshot scan of the table as am.ScanBatch batches:
// the AmBuildNext feed an am_build slot pulls, and what the batched
// am_insert fallback drains. Returns nil at exhaustion.
func (s *Session) buildFeed(table *heap.Table, desc *am.IndexDesc, snap *heap.Snapshot) am.AmBuildNext {
	sc := table.NewScanner(snap)
	batch := am.NewScanBatch(s.e.opts.ScanBatchSize)
	return func() (*am.ScanBatch, error) {
		rb, err := sc.NextBatch(batch.Cap())
		if err != nil || rb == nil {
			return nil, err
		}
		batch.Reset()
		for i := range rb.RowIDs {
			batch.Append(rb.RowIDs[i], projectIndexed(desc, rb.Rows[i]))
		}
		return batch, nil
	}
}

// buildMode selects how the bulk phase feeds the new index.
type buildMode int

const (
	// buildAuto (no build= parameter): am_build when the AM offers it,
	// else batched am_insert.
	buildAuto buildMode = iota
	// buildBulk (build='bulk'): require am_build; error if the AM lacks it.
	buildBulk
	// buildInsert (build='insert'): force the row-at-a-time path.
	buildInsert
)

// bulkPopulate loads a freshly created index from the snapshot scan:
// through am_build when the AM offers it (and the index was not created
// with build=insert), else through batched am_insert. Returns rows loaded.
func (s *Session) bulkPopulate(table *heap.Table, desc *am.IndexDesc, ps *am.PurposeSet, snap *heap.Snapshot, mode buildMode) (int, error) {
	if mode == buildBulk && ps.Build == nil {
		return 0, errf(CodeFeature, "access method %s has no am_build purpose function (build='bulk' unavailable)", desc.AmName)
	}
	next := s.buildFeed(table, desc, snap)
	if ps.Build != nil && mode != buildInsert {
		s.amCall(obs.AmBuild, desc.Name)
		n, err := ps.Build(s.ctx, desc, next)
		s.ctx.EndFunction()
		if err == nil {
			s.e.obs.Add(obs.IdxbuildRowsBulk, uint64(n))
		}
		return n, err
	}
	if ps.Insert == nil {
		return 0, errf(CodeFeature, "access method %s cannot insert", desc.AmName)
	}
	n := 0
	for {
		b, err := next()
		if err != nil {
			return n, err
		}
		if b == nil {
			s.e.obs.Add(obs.IdxbuildRowsBulk, uint64(n))
			return n, nil
		}
		for i := 0; i < b.N; i++ {
			s.amCall(obs.AmInsert, desc.Name)
			err := ps.Insert(s.ctx, desc, b.Rows[i], b.RowIDs[i])
			s.ctx.EndFunction()
			if err != nil {
				return n, err
			}
		}
		n += b.N
	}
}

// replaySide applies the build's queued side-log ops to the index, in
// capture order, and returns how many were applied. Loops until a drain
// comes back empty so a lock-free catch-up pass converges.
func (s *Session) replaySide(b *indexBuild, ps *am.PurposeSet) (int, error) {
	n := 0
	for {
		ops := b.drain()
		if len(ops) == 0 {
			return n, nil
		}
		for _, op := range ops {
			if ps.Insert == nil {
				return n, errf(CodeFeature, "access method %s cannot insert", b.desc.AmName)
			}
			s.amCall(obs.AmInsert, b.desc.Name)
			err := ps.Insert(s.ctx, b.desc, op.vals, op.rid)
			s.ctx.EndFunction()
			if err != nil {
				return n, err
			}
			n++
		}
		s.e.obs.Add(obs.IdxbuildSidelogReplayed, uint64(len(ops)))
	}
}

// stripBuildMode pops the engine-reserved "build" index parameter
// (build=bulk|insert; blades reject unknown parameters, so it must never
// reach parseConfig). Returns the build mode and an error for bad values.
func stripBuildMode(params map[string]string) (buildMode, error) {
	for k, v := range params {
		if !strings.EqualFold(k, "build") {
			continue
		}
		delete(params, k)
		switch {
		case strings.EqualFold(v, "bulk"):
			return buildBulk, nil
		case strings.EqualFold(v, "insert"):
			return buildInsert, nil
		default:
			return buildAuto, errf(CodeInvalidParameter, "bad build mode %q (want bulk or insert)", v)
		}
	}
	return buildAuto, nil
}

// buildIndexOnline runs the two-phase online build for an auto-commit
// CREATE INDEX (rebuild=false) or ALTER INDEX ... REBUILD (rebuild=true).
// On entry the catalog Index must NOT yet be registered (create) or must
// be registered READY (rebuild); the session transaction is the statement
// auto-transaction and holds no locks (see createIndex).
func (s *Session) buildIndexOnline(tb *catalog.Table, ix *catalog.Index, mode buildMode, rebuild bool) error {
	desc, ps, err := s.indexDesc(ix)
	if err != nil {
		return err
	}

	// Phase 0 — prepare under the catalog lock and a short table X latch,
	// both the transaction's: a failed build's rollback releases them.
	if err := s.changeCatalog(); err != nil {
		return err
	}
	_, table, err := s.writeTable(tb.Name)
	if err != nil {
		return err
	}

	if rebuild {
		// The entry is live — other sessions are reading it — so the state
		// changes through the catalog, not in place.
		if err := s.e.cat.SetIndexState(ix.Name, catalog.IndexBuilding); err != nil {
			return err
		}
		// Drop the old storage under the building transaction; the BUILDING
		// state keeps the planner and DML maintenance away from the storage
		// while it is gone, and the undo of a failed rebuild restores it.
		if err := s.callIndexFn(obs.AmOpen, ps.Open, desc); err != nil {
			return err
		}
		if err := s.callIndexFn(obs.AmDrop, ps.Drop, desc); err != nil {
			return err
		}
	} else {
		ix.State = catalog.IndexBuilding // not yet registered: still private
		if err := s.e.cat.AddIndex(ix); err != nil {
			return err
		}
	}
	if err := s.callIndexFn(obs.AmCreate, ps.Create, desc); err != nil {
		return err
	}
	if err := s.callIndexFn(obs.AmOpen, ps.Open, desc); err != nil {
		return err
	}
	b := &indexBuild{table: strings.ToLower(tb.Name), desc: desc}
	s.e.registerBuild(b)
	// A failed build (crash-hook failures included) closes its side log
	// here; the statement's undo takes back the index storage and the
	// catalog changes, and its end releases the snapshot.
	defer func() {
		b.close()
		s.e.unregisterBuild(b)
	}()
	snap := s.stmtSnapshot(true)
	s.e.lm.Release(lock.TxID(s.tx), lock.Resource{Kind: lock.KindTable, A: uint64(tb.SpaceID)})

	// Phase 1 — bulk-load from the snapshot scan, no locks held.
	if _, err = s.bulkPopulate(table, desc, ps, snap, mode); err != nil {
		return err
	}
	if err = s.buildStage("bulk"); err != nil {
		return err
	}

	// Lock-free catch-up: drain what writers queued during the bulk load so
	// the final latched drain is short.
	if _, err = s.replaySide(b, ps); err != nil {
		return err
	}
	if err = s.buildStage("replay"); err != nil {
		return err
	}

	// Publish — final short latch: drain the side-log tail, stop capture,
	// flip the entry to READY. The statement's end then writes the catalog
	// image and commits it with the index pages, releasing the latch and
	// the catalog lock.
	t0 := time.Now()
	if _, _, err = s.writeTable(tb.Name); err != nil {
		return err
	}
	if _, err = s.replaySide(b, ps); err != nil {
		return err
	}
	b.close()
	s.e.unregisterBuild(b)
	if err = s.buildStage("prepublish"); err != nil {
		return err
	}
	if err = s.callIndexFn(obs.AmClose, ps.Close, desc); err != nil {
		return err
	}
	// A new READY index must retire cached plans planned without it: the
	// state and the generation move together, under the catalog's mutex.
	if err = s.e.cat.SetIndexState(ix.Name, catalog.IndexReady); err != nil {
		return err
	}
	s.e.obs.Add(obs.IdxbuildPublishLatchNs, uint64(time.Since(t0).Nanoseconds()))
	return nil
}

// alterIndexRebuild serves ALTER INDEX <name> REBUILD: the index is
// rebuilt online through the same two-phase machinery — the vacuum/
// condense story, and the remedy for an rstblade nowsub=asof index whose
// frozen rectangles drifted stale.
func (s *Session) alterIndexRebuild(t *sql.AlterIndexRebuild) (*Result, error) {
	ix, err := s.readyIndex(t.Name)
	if err != nil {
		return nil, err
	}
	if s.explicit {
		return nil, errf(CodeActiveTx, "ALTER INDEX ... REBUILD cannot run inside a transaction")
	}
	tb, err := s.catTable(ix.TableName)
	if err != nil {
		return nil, err
	}
	mode, err := stripBuildMode(ix.Params)
	if err != nil {
		return nil, err
	}
	if err := s.buildIndexOnline(tb, ix, mode, true); err != nil {
		return nil, err
	}
	return &Result{Message: "index rebuilt"}, nil
}

// SetBuildHookForTesting installs a callback invoked at the named stages of
// an online index build ("bulk", "replay", "prepublish"). Tests use it to
// run concurrent DML at an exact point of the build or to simulate a crash;
// a non-nil return aborts the build. Pass nil to clear.
func (e *Engine) SetBuildHookForTesting(h func(stage string) error) {
	e.buildHook = h
}

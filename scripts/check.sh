#!/bin/sh
# A gofmt gate, then static checks plus the race-sensitive packages under the
# race detector: the sharded buffer pool, the version-chained heap and its page
# latches, sbspace's latched large-object pages, the node stores (concurrent
# views), the lock manager's deadlock detection, the purpose-function framework,
# the batched scan pipeline, the shared R-tree kernel (parallel walk and
# latch crabbing) and the three key classes on it (GR-tree, R*-tree, GiST),
# the blades and the purpose-function scaffold under them
# (./internal/blades/... includes treeblade and its conformance table), the
# WAL group-commit flusher, the network
# stack (wire framing, the session-multiplexing server, the client
# library), the online index build (side-log capture, the tree blades'
# STR bulk loaders, and the concurrent-DML/crash battery), the shared
# plan cache (LRU + generation invalidation under concurrent DDL), and the
# aggregate-pushdown/vacuum batteries (am_aggregate agreement under
# concurrent DML with interleaved VacuumNow, deferred index maintenance),
# recovery after a crash that writes no dirty page back (the lost-pages
# battery TestLostPagesRecovery over all three access methods, cases
# TestPushedCountAfterLostDelete and TestCreateTableSurvivesLostPages, and the
# redo-only guard TestFailedFirstBuildLeavesTheSpaceUsable), and DDL under
# the journal (the rollback and statement-undo cases TestRolledBack*,
# TestFailedStatementUndoesItself and TestDDLRollbackRestoresCatalogImage,
# the two-session lock cases TestDropTableWaitsForWriters and
# TestCreateTableHoldsItsTable, the crash battery
# TestCatalogSurvivesReopenAndCrashes, TestDroppedTableReopensAfterACrash,
# TestCrashDuringBootstrap and TestOnlineBuildCrashMatrix in both crash
# modes, grtblade's TestRolledBackDropIndexKeepsIndex,
# TestDropIndexWaitsForWriters and TestCrashDuringRebuildKeepsIndex, and the
# deadlock guard TestBuildLatchDeadlockIsDetected), and the tree's pruning
# and insertion shortcuts (TestChooseSubtreeIsExhaustive: the branch-and-bound
# ChooseSubtree picks what the exhaustive loop picks in every key class;
# TestStartMaximaAreSound and TestZeroPadReadsAsUnknown: start maxima never
# prune an answer, and old pages read as unknown; TestCompiledMatchesReference:
# the compiled matcher, with its raw-time leaf pre-check, answers as the
# reference evaluation, also on entries at the pre-check's edges), log-less undo
# (TestNoWALUndoFailedStatement and TestNoWALUndoDirtyRead: a NoWAL failed
# statement or ROLLBACK takes back its own row versions;
# TestNoWALRefusesDDLInATransaction: such an engine refuses DDL inside BEGIN
# WORK and changes nothing), rows empty at a transaction's current time
# (TestIndexAgreesOnRowsAfterTheCurrentTime: every access method agrees with a
# sequential scan on them), and STR bulk packing
# (TestStartOrderedPackingCutsTimesliceReads: a GR-tree packed on start time
# reads at most 1.3 nodes per answer leaf on a timeslice; TestBulkLoad and
# FuzzBulkLoad: packed trees at awkward sizes agree with an oracle), and one
# transaction shape (TestVacuumEndsItsTransaction: the vacuum's transaction
# ends like a statement's, so transaction-end callbacks run and its lock goes;
# TestReadOnlyCommitKeepsAggregatePushdown and
# TestAggregatePushesAcrossACheckpoint: only a writing commit moves the
# aggregate gate's read point; TestAggregateConformance, run with the check
# invariant above: every aggregate, pushed or declined, equals a sequential
# scan), MIN/MAX by branch and bound (TestExtremeReadsFewerNodesThanCount: on
# benchmark-shaped windows MIN and MAX each read at most half of COUNT's
# nodes and answer what a brute force answers; TestAggregatesAgreeWithDrain:
# the kernel's aggregates equal a cursor drain in both key classes), the
# serial cursor's lazy returned set (TestCursorRestartsWithoutDuplicates and
# TestCursorRestartsOnSplits: a restart produces nothing twice), and the
# transaction-id seed (TestTxIDsDoNotRepeatAfterReadOnlyTraffic: ids and
# commit stamps taken after a reopen lie above those taken before it,
# read-only statements included), and the per-row path of a scan
# (TestRowsOutliveTheirBatch: rows kept past their decode arena's batch, from
# index and sequential scans, equal a fresh read after more scans;
# TestLRUVictimOrder: the buffer pool's intrusive LRU evicts in exact order),
# and a remote statement's fixed cost (TestPreparedProbeIsOneWrite: a
# one-row prepared probe is one server write of at most 400 bytes a statement;
# TestLongStreamReachesTheClientBeforeDone: a stream larger than the write
# buffer delivers its first batch while the statement is still open;
# TestPlanAndProfileOnlyUnderExplain and TestOpaqueTextOnlyForTypesThePeerLacks:
# plan, profile and display text travel only when asked for or needed;
# TestPlanRecordsTheRecheckPerStatement: each statement records its own
# re-check on its own plan, also when sessions share a cached one), and the
# registry's sums (TestSysprofileAgreesWithSysptprofUnderLoad: under four
# loading sessions every SYSPROFILE row only grows, and at rest each
# bufferpool.* row equals the sum of its SYSPTPROF column, as
# TestSysptprofBitIdentity holds for one session), and the log's record per
# changed run (TestEditJournalsEachChangedRun: the split rule, 64 equal bytes
# between two changes of one edit; TestRecoveryAcrossASplitEdit and
# TestSplitEditsSurviveCrashes: recovery across a split edit, with a torn
# tail between its records and in both crash modes;
# TestOneRowInsertLogBytes: a one-row INSERT logs at most 1 KiB). Tier-1
# (`go build ./... && go test ./...`) is assumed to run separately; this
# is the concurrency-focused gate (`make check`).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt would rewrite:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go test -race (storage, sbspace, nodestore, heap, lock, wal, am, engine, rtree, grtree, rstar, gist, blades, wire, server, client, plancache)"
go test -race ./internal/storage/... ./internal/sbspace/... ./internal/nodestore/... ./internal/heap/... ./internal/lock/... ./internal/wal/... ./internal/am/... ./internal/engine/... ./internal/rtree/... ./internal/grtree/... ./internal/rstar/... ./internal/gist/... ./internal/blades/... ./internal/wire/... ./internal/server/... ./internal/client/... ./internal/plancache/...

# The conformance table runs with the checkpointer on, and one test of it
# checkpoints every millisecond while CREATE INDEX writes large-object pages
# (it reported a race every run before sbspace latched its page writes).
echo "== go test -race -count=3 conformance table, checkpointer on"
go test -race -count=3 ./internal/blades/treeblade

# The index publish step swaps the catalog entry under the catalog lock; one
# pass of this test saw the old unlocked write about one run in three, so it
# is repeated until a regression could not hide.
echo "== go test -race -count=10 TestPlanCacheDDLRace"
go test -race -count=10 -run TestPlanCacheDDLRace ./internal/engine

# The statement pipeline: one statement scope over every entry point (clean,
# scan error, open error, bind error), a virtual-table SELECT streamed through
# the same cursor (and abandoned after one batch), and DELETE on the batch
# pipeline agreeing with a sequential scan and an oracle for all three access
# methods.
echo "== go test -race -count=5 statement scope + virtual-table streams + DELETE agreement"
go test -race -count=5 -run 'TestStatementScopeEveryEntryPoint|TestVirtualTableStreams' ./internal/engine
go test -race -count=5 -run TestDeleteAgreesOnTheBatchPath ./internal/blades/treeblade

# Exact index answers skip the WHERE re-check: a false exactness claim must be
# caught by an agreement check, and every case that keeps the re-check (DIRTY
# READ, per-statement time, dynamic dispatch, a partial WHERE, the superset
# access methods) must agree with a sequential scan and an oracle.
echo "== go test -race -count=5 exactness"
go test -race -count=5 -run TestExactFlagIsTrustedOnlyWhereTrue ./internal/engine
go test -race -count=5 -run 'TestRecheckRunsUnlessTheAnswerIsExact|TestPlanRecordsTheRecheckPerStatement' ./internal/blades/treeblade

# am_check holds every entry to its key class's Covers, and am_aggregate pushes
# exactly where each binding's Aggregable says: a child escaping its parent
# must fail the kernel's check and CHECK INDEX in every key class, and every
# aggregate, pushed or declined, must equal a sequential scan.
echo "== go test -race -count=3 check invariant + aggregate conformance"
go test -race -count=3 -run TestCheckCatchesAnEscapingChild ./internal/rtree
go test -race -count=3 -run 'TestCheckIndexCatchesAnEscapingChild|TestAggregateConformance' ./internal/blades/treeblade

# The write path's branch-and-bound ChooseSubtree must pick exactly what the
# exhaustive R* overlap loop picks, in every key class; a GR-tree bound's
# start maxima must never prune a subtree holding an answer, and pages
# written before they were kept must read as "unknown"; and the compiled
# matcher, which rejects leaf entries on their raw times before resolving
# them, must answer as the reference evaluation that carries the same
# pruning tests, on random entries and on entries at the pre-check's edges.
echo "== go test -race -count=3 exact ChooseSubtree + start maxima + compiled matcher"
go test -race -count=3 -run TestChooseSubtreeIsExhaustive ./internal/rtree
go test -race -count=3 -run 'TestStartMaximaAreSound|TestZeroPadReadsAsUnknown|TestCompiledMatchesReference' ./internal/grtree

# Without a log, a failed statement and a ROLLBACK undo their row versions
# from the session's write set, and DDL inside BEGIN WORK is refused; and rows committed after a transaction's
# fixed current time, empty at it, must be answered alike by every access
# method and a sequential scan, as rows and as pushed counts.
echo "== go test -race -count=5 NoWAL undo + rows after the current time"
go test -race -count=5 -run 'TestNoWALUndoFailedStatement|TestNoWALUndoDirtyRead' ./internal/engine
go test -race -count=3 -run TestNoWALRefusesDDLInATransaction ./internal/engine
go test -race -count=5 -run TestIndexAgreesOnRowsAfterTheCurrentTime ./internal/blades/treeblade

# STR packs a bulk build on each key class's pack keys in whole-node slabs:
# the GR-tree's start-ordered packing must keep a timeslice's reads near the
# leaves that hold its answers, and packed trees at awkward sizes must pass
# Check and agree with an oracle in both key classes.
echo "== go test -race -count=3 STR packing"
go test -race -count=3 -run 'TestStartOrderedPackingCutsTimesliceReads|TestBulkLoad|FuzzBulkLoad' ./internal/rtree ./internal/grtree

# One commit clock stamps every engine's commits, and the vacuum commits as a
# statement does: its transaction-end callbacks run and its lock is released,
# and a read-only commit or a checkpoint leaves a view's aggregate pushdown
# alone (TestAggregateConformance, the pushed = scanned table, runs above).
echo "== go test -race -count=3 commit clock + vacuum transaction"
go test -race -count=3 -run TestVacuumEndsItsTransaction ./internal/engine
go test -race -count=3 -run 'TestReadOnlyCommitKeepsAggregatePushdown|TestAggregatePushesAcrossACheckpoint' ./internal/blades/grtblade

# Serial and parallel scans run one cursor: the serial one restarts on the
# splits of inserts between its calls and releases every latch before it
# returns (a leaked read latch self-deadlocks the inserts), and the
# partition cursors crab concurrently over one shared work queue.
echo "== go test -race -count=5 cursor restarts + parallel partitions"
go test -race -count=5 -run 'TestCursorRestartsOnSplits|TestParallelScanPartitions' ./internal/rtree

# MIN and MAX branch and bound on the key order's first key, and the lazy
# returned set a serial cursor builds at its first restart
# (TestCursorRestartsOnSplits runs above at -count=5). The node-read bound
# runs without -race: it is one goroutine, and the detector makes it four
# times slower (~13 s a run).
echo "== go test -count=3 MIN/MAX branch and bound + lazy returned set + transaction-id seed"
go test -count=3 -run TestExtremeReadsFewerNodesThanCount ./internal/grtree
go test -race -count=3 -run 'TestAggregatesAgreeWithDrain|TestCursorRestartsWithoutDuplicates' ./internal/rtree
go test -race -count=3 -run TestTxIDsDoNotRepeatAfterReadOnlyTraffic ./internal/engine

# The per-row path of a scan: each batch decodes into a fresh arena that no
# later batch writes, so rows kept past their batch (an index scan over
# several am_getmulti batches, a sequential scan over several pages, streamed
# and materialised) equal a fresh read after more scans; and the buffer
# pool's intrusive LRU list evicts in exact order of last unpin. The leaf
# pre-check's edges are in TestCompiledMatchesReference, run above.
echo "== go test -race -count=3 decode arenas + LRU victim order"
go test -race -count=3 -run TestRowsOutliveTheirBatch ./internal/blades/grtblade
go test -race -count=3 -run TestLRUVictimOrder ./internal/storage

# A statement's reply is flushed once, at Done or Error: a one-row prepared
# probe must leave the server in a single write, and a stream larger than the
# write buffer must still reach the client batch by batch, before Done, or a
# long result would sit in memory and the client would see nothing until its
# end. Plan, profile and opaque display text travel only to a session that
# asked for them or a peer that lacks the type.
echo "== go test -race -count=3 single flush + first-batch delivery"
go test -race -count=3 -run 'TestPreparedProbeIsOneWrite|TestLongStreamReachesTheClientBeforeDone|TestPlanAndProfileOnlyUnderExplain' ./internal/server
go test -race -count=3 -run 'TestOpaqueTextOnlyForTypesThePeerLacks|TestControlFrames|TestMalformedFrames' ./internal/wire

# SYSPROFILE's bufferpool.* and sbspace.lo_* rows are the sums of the pools'
# and spaces' own counters, read at each snapshot rather than mirrored at each
# event: a sum that lost an object or read a reset one would go backwards
# under concurrent sessions, and one that missed a pool would disagree with
# SYSPTPROF's per-partition rows at rest.
echo "== go test -race -count=5 registry sums vs SYSPTPROF"
go test -race -count=5 -run 'TestSysprofileAgreesWithSysptprofUnderLoad|TestSysptprofBitIdentity' ./internal/engine

# Crash recovery: redo's page writes may evict dirty pages, whose flush hook
# forces the log while the redo scan is reading it. Both regressions hung
# before the scan released the log's mutex around its callback.
echo "== go test -race -count=5 recovery regressions"
go test -race -count=5 -timeout 120s -run TestRecoverRedoMayFlushTheLog ./internal/wal
go test -race -count=5 -timeout 120s -run TestCrashRecoveryWithASmallPool ./internal/engine

# A crash that writes no dirty page back must be recovered from the log alone:
# every page edit is journaled, and Open recovers the pools before it opens
# the heaps. Formatting a fresh page is redo-only, so a failed first CREATE
# INDEX in a fresh sbspace leaves usable pages.
echo "== go test -race -count=3 lost-pages recovery + redo-only guard"
go test -race -count=3 -timeout 600s -run 'TestLostPagesRecovery|TestPushedCountAfterLostDelete|TestFailedFirstBuildLeavesTheSpaceUsable' ./internal/blades/treeblade
go test -race -count=3 -timeout 120s -run 'TestCreateTableSurvivesLostPages' ./internal/engine

# DDL joins its transaction: a rollback, a failed statement and crash
# recovery restore the catalog with the pages, in both crash modes, and a
# build waiting at its table latch while holding the catalog lock forms a
# cycle the deadlock detector breaks instead of a hang.
echo "== go test -race -count=3 DDL rollback + crash battery + deadlock guard"
go test -race -count=3 -timeout 300s -run 'TestRolledBack|TestFailedStatementUndoesItself|TestDDLRollbackRestoresCatalogImage|TestDropTableWaitsForWriters|TestCreateTableHoldsItsTable|TestCatalogSurvivesReopenAndCrashes|TestDroppedTableReopensAfterACrash|TestCrashDuringBootstrap|TestOpenRefusesTheOldFormat|TestRecreateDroppedTable|TestOnlineBuildCrashMatrix|TestBuildLatchDeadlockIsDetected' ./internal/engine
go test -race -count=3 -timeout 300s -run 'TestRolledBackDropIndexKeepsIndex|TestDropIndexWaitsForWriters|TestCrashDuringRebuildKeepsIndex' ./internal/blades/grtblade

# A page edit journals each changed run apart: two changes share a record
# only while fewer than 64 equal bytes lie between them, and the images take
# the page from before to after and back (the split rule). An uncommitted
# edit split over two records recovers byte for byte, whole or with a torn
# tail between its records, and committed split edits survive both crash
# modes (recovery across a split edit). A one-row INSERT grows the log by at
# most 1 KiB, where one span per edit logged 5-8 KiB (log bytes per insert).
echo "== go test -race -count=3 split rule + recovery across a split edit + log bytes per insert"
go test -race -count=3 -run 'TestEditJournalsEachChangedRun|TestEditJournalsTheChangedRange|TestDiffRange' ./internal/storage
go test -race -count=3 -run TestRecoveryAcrossASplitEdit ./internal/wal
go test -race -count=3 -run 'TestSplitEditsSurviveCrashes|TestOneRowInsertLogBytes' ./internal/engine

# No test runs P5 or the benchrunner CLI itself; this runs every registered
# experiment at CI scale.
echo "== benchrunner -quick"
go run ./cmd/benchrunner -quick >/dev/null

# The wire decoder takes frames from the network: fuzz Conn.Recv briefly. The
# parser takes SQL text from the network too, and the plan cache keys on its
# deparse, which must re-parse to itself.
echo "== fuzz FuzzDecodeFrame (10s)"
go test -run '^$' -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/wire
echo "== fuzz FuzzParse (10s)"
go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/sql

# bench/ is a nested module, so ./... above never compiles it: an API break
# in a package it imports would otherwise first show up in the benchmark gate.
echo "== bench module: go vet + go test"
(cd bench && go vet ./... && go test ./...)

echo "ok"

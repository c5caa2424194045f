package main

// The metric declarations. BENCHMARK.json at the repository root repeats the
// names, units and bounds (a test holds the two together); README.md
// explains them.

// metricSpec declares one metric. Bound is the share of the parent's median
// an end-to-end metric may worsen by before a change is refused; per-layer
// metrics have none. Moves is the prediction later changes are held to: the
// end-to-end metric a per-layer metric should move, and on which workload.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

// endToEnd are measured with tracing off, on every workload. main and side
// are the workload's two statement kinds:
//
//	probe_tcp      main = prepared probe   side = ad-hoc probe
//	scan_embedded  main = timeslice scan   side = aggregate
//	scan_cold      main = timeslice scan   side = aggregate
//	ingest_mixed   main = writer transaction: BEGIN, 8 UPDATE, 32 INSERT, COMMIT acknowledged
//	               side = the reader's probe beside it
//
// rows_per_s is rows delivered to the reader, except on ingest_mixed, where
// it is rows inserted by committed transactions.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "stmt_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.25},
	{Name: "main_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "main_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "side_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

var perLayer = []metricSpec{
	// wire / client / server
	{Name: "wire.roundtrip_us", Unit: "us", Better: "lower", Moves: "main_p50_us, side_p50_us @ probe_tcp; 0 elsewhere"},
	{Name: "wire.bytes_per_stmt", Unit: "bytes", Better: "lower", Moves: "main_p50_us @ probe_tcp"},
	{Name: "server.slot_waits", Unit: "count", Better: "lower", Moves: "main_p99_us @ probe_tcp"},
	{Name: "server.batches_per_stmt", Unit: "count", Better: "lower", Moves: "main_p99_us @ probe_tcp"},
	// sql / plancache / planning
	{Name: "sql.parse_us", Unit: "us", Better: "lower", Moves: "side_p50_us @ probe_tcp, not main_p50_us"},
	{Name: "sql.parses_per_stmt", Unit: "count", Better: "lower", Moves: "side_p50_us @ probe_tcp"},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "side_p50_us @ probe_tcp"},
	{Name: "engine.plan_us_per_stmt", Unit: "us", Better: "lower", Moves: "main_p50_us, side_p50_us @ probe_tcp; under 1 % of main_p50_us @ scan_*"},
	// engine execution, from the ladder, per statement kind
	{Name: "engine.exec_us.probe", Unit: "us", Better: "lower", Moves: "main_p50_us @ probe_tcp; side_p50_us @ ingest_mixed"},
	{Name: "engine.exec_us.adhoc", Unit: "us", Better: "lower", Moves: "side_p50_us @ probe_tcp"},
	{Name: "engine.exec_us.scan", Unit: "us", Better: "lower", Moves: "main_p50_us @ scan_embedded, scan_cold"},
	{Name: "engine.exec_us.agg", Unit: "us", Better: "lower", Moves: "side_p50_us @ scan_embedded, scan_cold"},
	{Name: "engine.exec_us.txn", Unit: "us", Better: "lower", Moves: "main_p50_us @ ingest_mixed"},
	{Name: "engine.residual_us.probe", Unit: "us", Better: "lower", Moves: "main_p50_us @ probe_tcp"},
	{Name: "engine.residual_us.adhoc", Unit: "us", Better: "lower", Moves: "side_p50_us @ probe_tcp"},
	{Name: "engine.residual_us.scan", Unit: "us", Better: "lower", Moves: "rows_per_s @ scan_embedded"},
	{Name: "engine.residual_us.agg", Unit: "us", Better: "lower", Moves: "side_p50_us @ scan_embedded"},
	{Name: "engine.unattributed_frac.probe", Unit: "ratio", Better: "lower", Moves: "ROADMAP target under 0.10"},
	{Name: "engine.unattributed_frac.adhoc", Unit: "ratio", Better: "lower", Moves: "ROADMAP target under 0.10"},
	{Name: "engine.unattributed_frac.scan", Unit: "ratio", Better: "lower", Moves: "ROADMAP target under 0.10"},
	{Name: "engine.unattributed_frac.agg", Unit: "ratio", Better: "lower", Moves: "ROADMAP target under 0.10"},
	{Name: "engine.alloc_bytes_per_stmt", Unit: "bytes", Better: "lower", Moves: "rows_per_s @ scan_embedded; live_heap_mb"},
	{Name: "engine.allocs_per_row", Unit: "count", Better: "lower", Moves: "rows_per_s @ scan_embedded"},
	{Name: "engine.rows_scanned_per_returned", Unit: "ratio", Better: "lower", Moves: "main_p50_us @ scan_embedded"},
	// am / blades
	{Name: "am.beginscan_per_stmt", Unit: "count", Better: "lower", Moves: "main_p50_us @ probe_tcp"},
	{Name: "am.getmulti_per_stmt", Unit: "count", Better: "lower", Moves: "main_p50_us @ probe_tcp, scan_embedded"},
	{Name: "am.scancost_per_stmt", Unit: "count", Better: "lower", Moves: "main_p50_us @ probe_tcp; must be 0 for prepared statements"},
	{Name: "am.aggregate_pushed_ratio", Unit: "ratio", Better: "higher", Moves: "side_p50_us @ scan_embedded; 1.0 on read-only tables"},
	// tree: grtree on the engine's own index, rstar and gist on twins
	{Name: "grtree.search_us.probe", Unit: "us", Better: "lower", Moves: "main_p50_us @ probe_tcp; side_p50_us @ ingest_mixed"},
	{Name: "grtree.search_us.adhoc", Unit: "us", Better: "lower", Moves: "side_p50_us @ probe_tcp"},
	{Name: "grtree.search_us.scan", Unit: "us", Better: "lower", Moves: "main_p50_us @ scan_embedded, scan_cold"},
	{Name: "grtree.search_us.agg", Unit: "us", Better: "lower", Moves: "side_p50_us @ scan_embedded, scan_cold"},
	{Name: "grtree.nodes_read_per_search.probe", Unit: "count", Better: "lower", Moves: "main_p50_us @ probe_tcp"},
	{Name: "grtree.nodes_read_per_search.adhoc", Unit: "count", Better: "lower", Moves: "side_p50_us @ probe_tcp"},
	{Name: "grtree.nodes_read_per_search.scan", Unit: "count", Better: "lower", Moves: "main_p50_us @ scan_embedded, scan_cold"},
	{Name: "grtree.nodes_read_per_search.agg", Unit: "count", Better: "lower", Moves: "side_p50_us @ scan_embedded, scan_cold"},
	{Name: "grtree.insert_us", Unit: "us", Better: "lower", Moves: "rows_per_s @ ingest_mixed; no read workload"},
	{Name: "grtree.bulkload_rows_per_s", Unit: "rows/s", Better: "higher", Moves: "setup_s @ all"},
	{Name: "grtree.height", Unit: "count", Better: "lower", Moves: "grtree.nodes_read_per_search.*"},
	{Name: "grtree.nodes", Unit: "count", Better: "lower", Moves: "sbspace.pages_per_krow"},
	{Name: "rstar.search_us", Unit: "us", Better: "lower", Moves: "no end-to-end workload; checks the one-kernel refactor per blade"},
	{Name: "rstar.nodes_read_per_search", Unit: "count", Better: "lower", Moves: "rstar.search_us"},
	{Name: "gist.search_us", Unit: "us", Better: "lower", Moves: "no end-to-end workload; checks the one-kernel refactor per blade"},
	{Name: "gist.nodes_read_per_search", Unit: "count", Better: "lower", Moves: "gist.search_us"},
	// nodestore / sbspace
	{Name: "nodestore.open_us", Unit: "us", Better: "lower", Moves: "main_p50_us @ probe_tcp (paid once per statement)"},
	{Name: "sbspace.lo_opens_per_stmt", Unit: "count", Better: "lower", Moves: "main_p50_us @ scan_cold"},
	{Name: "sbspace.pages_per_krow", Unit: "pages", Better: "lower", Moves: "live_heap_mb; storage.bytes_per_user_byte"},
	// storage
	{Name: "bufferpool.fetches_per_stmt", Unit: "count", Better: "lower", Moves: "main_p50_us, rows_per_s @ scan_cold"},
	{Name: "bufferpool.hit_ratio", Unit: "ratio", Better: "higher", Moves: "main_p50_us @ scan_cold; about 1 @ scan_embedded (no change predicted)"},
	{Name: "bufferpool.reads_per_stmt", Unit: "count", Better: "lower", Moves: "main_p50_us @ scan_cold; 0 @ scan_embedded"},
	{Name: "bufferpool.evictions_per_stmt", Unit: "count", Better: "lower", Moves: "main_p50_us @ scan_cold; 0 @ scan_embedded"},
	{Name: "bufferpool.writes_per_row", Unit: "count", Better: "lower", Moves: "rows_per_s @ ingest_mixed"},
	{Name: "storage.bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "files in Dir per byte of row data, end of ingest_mixed and scan_cold"},
	// heap / mvcc
	{Name: "heap.getversion_us_per_rid", Unit: "us", Better: "lower", Moves: "rows_per_s @ scan_embedded; main_p50_us @ scan_cold"},
	{Name: "heap.rids_per_page_run", Unit: "count", Better: "higher", Moves: "main_p50_us @ scan_cold (the sort-by-page hypothesis)"},
	{Name: "heap.seqscan_us_per_row", Unit: "us", Better: "lower", Moves: "setup_s (CREATE INDEX reads the heap)"},
	{Name: "mvcc.versions_skipped_per_stmt", Unit: "count", Better: "lower", Moves: "side_p50_us @ ingest_mixed; 0 on read-only workloads"},
	{Name: "mvcc.vacuumed_per_s", Unit: "1/s", Better: "higher", Moves: "side_p50_us @ ingest_mixed; 0 on read-only workloads"},
	// wal / lock
	{Name: "wal.commit_p50_us", Unit: "us", Better: "lower", Moves: "main_p50_us @ ingest_mixed"},
	{Name: "wal.commit_p95_us", Unit: "us", Better: "lower", Moves: "main_p99_us @ ingest_mixed"},
	{Name: "wal.flushes_per_commit", Unit: "count", Better: "lower", Moves: "rows_per_s @ ingest_mixed; 0 on read workloads"},
	{Name: "wal.appends_per_row", Unit: "count", Better: "lower", Moves: "rows_per_s @ ingest_mixed"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "rows_per_s @ ingest_mixed"},
	{Name: "wal.group_size_mean", Unit: "count", Better: "higher", Moves: "rows_per_s @ ingest_mixed"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower", Moves: "main_p99_us @ ingest_mixed"},
	{Name: "wal.recovery_s", Unit: "s", Better: "lower", Moves: "reopen after a crash, ingest_mixed"},
	{Name: "lock.acquires_per_stmt", Unit: "count", Better: "lower", Moves: "main_p50_us @ ingest_mixed"},
	{Name: "lock.waits_per_ktxn", Unit: "count", Better: "lower", Moves: "main_p50_us, side_p50_us @ ingest_mixed"},
	{Name: "lock.deadlocks", Unit: "count", Better: "lower", Moves: "main_p50_us @ ingest_mixed"},
	// harness
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "1 - traced stmt_per_s / untraced stmt_per_s, same run"},
}

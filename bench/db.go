package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/blades/grtblade"
	"repro/internal/chronon"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/temporal"
	"repro/internal/types"
)

// workload is one named configuration of the benchmark: what is loaded,
// how the engine is opened, who talks to it and in what mix.
type workload struct {
	Name string
	Why  string
	Size genSizes

	PoolPages  int  // engine.Options.PoolPages; 0 = the engine's default
	FileBacked bool // Dir set: heap and sbspace go through the file pager
	WAL        bool
	TCP        bool // the client talks to an in-process server over loopback
	Writer     bool // a second session commits transactions beside the reader
	NoDaemons  bool // vacuum and checkpoint daemons off (tests, and the second crash check)

	Main, Side opKind // the kinds behind main_* and side_* metrics
}

const (
	indexName = "t_x"
	spaceName = "spc"
)

// workloads are the frozen definitions. bench/README.md states why each
// exists and how the sizes were chosen.
func workloads() []*workload {
	return []*workload{
		{
			Name: "probe_tcp",
			Why:  "per-statement overhead (wire, parse, plan cache, bind, AM dispatch) dominates; tree, heap and pool do little",
			Size: genSizes{Rows: 600, Days: 1800,
				// Probes of one or two rows: over so small a table the share of
				// larger answers, and with it rows_per_s, would follow the seed.
				Pool: [numOps]int{opProbe: 1024, opAdhoc: 4096}, ProbeMax: 2,
				MixParts: map[opKind]int{opProbe: 80, opAdhoc: 20}},
			PoolPages: 8192, TCP: true, Main: opProbe, Side: opAdhoc,
		},
		{
			Name: "scan_embedded",
			Why:  "per-row work (tree descent, leaf drain, rid resolution, visibility, boxing) dominates; everything is cached, no wire",
			Size: genSizes{Rows: 100000, Days: 300,
				Pool:     [numOps]int{opScan: 128, opAgg: 48},
				MixParts: map[opKind]int{opScan: 80, opAgg: 20}},
			PoolPages: 8192, Main: opScan, Side: opAgg,
		},
		{
			Name: "scan_cold",
			Why:  "same statements with a 64-page pool over files: evictions, re-reads, LO opens and heap locality do most of the work",
			Size: genSizes{Rows: 100000, Days: 300,
				Pool:     [numOps]int{opScan: 128, opAgg: 48},
				MixParts: map[opKind]int{opScan: 80, opAgg: 20}},
			PoolPages: 64, FileBacked: true, Main: opScan, Side: opAgg,
		},
		{
			Name: "ingest_mixed",
			Why:  "writes beside reads: row-at-a-time tree inserts, heap versions, WAL group commit, locks, vacuum and checkpoints",
			Size: genSizes{Rows: 20000, Days: 60,
				Pool: [numOps]int{opProbe: 512, opScan: 64}, ProbeMax: 8,
				MixParts: map[opKind]int{opProbe: 90, opScan: 10},
				Txns:     6000},
			// The pool holds the whole database. With the engine's default of
			// 256 pages, crash recovery deadlocks on itself here: redo evicts a
			// dirty page while wal.Recover holds the log mutex, and the pool's
			// write-ahead hook then waits for that mutex in Log.Flush.
			PoolPages: 8192, FileBacked: true, WAL: true, Writer: true, Main: opTxn, Side: opProbe,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// db is one opened engine with the benchmark's table loaded.
type db struct {
	w     *workload
	e     *engine.Engine
	dir   string // "" for the memory pager
	clock *chronon.VirtualClock
	typID uint32 // GRT_TimeExtent_t in the engine's registry
}

func (w *workload) options(dir string, clock chronon.Clock) engine.Options {
	o := engine.Options{
		Dir: dir, Clock: clock, PoolPages: w.PoolPages, NoWAL: !w.WAL,
		Types: grtblade.RegisterTypes,
	}
	if w.NoDaemons {
		o.CheckpointInterval, o.VacuumInterval = -1, -1
	}
	return o
}

func (w *workload) open(dir string, now chronon.Instant) (*db, error) {
	clock := chronon.NewVirtualClock(now)
	e, err := engine.Open(w.options(dir, clock))
	if err != nil {
		return nil, err
	}
	if err := grtblade.Register(e); err != nil {
		e.Close()
		return nil, err
	}
	ot, ok := e.Types().Lookup(grtblade.TypeName)
	if !ok {
		e.Close()
		return nil, fmt.Errorf("bench: %s not registered", grtblade.TypeName)
	}
	return &db{w: w, e: e, dir: dir, clock: clock, typID: ot.ID}, nil
}

// setup is what setup_s times: open, register the blade, create and LOAD
// the table, build the index, collect statistics. The load file is
// generated input and is written before the clock starts.
func (w *workload) setup(d *dataset, scratch, loadPath string) (*db, time.Duration, error) {
	dir := ""
	if w.FileBacked {
		dir = scratch
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	b, err := w.open(dir, d.Now)
	if err != nil {
		return nil, 0, err
	}
	s := b.e.NewSession()
	defer s.Close()
	for _, q := range []string{
		`CREATE SBSPACE ` + spaceName,
		`CREATE TABLE T (N INTEGER, Name VARCHAR(32), X GRT_TimeExtent_t)`,
		fmt.Sprintf(`LOAD FROM '%s' INSERT INTO T`, loadPath),
		`CREATE INDEX ` + indexName + ` ON T(X grt_opclass) USING grtree_am IN ` + spaceName,
		`UPDATE STATISTICS FOR TABLE T`,
	} {
		if _, err := s.Exec(q); err != nil {
			b.e.Close()
			return nil, 0, fmt.Errorf("setup %s: %q: %w", w.Name, q, err)
		}
	}
	return b, time.Since(start), nil
}

// reopen recovers the database directory after CrashForTesting, with or
// without the engine's daemons.
func (b *db) reopen(noDaemons bool) (*db, time.Duration, error) {
	w := *b.w
	w.NoDaemons = noDaemons
	start := time.Now()
	nb, err := w.open(b.dir, b.clock.Now())
	return nb, time.Since(start), err
}

func (b *db) arg(x temporal.Extent) types.Datum {
	return types.Opaque{TypeID: b.typID, Data: grtblade.EncodeExtent(x)}
}

// Clients ------------------------------------------------------------------------

// conn is a client's end of one session, embedded or over TCP. run executes
// a read statement to its last row and reports what came back.
type conn interface {
	run(st *readStmt) (answer, error)
	close()
}

// tally folds result batches into an answer. Aggregates return one row
// holding a count or an extent; everything else returns (N, Name, X) rows.
func tally(st *readStmt, a *answer, rows [][]types.Datum) error {
	for _, r := range rows {
		if st.Kind != opAgg {
			n, ok := r[0].(int64)
			if !ok {
				return fmt.Errorf("column N is %T", r[0])
			}
			a.Count++
			a.Sum += n
			continue
		}
		switch v := r[0].(type) {
		case int64:
			a.Count = int(v)
		case types.Opaque:
			x, err := grtblade.DecodeExtent(v.Data)
			if err != nil {
				return err
			}
			a.Ext, a.Count = x, 1
		case nil: // MIN/MAX over no rows
		default:
			return fmt.Errorf("aggregate returned %T", r[0])
		}
	}
	return nil
}

// right reports whether got is the oracle's answer for st.
func right(st *readStmt, got answer) bool {
	switch {
	case st.Kind != opAgg:
		return got.Count == st.Want.Count && got.Sum == st.Want.Sum
	case st.Agg == aggCount:
		return got.Count == st.Want.Count
	case st.Want.Count == 0:
		return got.Count == 0
	default:
		return got.Count == 1 && got.Ext == st.Want.Ext
	}
}

func aggStmtName(agg int) string { return [...]string{"agg_count", "agg_min", "agg_max"}[agg] }

// prepared lists (name, text) of every prepared read statement.
func preparedReads() [][2]string {
	out := [][2]string{{"probe", sqlProbe}, {"scan", sqlScan}}
	for i, a := range aggNames {
		out = append(out, [2]string{aggStmtName(i), fmt.Sprintf(sqlAgg, a)})
	}
	return out
}

func (st *readStmt) prepName() string {
	if st.Kind == opAgg {
		return aggStmtName(st.Agg)
	}
	return opNames[st.Kind] // "probe" or "scan"
}

// embedded is an in-process engine session.
type embedded struct {
	b    *db
	s    *engine.Session
	last *engine.StmtStats // the engine's profile of the last statement run
}

func (b *db) embed(setup ...string) (*embedded, error) {
	s := b.e.NewSession()
	for _, q := range setup {
		if _, err := s.Exec(q); err != nil {
			s.Close()
			return nil, err
		}
	}
	for _, p := range preparedReads() {
		if _, err := s.Prepare(p[0], p[1]); err != nil {
			s.Close()
			return nil, err
		}
	}
	return &embedded{b: b, s: s}, nil
}

func (c *embedded) stream(st *readStmt) (*engine.Stream, error) {
	if st.Kind == opAdhoc {
		return c.s.ExecStream(st.Text)
	}
	return c.s.ExecutePreparedStream(context.Background(), st.prepName(), []types.Datum{c.b.arg(st.Q)})
}

func (c *embedded) run(st *readStmt) (answer, error) {
	var a answer
	sm, err := c.stream(st)
	if err != nil {
		return a, err
	}
	defer sm.Close()
	for {
		rows, err := sm.Next()
		if err != nil {
			return a, err
		}
		if rows == nil {
			c.last = sm.Result().Stats
			return a, nil
		}
		if err := tally(st, &a, rows); err != nil {
			return a, err
		}
	}
}

func (c *embedded) close() { c.s.Close() }

// remote is a TCP client of the in-process server.
type remote struct {
	c     *client.Conn
	typID uint32
	stmts map[string]*client.Stmt
}

func (c *remote) run(st *readStmt) (answer, error) {
	var a answer
	var rows *client.Rows
	var err error
	if st.Kind == opAdhoc {
		rows, err = c.c.Query(st.Text)
	} else {
		rows, err = c.stmts[st.prepName()].Query(types.Opaque{TypeID: c.typID, Data: grtblade.EncodeExtent(st.Q)})
	}
	if err != nil {
		return a, err
	}
	defer rows.Close()
	for {
		batch, err := rows.NextBatch()
		if err != nil {
			return a, err
		}
		if batch == nil {
			return a, nil
		}
		if err := tally(st, &a, batch); err != nil {
			return a, err
		}
	}
}

func (c *remote) close() { c.c.Close() }

// netServer is the in-process tinybladed front end on a loopback listener
// that counts the bytes crossing it.
type netServer struct {
	srv    *server.Server
	ln     *countingListener
	served chan error
}

func (b *db) serve() (*netServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ns := &netServer{
		srv:    server.New(b.e, server.Options{}),
		ln:     &countingListener{Listener: ln},
		served: make(chan error, 1),
	}
	go func() { ns.served <- ns.srv.Serve(ns.ln) }()
	return ns, nil
}

func (ns *netServer) dial() (*remote, error) {
	reg := types.NewRegistry()
	if err := grtblade.RegisterTypes(reg); err != nil {
		return nil, err
	}
	ot, _ := reg.Lookup(grtblade.TypeName)
	c, err := client.Dial(ns.ln.Addr().String(), reg)
	if err != nil {
		return nil, err
	}
	r := &remote{c: c, typID: ot.ID, stmts: make(map[string]*client.Stmt)}
	for _, p := range preparedReads() {
		if r.stmts[p[0]], err = c.Prepare(p[0], p[1]); err != nil {
			c.Close()
			return nil, err
		}
	}
	return r, nil
}

// stop drains the server and waits for its acceptor to return.
func (ns *netServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ns.srv.Shutdown(ctx)
	<-ns.served
	return err
}

// countingListener wraps accepted connections so every byte the server
// reads or writes is counted (wire.bytes_per_stmt).
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

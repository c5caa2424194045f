package server

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chronon"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/types"
)

// harness boots an in-memory engine and a server on a loopback port,
// returning the dial address and a shutdown func (drain + Serve join).
type harness struct {
	e    *engine.Engine
	srv  *Server
	addr string
	done chan error
}

func startServer(t *testing.T, opts Options) *harness {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, opts, ln)
}

// serve boots an in-memory engine and a server accepting on ln.
func serve(t *testing.T, opts Options, ln net.Listener) *harness {
	t.Helper()
	e, err := engine.Open(engine.Options{Clock: chronon.NewVirtualClock(chronon.MustParse("9/97"))})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	h := &harness{e: e, srv: New(e, opts), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { h.done <- h.srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		h.srv.Shutdown(ctx)
		<-h.done
		e.Close()
	})
	return h
}

func (h *harness) shutdown(t *testing.T, grace time.Duration) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.done; serr != nil {
		t.Fatalf("Serve returned %v after shutdown", serr)
	}
	h.done <- nil // keep the cleanup join non-blocking
	return err
}

func dial(t *testing.T, h *harness) *client.Conn {
	t.Helper()
	c, err := client.Dial(h.addr, h.e.Types())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustExec(t *testing.T, c *client.Conn, src string) *client.Result {
	t.Helper()
	res, err := c.Exec(src)
	if err != nil {
		t.Fatalf("Exec(%s): %v", src, err)
	}
	return res
}

func TestServerRoundTrip(t *testing.T) {
	h := startServer(t, Options{})
	c := dial(t, h)
	if c.Banner() == "" {
		t.Fatal("no banner")
	}
	mustExec(t, c, `CREATE TABLE t (id INTEGER, name VARCHAR(20))`)
	res := mustExec(t, c, `INSERT INTO t (id, name) VALUES (1, 'a'), (2, 'b'), (3, NULL)`)
	if res.Affected != 3 {
		t.Fatalf("insert affected %d", res.Affected)
	}
	// Plan and profile text travel only to a session that asked for them.
	mustExec(t, c, `SET EXPLAIN ON`)
	res = mustExec(t, c, `SELECT id, name FROM t WHERE id >= 2`)
	if len(res.Rows) != 2 || res.Rows[0][0] != int64(2) || res.Rows[1][1] != nil {
		t.Fatalf("select rows: %v", res.Rows)
	}
	if len(res.ColTypes) != 2 || res.ColTypes[0].Kind != types.KInt || res.ColTypes[1].Kind != types.KVarchar {
		t.Fatalf("coltypes: %v", res.ColTypes)
	}
	if res.Profile == "" || !strings.Contains(res.Profile, "returned=2") {
		t.Fatalf("profile: %q", res.Profile)
	}
	if res.Plan == "" {
		t.Fatal("SELECT result carries no plan text")
	}

	// Scripts execute like ExecScript: last statement's result comes back.
	res = mustExec(t, c, `INSERT INTO t (id, name) VALUES (4, 'd'); SELECT count(*) FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(4) {
		t.Fatalf("script result: %v", res.Rows)
	}

	// The server's own counters surface through SYSPROFILE over the wire.
	res = mustExec(t, c, `SELECT name, value FROM SYSPROFILE WHERE name = 'server.conns.accepted'`)
	if len(res.Rows) != 1 || res.Rows[0][1].(int64) < 1 {
		t.Fatalf("SYSPROFILE over the wire: %v", res.Rows)
	}
}

// Streaming: a large result arrives across multiple batches, and the row
// stream matches a materialized Exec.
func TestServerStreamingQuery(t *testing.T) {
	h := startServer(t, Options{})
	c := dial(t, h)
	mustExec(t, c, `CREATE TABLE big (id INTEGER)`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO big (id) VALUES (0)`)
	for i := 1; i < 1000; i++ {
		fmt.Fprintf(&sb, ", (%d)", i)
	}
	mustExec(t, c, sb.String())

	rows, err := c.Query(`SELECT id FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	// A second statement while rows are open must be refused client-side.
	if _, err := c.Exec(`SELECT count(*) FROM big`); engine.ErrorCode(err) != engine.CodeSessionBusy {
		t.Fatalf("concurrent statement: %v", err)
	}
	n, batches := 0, 0
	for {
		b, err := rows.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches++
		n += len(b)
	}
	if n != 1000 || batches < 2 {
		t.Fatalf("streamed %d rows in %d batches", n, batches)
	}
	// Closed stream: the connection is usable again.
	res := mustExec(t, c, `SELECT count(*) FROM big`)
	if res.Rows[0][0] != int64(1000) {
		t.Fatalf("count after stream: %v", res.Rows)
	}
}

// Eight concurrent clients share a two-slot executor pool; every statement
// completes and the pool records contention.
func TestServerBoundedPool(t *testing.T) {
	h := startServer(t, Options{MaxExecutors: 2})
	setup := dial(t, h)
	mustExec(t, setup, `CREATE TABLE pool (id INTEGER, w VARCHAR(64))`)
	var sb strings.Builder
	sb.WriteString(`INSERT INTO pool (id, w) VALUES (0, 'x')`)
	for i := 1; i < 2000; i++ {
		fmt.Fprintf(&sb, ", (%d, 'x')", i)
	}
	mustExec(t, setup, sb.String())

	const clients = 8
	conns := make([]*client.Conn, clients)
	for i := range conns {
		conns[i] = dial(t, h)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client.Conn) {
			defer wg.Done()
			<-start
			for k := 0; k < 5; k++ {
				if _, err := c.Exec(`SELECT count(*) FROM pool`); err != nil {
					errs <- fmt.Errorf("client %d: %w", i, err)
					return
				}
			}
		}(i, c)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if waits := h.e.Obs().Counter("server.slot.waits").Load(); waits == 0 {
		t.Log("note: 8 clients over 2 slots recorded no slot waits (timing-dependent)")
	}
}

// Each connection carries its own SessionVars: SET on one must not leak to
// another, and SHOW reads the state back over the wire.
func TestServerIndependentSessionState(t *testing.T) {
	h := startServer(t, Options{})
	levels := []string{"DIRTY READ", "COMMITTED READ", "REPEATABLE READ", "SNAPSHOT"}
	conns := make([]*client.Conn, 8)
	for i := range conns {
		conns[i] = dial(t, h)
		mustExec(t, conns[i], fmt.Sprintf(`SET ISOLATION TO %s`, levels[i%len(levels)]))
		mustExec(t, conns[i], fmt.Sprintf(`SET PARALLEL %d`, i%2))
	}
	for i, c := range conns {
		res := mustExec(t, c, `SHOW ISOLATION`)
		if got := res.Rows[0][1]; got != levels[i%len(levels)] {
			t.Fatalf("conn %d: isolation %v, want %s", i, got, levels[i%len(levels)])
		}
		res = mustExec(t, c, `SHOW PARALLEL`)
		if got := res.Rows[0][1]; got != fmt.Sprintf("%d", i%2) {
			t.Fatalf("conn %d: parallel %v", i, got)
		}
	}
}

// Graceful drain: idle connections close, Serve returns nil, and no
// goroutine outlives the server.
func TestServerGracefulDrain(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	h := startServer(t, Options{})
	conns := make([]*client.Conn, 4)
	for i := range conns {
		conns[i] = dial(t, h)
		mustExec(t, conns[i], `SELECT name FROM SYSPROFILE WHERE name = 'wal.appends'`)
	}
	if err := h.shutdown(t, 5*time.Second); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// Drained clients observe a clean disconnect on their next statement.
	if _, err := conns[0].Exec(`SELECT name FROM SYSPROFILE`); err == nil {
		t.Fatal("statement after drain must fail")
	}
	if err := h.e.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// Drain with a stuck statement: a client that never reads its result blocks
// the server in a socket write; the grace period expires and hardStop
// unwinds the handler anyway.
func TestServerDrainCancelsStuck(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	h := startServer(t, Options{})
	setup := dial(t, h)
	mustExec(t, setup, `CREATE TABLE wide (id INTEGER, pad VARCHAR(2000))`)
	pad := strings.Repeat("p", 1800)
	for chunk := 0; chunk < 4; chunk++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, `INSERT INTO wide (id, pad) VALUES (0, '%s')`, pad)
		for i := 1; i < 500; i++ {
			fmt.Fprintf(&sb, ", (%d, '%s')", i, pad)
		}
		mustExec(t, setup, sb.String())
	}
	setup.Close()

	// Raw connection that Execs a ~3.6MB result and never reads it: the
	// server fills the socket buffers and blocks mid-statement.
	stuck := dial(t, h)
	if _, err := stuck.Query(`SELECT id, pad FROM wide`); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let the server hit the full buffer

	err := h.shutdown(t, 500*time.Millisecond)
	if err == nil {
		t.Log("note: stuck statement finished within grace (large socket buffers)")
	} else if err != context.DeadlineExceeded {
		t.Fatalf("shutdown: %v", err)
	}
	if err := h.e.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// Concurrent mixed workload under -race: one table per client, interleaved
// DDL-free traffic across more connections than executor slots.
func TestServerConcurrentStress(t *testing.T) {
	h := startServer(t, Options{MaxExecutors: 4})
	setup := dial(t, h)
	const clients = 8
	for i := 0; i < clients; i++ {
		mustExec(t, setup, fmt.Sprintf(`CREATE TABLE s%d (id INTEGER, v VARCHAR(16))`, i))
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(h.addr, h.e.Types())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			tbl := fmt.Sprintf("s%d", i)
			if _, err := c.Exec(fmt.Sprintf(`SET COMMIT %s`, []string{"SYNC", "GROUP", "ASYNC"}[i%3])); err != nil {
				errs <- err
				return
			}
			for k := 0; k < 30; k++ {
				if _, err := c.Exec(fmt.Sprintf(`INSERT INTO %s (id, v) VALUES (%d, 'v%d')`, tbl, k, k)); err != nil {
					errs <- fmt.Errorf("client %d insert %d: %w", i, k, err)
					return
				}
				if k%5 == 0 {
					res, err := c.Exec(fmt.Sprintf(`SELECT count(*) FROM %s`, tbl))
					if err != nil {
						errs <- fmt.Errorf("client %d count: %w", i, err)
						return
					}
					if got := res.Rows[0][0].(int64); got != int64(k+1) {
						errs <- fmt.Errorf("client %d: count %d after %d inserts", i, got, k+1)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res := mustExec(t, setup, `SELECT count(*) FROM s0`)
	if res.Rows[0][0] != int64(30) {
		t.Fatalf("final count: %v", res.Rows)
	}
}

// GROUP commits arriving on separate connections, through the executor pool,
// share fsyncs: four remote writers committing at once pay fewer WAL flushes
// than they make commits.
func TestServerGroupCommitSharesFsyncs(t *testing.T) {
	h := startServer(t, Options{MaxExecutors: 4})
	const writers, perWriter = 4, 40
	conns := make([]*client.Conn, writers)
	for i := range conns {
		conns[i] = dial(t, h)
		mustExec(t, conns[i], fmt.Sprintf(`CREATE TABLE g%d (id INTEGER)`, i))
		mustExec(t, conns[i], `SET COMMIT GROUP`)
	}

	flushes := h.e.Obs().Counter("wal.flushes")
	before := flushes.Load()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *client.Conn) {
			defer wg.Done()
			<-start
			for k := 0; k < perWriter; k++ {
				if _, err := c.Exec(fmt.Sprintf(`INSERT INTO g%d (id) VALUES (%d)`, i, k)); err != nil {
					errs <- fmt.Errorf("writer %d commit %d: %w", i, k, err)
					return
				}
			}
		}(i, c)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := flushes.Load() - before
	t.Logf("%d GROUP commits, %d fsyncs", writers*perWriter, got)
	if got >= writers*perWriter {
		t.Fatalf("%d GROUP commits over %d connections took %d fsyncs, want fewer than commits",
			writers*perWriter, writers, got)
	}
}

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blades/grtblade"
	"repro/internal/client"
	"repro/internal/types"
	"repro/internal/wire"
)

// countingListener counts, over every connection it accepts, the server's
// write calls and the bytes crossing the socket both ways. A write is
// counted before it is made, so a client that has read a reply sees it.
type countingListener struct {
	net.Listener
	writes, bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// A prepared one-row probe over an opaque-typed table costs the server one
// write: Header, RowBatch and Done leave in one flush. The client listed the
// blade's type in its Hello, so the extents travel without display text, and
// no plan or profile text is sent unasked; at most 400 bytes cross the
// socket per statement.
func TestPreparedProbeIsOneWrite(t *testing.T) {
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: tcp}
	h := serve(t, Options{}, ln)
	if err := grtblade.Register(h.e); err != nil {
		t.Fatal(err)
	}
	reg := types.NewRegistry()
	if err := grtblade.RegisterTypes(reg); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(tcp.Addr().String(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExec(t, c, `CREATE SBSPACE spc`)
	mustExec(t, c, `CREATE TABLE T (N INTEGER, Name VARCHAR(16), X GRT_TimeExtent_t)`)
	mustExec(t, c, `CREATE INDEX ix ON T(X grt_opclass) USING grtree_am IN spc`)
	for i := 0; i < 40; i++ {
		d := fmt.Sprintf("%d/%d", i%12+1, 80+i/12)
		mustExec(t, c, fmt.Sprintf(`INSERT INTO T VALUES (%d, 'n%d', '%s, %s, %s, %s')`, i, i, d, d, d, d))
	}
	stmt, err := c.Prepare("probe", `SELECT N, Name, X FROM T WHERE ContainedIn(X, $1)`)
	if err != nil {
		t.Fatal(err)
	}
	ot, _ := reg.Lookup(grtblade.TypeName)
	q, err := ot.Support.Input("3/80, 3/80, 3/80, 3/80")
	if err != nil {
		t.Fatal(err)
	}
	arg := types.Opaque{TypeID: ot.ID, Data: q}

	const stmts = 20
	writes, bytes := ln.writes.Load(), ln.bytes.Load()
	for i := 0; i < stmts; i++ {
		res, err := stmt.Exec(arg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Plan != "" || res.Profile != "" {
			t.Fatalf("probe: %d rows, plan %q, profile %q", len(res.Rows), res.Plan, res.Profile)
		}
	}
	writes, bytes = ln.writes.Load()-writes, ln.bytes.Load()-bytes
	t.Logf("%d statements: %d server writes, %d bytes per statement", stmts, writes, bytes/stmts)
	if writes != stmts {
		t.Errorf("%d server writes for %d statements, want one each", writes, stmts)
	}
	if bytes > 400*stmts {
		t.Errorf("%d bytes per statement cross the socket, want at most 400", bytes/stmts)
	}
}

// pipeListener accepts the server ends of in-memory pipes. A pipe has no
// buffer: a write blocks until the peer reads it.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.conns:
		return nc, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the client end of a new pipe whose server end the listener
// has handed to Accept.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	cn, sn := net.Pipe()
	t.Cleanup(func() { cn.Close() })
	select {
	case l.conns <- sn:
	case <-l.closed:
		t.Fatal("listener closed")
	}
	return cn
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// Header and RowBatch frames are not flushed one by one, but a stream
// larger than the write buffer still reaches the client as the buffer
// fills: over an unbuffered pipe the client reads the Header and the first
// RowBatch while the server has produced only a few of the statement's
// batches, long before Done.
func TestLongStreamReachesTheClientBeforeDone(t *testing.T) {
	pl := newPipeListener()
	h := serve(t, Options{}, pl)
	s := h.e.NewSession()
	defer s.Close()
	if _, err := s.Exec(`CREATE TABLE big (id INTEGER, pad VARCHAR(200))`); err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	pad := strings.Repeat("p", 100)
	var sb strings.Builder
	fmt.Fprintf(&sb, `INSERT INTO big VALUES (0, '%s')`, pad)
	for i := 1; i < rows; i++ {
		fmt.Fprintf(&sb, ", (%d, '%s')", i, pad)
	}
	if _, err := s.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}

	wc := wire.NewConn(pl.dial(t), h.e.Types())
	if err := wc.Send(&wire.Hello{Version: wire.Version}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMsg(t, wc).(*wire.Welcome); !ok {
		t.Fatal("handshake not answered with Welcome")
	}
	sent := h.e.Obs().Counter("server.batches.sent")
	before := sent.Load()
	if err := wc.Send(&wire.Exec{SQL: `SELECT id, pad FROM big`}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMsg(t, wc).(*wire.Header); !ok {
		t.Fatal("no Header first")
	}
	first, ok := recvMsg(t, wc).(*wire.RowBatch)
	if !ok || len(first.Rows) == 0 {
		t.Fatal("no RowBatch after the Header")
	}
	early := sent.Load() - before
	n := len(first.Rows)
	for {
		switch m := recvMsg(t, wc).(type) {
		case *wire.RowBatch:
			n += len(m.Rows)
			continue
		case *wire.Done:
		default:
			t.Fatalf("unexpected %T in the stream", m)
		}
		break
	}
	if n != rows {
		t.Fatalf("streamed %d rows, want %d", n, rows)
	}
	if total := sent.Load() - before; early >= total {
		t.Fatalf("the first batch arrived after the server had produced all %d: the stream was held back until Done", total)
	}
}

// The rendered plan and profile travel only to a session that ran SET
// EXPLAIN ON, and stop again after SET EXPLAIN OFF.
func TestPlanAndProfileOnlyUnderExplain(t *testing.T) {
	h := startServer(t, Options{})
	c := dial(t, h)
	mustExec(t, c, `CREATE TABLE t (id INTEGER)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2)`)
	for _, step := range []struct {
		set  string
		want bool
	}{{"", false}, {"SET EXPLAIN ON", true}, {"SET EXPLAIN OFF", false}} {
		if step.set != "" {
			mustExec(t, c, step.set)
		}
		rows, err := c.Query(`SELECT id FROM t WHERE id > 1`)
		if err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		plan, profile := rows.Plan(), rows.Result().Profile
		if (plan != "") != step.want || (profile != "") != step.want {
			t.Fatalf("after %q: plan %q, profile %q; want both present=%v", step.set, plan, profile, step.want)
		}
		if step.want && (!strings.Contains(plan, "sequential heap scan") || !strings.Contains(profile, "returned=1")) {
			t.Fatalf("plan %q, profile %q", plan, profile)
		}
	}
}

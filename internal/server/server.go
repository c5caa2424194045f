// Package server is tinybladed's network front end: a TCP acceptor that
// speaks the wire protocol, one engine.Session per connection, and a
// bounded executor pool that multiplexes any number of connections over a
// fixed number of concurrently executing statements. Sessions are cheap
// (SET state and a tx slot); executors are the scarce resource (scan
// workers, WAL appends), so N connections share K executor slots the way
// Informix multiplexes sessions over its VP pool.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Options configures a Server.
type Options struct {
	// MaxExecutors bounds how many statements execute concurrently across
	// all connections (default 8). Further Execs queue on the slot pool.
	MaxExecutors int
	// Banner is the server identification sent in Welcome.
	Banner string
}

// Server owns the acceptor, the connection set, and the executor pool.
type Server struct {
	e     *engine.Engine
	opts  Options
	slots chan struct{}

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool

	wg sync.WaitGroup // live connection handlers
}

// New builds a server over an open engine.
func New(e *engine.Engine, opts Options) *Server {
	if opts.MaxExecutors <= 0 {
		opts.MaxExecutors = 8
	}
	if opts.Banner == "" {
		opts.Banner = "tinybladed"
	}
	return &Server{
		e:     e,
		opts:  opts,
		slots: make(chan struct{}, opts.MaxExecutors),
		conns: make(map[*conn]struct{}),
	}
}

// Serve accepts connections on ln until Shutdown closes it (returns nil) or
// the listener fails. Each connection gets its own engine session and
// handler goroutine; statement execution is throttled by the slot pool.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		c := &conn{srv: s, nc: nc, wc: wire.NewConn(nc, s.e.Types())}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.e.Obs().Inc(obs.ServerConnsAccepted)
		go c.serve()
	}
}

// Shutdown drains the server: stop accepting, close idle connections, let
// in-flight statements finish, and — once ctx expires — cancel whatever is
// still running and close its connections. It returns once every handler
// has exited (the engine itself stays open; the caller owns its Close, and
// with it the final WAL flush).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	for c := range s.conns {
		c.interruptIfIdle()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Grace expired: cancel in-flight statements and yank the connections —
	// pending result writes fail and the handlers unwind.
	s.mu.Lock()
	for c := range s.conns {
		c.hardStop()
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

// conn is one client connection: its socket, its framing, its session, and
// the in-flight statement's cancel hook.
type conn struct {
	srv *Server
	nc  net.Conn
	wc  *wire.Conn

	mu        sync.Mutex
	executing bool
	cancel    context.CancelFunc
}

// interruptIfIdle closes the socket when no statement is executing, kicking
// the handler out of its blocking Recv. Called with srv.mu held.
func (c *conn) interruptIfIdle() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.executing {
		c.nc.Close()
	}
}

// hardStop cancels the in-flight statement (parallel scan workers watch the
// context) and closes the socket (serial scans may not poll the context,
// but their result writes now fail). Called with srv.mu held.
func (c *conn) hardStop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cancel != nil {
		c.cancel()
	}
	c.nc.Close()
}

// serve runs the connection to completion: handshake, then the
// Exec/results loop.
func (c *conn) serve() {
	sess := c.srv.e.NewSession()
	defer func() {
		sess.Close()
		c.nc.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		c.srv.e.Obs().Inc(obs.ServerConnsClosed)
		c.srv.wg.Done()
	}()

	if !c.handshake() {
		return
	}
	for {
		m, err := c.wc.Recv()
		if err != nil {
			return // disconnect (or drain closed the idle socket)
		}
		switch t := m.(type) {
		case *wire.Exec:
			if !c.execute(func(ctx context.Context) bool { return c.runExec(sess, ctx, t.SQL) }) {
				return
			}
		case *wire.Parse:
			if !c.parse(sess, t) {
				return
			}
		case *wire.ExecutePrepared:
			if !c.execute(func(ctx context.Context) bool { return c.runPrepared(sess, ctx, t) }) {
				return
			}
		case *wire.CloseStmt:
			if !c.closeStmt(sess, t) {
				return
			}
		case *wire.Quit:
			return
		default:
			c.wc.Send(&wire.Error{Code: engine.CodeFeature, Message: fmt.Sprintf("unexpected %T", m)})
			return
		}
	}
}

// handshake validates the Hello and answers Welcome, listing the server's
// opaque types as the Hello listed the client's. Only the current protocol
// version is spoken: every client in the tree sends it.
func (c *conn) handshake() bool {
	m, err := c.wc.Recv()
	if err != nil {
		c.srv.e.Obs().Inc(obs.ServerConnsRefused)
		return false
	}
	h, ok := m.(*wire.Hello)
	if !ok || h.Version != wire.Version {
		c.srv.e.Obs().Inc(obs.ServerConnsRefused)
		c.wc.Send(&wire.Error{
			Code:    engine.CodeFeature,
			Message: fmt.Sprintf("unsupported protocol (server speaks version %d)", wire.Version),
		})
		return false
	}
	return c.wc.Send(&wire.Welcome{Version: wire.Version, Banner: c.srv.opts.Banner, Types: c.srv.e.Types().Names()}) == nil
}

// parse registers a named prepared statement on the session and acks with
// its parameter count.
func (c *conn) parse(sess *engine.Session, t *wire.Parse) bool {
	n, err := sess.Prepare(t.Name, t.SQL)
	if err != nil {
		return c.sendErr(err)
	}
	return c.wc.Send(&wire.Prepared{Name: t.Name, NParams: uint16(n)}) == nil
}

// closeStmt deallocates a prepared statement.
func (c *conn) closeStmt(sess *engine.Session, t *wire.CloseStmt) bool {
	if err := sess.Deallocate(t.Name); err != nil {
		return c.sendErr(err)
	}
	return c.wc.Send(&wire.Done{Message: fmt.Sprintf("deallocated %q", strings.ToLower(t.Name))}) == nil
}

// execute runs one statement payload — an Exec script or an
// ExecutePrepared — under an executor slot and streams its result back. It
// returns false when the connection is no longer usable (send failure, or
// the server is draining).
func (c *conn) execute(run func(ctx context.Context) bool) bool {
	select {
	case c.srv.slots <- struct{}{}:
	default:
		// Pool exhausted: count the wait, then block for a slot.
		c.srv.e.Obs().Inc(obs.ServerSlotWaits)
		c.srv.slots <- struct{}{}
	}
	defer func() { <-c.srv.slots }()

	ctx, cancel := context.WithCancel(context.Background())
	c.mu.Lock()
	c.executing, c.cancel = true, cancel
	c.mu.Unlock()
	ok := run(ctx)
	c.mu.Lock()
	c.executing, c.cancel = false, nil
	c.mu.Unlock()
	cancel()

	// After an in-flight statement finished during a drain, the connection
	// closes: clients observe the drain as a clean disconnect.
	c.srv.mu.Lock()
	draining := c.srv.draining
	c.srv.mu.Unlock()
	return ok && !draining
}

// runExec parses and runs the payload while the conn is marked
// executing. Scripts run like Session.ExecScript: every statement executes
// until the first error; the last statement's result streams back.
func (c *conn) runExec(sess *engine.Session, ctx context.Context, src string) bool {
	c.srv.e.Obs().Inc(obs.ServerStatements)
	stmts, err := c.srv.e.ParseScript(src)
	if err != nil {
		return c.sendErr(err)
	}
	if len(stmts) == 0 {
		return c.sendErr(errors.New("empty statement"))
	}
	for _, st := range stmts[:len(stmts)-1] {
		if _, err := sess.ExecStmtCtx(ctx, st); err != nil {
			return c.sendErr(err)
		}
	}
	str, err := sess.ExecStreamStmtCtx(ctx, stmts[len(stmts)-1])
	if err != nil {
		return c.sendErr(err)
	}
	return c.streamResult(sess, str)
}

// runPrepared executes a prepared statement — the zero-parse hot path.
func (c *conn) runPrepared(sess *engine.Session, ctx context.Context, t *wire.ExecutePrepared) bool {
	c.srv.e.Obs().Inc(obs.ServerStatements)
	str, err := sess.ExecutePreparedStream(ctx, t.Name, t.Args)
	if err != nil {
		return c.sendErr(err)
	}
	return c.streamResult(sess, str)
}

// streamResult drains a statement stream to the client as
// Header/RowBatch.../Done. The plan and profile text are rendered only for a
// session that asked for them (SET EXPLAIN ON).
func (c *conn) streamResult(sess *engine.Session, str *engine.Stream) bool {
	defer str.Close()

	explain := sess.Vars().Explain()
	hdr := &wire.Header{Columns: str.Columns()}
	for _, t := range str.ColTypes() {
		hdr.Types = append(hdr.Types, wire.KindOf(t))
	}
	if p := str.Plan(); explain && p != nil {
		hdr.Plan = p.String()
	}
	if c.wc.Send(hdr) != nil {
		return false
	}
	for {
		rows, err := str.Next()
		if err != nil {
			return c.sendErr(err)
		}
		if rows == nil {
			break
		}
		c.srv.e.Obs().Inc(obs.ServerBatchesSent)
		c.srv.e.Obs().Add(obs.ServerRowsSent, uint64(len(rows)))
		if c.wc.Send(&wire.RowBatch{Rows: rows}) != nil {
			return false
		}
	}
	res := str.Result()
	done := &wire.Done{Affected: int64(res.Affected), Message: res.Message}
	if explain && res.Stats != nil {
		done.Profile = res.Stats.String()
	}
	return c.wc.Send(done) == nil
}

// sendErr converts err into an Error frame, preserving the engine's
// SQLSTATE code. The connection survives statement errors.
func (c *conn) sendErr(err error) bool {
	c.srv.e.Obs().Inc(obs.ServerErrors)
	msg := err.Error()
	var ee *engine.Error
	if errors.As(err, &ee) {
		// Send the bare message: the client rebuilds engine.Error (whose
		// Error() re-adds the "engine: " prefix) from code + message.
		msg = ee.Msg
	}
	return c.wc.Send(&wire.Error{Code: engine.ErrorCode(err), Message: msg}) == nil
}

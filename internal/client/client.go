// Package client is the Go client library for tinybladed: it dials the
// wire protocol, streams result rows, and rebuilds typed engine errors from
// their SQLSTATE codes, so code written against the embedded engine API
// ports to the network with the same result shapes and the same error
// dispatch. Opaque datums are decoded through the local type registry's
// Receive support function — a client that registers the same blades as the
// server gets identical values; one that doesn't still gets display text,
// which the server sends for exactly the types the client's Hello did not
// list.
package client

import (
	"errors"
	"net"

	"repro/internal/engine"
	"repro/internal/types"
	"repro/internal/wire"
)

// Result is a fully materialized statement outcome — the network analogue
// of engine.Result, with the plan and profile already rendered to text
// (the wire carries them rendered; the structures stay server-side). Plan
// and Profile are empty unless the connection ran SET EXPLAIN ON.
type Result struct {
	Columns  []string
	ColTypes []types.Type
	Rows     [][]types.Datum
	Affected int
	Message  string
	Plan     string
	Profile  string
}

// Conn is one connection to a tinybladed server. It is not safe for
// concurrent use: the protocol runs one statement at a time, like an
// engine.Session.
type Conn struct {
	nc     net.Conn
	wc     *wire.Conn
	reg    *types.Registry
	banner string
	rows   *Rows // open streaming result, if any
}

// Dial connects and performs the handshake. The registry (may be nil)
// supplies the opaque-type support functions for datum decode; register the
// same blades as the server for full-fidelity values. The Hello lists the
// registry's opaque types, so the server omits their display text.
func Dial(addr string, reg *types.Registry) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{nc: nc, wc: wire.NewConn(nc, reg), reg: reg}
	if err := c.wc.Send(&wire.Hello{Version: wire.Version, Banner: "tinyblade client", Types: reg.Names()}); err != nil {
		nc.Close()
		return nil, err
	}
	m, err := c.wc.Recv()
	if err != nil {
		nc.Close()
		return nil, err
	}
	switch t := m.(type) {
	case *wire.Welcome:
		c.banner = t.Banner
		return c, nil
	case *wire.Error:
		nc.Close()
		return nil, wireErr(t)
	}
	nc.Close()
	return nil, errors.New("client: unexpected handshake reply")
}

// Banner returns the server identification from the handshake.
func (c *Conn) Banner() string { return c.banner }

// Close sends Quit and closes the socket.
func (c *Conn) Close() error {
	if c.rows != nil {
		c.rows.Close()
	}
	c.wc.Send(&wire.Quit{})
	return c.nc.Close()
}

// Exec runs SQL (a statement or a semicolon-separated script) and
// materializes the result — the network analogue of Session.Exec.
func (c *Conn) Exec(src string) (*Result, error) {
	rows, err := c.Query(src)
	if err != nil {
		return nil, err
	}
	for {
		b, err := rows.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		rows.res.Rows = append(rows.res.Rows, b...)
	}
	return rows.Result(), nil
}

// Query runs SQL and returns a streaming result — the network analogue of
// Session.ExecStream. The connection is busy until the Rows are exhausted
// or closed.
func (c *Conn) Query(src string) (*Rows, error) {
	if c.rows != nil {
		return nil, &engine.Error{Code: engine.CodeSessionBusy, Msg: "a result stream is already open on this connection"}
	}
	if err := c.wc.Send(&wire.Exec{SQL: src}); err != nil {
		return nil, err
	}
	return c.awaitHeader()
}

// awaitHeader reads a statement's opening reply and returns the stream.
func (c *Conn) awaitHeader() (*Rows, error) {
	m, err := c.wc.Recv()
	if err != nil {
		return nil, err
	}
	switch t := m.(type) {
	case *wire.Header:
		r := &Rows{
			c: c,
			res: &Result{
				Columns:  t.Columns,
				ColTypes: wire.ResolveColTypes(c.reg, t.Types),
				Plan:     t.Plan,
			},
		}
		c.rows = r
		return r, nil
	case *wire.Error:
		return nil, wireErr(t)
	}
	return nil, errors.New("client: unexpected reply to statement")
}

// Prepare registers a named prepared statement on the server and returns a
// handle for executing it with arguments — the network analogue of
// PREPARE ... AS.
func (c *Conn) Prepare(name, src string) (*Stmt, error) {
	if c.rows != nil {
		return nil, &engine.Error{Code: engine.CodeSessionBusy, Msg: "a result stream is already open on this connection"}
	}
	if err := c.wc.Send(&wire.Parse{Name: name, SQL: src}); err != nil {
		return nil, err
	}
	m, err := c.wc.Recv()
	if err != nil {
		return nil, err
	}
	switch t := m.(type) {
	case *wire.Prepared:
		return &Stmt{c: c, name: t.Name, nparams: int(t.NParams)}, nil
	case *wire.Error:
		return nil, wireErr(t)
	}
	return nil, errors.New("client: unexpected reply to Parse")
}

// Stmt is a prepared statement handle. Executing it ships only the name and
// the argument datums — no SQL text, no server-side parsing.
type Stmt struct {
	c       *Conn
	name    string
	nparams int
}

// Name returns the statement's registered name.
func (s *Stmt) Name() string { return s.name }

// NumParams returns the statement's parameter count.
func (s *Stmt) NumParams() int { return s.nparams }

// Query executes the prepared statement and returns a streaming result.
func (s *Stmt) Query(args ...types.Datum) (*Rows, error) {
	c := s.c
	if c.rows != nil {
		return nil, &engine.Error{Code: engine.CodeSessionBusy, Msg: "a result stream is already open on this connection"}
	}
	if err := c.wc.Send(&wire.ExecutePrepared{Name: s.name, Args: args}); err != nil {
		return nil, err
	}
	return c.awaitHeader()
}

// Exec executes the prepared statement and materializes the result.
func (s *Stmt) Exec(args ...types.Datum) (*Result, error) {
	rows, err := s.Query(args...)
	if err != nil {
		return nil, err
	}
	for {
		b, err := rows.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		rows.res.Rows = append(rows.res.Rows, b...)
	}
	return rows.Result(), nil
}

// Close deallocates the statement server-side. The handle is unusable
// afterwards.
func (s *Stmt) Close() error {
	c := s.c
	if c.rows != nil {
		return &engine.Error{Code: engine.CodeSessionBusy, Msg: "a result stream is already open on this connection"}
	}
	if err := c.wc.Send(&wire.CloseStmt{Name: s.name}); err != nil {
		return err
	}
	m, err := c.wc.Recv()
	if err != nil {
		return err
	}
	switch t := m.(type) {
	case *wire.Done:
		return nil
	case *wire.Error:
		return wireErr(t)
	}
	return errors.New("client: unexpected reply to CloseStmt")
}

// Format renders a result through the shared engine renderer, against the
// client's registry — byte-identical to what an embedded session prints.
func (c *Conn) Format(r *Result) string {
	if r == nil {
		return ""
	}
	return engine.FormatResultWith(c.reg, &engine.Result{
		Columns: r.Columns, Rows: r.Rows, Message: r.Message,
	})
}

// Rows is a streaming result: header first, then batches via NextBatch,
// then the completed Result once the stream ends.
type Rows struct {
	c    *Conn
	res  *Result
	done bool
	err  error
}

// Columns returns the result's column names (available immediately).
func (r *Rows) Columns() []string { return r.res.Columns }

// ColTypes returns the typed column metadata, resolved against the
// client's registry (available immediately).
func (r *Rows) ColTypes() []types.Type { return r.res.ColTypes }

// Plan returns the statement's rendered access plan: "" when the statement
// has none, or the connection has not run SET EXPLAIN ON.
func (r *Rows) Plan() string { return r.res.Plan }

// NextBatch returns the next batch of rows, or nil once the stream is
// done. Errors — including a statement failure mid-stream — surface here
// as typed engine errors.
func (r *Rows) NextBatch() ([][]types.Datum, error) {
	if r.done {
		return nil, r.err
	}
	m, err := r.c.wc.Recv()
	if err != nil {
		r.finish(err)
		return nil, err
	}
	switch t := m.(type) {
	case *wire.RowBatch:
		return t.Rows, nil
	case *wire.Done:
		r.res.Affected = int(t.Affected)
		r.res.Message = t.Message
		r.res.Profile = t.Profile
		r.finish(nil)
		return nil, nil
	case *wire.Error:
		err := wireErr(t)
		r.finish(err)
		return nil, err
	}
	err = errors.New("client: unexpected frame in result stream")
	r.finish(err)
	return nil, err
}

// Result returns the materialized outcome; complete only after the stream
// finished.
func (r *Rows) Result() *Result { return r.res }

// Err returns the stream's terminal error, if any.
func (r *Rows) Err() error { return r.err }

// Close drains any unread frames so the connection is ready for the next
// statement. Idempotent.
func (r *Rows) Close() error {
	for !r.done {
		if _, err := r.NextBatch(); err != nil {
			break
		}
	}
	return r.err
}

func (r *Rows) finish(err error) {
	r.done = true
	if r.err == nil {
		r.err = err
	}
	if r.c.rows == r {
		r.c.rows = nil
	}
}

// wireErr rebuilds the typed engine error from an Error frame: the SQLSTATE
// round-trips, so client-side engine.ErrorCode dispatch matches embedded
// behaviour exactly.
func wireErr(e *wire.Error) error {
	if e.Code == "" {
		return errors.New(e.Message)
	}
	return &engine.Error{Code: e.Code, Msg: e.Message}
}

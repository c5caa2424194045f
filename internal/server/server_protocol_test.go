package server

import (
	"net"
	"testing"

	"repro/internal/engine"
	"repro/internal/types"
	"repro/internal/wire"
)

// rawDial opens a wire-level connection without the client library, so
// tests can speak frames directly, or impersonate a peer speaking another
// protocol revision.
func rawDial(t *testing.T, h *harness) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return wire.NewConn(nc, h.e.Types())
}

func recvMsg(t *testing.T, wc *wire.Conn) wire.Message {
	t.Helper()
	m, err := wc.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	return m
}

// A client speaking any other protocol version — the retired versions 1
// and 3 (whose Hello has no type list), or one from the future — is refused
// with an Error frame.
func TestServerRefusesUnknownVersion(t *testing.T) {
	h := startServer(t, Options{})
	for _, v := range []uint16{1, 3, 99} {
		wc := rawDial(t, h)
		if err := wc.Send(&wire.Hello{Version: v}); err != nil {
			t.Fatal(err)
		}
		e, ok := recvMsg(t, wc).(*wire.Error)
		if !ok || e.Code != engine.CodeFeature {
			t.Fatalf("v%d handshake reply: %#v", v, e)
		}
	}
}

// The full prepared-statement conversation at the frame level: Parse acks
// with the parameter count, ExecutePrepared binds its inline arguments,
// CloseStmt drops the statement, and running it afterwards reports
// CodeUndefinedObject — with the connection surviving.
func TestServerPreparedFrameConversation(t *testing.T) {
	h := startServer(t, Options{})
	c := dial(t, h)
	mustExec(t, c, `CREATE TABLE pf (id INTEGER, name VARCHAR(8))`)
	mustExec(t, c, `INSERT INTO pf VALUES (1, 'a'), (2, 'b')`)

	wc := rawDial(t, h)
	if err := wc.Send(&wire.Hello{Version: wire.Version}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMsg(t, wc).(*wire.Welcome); !ok {
		t.Fatal("handshake not answered with Welcome")
	}

	if err := wc.Send(&wire.Parse{Name: "byid", SQL: `SELECT name FROM pf WHERE id = $1`}); err != nil {
		t.Fatal(err)
	}
	p, ok := recvMsg(t, wc).(*wire.Prepared)
	if !ok || p.NParams != 1 {
		t.Fatalf("Parse ack: %#v", p)
	}

	if err := wc.Send(&wire.ExecutePrepared{Name: "byid", Args: []types.Datum{int64(2)}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMsg(t, wc).(*wire.Header); !ok {
		t.Fatal("no Header for ExecutePrepared")
	}
	var got []types.Datum
loop:
	for {
		switch m := recvMsg(t, wc).(type) {
		case *wire.RowBatch:
			for _, r := range m.Rows {
				got = append(got, r[0])
			}
		case *wire.Done:
			break loop
		case *wire.Error:
			t.Fatalf("ExecutePrepared error: %s %s", m.Code, m.Message)
		}
	}
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("bound execute rows: %#v", got)
	}

	if err := wc.Send(&wire.CloseStmt{Name: "byid"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMsg(t, wc).(*wire.Done); !ok {
		t.Fatal("CloseStmt not acked with Done")
	}
	if err := wc.Send(&wire.ExecutePrepared{Name: "byid", Args: []types.Datum{int64(1)}}); err != nil {
		t.Fatal(err)
	}
	e, ok := recvMsg(t, wc).(*wire.Error)
	if !ok || e.Code != engine.CodeUndefinedObject {
		t.Fatalf("execute after close: %#v", e)
	}
	// Statement errors don't kill the connection.
	if err := wc.Send(&wire.Exec{SQL: `SELECT count(*) FROM pf`}); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMsg(t, wc).(*wire.Header); !ok {
		t.Fatal("connection dead after prepared-statement error")
	}
}

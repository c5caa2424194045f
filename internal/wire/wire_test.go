package wire

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"

	"repro/internal/chronon"
	"repro/internal/types"
)

// pipeConn is an in-memory bidirectional stream for framing tests.
func pipeConn(t *testing.T) (client, server net.Conn) {
	t.Helper()
	c, s := net.Pipe()
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

// registerPair registers the same opaque type in two registries, with a
// send/receive transform that actually changes the bytes (XOR), so the test
// notices if either support function is skipped.
func registerPair(t testing.TB) (srv, cli *types.Registry) {
	t.Helper()
	srv, cli = types.NewRegistry(), types.NewRegistry()
	for _, reg := range []*types.Registry{srv, cli} {
		_, err := reg.RegisterOpaque("period", types.SupportFuncs{
			Input:  func(text string) ([]byte, error) { return []byte(text), nil },
			Output: func(data []byte) (string, error) { return string(data), nil },
			Send: func(data []byte) ([]byte, error) {
				w := make([]byte, len(data))
				for i, b := range data {
					w[i] = b ^ 0x5a
				}
				return w, nil
			},
			Receive: func(w []byte) ([]byte, error) {
				data := make([]byte, len(w))
				for i, b := range w {
					data[i] = b ^ 0x5a
				}
				return data, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return srv, cli
}

// roundTrip sends m and returns what the receiver decodes. It flushes after
// the Send, since Header and RowBatch frames stay buffered until a frame that
// ends the sender's turn.
func roundTrip(t *testing.T, sendReg, recvReg *types.Registry, m Message) Message {
	t.Helper()
	cn, sn := pipeConn(t)
	sender := NewConn(sn, sendReg)
	receiver := NewConn(cn, recvReg)
	errc := make(chan error, 1)
	go func() {
		err := sender.Send(m)
		if err == nil {
			err = sender.w.Flush()
		}
		errc <- err
	}()
	got, err := receiver.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Send: %v", err)
	}
	return got
}

func TestControlFrames(t *testing.T) {
	for _, m := range []Message{
		&Hello{Version: Version, Banner: "tinyblade", Types: []string{"period", "GRT_TimeExtent_t"}},
		&Hello{Version: 3, Banner: "an older client"},
		&Welcome{Version: Version, Banner: "tinybladed 0.1", Types: []string{"period"}},
		&Welcome{Version: Version, Banner: "tinybladed 0.1"},
		&Exec{SQL: "SELECT * FROM t; SELECT count(*) FROM t"},
		&Header{
			Columns: []string{"id", "p"},
			Types:   []ColType{{Kind: byte(types.KInt), Name: "INTEGER"}, {Kind: byte(types.KOpaque), Name: "period"}},
			Plan:    "SELECT heap scan",
		},
		&Done{Affected: -1, Message: "table created", Profile: "elapsed=1ms"},
		&Error{Code: "42P01", Message: "no such table"},
		&Quit{},
	} {
		got := roundTrip(t, nil, nil, m)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip %T:\n got %#v\nwant %#v", m, got, m)
		}
	}
}

// The prepared-statement frames round-trip, argument vectors included.
func TestPreparedFrames(t *testing.T) {
	for _, m := range []Message{
		&Parse{Name: "q1", SQL: "SELECT * FROM t WHERE id = $1"},
		&Prepared{Name: "q1", NParams: 3},
		&ExecutePrepared{Name: "q1", Args: []types.Datum{int64(7), 2.5, chronon.MustParse("9/97")}},
		&ExecutePrepared{Name: "q1"},
		&CloseStmt{Name: "q1"},
	} {
		got := roundTrip(t, nil, nil, m)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip %T:\n got %#v\nwant %#v", m, got, m)
		}
	}
}

// Opaque datums in an argument vector go through Send/Receive like row
// datums do.
func TestPreparedArgsOpaque(t *testing.T) {
	srv, cli := registerPair(t)
	ot, _ := srv.Lookup("period")
	cliOT, _ := cli.Lookup("period")

	in := &ExecutePrepared{Name: "q", Args: []types.Datum{types.Opaque{TypeID: ot.ID, Data: []byte("1/97-3/97")}}}
	got := roundTrip(t, cli, srv, in).(*ExecutePrepared)
	// Note the direction: args flow client → server, so the sender encodes
	// with the client registry and the receiver resolves with the server's.
	op, ok := got.Args[0].(types.Opaque)
	if !ok {
		t.Fatalf("opaque arg arrived as %T", got.Args[0])
	}
	if string(op.Data) != "1/97-3/97" {
		t.Fatalf("opaque arg round trip: %+v", op)
	}
	_ = cliOT
}

// Every datum kind must survive the trip; opaque values must pass through
// Send on the way out and Receive on the way in.
func TestRowBatchRoundTrip(t *testing.T) {
	srv, cli := registerPair(t)
	ot, _ := srv.Lookup("period")
	cliOT, _ := cli.Lookup("period")

	in := &RowBatch{Rows: [][]types.Datum{
		{int64(-7), float64(2.5), "text", true, chronon.MustParse("9/97"), nil},
		{types.Opaque{TypeID: ot.ID, Data: []byte("1/97-3/97")}},
	}}
	got := roundTrip(t, srv, cli, in).(*RowBatch)
	if len(got.Rows) != 2 {
		t.Fatalf("rows: %d", len(got.Rows))
	}
	want0 := in.Rows[0]
	for i, d := range got.Rows[0] {
		if d != want0[i] {
			t.Fatalf("col %d: got %#v want %#v", i, d, want0[i])
		}
	}
	op, ok := got.Rows[1][0].(types.Opaque)
	if !ok {
		t.Fatalf("opaque arrived as %T", got.Rows[1][0])
	}
	if op.TypeID != cliOT.ID || string(op.Data) != "1/97-3/97" {
		t.Fatalf("opaque round trip: %+v", op)
	}
}

// A client without the blade loaded still gets a displayable value: the
// Output text stands in for the opaque datum.
func TestOpaqueFallbackWithoutBlade(t *testing.T) {
	srv, _ := registerPair(t)
	ot, _ := srv.Lookup("period")
	bare := types.NewRegistry() // no period type here

	in := &RowBatch{Rows: [][]types.Datum{{types.Opaque{TypeID: ot.ID, Data: []byte("5/97-9/97")}}}}
	got := roundTrip(t, srv, bare, in).(*RowBatch)
	s, ok := got.Rows[0][0].(string)
	if !ok || s != "5/97-9/97" {
		t.Fatalf("fallback datum: %#v", got.Rows[0][0])
	}
}

// Once the peer has listed an opaque type in its handshake, values of that
// type travel without their Output text; values of a type it did not list
// keep it. The frame layout is the same either way: the text field is empty.
func TestOpaqueTextOnlyForTypesThePeerLacks(t *testing.T) {
	srv, _ := registerPair(t)
	ot, _ := srv.Lookup("period")
	secret, err := srv.RegisterOpaque("secret", types.SupportFuncs{
		Input:  func(text string) ([]byte, error) { return []byte(text), nil },
		Output: func(data []byte) (string, error) { return "<" + string(data) + ">", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := &RowBatch{Rows: [][]types.Datum{{
		types.Opaque{TypeID: ot.ID, Data: []byte("5/97-9/97")},
		types.Opaque{TypeID: secret.ID, Data: []byte("x")},
	}}}
	// The server side of a connection whose client listed "PERIOD" (names
	// match case-insensitively, like registry lookups) and a type the
	// server does not have.
	hello, err := encodeFrame(nil, &Hello{Version: Version, Types: []string{"PERIOD", "mystery"}})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sc := NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(hello), &out}, srv)
	if _, err := sc.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Send(batch); err != nil {
		t.Fatal(err)
	}
	if err := sc.w.Flush(); err != nil {
		t.Fatal(err)
	}
	// A decoder without either type shows what travelled as text.
	got, err := decodeFrame(types.NewRegistry(), out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	row := got.(*RowBatch).Rows[0]
	if row[0] != "" || row[1] != "<x>" {
		t.Fatalf("text fields: %#v, want the listed type's empty and the other's rendered", row)
	}
	// Before any handshake every opaque value carries its text.
	full, err := encodeFrame(srv, batch)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := decodeFrame(types.NewRegistry(), full); got.(*RowBatch).Rows[0][0] != "5/97-9/97" {
		t.Fatalf("no handshake: %#v", got.(*RowBatch).Rows[0])
	}
}

func TestResolveColTypes(t *testing.T) {
	_, cli := registerPair(t)
	cliOT, _ := cli.Lookup("period")
	cts := []ColType{
		{Kind: byte(types.KVarchar), Name: "VARCHAR"},
		{Kind: byte(types.KOpaque), Name: "period"},
		{Kind: byte(types.KOpaque), Name: "mystery"},
	}
	ts := ResolveColTypes(cli, cts)
	if ts[0].Kind != types.KVarchar {
		t.Fatalf("builtin: %v", ts[0])
	}
	if ts[1].Kind != types.KOpaque || ts[1].OpaqueID != cliOT.ID {
		t.Fatalf("known opaque: %v", ts[1])
	}
	if ts[2].Kind != types.KOpaque || ts[2].OpaqueID != 0 {
		t.Fatalf("unknown opaque: %v", ts[2])
	}
}

// Corrupt frames must fail cleanly, not panic, block or exhaust memory.
func TestMalformedFrames(t *testing.T) {
	// A declared row/column count larger than the payload must error out
	// instead of looping: the sticky decoder error stops the loops.
	var rows enc
	rows.u32(1 << 30)
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		// The declared length exceeds the bytes that follow: EOF.
		{"truncated frame", []byte{0, 0, 0, 50, byte(MsgExec), 1, 2, 3}},
		// The length word is rejected before allocation.
		{"oversized frame", []byte{0xff, 0xff, 0xff, 0xff, byte(MsgExec)}},
		{"unknown frame type", []byte{0, 0, 0, 0, 99}},
		{"row count overflow", append([]byte{0, 0, 0, byte(len(rows.buf)), byte(MsgRowBatch)}, rows.buf...)},
		// 17 bytes: an ExecutePrepared whose argument count is 0xFFFFFFFF.
		// The decoder used to size its argument slice from the count and
		// asked the runtime for 64 GiB, an unrecoverable out-of-memory crash.
		{"argument count overflow", []byte{
			0, 0, 0, 12, byte(MsgExecutePrepared),
			0, 0, 0, 4, 's', 't', 'm', 't',
			0xff, 0xff, 0xff, 0xff,
		}},
		// A handshake whose opaque type list claims 0xFFFFFFFF names, with no
		// bytes after the count: refused before the list is sized.
		{"Hello type count overflow", []byte{
			0, 0, 0, 10, byte(MsgHello),
			0, Version, 0, 0, 0, 0,
			0xff, 0xff, 0xff, 0xff,
		}},
		{"Welcome type count overflow", []byte{
			0, 0, 0, 10, byte(MsgWelcome),
			0, Version, 0, 0, 0, 0,
			0xff, 0xff, 0xff, 0xff,
		}},
		// Two names claimed, one present.
		{"Hello type list truncated", []byte{
			0, 0, 0, 15, byte(MsgHello),
			0, Version, 0, 0, 0, 0,
			0, 0, 0, 2, 0, 0, 0, 1, 'p',
		}},
	} {
		if _, err := decodeFrame(nil, c.frame); err == nil {
			t.Errorf("%s must error", c.name)
		}
	}
}

// decodeFrame runs Conn.Recv over one frame's bytes.
func decodeFrame(reg *types.Registry, frame []byte) (Message, error) {
	return NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(frame), io.Discard}, reg).Recv()
}

// encodeFrame returns the bytes Conn.Send writes for m.
func encodeFrame(reg *types.Registry, m Message) ([]byte, error) {
	var buf bytes.Buffer
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), &buf}, reg)
	err := c.Send(m)
	if err == nil {
		err = c.w.Flush()
	}
	return buf.Bytes(), err
}

// FuzzDecodeFrame feeds arbitrary bytes to Conn.Recv. It must return a
// message or an error, never panic or exhaust memory, and whatever it
// accepts must re-encode to a frame that decodes and encodes to the same
// bytes again.
func FuzzDecodeFrame(f *testing.F) {
	reg, _ := registerPair(f)
	period, _ := reg.Lookup("period")
	opaque := types.Opaque{TypeID: period.ID, Data: []byte("1/97-3/97")}
	for _, m := range []Message{
		&Hello{Version: Version, Banner: "tinyblade", Types: []string{"period"}},
		&Welcome{Version: Version, Banner: "tinybladed", Types: []string{"period", "mystery"}},
		&Hello{Version: 3, Banner: "tinyblade"},
		&Exec{SQL: "SELECT * FROM t"},
		&Header{
			Columns: []string{"id", "p"},
			Types:   []ColType{{Kind: byte(types.KInt), Name: "INTEGER"}, {Kind: byte(types.KOpaque), Name: "period"}},
			Plan:    "SELECT heap scan",
		},
		&RowBatch{Rows: [][]types.Datum{
			{int64(-7), 2.5, "text", true, chronon.MustParse("9/97"), nil},
			{opaque},
		}},
		&Done{Affected: 3, Message: "inserted", Profile: "elapsed=1ms"},
		&Error{Code: "42P01", Message: "no such table"},
		&Quit{},
		&Parse{Name: "q1", SQL: "SELECT * FROM t WHERE id = $1"},
		&Prepared{Name: "q1", NParams: 1},
		&ExecutePrepared{Name: "q1", Args: []types.Datum{int64(7), opaque}},
		&ExecutePrepared{Name: "q1", Args: []types.Datum{"x", false}},
		&CloseStmt{Name: "q1"},
	} {
		frame, err := encodeFrame(reg, m)
		if err != nil {
			f.Fatalf("seed %T: %v", m, err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := decodeFrame(reg, frame)
		if err != nil {
			return
		}
		once, err := encodeFrame(reg, m)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		m2, err := decodeFrame(reg, once)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", m, err)
		}
		twice, err := encodeFrame(reg, m2)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m2, err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("%T is not stable across decode and encode:\n%x\n%x", m, once, twice)
		}
	})
}

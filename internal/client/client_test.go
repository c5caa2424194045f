package client

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/blades/grtblade"
	"repro/internal/chronon"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/types"
)

// startServer brings up an in-memory engine with the GR-tree blade loaded
// and a tinybladed server on a loopback port.
func startServer(t *testing.T) (*engine.Engine, string) {
	t.Helper()
	e, err := engine.Open(engine.Options{Clock: chronon.NewVirtualClock(chronon.MustParse("9/97"))})
	if err != nil {
		t.Fatal(err)
	}
	if err := grtblade.Register(e); err != nil {
		e.Close()
		t.Fatal(err)
	}
	srv := server.New(e, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
		e.Close()
	})
	return e, ln.Addr().String()
}

// bladedRegistry builds a client-side registry with the same blade types the
// server registered, so opaque datums decode to full-fidelity values.
func bladedRegistry(t *testing.T) *types.Registry {
	t.Helper()
	reg := types.NewRegistry()
	if err := grtblade.RegisterTypes(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

const empDepDDL = `CREATE SBSPACE spc;
	CREATE TABLE EmpDep (Employee VARCHAR(16), Department VARCHAR(16), Time_Extent GRT_TimeExtent_t);
	CREATE INDEX empdep_ix ON EmpDep(Time_Extent) USING grtree_am IN spc;
	INSERT INTO EmpDep VALUES ('Rita', 'Shoe', '3/97, UC, 3/97, FOREVER');
	INSERT INTO EmpDep VALUES ('Tom', 'Toy', '4/97, UC, 4/97, FOREVER')`

// The same script through the embedded API and through the network client
// must render byte-identically — including the blade's opaque column, which
// exercises Send on the server and Receive plus Output on the client.
func TestClientEmbeddedAgreement(t *testing.T) {
	e, addr := startServer(t)
	c, err := Dial(addr, bladedRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	emb := e.NewSession()
	defer emb.Close()

	if _, err := c.Exec(empDepDDL); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT * FROM EmpDep`,
		`SELECT Employee FROM EmpDep WHERE Department = 'Toy'`,
		`SELECT count(*) FROM EmpDep`,
		`SELECT Time_Extent FROM EmpDep WHERE Employee = 'Rita'`,
	}
	for _, q := range queries {
		want, err := emb.ExecScript(q)
		if err != nil {
			t.Fatalf("embedded %q: %v", q, err)
		}
		got, err := c.Exec(q)
		if err != nil {
			t.Fatalf("client %q: %v", q, err)
		}
		wantText := engine.FormatResultWith(e.Types(), want)
		gotText := c.Format(got)
		if gotText != wantText {
			t.Fatalf("%q render mismatch:\nclient:\n%s\nembedded:\n%s", q, gotText, wantText)
		}
		if got.Affected != want.Affected {
			t.Fatalf("%q affected: client %d embedded %d", q, got.Affected, want.Affected)
		}
		if len(want.ColTypes) > 0 {
			if len(got.ColTypes) != len(want.ColTypes) {
				t.Fatalf("%q col types: client %d embedded %d", q, len(got.ColTypes), len(want.ColTypes))
			}
			for i := range want.ColTypes {
				if got.ColTypes[i].Kind != want.ColTypes[i].Kind {
					t.Fatalf("%q col %d kind: client %v embedded %v", q, i, got.ColTypes[i].Kind, want.ColTypes[i].Kind)
				}
			}
		}
	}
}

// Opaque datums must arrive as true types.Opaque values on a bladed client
// (decodable by the blade) and as display text on a blade-less one: the
// bladed client's Hello listed the type, the blade-less one's did not.
func TestClientOpaqueRoundTrip(t *testing.T) {
	_, addr := startServer(t)

	reg := bladedRegistry(t)
	bladed, err := Dial(addr, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer bladed.Close()
	if _, err := bladed.Exec(empDepDDL); err != nil {
		t.Fatal(err)
	}

	res, err := bladed.Exec(`SELECT Time_Extent FROM EmpDep WHERE Employee = 'Rita'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	op, ok := res.Rows[0][0].(types.Opaque)
	if !ok {
		t.Fatalf("bladed client datum: %T", res.Rows[0][0])
	}
	ext, err := grtblade.DecodeExtent(op.Data)
	if err != nil {
		t.Fatalf("decode extent: %v", err)
	}
	if !ext.Current() {
		t.Fatalf("extent not current: %v", ext)
	}

	bare, err := Dial(addr, types.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	res, err = bare.Exec(`SELECT Time_Extent FROM EmpDep WHERE Employee = 'Rita'`)
	if err != nil {
		t.Fatal(err)
	}
	ot, _ := reg.Lookup(grtblade.TypeName)
	want, err := ot.Support.Output(op.Data)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := res.Rows[0][0].(string); !ok || s != want {
		t.Fatalf("blade-less client datum: %#v, want the Output text %q", res.Rows[0][0], want)
	}
}

// Every failing statement must carry the same SQLSTATE over the wire as it
// does embedded, and arrive as a typed *engine.Error so client-side error
// dispatch matches embedded behaviour.
func TestClientErrorMatrix(t *testing.T) {
	e, addr := startServer(t)
	c, err := Dial(addr, bladedRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	emb := e.NewSession()
	defer emb.Close()
	if _, err := emb.Exec(`CREATE TABLE mt (id INTEGER, name VARCHAR(8))`); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		sql  string
		code string
	}{
		{`SELECT * FROM no_such_table`, engine.CodeUndefinedTable},
		{`SET ISOLATION TO WISHFUL`, engine.CodeInvalidParameter},
		{`COMMIT WORK`, engine.CodeNoActiveTx},
		{`INSERT INTO mt VALUES (1)`, engine.CodeCardinality},
		{`INSERT INTO mt VALUES ('x', 'y')`, engine.CodeDatatype},
		{`SELECT nope FROM mt`, engine.CodeUndefinedObject},
	}
	for _, tc := range cases {
		embErr := func() error { _, err := emb.Exec(tc.sql); return err }()
		if embErr == nil {
			t.Fatalf("embedded %q: expected error", tc.sql)
		}
		if got := engine.ErrorCode(embErr); got != tc.code {
			t.Fatalf("embedded %q: code %q want %q", tc.sql, got, tc.code)
		}
		_, cliErr := c.Exec(tc.sql)
		if cliErr == nil {
			t.Fatalf("client %q: expected error", tc.sql)
		}
		var ee *engine.Error
		if !errors.As(cliErr, &ee) {
			t.Fatalf("client %q: error is %T, not *engine.Error", tc.sql, cliErr)
		}
		if engine.ErrorCode(cliErr) != engine.ErrorCode(embErr) {
			t.Fatalf("client %q: code %q, embedded %q", tc.sql, engine.ErrorCode(cliErr), engine.ErrorCode(embErr))
		}
		if cliErr.Error() != embErr.Error() {
			t.Fatalf("client %q: message %q, embedded %q", tc.sql, cliErr.Error(), embErr.Error())
		}
	}

	// The connection survives statement errors: a good statement still runs.
	res, err := c.Exec(`SELECT count(*) FROM mt`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, [][]types.Datum{{int64(0)}}) {
		t.Fatalf("post-error query: %#v", res.Rows)
	}
}

// A streaming Query delivers the header before the rows and keeps the
// connection busy until drained.
func TestClientStreaming(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE s (id INTEGER)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Exec(`INSERT INTO s VALUES (1)`); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := c.Query(`SELECT * FROM s`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Columns(); len(got) != 1 || got[0] != "id" {
		t.Fatalf("columns: %v", got)
	}
	if _, err := c.Query(`SELECT * FROM s`); engine.ErrorCode(err) != engine.CodeSessionBusy {
		t.Fatalf("second Query while streaming: %v", err)
	}
	n := 0
	for {
		b, err := rows.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		n += len(b)
	}
	if n != 50 {
		t.Fatalf("streamed rows: %d", n)
	}
	if _, err := c.Exec(`SELECT count(*) FROM s`); err != nil {
		t.Fatalf("exec after stream: %v", err)
	}
}

// SET state travels per connection; SHOW over the wire reports the
// connection's own values.
func TestClientSessionVars(t *testing.T) {
	_, addr := startServer(t)
	a, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := a.Exec(`SET ISOLATION TO SNAPSHOT`); err != nil {
		t.Fatal(err)
	}
	showIso := func(c *Conn) string {
		res, err := c.Exec(`SHOW ISOLATION`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][1].(string)
	}
	if got := showIso(a); got != "SNAPSHOT" {
		t.Fatalf("conn a isolation: %q", got)
	}
	if got := showIso(b); got != "COMMITTED READ" {
		t.Fatalf("conn b isolation: %q", got)
	}
}

package client

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/types"
)

// The prepared-statement client API end to end: Prepare, positional
// execute, Close, and agreement with the embedded session on every result.
func TestClientPreparedRoundTrip(t *testing.T) {
	e, addr := startServer(t)
	c, err := Dial(addr, bladedRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(empDepDDL); err != nil {
		t.Fatal(err)
	}

	stmt, err := c.Prepare("byemp", `SELECT Department FROM EmpDep WHERE Employee = $1`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams: %d", stmt.NumParams())
	}

	emb := e.NewSession()
	defer emb.Close()
	for _, emp := range []string{"Rita", "Tom", "Nobody"} {
		got, err := stmt.Exec(emp)
		if err != nil {
			t.Fatalf("Exec(%s): %v", emp, err)
		}
		wantRes, err := emb.Exec(`SELECT Department FROM EmpDep WHERE Employee = '` + emp + `'`)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(wantRes.Rows) {
			t.Fatalf("%s: client %d rows, embedded %d", emp, len(got.Rows), len(wantRes.Rows))
		}
		for i := range got.Rows {
			if got.Rows[i][0] != wantRes.Rows[i][0] {
				t.Fatalf("%s row %d: %v vs %v", emp, i, got.Rows[i], wantRes.Rows[i])
			}
		}
	}

	// A streaming prepared Query delivers a plan, under SET EXPLAIN ON, and
	// keeps the busy check.
	if _, err := c.Exec(`SET EXPLAIN ON`); err != nil {
		t.Fatal(err)
	}
	rows, err := stmt.Query("Rita")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Plan() == "" {
		t.Fatal("prepared Query carries no plan text")
	}
	if _, err := stmt.Query("Tom"); engine.ErrorCode(err) != engine.CodeSessionBusy {
		t.Fatalf("Query while streaming: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	if err := stmt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec("Rita"); engine.ErrorCode(err) != engine.CodeUndefinedObject {
		t.Fatalf("execute after Close: %v", err)
	}
	// The connection survives the statement error.
	if _, err := c.Exec(`SELECT count(*) FROM EmpDep`); err != nil {
		t.Fatalf("exec after prepared error: %v", err)
	}
}

// An opaque blade value travels as an argument: the client's registry
// encodes it through Send, the server re-resolves it by name, and the
// GR-tree qualification binds it — full-fidelity client→server direction.
func TestClientPreparedOpaqueArg(t *testing.T) {
	_, addr := startServer(t)
	reg := bladedRegistry(t)
	c, err := Dial(addr, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(empDepDDL); err != nil {
		t.Fatal(err)
	}

	stmt, err := c.Prepare("overlap", `SELECT Employee FROM EmpDep WHERE Overlaps(Time_Extent, $1)`)
	if err != nil {
		t.Fatal(err)
	}
	ot, ok := reg.Lookup("GRT_TimeExtent_t")
	if !ok {
		t.Fatal("blade type missing client-side")
	}
	data, err := ot.Support.Input("3/97, UC, 3/97, FOREVER")
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec(types.Opaque{TypeID: ot.ID, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, r := range res.Rows {
		found[r[0].(string)] = true
	}
	if !found["Rita"] || !found["Tom"] {
		t.Fatalf("overlap query rows: %#v", res.Rows)
	}
}

// Every prepared-statement failure arrives as a typed *engine.Error with
// the same SQLSTATE the embedded API raises.
func TestClientPreparedErrorMatrix(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE pm (id INTEGER)`); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Prepare("bad", `SELECT FROM WHERE`); err == nil {
		t.Fatal("Prepare of garbage must fail")
	}
	if _, err := c.Prepare("ddl", `CREATE TABLE x (id INTEGER)`); engine.ErrorCode(err) != engine.CodeFeature {
		t.Fatalf("Prepare DDL: %v", err)
	}

	stmt, err := c.Prepare("q", `SELECT id FROM pm WHERE id = $1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare("q", `SELECT id FROM pm`); engine.ErrorCode(err) != engine.CodeInvalidParameter {
		t.Fatalf("duplicate Prepare: %v", err)
	}
	if _, err := stmt.Exec(int64(1), int64(2)); engine.ErrorCode(err) != engine.CodeCardinality {
		t.Fatalf("Exec arity: %v", err)
	}

	// Deallocation through plain SQL is visible to the wire handle: the
	// session owns the statement either way.
	if _, err := c.Exec(`DEALLOCATE q`); err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(int64(1)); engine.ErrorCode(err) != engine.CodeUndefinedObject {
		t.Fatalf("Exec after SQL DEALLOCATE: %v", err)
	}

	// The connection stayed healthy through the whole matrix.
	if _, err := c.Exec(`SELECT count(*) FROM pm`); err != nil {
		t.Fatalf("post-matrix exec: %v", err)
	}
}

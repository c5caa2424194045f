package engine

import (
	"strings"
	"testing"

	"repro/internal/lock"
	"repro/internal/wal"
)

// The uniform Get/Set surface must round-trip every variable and reject
// unknown names and bad values with CodeInvalidParameter.
func TestSessionVarsGetSet(t *testing.T) {
	v := NewSessionVars()
	if v.Isolation() != lock.CommittedRead || v.Commit() != wal.CommitGroup {
		t.Fatalf("defaults: iso=%v commit=%v", v.Isolation(), v.Commit())
	}
	cases := []struct{ name, set, want string }{
		{"isolation", "SNAPSHOT", "SNAPSHOT"},
		{"isolation", "repeatable read", "REPEATABLE READ"},
		{"commit", "async", "ASYNC"},
		{"commit", "SYNC", "SYNC"},
		{"parallel", "0", "0"},
		{"explain", "ON", "ON"},
		{"EXPLAIN", "off", "OFF"},
		{"trace.grt", "2", "2"},
		{"TRACE.GRT", "3", "3"}, // names are case-insensitive
	}
	for _, c := range cases {
		if _, err := v.Set(c.name, c.set); err != nil {
			t.Fatalf("Set(%s, %s): %v", c.name, c.set, err)
		}
		got, err := v.Get(c.name)
		if err != nil {
			t.Fatalf("Get(%s): %v", c.name, err)
		}
		if got != c.want {
			t.Fatalf("Get(%s) = %q, want %q", c.name, got, c.want)
		}
	}
	for _, bad := range [][2]string{
		{"isolation", "CHAOS"},
		{"commit", "EVENTUALLY"},
		{"parallel", "many"},
		{"explain", "1"},
		{"trace.grt", "-1"},
		{"bogus", "1"},
	} {
		_, err := v.Set(bad[0], bad[1])
		if ErrorCode(err) != CodeInvalidParameter {
			t.Fatalf("Set(%s, %s): err %v, want CodeInvalidParameter", bad[0], bad[1], err)
		}
	}
	if _, err := v.Get("bogus"); ErrorCode(err) != CodeInvalidParameter {
		t.Fatalf("Get(bogus): %v", err)
	}
}

// List is the SHOW ALL backing: stable order, touched trace classes last.
func TestSessionVarsList(t *testing.T) {
	v := NewSessionVars()
	v.SetTrace("GRT", 2)
	kvs := v.List()
	if len(kvs) != 6 {
		t.Fatalf("List: %v", kvs)
	}
	names := make([]string, len(kvs))
	for i, kv := range kvs {
		names[i] = kv.Name
	}
	want := "commit explain isolation parallel plan_cache trace.grt"
	if strings.Join(names, " ") != want {
		t.Fatalf("List order %q, want %q", strings.Join(names, " "), want)
	}
}

// SHOW must read back exactly what SET wrote, per session.
func TestShowStatement(t *testing.T) {
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()

	exec(t, s, `SET ISOLATION TO SNAPSHOT`)
	exec(t, s, `SET COMMIT ASYNC`)
	res := exec(t, s, `SHOW ISOLATION`)
	if len(res.Rows) != 1 || res.Rows[0][1] != "SNAPSHOT" {
		t.Fatalf("SHOW ISOLATION: %v", res.Rows)
	}
	res = exec(t, s, `SHOW COMMIT`)
	if len(res.Rows) != 1 || res.Rows[0][1] != "ASYNC" {
		t.Fatalf("SHOW COMMIT: %v", res.Rows)
	}
	res = exec(t, s, `SHOW ALL`)
	if len(res.Rows) < 3 || len(res.Columns) != 2 {
		t.Fatalf("SHOW ALL: %v", res.Rows)
	}

	// Sessions are independent: a second session still sees defaults.
	s2 := e.NewSession()
	defer s2.Close()
	res = exec(t, s2, `SHOW ISOLATION`)
	if res.Rows[0][1] != "COMMITTED READ" {
		t.Fatalf("second session SHOW ISOLATION: %v", res.Rows)
	}

	if _, err := s.Exec(`SHOW WIDGETS`); ErrorCode(err) != CodeInvalidParameter {
		t.Fatalf("SHOW WIDGETS: %v", err)
	}
}

// Every SET spelling answers with its confirmation message; an unknown name
// or a value its variable does not accept is CodeInvalidParameter, and a SET
// with no value does not parse.
func TestSetStatementMessages(t *testing.T) {
	forceParallel(t)
	e := memEngine(t)
	s := e.NewSession()
	defer s.Close()

	for _, c := range []struct{ sql, msg string }{
		{`SET ISOLATION TO REPEATABLE READ`, "isolation set to REPEATABLE READ"},
		{`SET ISOLATION dirty read`, "isolation set to DIRTY READ"},
		{`SET ISOLATION SNAPSHOT`, "isolation set to SNAPSHOT"},
		{`SET COMMIT TO sync`, "commit mode set to SYNC"},
		{`SET COMMIT GROUP`, "commit mode set to GROUP"},
		{`SET PARALLEL TO 2`, "parallel degree set to 2"},
		{`SET PARALLEL 1`, "parallel scans disabled"},
		{`SET PLAN_CACHE OFF`, "plan cache off"},
		{`SET PLAN_CACHE TO on`, "plan cache on"},
		{`SET EXPLAIN ON`, "explain on"},
		{`SET EXPLAIN TO off`, "explain off"},
		{`SET TRACE grt TO 2`, `trace class "grt" set to level 2`},
		{`SET TRACE Idx 0`, `trace class "Idx" set to level 0`},
	} {
		if res := exec(t, s, c.sql); res.Message != c.msg {
			t.Errorf("%s: message %q, want %q", c.sql, res.Message, c.msg)
		}
	}
	for _, bad := range []string{
		`SET PARALLEL TO x`,
		`SET PARALLEL 2.5`,
		`SET FOO TO 1`,
		`SET ISOLATION TO bogus`,
		`SET COMMIT EVENTUALLY`,
		`SET PLAN_CACHE maybe`,
		`SET EXPLAIN sometimes`,
		`SET TRACE grt TO high`,
	} {
		if _, err := s.Exec(bad); ErrorCode(err) != CodeInvalidParameter {
			t.Errorf("%s: %v, want %s", bad, err, CodeInvalidParameter)
		}
	}
	for _, bad := range []string{`SET ISOLATION TO`, `SET PARALLEL -1`} {
		if _, err := s.Exec(bad); err == nil || ErrorCode(err) != "" {
			t.Errorf("%s: %v, want a syntax error", bad, err)
		}
	}
}

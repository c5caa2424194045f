package main

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/blades/grtblade"
	"repro/internal/chronon"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/types"
)

// replScript is the session both shell tests type.
const replScript = `CREATE TABLE Employees (Name VARCHAR(32),
  Time_Extent GRT_TimeExtent_t);
INSERT INTO Employees VALUES ('Jane', '5/97, UC, 5/97, NOW');
.help
SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '9/98, UC, 9/98, NOW');
.advance 365
SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '9/98, UC, 9/98, NOW');
.profile on
SELECT Name FROM Nope;
SELECT COUNT(*) FROM Employees;
.profile off
.clock 1/99
.bogus
.quit
SELECT Name FROM Employees;
`

// TestREPLEmbedded drives the shell loop with a scripted session against an
// embedded engine: a statement split over two lines, the now-relative match
// appearing after .advance, .profile on|off, an error with its SQLSTATE, an
// unknown meta command, and .quit ending the loop before the last line.
func TestREPLEmbedded(t *testing.T) {
	clock := chronon.NewVirtualClock(chronon.MustParse("9/97"))
	e, err := engine.Open(engine.Options{Clock: clock, Types: grtblade.RegisterTypes})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := grtblade.Register(e); err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	defer s.Close()
	var out strings.Builder
	repl(strings.NewReader(replScript), &out, embeddedExec(e, s), clockMeta(&out, clock))
	got := out.String()
	for _, want := range []string{
		"sql> ...> ",
		".profile on|off | .quit\n.clock [date] | .advance <days>\n",
		"(0 row(s))",
		"current time: 1998-09-01",
		"Jane",
		"statement profiling on\n",
		"error [SQLSTATE 42P01]:",
		"profile: ",
		"statement profiling off\n",
		"current time: 1999-01-01",
		"unknown meta command; .help lists them\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "profile: "); n != 1 {
		t.Errorf("%d statement profiles printed, want 1 (the COUNT(*) under .profile on):\n%s", n, got)
	}
	if n := strings.Count(got, "Jane"); n != 1 {
		t.Errorf("Jane printed %d times, want once (.quit ends the loop before the last SELECT):\n%s", n, got)
	}
}

// TestREPLRemote types the same session into a remote shell connected to an
// in-process server. The clock is the server's, so .advance changes nothing
// and both SELECTs find no row. Exactly one profile is printed, the COUNT(*)
// under .profile on: the profile text comes from the server, which sends it
// only to a session whose SET EXPLAIN ON reached it.
func TestREPLRemote(t *testing.T) {
	e, err := engine.Open(engine.Options{Clock: chronon.NewVirtualClock(chronon.MustParse("9/97"))})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := grtblade.Register(e); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(e, server.Options{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	reg := types.NewRegistry()
	if err := grtblade.RegisterTypes(reg); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(ln.Addr().String(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var out strings.Builder
	repl(strings.NewReader(replScript), &out, remoteExec(c), remoteMeta(&out))
	got := out.String()
	for _, want := range []string{
		"sql> ...> ",
		".profile on|off | .quit\n(.clock/.advance need an embedded shell: the clock is server-side)\n",
		"the current time lives in the server",
		"statement profiling on\n",
		"error [SQLSTATE 42P01]:",
		"profile: ",
		"statement profiling off\n",
		"unknown meta command; .help lists them\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "(0 row(s))"); n != 2 {
		t.Errorf("%d empty results, want 2 (the server's clock does not advance):\n%s", n, got)
	}
	if n := strings.Count(got, "profile: "); n != 1 {
		t.Errorf("%d statement profiles printed, want 1 (the COUNT(*) under .profile on):\n%s", n, got)
	}
}

package main

import (
	"strings"
	"testing"

	"repro/internal/blades/grtblade"
	"repro/internal/chronon"
	"repro/internal/engine"
)

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
	script := `CREATE TABLE Employees (Name VARCHAR(32),
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
	var out strings.Builder
	repl(strings.NewReader(script), &out, embeddedExec(e, s), clockMeta(&out, clock))
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

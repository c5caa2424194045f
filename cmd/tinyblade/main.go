// Command tinyblade is the interactive SQL shell of the engine, with the
// GR-tree and R*-tree DataBlades registered — the environment in which the
// paper's examples run verbatim:
//
//	CREATE SBSPACE spc;
//	CREATE TABLE Employees (Name VARCHAR(32), Time_Extent GRT_TimeExtent_t);
//	CREATE INDEX grt_index ON Employees(Time_Extent grt_opclass) USING grtree_am IN spc;
//	SELECT Name FROM Employees WHERE Overlaps(Time_Extent, '12/10/95, UC, 12/10/95, NOW');
//
// Because now-relative data grows with the current time, the shell exposes
// the virtual clock through meta commands:
//
//	.clock            print the current time
//	.clock 3/98       set the current time
//	.advance 30       advance the clock by 30 days
//	.profile on|off   print each statement's execution profile (SET EXPLAIN ON|OFF)
//	.quit             exit
//
// Observability: EXPLAIN <stmt> prints the access plan, SET TRACE <class>
// <level> turns on mi trace output (written to stdout), and the SYSPROFILE /
// SYSPTPROF virtual tables serve the live engine counters. Errors print
// their SQLSTATE-style code.
//
// Flags: -dir <path> opens a persistent database (default: in-memory);
// -clock <date> sets the starting current time; -connect <addr> attaches to
// a running tinybladed over the wire protocol instead of embedding the
// engine — same SQL, same rendering, but the clock lives server-side, so
// .clock/.advance are unavailable remotely.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/blades/grtblade"
	"repro/internal/blades/rstblade"
	"repro/internal/chronon"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/types"
)

func main() {
	var (
		dir     = flag.String("dir", "", "database directory (empty = in-memory)")
		start   = flag.String("clock", "", "starting current time (default: today)")
		connect = flag.String("connect", "", "tinybladed address to connect to (instead of embedding the engine)")
	)
	flag.Parse()
	var err error
	if *connect != "" {
		err = remoteShell(*connect)
	} else {
		err = embeddedShell(*dir, *start)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tinyblade:", err)
		os.Exit(1)
	}
}

// embeddedShell opens the engine in-process, registers both blades, and runs
// the REPL with the virtual clock's meta commands.
func embeddedShell(dir, start string) error {
	now := chronon.SystemClock{}.Now()
	if start != "" {
		t, err := chronon.Parse(start)
		if err != nil {
			return err
		}
		now = t
	}
	clock := chronon.NewVirtualClock(now)
	e, err := engine.Open(engine.Options{Dir: dir, Clock: clock, Types: grtblade.RegisterTypes, TraceWriter: os.Stdout})
	if err != nil {
		return err
	}
	defer e.Close()
	if err := grtblade.Register(e); err != nil {
		return err
	}
	if err := rstblade.Register(e); err != nil {
		return err
	}
	s := e.NewSession()
	defer s.Close()
	fmt.Printf("tinyblade — GR-tree DataBlade shell (current time %v)\n", clock.Now())
	fmt.Println(`type SQL terminated by ';', or ".help" for meta commands`)
	repl(os.Stdin, os.Stdout, embeddedExec(e, s), clockMeta(os.Stdout, clock))
	return nil
}

// embeddedExec runs a script on an in-process session. The profile is
// rendered, as the server renders it, only under SET EXPLAIN ON.
func embeddedExec(e *engine.Engine, s *engine.Session) func(string) (string, string, error) {
	return func(src string) (string, string, error) {
		res, err := s.ExecScript(src)
		if err != nil {
			return "", "", err
		}
		profile := ""
		if res != nil && res.Stats != nil && s.Vars().Explain() {
			profile = res.Stats.String()
		}
		return e.FormatResult(res), profile, nil
	}
}

// remoteShell is the -connect REPL: the same loop against a tinybladed
// server. The client registry carries the blade's type support functions,
// so opaque extents decode and render exactly as they do embedded.
func remoteShell(addr string) error {
	reg := types.NewRegistry()
	if err := grtblade.RegisterTypes(reg); err != nil {
		return err
	}
	c, err := client.Dial(addr, reg)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("connected to %s — %s\n", addr, c.Banner())
	fmt.Println(`type SQL terminated by ';', or ".help" for meta commands`)
	repl(os.Stdin, os.Stdout, remoteExec(c), remoteMeta(os.Stdout))
	return nil
}

// remoteExec runs a script over a client connection.
func remoteExec(c *client.Conn) func(string) (string, string, error) {
	return func(src string) (string, string, error) {
		res, err := c.Exec(src)
		if err != nil {
			return "", "", err
		}
		return c.Format(res), res.Profile, nil
	}
}

// remoteMeta is the remote shell's meta commands: the clock ones only say
// that the clock is the server's.
func remoteMeta(out io.Writer) func([]string) bool {
	return func(fields []string) bool {
		switch fields[0] {
		case ".help":
			fmt.Fprintln(out, "(.clock/.advance need an embedded shell: the clock is server-side)")
		case ".clock", ".advance":
			fmt.Fprintln(out, "the current time lives in the server; restart tinybladed with -clock to change it")
		default:
			return false
		}
		return true
	}
}

// repl is the shell loop of both modes: it buffers lines until one ends in
// ';', runs the buffer through exec, and prints the result text (plus the
// statement profile, which exec returns under SET EXPLAIN ON) or the error
// with its SQLSTATE code. A line starting with '.' outside a statement is a
// meta command: .quit, .profile [on|off] (SET EXPLAIN ON|OFF through exec)
// and .help are handled here, and every command, .help included, goes to the
// mode's meta, which reports whether it knew it. The loop ends at .quit or
// the end of in.
func repl(in io.Reader, out io.Writer, exec func(src string) (text, profile string, err error), meta func(fields []string) bool) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	profile := false
	for {
		if pending.Len() == 0 {
			fmt.Fprint(out, "sql> ")
		} else {
			fmt.Fprint(out, "...> ")
		}
		if !scanner.Scan() {
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, ".") {
			fields := strings.Fields(trimmed)
			switch fields[0] {
			case ".quit", ".q", ".exit":
				return
			case ".profile":
				on := !profile
				if len(fields) == 2 && (fields[1] == "on" || fields[1] == "off") {
					on = fields[1] == "on"
				}
				state := "off"
				if on {
					state = "on"
				}
				if _, _, err := exec("SET EXPLAIN " + state + ";"); err != nil {
					fmt.Fprintln(out, "error:", err)
					continue
				}
				profile = on
				fmt.Fprintln(out, "statement profiling", state)
			case ".help":
				fmt.Fprintln(out, ".profile on|off | .quit")
				meta(fields)
			default:
				if !meta(fields) {
					fmt.Fprintln(out, "unknown meta command; .help lists them")
				}
			}
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if !strings.HasSuffix(trimmed, ";") {
			continue
		}
		text, prof, err := exec(pending.String())
		pending.Reset()
		if code := engine.ErrorCode(err); code != "" {
			fmt.Fprintf(out, "error [SQLSTATE %s]: %v\n", code, err)
		} else if err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprint(out, text)
			if prof != "" {
				fmt.Fprintln(out, "profile:", prof)
			}
		}
	}
}

// clockMeta is the embedded shell's meta commands: .clock and .advance read
// and move the virtual clock.
func clockMeta(out io.Writer, clock *chronon.VirtualClock) func([]string) bool {
	return func(fields []string) bool {
		switch fields[0] {
		case ".help":
			fmt.Fprintln(out, ".clock [date] | .advance <days>")
		case ".clock":
			if len(fields) > 1 {
				t, err := chronon.Parse(fields[1])
				if err != nil {
					fmt.Fprintln(out, "error:", err)
					break
				}
				clock.Set(t)
			}
			fmt.Fprintln(out, "current time:", clock.Now())
		case ".advance":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: .advance <days>")
				break
			}
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			clock.Advance(n)
			fmt.Fprintln(out, "current time:", clock.Now())
		default:
			return false
		}
		return true
	}
}

package engine

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/lock"
	"repro/internal/wal"
)

// SessionVars is a session's SET-able state — isolation level, commit
// durability mode, parallel scan degree, and trace levels — behind one
// uniform surface. Before the network server, each knob was a private
// Session field with its own ad-hoc accessor; the wire protocol needs the
// state to be enumerable (SHOW ALL) and settable by name, and the REPL, the
// server, and tests now all go through this same API. The struct is
// self-contained (no Session or Engine reference), so a server can
// pre-build vars for a connection before its session exists.
//
// Methods are safe for concurrent use: a server's monitoring path may list
// a session's vars while the session's own goroutine executes a SET.
type SessionVars struct {
	mu        sync.Mutex
	iso       lock.IsolationLevel
	commit    wal.CommitMode
	parallel  int
	planCache bool
	explain   bool
	trace     map[string]int // by lower-cased trace class
}

// NewSessionVars returns the default session state: COMMITTED READ
// isolation, GROUP commit, serial scans, plan cache on, EXPLAIN off, no
// tracing.
func NewSessionVars() *SessionVars {
	return &SessionVars{iso: lock.CommittedRead, commit: wal.CommitGroup, planCache: true}
}

// Var is one name/value pair of the session state (SHOW ALL's row shape).
type Var struct {
	Name  string
	Value string
}

// Isolation returns the session's isolation level.
func (v *SessionVars) Isolation() lock.IsolationLevel {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.iso
}

// ParseIsolation maps a SET ISOLATION level name to its level.
func ParseIsolation(name string) (lock.IsolationLevel, bool) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "DIRTY READ":
		return lock.DirtyRead, true
	case "COMMITTED READ":
		return lock.CommittedRead, true
	case "REPEATABLE READ":
		return lock.RepeatableRead, true
	case "SNAPSHOT":
		return lock.Snapshot, true
	}
	return 0, false
}

// Commit returns the session's commit durability mode.
func (v *SessionVars) Commit() wal.CommitMode {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.commit
}

// Parallel returns the SET PARALLEL degree (0/1 = serial scans).
func (v *SessionVars) Parallel() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.parallel
}

// PlanCache reports whether plan caching is enabled for the session.
func (v *SessionVars) PlanCache() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.planCache
}

// Explain reports whether the session asked for each statement's plan and
// profile text (SET EXPLAIN ON, Informix's statement): the network server
// renders and sends them only then.
func (v *SessionVars) Explain() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.explain
}

// TraceLevel returns the session's requested level for a trace class (0
// when the class was never set).
func (v *SessionVars) TraceLevel(class string) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.trace[strings.ToLower(class)]
}

// SetTrace records the session's requested level for a trace class. The
// engine's mi tracer remains engine-wide (SET TRACE applies to blade trace
// output from any session); the vars carry what this session asked for so
// SHOW reports it.
func (v *SessionVars) SetTrace(class string, level int) {
	v.mu.Lock()
	if v.trace == nil {
		v.trace = make(map[string]int)
	}
	v.trace[strings.ToLower(class)] = level
	v.mu.Unlock()
}

// sessionVar is one fixed variable: how SHOW reads it, and how SET assigns
// it from the statement's value words, returning SET's confirmation message.
type sessionVar struct {
	name string
	get  func(*SessionVars) string
	set  func(v *SessionVars, value string) (string, error)
}

// sessionVars lists the fixed variables in name order, SHOW ALL's order.
// Trace classes ("trace.<class>") are not listed: any class name is valid.
var sessionVars = []sessionVar{
	{"commit", func(v *SessionVars) string { return v.Commit().String() },
		func(v *SessionVars, value string) (string, error) {
			m, ok := wal.ParseCommitMode(strings.ToUpper(value))
			if !ok {
				return "", errf(CodeInvalidParameter, "unknown commit mode %q (want SYNC, GROUP or ASYNC)", value)
			}
			v.mu.Lock()
			v.commit = m
			v.mu.Unlock()
			return "commit mode set to " + m.String(), nil
		}},
	{"explain", func(v *SessionVars) string { return onOff(v.Explain()) },
		func(v *SessionVars, value string) (string, error) {
			on, err := parseOnOff("explain", value)
			if err != nil {
				return "", err
			}
			v.mu.Lock()
			v.explain = on
			v.mu.Unlock()
			return "explain " + strings.ToLower(onOff(on)), nil
		}},
	{"isolation", func(v *SessionVars) string { return v.Isolation().String() },
		func(v *SessionVars, value string) (string, error) {
			l, ok := ParseIsolation(value)
			if !ok {
				return "", errf(CodeInvalidParameter, "unknown isolation level %q", value)
			}
			v.mu.Lock()
			v.iso = l
			v.mu.Unlock()
			return "isolation set to " + l.String(), nil
		}},
	// The degree is capped at GOMAXPROCS: the session never offers more scan
	// workers than the host can run. Below 2, scans are serial.
	{"parallel", func(v *SessionVars) string { return strconv.Itoa(v.Parallel()) },
		func(v *SessionVars, value string) (string, error) {
			deg, err := strconv.Atoi(value)
			if err != nil || deg < 0 {
				return "", errf(CodeInvalidParameter, "bad parallel degree %q", value)
			}
			deg = min(deg, runtime.GOMAXPROCS(0))
			v.mu.Lock()
			v.parallel = deg
			v.mu.Unlock()
			if deg < 2 {
				return "parallel scans disabled", nil
			}
			return fmt.Sprintf("parallel degree set to %d", deg), nil
		}},
	// OFF makes the session bypass the shared plan cache and replan every
	// EXECUTE — the A/B knob for measuring planning cost.
	{"plan_cache", func(v *SessionVars) string { return onOff(v.PlanCache()) },
		func(v *SessionVars, value string) (string, error) {
			on, err := parseOnOff("plan_cache", value)
			if err != nil {
				return "", err
			}
			v.mu.Lock()
			v.planCache = on
			v.mu.Unlock()
			return "plan cache " + strings.ToLower(onOff(on)), nil
		}},
}

// parseOnOff reads a switch variable's value.
func parseOnOff(name, value string) (bool, error) {
	on := strings.EqualFold(value, "ON")
	if !on && !strings.EqualFold(value, "OFF") {
		return false, errf(CodeInvalidParameter, "bad %s value %q (want ON or OFF)", name, value)
	}
	return on, nil
}

func onOff(on bool) string {
	if on {
		return "ON"
	}
	return "OFF"
}

// lookupVar finds a fixed variable by name, case-insensitively.
func lookupVar(name string) (*sessionVar, error) {
	for i := range sessionVars {
		if strings.EqualFold(sessionVars[i].name, name) {
			return &sessionVars[i], nil
		}
	}
	return nil, errf(CodeInvalidParameter, "unknown session variable %q", name)
}

// traceClass splits a "trace.<class>" name (any case).
func traceClass(name string) (string, bool) {
	const prefix = "trace."
	if len(name) < len(prefix) || !strings.EqualFold(name[:len(prefix)], prefix) {
		return "", false
	}
	return name[len(prefix):], true
}

// Set assigns a variable by name — a fixed variable or "trace.<class>" — and
// returns the confirmation message SET prints. Values are the spellings the
// SET statement passes: words, identifiers upper-cased. It is the only place
// that knows the names and checks the values; an unknown name or a bad value
// is CodeInvalidParameter.
func (v *SessionVars) Set(name, value string) (string, error) {
	name, value = strings.TrimSpace(name), strings.TrimSpace(value)
	if class, ok := traceClass(name); ok {
		lvl, err := strconv.Atoi(value)
		if err != nil || lvl < 0 {
			return "", errf(CodeInvalidParameter, "bad trace level %q", value)
		}
		v.SetTrace(class, lvl)
		return fmt.Sprintf("trace class %q set to level %d", class, lvl), nil
	}
	sv, err := lookupVar(name)
	if err != nil {
		return "", err
	}
	return sv.set(v, value)
}

// Get returns a variable's value by name (same names Set accepts).
func (v *SessionVars) Get(name string) (string, error) {
	name = strings.TrimSpace(name)
	if class, ok := traceClass(name); ok {
		return strconv.Itoa(v.TraceLevel(class)), nil
	}
	sv, err := lookupVar(name)
	if err != nil {
		return "", err
	}
	return sv.get(v), nil
}

// List returns every variable as name/value pairs, sorted by name — the
// fixed variables first, then any trace classes the session touched. SHOW
// ALL renders exactly this.
func (v *SessionVars) List() []Var {
	out := make([]Var, 0, len(sessionVars))
	for _, sv := range sessionVars {
		out = append(out, Var{sv.name, sv.get(v)})
	}
	v.mu.Lock()
	classes := make([]string, 0, len(v.trace))
	for c := range v.trace {
		classes = append(classes, c)
	}
	v.mu.Unlock()
	sort.Strings(classes)
	for _, c := range classes {
		out = append(out, Var{"trace." + c, strconv.Itoa(v.TraceLevel(c))})
	}
	return out
}

// String renders the state compactly (diagnostics).
func (v *SessionVars) String() string {
	parts := make([]string, 0, 4)
	for _, kv := range v.List() {
		parts = append(parts, fmt.Sprintf("%s=%s", kv.Name, kv.Value))
	}
	return strings.Join(parts, " ")
}

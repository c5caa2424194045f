// Package types implements the engine's type system: the built-in SQL types
// and the opaque (user-defined) data types of Step 1 of the paper's
// DataBlade recipe, each with its type support functions — text input/output,
// binary send/receive, and text-file import/export (Section 6.3) — plus the
// row codec heap tables store tuples with.
package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/chronon"
)

// Kind classifies a type.
type Kind int

const (
	// KInt is a 64-bit integer (SQL INTEGER).
	KInt Kind = iota + 1
	// KFloat is a 64-bit float (SQL FLOAT).
	KFloat
	// KVarchar is a variable-length string (SQL VARCHAR / TEXT).
	KVarchar
	// KBool is SQL BOOLEAN.
	KBool
	// KDate is a day-granularity date (SQL DATE), a chronon.Instant.
	KDate
	// KOpaque is a user-defined opaque type interpreted only by its support
	// functions.
	KOpaque
)

func (k Kind) String() string {
	switch k {
	case KInt:
		return "INTEGER"
	case KFloat:
		return "FLOAT"
	case KVarchar:
		return "VARCHAR"
	case KBool:
		return "BOOLEAN"
	case KDate:
		return "DATE"
	case KOpaque:
		return "OPAQUE"
	}
	return "?"
}

// Type describes a column or argument type.
type Type struct {
	Kind     Kind
	Name     string // canonical name; for opaque types the registered name
	OpaqueID uint32 // for KOpaque
}

// Builtin returns the built-in type of the given kind.
func Builtin(k Kind) Type { return Type{Kind: k, Name: k.String()} }

func (t Type) String() string { return t.Name }

// Equal reports type identity.
func (t Type) Equal(o Type) bool {
	return t.Kind == o.Kind && (t.Kind != KOpaque || t.OpaqueID == o.OpaqueID)
}

// Datum is a runtime value: nil, int64, float64, string, bool,
// chronon.Instant, or Opaque.
type Datum any

// Opaque is a value of a user-defined opaque type: raw bytes interpreted by
// the type's support functions only — the DBMS does not look inside
// (Section 5.1).
type Opaque struct {
	TypeID uint32
	Data   []byte
}

// SupportFuncs are the type support functions of Section 6.3.
type SupportFuncs struct {
	// Input converts the textual representation (used in SQL statements)
	// to the internal structure.
	Input func(text string) ([]byte, error)
	// Output converts the internal structure to text (used in results).
	Output func(data []byte) (string, error)
	// Send converts the internal structure to the client/server wire form.
	Send func(data []byte) ([]byte, error)
	// Receive converts the wire form back to the internal structure.
	Receive func(wire []byte) ([]byte, error)
	// Import converts one LOAD-file field to the internal structure.
	Import func(text string) ([]byte, error)
	// Export converts the internal structure to a LOAD-file field.
	Export func(data []byte) (string, error)
	// Compare orders two internal structures (-1, 0, +1). Optional: types
	// whose byte encoding does not sort the way the value does (signed
	// fields under a big-endian codec, say) register one so MIN/MAX and
	// other value-ordered operations agree with the type's semantics;
	// without it opaque values compare bytewise.
	Compare func(a, b []byte) (int, error)
}

// OpaqueType is a registered user-defined type.
type OpaqueType struct {
	ID      uint32
	Name    string
	Support SupportFuncs
}

// Registry holds the known opaque types. The engine owns one.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*OpaqueType
	byID   map[uint32]*OpaqueType
	nextID uint32
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*OpaqueType), byID: make(map[uint32]*OpaqueType), nextID: 1}
}

// RegisterOpaque registers a new opaque type (CREATE OPAQUE TYPE). The
// Input and Output support functions are mandatory; missing send/receive
// and import/export functions default to the internal representation and
// the text representation respectively.
func (r *Registry) RegisterOpaque(name string, sf SupportFuncs) (*OpaqueType, error) {
	if sf.Input == nil || sf.Output == nil {
		return nil, fmt.Errorf("types: opaque type %s needs input and output support functions", name)
	}
	key := strings.ToUpper(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[key]; dup {
		return nil, fmt.Errorf("types: opaque type %s already exists", name)
	}
	if sf.Send == nil {
		sf.Send = func(d []byte) ([]byte, error) { return d, nil }
	}
	if sf.Receive == nil {
		sf.Receive = func(w []byte) ([]byte, error) { return w, nil }
	}
	if sf.Import == nil {
		sf.Import = sf.Input
	}
	if sf.Export == nil {
		sf.Export = sf.Output
	}
	ot := &OpaqueType{ID: r.nextID, Name: name, Support: sf}
	r.nextID++
	r.byName[key] = ot
	r.byID[ot.ID] = ot
	return ot, nil
}

// Lookup finds an opaque type by name (case-insensitive).
func (r *Registry) Lookup(name string) (*OpaqueType, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ot, ok := r.byName[strings.ToUpper(name)]
	return ot, ok
}

// LookupID finds an opaque type by id.
func (r *Registry) LookupID(id uint32) (*OpaqueType, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ot, ok := r.byID[id]
	return ot, ok
}

// Names lists the registered opaque type names, in registration order. A nil
// registry has none.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byID))
	for id := uint32(1); id < r.nextID; id++ {
		if ot, ok := r.byID[id]; ok {
			out = append(out, ot.Name)
		}
	}
	return out
}

// TypeByName resolves a type name: built-ins first, then opaque types.
// VARCHAR(n) collapses to VARCHAR.
func (r *Registry) TypeByName(name string) (Type, error) {
	base := strings.ToUpper(strings.TrimSpace(name))
	if i := strings.IndexByte(base, '('); i >= 0 {
		base = base[:i]
	}
	switch base {
	case "INT", "INTEGER", "SMALLINT", "BIGINT":
		return Builtin(KInt), nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL":
		return Builtin(KFloat), nil
	case "VARCHAR", "CHAR", "TEXT", "LVARCHAR":
		return Builtin(KVarchar), nil
	case "BOOLEAN", "BOOL":
		return Builtin(KBool), nil
	case "DATE", "DATETIME":
		return Builtin(KDate), nil
	case "POINTER":
		// CREATE FUNCTION grt_open(pointer) — the VII descriptor type.
		return Builtin(KInt), nil
	}
	if ot, ok := r.Lookup(base); ok {
		return Type{Kind: KOpaque, Name: ot.Name, OpaqueID: ot.ID}, nil
	}
	return Type{}, fmt.Errorf("types: unknown type %q", name)
}

// ParseLiteral converts a textual literal to a datum of the target type,
// applying the opaque type's Input support function where needed.
func (r *Registry) ParseLiteral(text string, target Type) (Datum, error) {
	switch target.Kind {
	case KInt:
		v, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("types: bad integer %q", text)
		}
		return v, nil
	case KFloat:
		v, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return nil, fmt.Errorf("types: bad float %q", text)
		}
		return v, nil
	case KVarchar:
		return text, nil
	case KBool:
		switch strings.ToUpper(strings.TrimSpace(text)) {
		case "T", "TRUE", "1":
			return true, nil
		case "F", "FALSE", "0":
			return false, nil
		}
		return nil, fmt.Errorf("types: bad boolean %q", text)
	case KDate:
		return chronon.Parse(text)
	case KOpaque:
		ot, ok := r.LookupID(target.OpaqueID)
		if !ok {
			return nil, fmt.Errorf("types: unregistered opaque type id %d", target.OpaqueID)
		}
		data, err := ot.Support.Input(text)
		if err != nil {
			return nil, err
		}
		return Opaque{TypeID: ot.ID, Data: data}, nil
	}
	return nil, fmt.Errorf("types: cannot parse literal for %v", target)
}

// ImportLiteral converts one LOAD-file field to a datum of the target type,
// using the opaque type's Import support function (Section 6.3's text-file
// import). An empty field is NULL.
func (r *Registry) ImportLiteral(text string, target Type) (Datum, error) {
	if strings.TrimSpace(text) == "" {
		return nil, nil
	}
	if target.Kind != KOpaque {
		return r.ParseLiteral(text, target)
	}
	ot, ok := r.LookupID(target.OpaqueID)
	if !ok {
		return nil, fmt.Errorf("types: unregistered opaque type id %d", target.OpaqueID)
	}
	data, err := ot.Support.Import(text)
	if err != nil {
		return nil, err
	}
	return Opaque{TypeID: ot.ID, Data: data}, nil
}

// CompareDatums orders two datums, preferring a registered opaque Compare
// support function over the package-level bytewise fallback. The server's
// tuple-drain MIN/MAX uses this so its ordering matches the blade's own
// value semantics exactly.
func (r *Registry) CompareDatums(a, b Datum) (int, error) {
	av, aok := a.(Opaque)
	bv, bok := b.(Opaque)
	if aok && bok && av.TypeID == bv.TypeID {
		if ot, ok := r.LookupID(av.TypeID); ok && ot.Support.Compare != nil {
			return ot.Support.Compare(av.Data, bv.Data)
		}
	}
	return Compare(a, b)
}

// Format renders a datum as text, applying the Output support function for
// opaque values.
func (r *Registry) Format(d Datum) (string, error) {
	switch v := d.(type) {
	case nil:
		return "NULL", nil
	case int64:
		return strconv.FormatInt(v, 10), nil
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64), nil
	case string:
		return v, nil
	case bool:
		if v {
			return "t", nil
		}
		return "f", nil
	case chronon.Instant:
		return v.String(), nil
	case Opaque:
		ot, ok := r.LookupID(v.TypeID)
		if !ok {
			return "", fmt.Errorf("types: unregistered opaque type id %d", v.TypeID)
		}
		return ot.Support.Output(v.Data)
	}
	return "", fmt.Errorf("types: unformattable datum %T", d)
}

// DatumType infers a datum's type (literals without context).
func DatumType(d Datum) (Type, error) {
	switch d.(type) {
	case int64:
		return Builtin(KInt), nil
	case float64:
		return Builtin(KFloat), nil
	case string:
		return Builtin(KVarchar), nil
	case bool:
		return Builtin(KBool), nil
	case chronon.Instant:
		return Builtin(KDate), nil
	case Opaque:
		return Type{Kind: KOpaque, OpaqueID: d.(Opaque).TypeID, Name: "OPAQUE"}, nil
	}
	return Type{}, errors.New("types: untyped datum")
}

// row codec ---------------------------------------------------------------

// EncodeRow serialises a row per the schema: a null bitmap followed by the
// non-null values.
func EncodeRow(schema []Type, row []Datum) ([]byte, error) {
	if len(schema) != len(row) {
		return nil, fmt.Errorf("types: row arity %d != schema arity %d", len(row), len(schema))
	}
	nulls := make([]byte, (len(row)+7)/8)
	out := []byte{byte(len(row))}
	out = append(out, nulls...)
	for i, d := range row {
		if d == nil {
			out[1+i/8] |= 1 << (i % 8)
			continue
		}
		var err error
		out, err = appendDatum(out, schema[i], d)
		if err != nil {
			return nil, fmt.Errorf("types: column %d: %w", i, err)
		}
	}
	return out, nil
}

func appendDatum(out []byte, t Type, d Datum) ([]byte, error) {
	switch t.Kind {
	case KInt:
		v, ok := d.(int64)
		if !ok {
			return nil, fmt.Errorf("want int64, got %T", d)
		}
		return binary.BigEndian.AppendUint64(out, uint64(v)), nil
	case KFloat:
		v, ok := d.(float64)
		if !ok {
			return nil, fmt.Errorf("want float64, got %T", d)
		}
		return binary.BigEndian.AppendUint64(out, math.Float64bits(v)), nil
	case KVarchar:
		v, ok := d.(string)
		if !ok {
			return nil, fmt.Errorf("want string, got %T", d)
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(v)))
		return append(out, v...), nil
	case KBool:
		v, ok := d.(bool)
		if !ok {
			return nil, fmt.Errorf("want bool, got %T", d)
		}
		if v {
			return append(out, 1), nil
		}
		return append(out, 0), nil
	case KDate:
		v, ok := d.(chronon.Instant)
		if !ok {
			return nil, fmt.Errorf("want instant, got %T", d)
		}
		return binary.BigEndian.AppendUint64(out, uint64(v)), nil
	case KOpaque:
		v, ok := d.(Opaque)
		if !ok {
			return nil, fmt.Errorf("want opaque, got %T", d)
		}
		if v.TypeID != t.OpaqueID {
			return nil, fmt.Errorf("opaque type mismatch: value %d, column %d", v.TypeID, t.OpaqueID)
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(v.Data)))
		return append(out, v.Data...), nil
	}
	return nil, fmt.Errorf("unencodable kind %v", t.Kind)
}

// Arena is the memory one batch of rows is decoded into: one []Datum array
// that the rows' slices are carved from, and one byte array holding their
// VARCHAR and opaque bytes, which strings alias through unsafe.String and
// opaque values as capacity-capped sub-slices. Nothing is ever written to a
// part of an arena once a row holds it, and an arena is used for one batch
// and then dropped, never reset: so a row kept past its batch stays valid,
// and its consumer owes no copy. A kept row keeps its whole arena alive.
//
// The nil *Arena gives each row memory of its own.
type Arena struct {
	left   int     // rows the arena may still be asked for after the current one
	size   int     // bytes the current row's VARCHAR and opaque values hold
	datums []Datum // unused tail of the datum array
	bytes  []byte  // unused tail of the byte array
}

// NewArena returns an arena sized for rows rows (a hint: more rows get more
// memory, fewer leave it unused).
func NewArena(rows int) *Arena { return &Arena{left: rows} }

// row carves the datums of one row of n columns.
func (a *Arena) row(n int) []Datum {
	if a == nil {
		return make([]Datum, n)
	}
	if len(a.datums) < n {
		a.datums = make([]Datum, n*max(a.left, 1))
	}
	r := a.datums[:n:n]
	a.datums = a.datums[n:]
	a.left = max(a.left-1, 0)
	return r
}

// keep copies b, part of the current row, into bytes nothing else writes;
// an empty b keeps as nil. The byte array is made at the first value that
// does not fit, sized for this row and the rows still to come at this row's
// size, so one array usually serves a whole batch.
func (a *Arena) keep(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if a == nil {
		return append([]byte(nil), b...)
	}
	if len(a.bytes) < len(b) {
		a.bytes = make([]byte, max(a.size, len(b))*(a.left+1))
	}
	c := a.bytes[:len(b):len(b)]
	copy(c, b)
	a.bytes = a.bytes[len(b):]
	return c
}

// DecodeRow deserialises a row encoded by EncodeRow into arena a (nil: memory
// of the row's own). The row shares no memory with data (VARCHAR and opaque
// values are copied), so data may be a page's own bytes, read under its
// latch.
func DecodeRow(schema []Type, data []byte, a *Arena) ([]Datum, error) {
	if len(data) < 1 {
		return nil, errors.New("types: truncated row")
	}
	n := int(data[0])
	if n != len(schema) {
		return nil, fmt.Errorf("types: row arity %d != schema arity %d", n, len(schema))
	}
	if len(data) < 1+(n+7)/8 {
		return nil, errors.New("types: truncated row")
	}
	nulls := data[1 : 1+(n+7)/8]
	pos := 1 + (n+7)/8
	row := a.row(n)
	if a != nil {
		a.size = varBytes(schema, nulls, len(data)-pos)
	}
	for i := 0; i < n; i++ {
		if nulls[i/8]&(1<<(i%8)) != 0 {
			row[i] = nil
			continue
		}
		var err error
		row[i], pos, err = readDatum(schema[i], data, pos, a)
		if err != nil {
			return nil, fmt.Errorf("types: column %d: %w", i, err)
		}
	}
	return row, nil
}

// varBytes is what a row's VARCHAR and opaque values hold: the rest bytes of
// its encoding after the null bitmap, less the fixed-width values and the
// length words. It only sizes the arena; readDatum catches a malformed row.
func varBytes(schema []Type, nulls []byte, rest int) int {
	for i, t := range schema {
		if nulls[i/8]&(1<<(i%8)) != 0 {
			continue
		}
		switch t.Kind {
		case KBool:
			rest--
		case KVarchar, KOpaque:
			rest -= 4
		default:
			rest -= 8
		}
	}
	return rest
}

func readDatum(t Type, data []byte, pos int, a *Arena) (Datum, int, error) {
	need := func(k int) error {
		if pos+k > len(data) {
			return errors.New("truncated value")
		}
		return nil
	}
	switch t.Kind {
	case KInt:
		if err := need(8); err != nil {
			return nil, pos, err
		}
		return int64(binary.BigEndian.Uint64(data[pos:])), pos + 8, nil
	case KFloat:
		if err := need(8); err != nil {
			return nil, pos, err
		}
		return math.Float64frombits(binary.BigEndian.Uint64(data[pos:])), pos + 8, nil
	case KVarchar, KOpaque:
		if err := need(4); err != nil {
			return nil, pos, err
		}
		l := int(binary.BigEndian.Uint32(data[pos:]))
		pos += 4
		if err := need(l); err != nil {
			return nil, pos, err
		}
		b := a.keep(data[pos : pos+l])
		if t.Kind == KOpaque {
			return Opaque{TypeID: t.OpaqueID, Data: b}, pos + l, nil
		}
		return unsafe.String(unsafe.SliceData(b), len(b)), pos + l, nil
	case KBool:
		if err := need(1); err != nil {
			return nil, pos, err
		}
		return data[pos] != 0, pos + 1, nil
	case KDate:
		if err := need(8); err != nil {
			return nil, pos, err
		}
		return chronon.Instant(binary.BigEndian.Uint64(data[pos:])), pos + 8, nil
	}
	return nil, pos, fmt.Errorf("undecodable kind %v", t.Kind)
}

// Compare orders two datums of the same type: -1, 0, +1. Opaque values
// compare bytewise unless the caller supplies a UDR-level comparison.
func Compare(a, b Datum) (int, error) {
	switch av := a.(type) {
	case int64:
		bv, ok := b.(int64)
		if !ok {
			if f, okf := b.(float64); okf {
				return cmpFloat(float64(av), f), nil
			}
			return 0, fmt.Errorf("types: comparing int64 with %T", b)
		}
		return cmpInt(av, bv), nil
	case float64:
		switch bv := b.(type) {
		case float64:
			return cmpFloat(av, bv), nil
		case int64:
			return cmpFloat(av, float64(bv)), nil
		}
		return 0, fmt.Errorf("types: comparing float64 with %T", b)
	case string:
		bv, ok := b.(string)
		if !ok {
			return 0, fmt.Errorf("types: comparing string with %T", b)
		}
		return strings.Compare(av, bv), nil
	case bool:
		bv, ok := b.(bool)
		if !ok {
			return 0, fmt.Errorf("types: comparing bool with %T", b)
		}
		return cmpBool(av, bv), nil
	case chronon.Instant:
		bv, ok := b.(chronon.Instant)
		if !ok {
			return 0, fmt.Errorf("types: comparing date with %T", b)
		}
		return cmpInt(int64(av), int64(bv)), nil
	case Opaque:
		bv, ok := b.(Opaque)
		if !ok || bv.TypeID != av.TypeID {
			return 0, fmt.Errorf("types: comparing mismatched opaque values")
		}
		return strings.Compare(string(av.Data), string(bv.Data)), nil
	}
	return 0, fmt.Errorf("types: incomparable datum %T", a)
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	}
	return 1
}

package types

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chronon"
)

func demoOpaque(t *testing.T, r *Registry) *OpaqueType {
	t.Helper()
	ot, err := r.RegisterOpaque("Demo_t", SupportFuncs{
		Input: func(s string) ([]byte, error) {
			if !strings.HasPrefix(s, "demo:") {
				return nil, fmt.Errorf("bad demo literal %q", s)
			}
			return []byte(s[5:]), nil
		},
		Output: func(d []byte) (string, error) { return "demo:" + string(d), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return ot
}

func TestRegistryOpaque(t *testing.T) {
	r := NewRegistry()
	ot := demoOpaque(t, r)
	if _, err := r.RegisterOpaque("demo_T", SupportFuncs{
		Input:  func(string) ([]byte, error) { return nil, nil },
		Output: func([]byte) (string, error) { return "", nil },
	}); err == nil {
		t.Fatal("duplicate (case-insensitive) registration must fail")
	}
	if _, err := r.RegisterOpaque("NoSupport", SupportFuncs{}); err == nil {
		t.Fatal("registration without input/output must fail")
	}
	got, ok := r.Lookup("DEMO_T")
	if !ok || got.ID != ot.ID {
		t.Fatal("lookup")
	}
	if _, ok := r.LookupID(999); ok {
		t.Fatal("phantom id")
	}
	// Defaults: send/receive and import/export are filled in.
	w, err := ot.Support.Send([]byte("x"))
	if err != nil || string(w) != "x" {
		t.Fatal("default send")
	}
	b, err := ot.Support.Receive([]byte("y"))
	if err != nil || string(b) != "y" {
		t.Fatal("default receive")
	}
	if d, err := ot.Support.Import("demo:z"); err != nil || string(d) != "z" {
		t.Fatal("default import")
	}
	if s, err := ot.Support.Export([]byte("q")); err != nil || s != "demo:q" {
		t.Fatal("default export")
	}
}

func TestTypeByName(t *testing.T) {
	r := NewRegistry()
	demoOpaque(t, r)
	cases := map[string]Kind{
		"integer": KInt, "INT": KInt, "bigint": KInt,
		"float": KFloat, "VARCHAR(32)": KVarchar, "text": KVarchar,
		"boolean": KBool, "date": KDate, "Demo_t": KOpaque, "pointer": KInt,
	}
	for name, kind := range cases {
		ty, err := r.TypeByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ty.Kind != kind {
			t.Fatalf("%s: kind %v, want %v", name, ty.Kind, kind)
		}
	}
	if _, err := r.TypeByName("NoSuchType"); err == nil {
		t.Fatal("unknown type must fail")
	}
}

func TestParseLiteralAndFormat(t *testing.T) {
	r := NewRegistry()
	ot := demoOpaque(t, r)
	cases := []struct {
		text   string
		ty     Type
		expect Datum
	}{
		{"42", Builtin(KInt), int64(42)},
		{"-7", Builtin(KInt), int64(-7)},
		{"2.5", Builtin(KFloat), 2.5},
		{"hello", Builtin(KVarchar), "hello"},
		{"true", Builtin(KBool), true},
		{"f", Builtin(KBool), false},
		{"1997-09-01", Builtin(KDate), chronon.FromDate(1997, 9, 1)},
		{"demo:abc", Type{Kind: KOpaque, Name: "Demo_t", OpaqueID: ot.ID}, Opaque{TypeID: ot.ID, Data: []byte("abc")}},
	}
	for _, c := range cases {
		got, err := r.ParseLiteral(c.text, c.ty)
		if err != nil {
			t.Fatalf("%q: %v", c.text, err)
		}
		switch want := c.expect.(type) {
		case Opaque:
			g := got.(Opaque)
			if g.TypeID != want.TypeID || string(g.Data) != string(want.Data) {
				t.Fatalf("%q: %v", c.text, got)
			}
		default:
			if got != c.expect {
				t.Fatalf("%q: got %v want %v", c.text, got, c.expect)
			}
		}
	}
	for _, bad := range []struct {
		text string
		ty   Type
	}{
		{"xyz", Builtin(KInt)},
		{"xyz", Builtin(KFloat)},
		{"maybe", Builtin(KBool)},
		{"13/13/13", Builtin(KDate)},
		{"notdemo", Type{Kind: KOpaque, OpaqueID: ot.ID}},
		{"x", Type{Kind: KOpaque, OpaqueID: 999}},
	} {
		if _, err := r.ParseLiteral(bad.text, bad.ty); err == nil {
			t.Fatalf("%q as %v must fail", bad.text, bad.ty)
		}
	}
	// Format round trips.
	for _, d := range []Datum{int64(5), 2.5, "s", true, false, chronon.FromDate(2000, 1, 2), nil} {
		if _, err := r.Format(d); err != nil {
			t.Fatalf("format %v: %v", d, err)
		}
	}
	s, err := r.Format(Opaque{TypeID: ot.ID, Data: []byte("xyz")})
	if err != nil || s != "demo:xyz" {
		t.Fatalf("opaque format: %q %v", s, err)
	}
	if _, err := r.Format(Opaque{TypeID: 999}); err == nil {
		t.Fatal("format of unregistered opaque must fail")
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	r := NewRegistry()
	ot := demoOpaque(t, r)
	schema := []Type{
		Builtin(KInt), Builtin(KFloat), Builtin(KVarchar), Builtin(KBool),
		Builtin(KDate), {Kind: KOpaque, OpaqueID: ot.ID, Name: ot.Name},
	}
	row := []Datum{int64(-3), 1.25, "héllo, wörld", true,
		chronon.FromDate(1997, 3, 1), Opaque{TypeID: ot.ID, Data: []byte{0, 1, 2, 255}}}
	enc, err := EncodeRow(schema, row)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRow(schema, enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		switch want := row[i].(type) {
		case Opaque:
			g := dec[i].(Opaque)
			if g.TypeID != want.TypeID || string(g.Data) != string(want.Data) {
				t.Fatalf("column %d: %v", i, dec[i])
			}
		default:
			if dec[i] != row[i] {
				t.Fatalf("column %d: got %v want %v", i, dec[i], row[i])
			}
		}
	}
}

func TestRowCodecNulls(t *testing.T) {
	schema := []Type{Builtin(KInt), Builtin(KVarchar), Builtin(KBool)}
	row := []Datum{nil, "x", nil}
	enc, err := EncodeRow(schema, row)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRow(schema, enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0] != nil || dec[1] != "x" || dec[2] != nil {
		t.Fatalf("nulls: %v", dec)
	}
}

func TestRowCodecErrors(t *testing.T) {
	schema := []Type{Builtin(KInt)}
	if _, err := EncodeRow(schema, []Datum{int64(1), int64(2)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if _, err := EncodeRow(schema, []Datum{"not an int"}); err == nil {
		t.Fatal("type mismatch must fail")
	}
	if _, err := DecodeRow(schema, nil, nil); err == nil {
		t.Fatal("empty row must fail")
	}
	enc, _ := EncodeRow(schema, []Datum{int64(1)})
	if _, err := DecodeRow(schema, enc[:len(enc)-2], nil); err == nil {
		t.Fatal("truncated row must fail")
	}
	if _, err := DecodeRow([]Type{Builtin(KInt), Builtin(KInt)}, enc, nil); err == nil {
		t.Fatal("schema mismatch must fail")
	}
	// Opaque column mismatch.
	opSchema := []Type{{Kind: KOpaque, OpaqueID: 1}}
	if _, err := EncodeRow(opSchema, []Datum{Opaque{TypeID: 2}}); err == nil {
		t.Fatal("opaque id mismatch must fail")
	}
}

// TestArenaRowsAreTheirOwn decodes rows of mixed widths into one arena sized
// for fewer rows than it gets, then appends to every row and to every opaque
// value's bytes, as a consumer may: each row still equals its encoding
// decoded afresh, so no append reached a neighbour's memory.
func TestArenaRowsAreTheirOwn(t *testing.T) {
	schema := []Type{Builtin(KInt), Builtin(KVarchar), {Kind: KOpaque, OpaqueID: 7}}
	var encs [][]byte
	for i := 0; i < 40; i++ {
		row := []Datum{int64(1000 + i), strings.Repeat("s", i%9), Opaque{TypeID: 7, Data: []byte(strings.Repeat("o", 3*i))}}
		if i%5 == 0 {
			row[1] = nil
		}
		enc, err := EncodeRow(schema, row)
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	a := NewArena(8)
	rows := make([][]Datum, len(encs))
	for i, enc := range encs {
		row, err := DecodeRow(schema, enc, a)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = row
	}
	for _, row := range rows {
		_ = append(row, "appended")
		if o := row[2].(Opaque); cap(o.Data) != len(o.Data) {
			t.Fatalf("opaque bytes of capacity %d for length %d", cap(o.Data), len(o.Data))
		} else {
			_ = append(o.Data, 'x')
		}
	}
	for i, enc := range encs {
		want, err := DecodeRow(schema, enc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(rows[i]) != fmt.Sprint(want) {
			t.Fatalf("row %d reads %v, decoded afresh %v", i, rows[i], want)
		}
	}
}

func TestRowCodecPropertyInts(t *testing.T) {
	schema := []Type{Builtin(KInt), Builtin(KVarchar)}
	f := func(v int64, s string) bool {
		enc, err := EncodeRow(schema, []Datum{v, s})
		if err != nil {
			return false
		}
		dec, err := DecodeRow(schema, enc, nil)
		if err != nil {
			return false
		}
		return dec[0] == v && dec[1] == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{int64(3), int64(2), 1},
		{1.5, 2.5, -1},
		{int64(2), 1.5, 1},
		{1.5, int64(2), -1},
		{"a", "b", -1},
		{false, true, -1},
		{true, true, 0},
		{chronon.Instant(1), chronon.Instant(5), -1},
		{Opaque{TypeID: 1, Data: []byte("a")}, Opaque{TypeID: 1, Data: []byte("b")}, -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Fatalf("%v vs %v: %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Fatalf("%v vs %v: %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if _, err := Compare("a", int64(1)); err == nil {
		t.Fatal("cross-type compare must fail")
	}
	if _, err := Compare(Opaque{TypeID: 1}, Opaque{TypeID: 2}); err == nil {
		t.Fatal("cross-opaque compare must fail")
	}
}

func TestDatumType(t *testing.T) {
	for _, d := range []Datum{int64(1), 1.0, "s", true, chronon.Instant(0), Opaque{TypeID: 3}} {
		if _, err := DatumType(d); err != nil {
			t.Fatalf("%T: %v", d, err)
		}
	}
	if _, err := DatumType(struct{}{}); err == nil {
		t.Fatal("unknown datum type must fail")
	}
	for _, k := range []Kind{KInt, KFloat, KVarchar, KBool, KDate, KOpaque, Kind(0)} {
		_ = k.String()
	}
	if !Builtin(KInt).Equal(Builtin(KInt)) || Builtin(KInt).Equal(Builtin(KFloat)) {
		t.Fatal("type equality")
	}
}

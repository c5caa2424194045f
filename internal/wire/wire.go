// Package wire is tinyblade's client/server protocol: length-prefixed
// binary frames over a byte stream. A frame is
//
//	uint32 payload length (big-endian) | 1 byte message type | payload
//
// A connection opens with
//
//	C: Hello{version, banner, opaque type names}
//	S: Welcome{version, banner, opaque type names}  (or Error)
//
// and a statement round trip is
//
//	C: Exec{sql}
//	S: Header{columns, types, plan}        (on success)
//	S: RowBatch{rows}...                   (zero or more)
//	S: Done{affected, message, profile}
//	S: Error{sqlstate, message}            (instead, at any point)
//
// The plan and the profile are empty unless the session asked for them
// (SET EXPLAIN ON).
//
// Datums travel in a tagged binary form. Values of opaque (user-defined)
// types go through the type's Send support function on the way out and
// Receive on the way in — exactly the client/server transformation the
// support-function table in the paper reserves send/receive for. The
// handshake tells each side which opaque types the other has registered;
// for a type the peer lacks, the value also carries its Output text, so a
// client that has not loaded the type's blade still gets a displayable
// value. For a type the peer has, the text field is sent empty.
//
// Frames that end the sender's turn are flushed (Done, Error, Welcome,
// Prepared, and every client frame); Header and RowBatch are not, so a
// one-batch statement leaves the server in one write, and a longer stream
// reaches the peer whenever the write buffer fills.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/chronon"
	"repro/internal/types"
)

// Version is the protocol revision sent in Hello/Welcome; the server speaks
// only this one. Version 2 added the prepared-statement frames; version 3
// passes EXECUTE arguments only inline (the Bind frame and the Welcome
// capability bitmask are gone, which renumbers the frames after Prepared);
// version 4 lists each side's opaque types in Hello and Welcome and sends
// an opaque value's Output text only to a peer that lacks its type.
const Version = 4

// MaxFrame bounds a frame payload (defense against corrupt length words).
const MaxFrame = 64 << 20

// MsgType tags a frame.
type MsgType byte

// Frame types.
const (
	MsgHello MsgType = iota + 1
	MsgWelcome
	MsgExec
	MsgHeader
	MsgRowBatch
	MsgDone
	MsgError
	MsgQuit
	// Prepared statements:
	MsgParse
	MsgPrepared
	MsgExecutePrepared
	MsgCloseStmt
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgWelcome:
		return "Welcome"
	case MsgExec:
		return "Exec"
	case MsgHeader:
		return "Header"
	case MsgRowBatch:
		return "RowBatch"
	case MsgDone:
		return "Done"
	case MsgError:
		return "Error"
	case MsgQuit:
		return "Quit"
	case MsgParse:
		return "Parse"
	case MsgPrepared:
		return "Prepared"
	case MsgExecutePrepared:
		return "ExecutePrepared"
	case MsgCloseStmt:
		return "CloseStmt"
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// Message is any frame payload.
type Message interface{ msgType() MsgType }

// Hello opens a connection (client → server). Types names the opaque types
// in the client's registry; the list is part of the frame only at the
// current Version, so a Hello of any other version still decodes, and is
// refused by its version.
type Hello struct {
	Version uint16
	Banner  string
	Types   []string
}

// Welcome acknowledges a Hello (server → client). Types names the opaque
// types in the server's registry, as in Hello.
type Welcome struct {
	Version uint16
	Banner  string
	Types   []string
}

// Exec submits SQL text — one statement or a semicolon-separated script
// (scripts execute like Session.ExecScript: the last statement's result
// streams back).
type Exec struct{ SQL string }

// ColType is a column's type as it travels: the kind plus, for opaque
// types, the registered type name the client resolves locally.
type ColType struct {
	Kind byte
	Name string
}

// Header announces a statement's result shape before any rows.
type Header struct {
	Columns []string
	Types   []ColType
	Plan    string // rendered access plan ("" when the statement has none)
}

// RowBatch carries one batch of rows.
type RowBatch struct{ Rows [][]types.Datum }

// Done ends a successful statement.
type Done struct {
	Affected int64
	Message  string
	Profile  string // rendered statement profile ("" when absent)
}

// Error ends a failed statement (or refuses a connection): the engine's
// SQLSTATE-style code rides along so clients dispatch on the class of the
// failure exactly as embedded callers do with engine.ErrorCode.
type Error struct {
	Code    string
	Message string
}

// Quit announces an orderly client disconnect.
type Quit struct{}

// Parse asks the server to parse and register a named prepared statement
// (client → server). The server answers Prepared or
// Error.
type Parse struct {
	Name string
	SQL  string
}

// Prepared acknowledges a Parse with the statement's parameter count.
type Prepared struct {
	Name    string
	NParams uint16
}

// ExecutePrepared runs a prepared statement, its Args binding positionally.
// The reply stream is the same Header/RowBatch.../Done shape Exec produces.
type ExecutePrepared struct {
	Name string
	Args []types.Datum
}

// CloseStmt deallocates a prepared statement. The server answers Done or
// Error.
type CloseStmt struct{ Name string }

func (*Hello) msgType() MsgType           { return MsgHello }
func (*Welcome) msgType() MsgType         { return MsgWelcome }
func (*Exec) msgType() MsgType            { return MsgExec }
func (*Header) msgType() MsgType          { return MsgHeader }
func (*RowBatch) msgType() MsgType        { return MsgRowBatch }
func (*Done) msgType() MsgType            { return MsgDone }
func (*Error) msgType() MsgType           { return MsgError }
func (*Quit) msgType() MsgType            { return MsgQuit }
func (*Parse) msgType() MsgType           { return MsgParse }
func (*Prepared) msgType() MsgType        { return MsgPrepared }
func (*ExecutePrepared) msgType() MsgType { return MsgExecutePrepared }
func (*CloseStmt) msgType() MsgType       { return MsgCloseStmt }

// Conn frames messages over a byte stream. Reads and writes are buffered;
// Send flushes every frame that ends the sender's turn, and leaves Header
// and RowBatch in the buffer. A Conn is not safe for concurrent use on the
// same direction, matching the strictly alternating protocol.
//
// A Conn keeps the opaque types its peer listed in the Hello or Welcome it
// received, as local type ids; until then, and for a type the peer did not
// list, opaque values carry their Output text.
type Conn struct {
	r    *bufio.Reader
	w    *bufio.Writer
	reg  *types.Registry
	peer map[uint32]bool // local opaque type ids the peer has registered
	out  []byte          // the frame being encoded, reused across Sends
}

// NewConn wraps a stream. The registry drives opaque-datum send/receive;
// either side may pass a registry missing types the other has (decode then
// falls back to the Output text).
func NewConn(rw io.ReadWriter, reg *types.Registry) *Conn {
	return &Conn{r: bufio.NewReader(rw), w: bufio.NewWriter(rw), reg: reg}
}

// maxKeptFrame bounds the encode buffer a Conn keeps between Sends.
const maxKeptFrame = 64 << 10

// Send encodes one message, and flushes it unless it is a Header or a
// RowBatch: those are followed by more of the same statement's frames, and
// the Done or Error that ends it flushes them all.
func (c *Conn) Send(m Message) error {
	e := enc{buf: append(c.out[:0], 0, 0, 0, 0, byte(m.msgType()))}
	switch t := m.(type) {
	case *Hello:
		e.u16(t.Version)
		e.str(t.Banner)
		if t.Version == Version {
			e.strs(t.Types)
		}
	case *Welcome:
		e.u16(t.Version)
		e.str(t.Banner)
		if t.Version == Version {
			e.strs(t.Types)
		}
	case *Exec:
		e.str(t.SQL)
	case *Parse:
		e.str(t.Name)
		e.str(t.SQL)
	case *Prepared:
		e.str(t.Name)
		e.u16(t.NParams)
	case *ExecutePrepared:
		e.str(t.Name)
		if err := e.args(c, t.Args); err != nil {
			return err
		}
	case *CloseStmt:
		e.str(t.Name)
	case *Header:
		e.u32(uint32(len(t.Columns)))
		for _, col := range t.Columns {
			e.str(col)
		}
		e.u32(uint32(len(t.Types)))
		for _, ct := range t.Types {
			e.u8(ct.Kind)
			e.str(ct.Name)
		}
		e.str(t.Plan)
	case *RowBatch:
		e.u32(uint32(len(t.Rows)))
		for _, row := range t.Rows {
			e.u32(uint32(len(row)))
			for _, d := range row {
				if err := e.datum(c, d); err != nil {
					return err
				}
			}
		}
	case *Done:
		e.u64(uint64(t.Affected))
		e.str(t.Message)
		e.str(t.Profile)
	case *Error:
		e.str(t.Code)
		e.str(t.Message)
	case *Quit:
	default:
		return fmt.Errorf("wire: unsendable message %T", m)
	}
	if cap(e.buf) <= maxKeptFrame {
		c.out = e.buf
	}
	size := len(e.buf) - 5
	if size > MaxFrame {
		return fmt.Errorf("wire: %v frame exceeds %d bytes", m.msgType(), MaxFrame)
	}
	binary.BigEndian.PutUint32(e.buf, uint32(size))
	if _, err := c.w.Write(e.buf); err != nil {
		return err
	}
	if t := m.msgType(); t == MsgHeader || t == MsgRowBatch {
		return nil
	}
	return c.w.Flush()
}

// Recv reads and decodes the next message. io.EOF surfaces unchanged when
// the peer closed between frames.
func (c *Conn) Recv() (Message, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", size)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return nil, err
	}
	d := dec{buf: payload}
	var m Message
	switch MsgType(hdr[4]) {
	case MsgHello:
		h := &Hello{Version: d.u16(), Banner: d.str()}
		if h.Version == Version {
			h.Types = d.strs()
			c.setPeer(h.Types)
		}
		m = h
	case MsgWelcome:
		w := &Welcome{Version: d.u16(), Banner: d.str()}
		if w.Version == Version {
			w.Types = d.strs()
			c.setPeer(w.Types)
		}
		m = w
	case MsgExec:
		m = &Exec{SQL: d.str()}
	case MsgParse:
		m = &Parse{Name: d.str(), SQL: d.str()}
	case MsgPrepared:
		m = &Prepared{Name: d.str(), NParams: d.u16()}
	case MsgExecutePrepared:
		m = &ExecutePrepared{Name: d.str(), Args: d.args(c.reg)}
	case MsgCloseStmt:
		m = &CloseStmt{Name: d.str()}
	case MsgHeader:
		h := &Header{}
		for n := d.u32(); n > 0 && d.err == nil; n-- {
			h.Columns = append(h.Columns, d.str())
		}
		for n := d.u32(); n > 0 && d.err == nil; n-- {
			h.Types = append(h.Types, ColType{Kind: d.u8(), Name: d.str()})
		}
		h.Plan = d.str()
		m = h
	case MsgRowBatch:
		b := &RowBatch{}
		for n := d.u32(); n > 0 && d.err == nil; n-- {
			row := make([]types.Datum, 0, 4)
			for k := d.u32(); k > 0 && d.err == nil; k-- {
				row = append(row, d.datum(c.reg))
			}
			b.Rows = append(b.Rows, row)
		}
		m = b
	case MsgDone:
		m = &Done{Affected: int64(d.u64()), Message: d.str(), Profile: d.str()}
	case MsgError:
		m = &Error{Code: d.str(), Message: d.str()}
	case MsgQuit:
		m = &Quit{}
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", hdr[4])
	}
	if d.err != nil {
		return nil, fmt.Errorf("wire: bad %v frame: %w", MsgType(hdr[4]), d.err)
	}
	return m, nil
}

// setPeer records the opaque types the peer listed, as local type ids. A
// name this side has not registered needs no entry: no value of it is sent.
func (c *Conn) setPeer(names []string) {
	c.peer = make(map[uint32]bool, len(names))
	if c.reg == nil {
		return
	}
	for _, n := range names {
		if ot, ok := c.reg.Lookup(n); ok {
			c.peer[ot.ID] = true
		}
	}
}

// datum tags -------------------------------------------------------------------

const (
	tagNull byte = iota
	tagInt
	tagFloat
	tagString
	tagBool
	tagDate
	tagOpaque
)

// KindOf maps a types.Type to its wire ColType.
func KindOf(t types.Type) ColType {
	return ColType{Kind: byte(t.Kind), Name: t.Name}
}

// ResolveColTypes maps wire column types back to engine types against the
// receiver's registry. An opaque type the receiver has not registered stays
// KOpaque with a zero id — its datums arrive as display text anyway.
func ResolveColTypes(reg *types.Registry, cts []ColType) []types.Type {
	if len(cts) == 0 {
		return nil
	}
	out := make([]types.Type, len(cts))
	for i, ct := range cts {
		t := types.Type{Kind: types.Kind(ct.Kind), Name: ct.Name}
		if t.Kind == types.KOpaque && reg != nil {
			if ot, ok := reg.Lookup(ct.Name); ok {
				t.OpaqueID = ot.ID
			}
		}
		out[i] = t
	}
	return out
}

// encoder ----------------------------------------------------------------------

type enc struct{ buf []byte }

func (e *enc) u8(v byte)     { e.buf = append(e.buf, v) }
func (e *enc) u16(v uint16)  { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *enc) u32(v uint32)  { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64)  { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *enc) str(s string)  { e.u32(uint32(len(s))); e.buf = append(e.buf, s...) }
func (e *enc) blob(b []byte) { e.u32(uint32(len(b))); e.buf = append(e.buf, b...) }

// strs encodes a string list as a count plus the strings.
func (e *enc) strs(ss []string) {
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// datum encodes one tagged value. Opaque values carry the type name, the
// Send-transformed wire bytes, and the Output text: the rendered value for a
// peer that lacks the type, empty for one that listed it.
func (e *enc) datum(c *Conn, d types.Datum) error {
	switch v := d.(type) {
	case nil:
		e.u8(tagNull)
	case int64:
		e.u8(tagInt)
		e.u64(uint64(v))
	case float64:
		e.u8(tagFloat)
		e.u64(math.Float64bits(v))
	case string:
		e.u8(tagString)
		e.str(v)
	case bool:
		e.u8(tagBool)
		if v {
			e.u8(1)
		} else {
			e.u8(0)
		}
	case chronon.Instant:
		e.u8(tagDate)
		e.u64(uint64(v))
	case types.Opaque:
		ot, ok := c.reg.LookupID(v.TypeID)
		if !ok {
			return fmt.Errorf("wire: unregistered opaque type id %d", v.TypeID)
		}
		w, err := ot.Support.Send(v.Data)
		if err != nil {
			return fmt.Errorf("wire: %s send: %w", ot.Name, err)
		}
		var text string
		if !c.peer[v.TypeID] {
			if text, err = ot.Support.Output(v.Data); err != nil {
				return fmt.Errorf("wire: %s output: %w", ot.Name, err)
			}
		}
		e.u8(tagOpaque)
		e.str(ot.Name)
		e.blob(w)
		e.str(text)
	default:
		return fmt.Errorf("wire: unencodable datum %T", d)
	}
	return nil
}

// args encodes an argument vector as a count plus tagged datums.
func (e *enc) args(c *Conn, args []types.Datum) error {
	e.u32(uint32(len(args)))
	for _, a := range args {
		if err := e.datum(c, a); err != nil {
			return err
		}
	}
	return nil
}

// decoder ----------------------------------------------------------------------

type dec struct {
	buf []byte
	pos int
	err error
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.pos+n > len(d.buf) {
		d.err = io.ErrUnexpectedEOF
		return false
	}
	return true
}

func (d *dec) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.pos]
	d.pos++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf[d.pos:])
	d.pos += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v
}

func (d *dec) str() string {
	n := int(d.u32())
	if !d.need(n) {
		return ""
	}
	v := string(d.buf[d.pos : d.pos+n])
	d.pos += n
	return v
}

func (d *dec) blob() []byte {
	n := int(d.u32())
	if !d.need(n) {
		return nil
	}
	v := append([]byte(nil), d.buf[d.pos:d.pos+n]...)
	d.pos += n
	return v
}

// count reads a list's element count. Every element takes at least one
// byte, so a count beyond the bytes left is a bad frame, refused before it
// sizes an allocation.
func (d *dec) count(what string) uint32 {
	n := d.u32()
	if d.err == nil && uint64(n) > uint64(len(d.buf)-d.pos) {
		d.err = fmt.Errorf("%s count %d exceeds the %d bytes left", what, n, len(d.buf)-d.pos)
		return 0
	}
	return n
}

// strs decodes a string list.
func (d *dec) strs() []string {
	n := d.count("string")
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for ; n > 0 && d.err == nil; n-- {
		out = append(out, d.str())
	}
	return out
}

// args decodes an argument vector.
func (d *dec) args(reg *types.Registry) []types.Datum {
	n := d.count("argument")
	if n == 0 {
		return nil
	}
	out := make([]types.Datum, 0, n)
	for ; n > 0 && d.err == nil; n-- {
		out = append(out, d.datum(reg))
	}
	return out
}

// datum decodes one tagged value. An opaque value resolves against the
// local registry through Receive; if the type is not registered here the
// Output text stands in as a plain string, so results stay displayable on
// blade-less clients (the sender, told so by the handshake, sent the text).
func (d *dec) datum(reg *types.Registry) types.Datum {
	switch tag := d.u8(); tag {
	case tagNull:
		return nil
	case tagInt:
		return int64(d.u64())
	case tagFloat:
		return math.Float64frombits(d.u64())
	case tagString:
		return d.str()
	case tagBool:
		return d.u8() != 0
	case tagDate:
		return chronon.Instant(d.u64())
	case tagOpaque:
		name := d.str()
		w := d.blob()
		text := d.str()
		if d.err != nil {
			return nil
		}
		if reg != nil {
			if ot, ok := reg.Lookup(name); ok {
				data, err := ot.Support.Receive(w)
				if err != nil {
					d.err = fmt.Errorf("%s receive: %w", name, err)
					return nil
				}
				return types.Opaque{TypeID: ot.ID, Data: data}
			}
		}
		return text
	default:
		if d.err == nil {
			d.err = fmt.Errorf("unknown datum tag %d", tag)
		}
		return nil
	}
}

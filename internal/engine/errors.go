package engine

import (
	"errors"
	"fmt"

	"repro/internal/heap"
)

// Error is a typed engine error carrying an SQLSTATE-style code. The
// DataBlade API raises errors with SQLSTATEs (mi_db_error_raise); the
// engine's own errors follow the same convention so clients — cmd/tinyblade
// included — can dispatch on the class of a failure instead of matching
// message strings.
type Error struct {
	Code string // five-character SQLSTATE-style class/subclass code
	Msg  string
	Err  error // wrapped cause, if any
}

// Error implements error.
func (e *Error) Error() string { return "engine: " + e.Msg }

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// SQLSTATE-style codes used by the engine.
const (
	// CodeUndefinedTable (42P01): a named table does not exist.
	CodeUndefinedTable = "42P01"
	// CodeUndefinedObject (42704): a named index, sbspace, function, access
	// method, opclass, or column does not exist.
	CodeUndefinedObject = "42704"
	// CodeFeature (0A000): the statement asks for something the engine or
	// the access method does not support.
	CodeFeature = "0A000"
	// CodeCardinality (21S01): an INSERT/LOAD value list does not match the
	// column list.
	CodeCardinality = "21S01"
	// CodeInvalidParameter (22023): a bad parameter value (isolation level,
	// trace level, ...).
	CodeInvalidParameter = "22023"
	// CodeDatatype (42804): a value cannot be coerced to the column type.
	CodeDatatype = "42804"
	// CodeDuplicateColumn (42701): an INSERT column list or UPDATE SET list
	// names a column twice.
	CodeDuplicateColumn = "42701"
	// CodeActiveTx (25001): BEGIN WORK inside an open transaction.
	CodeActiveTx = "25001"
	// CodeNoActiveTx (25P01): COMMIT/ROLLBACK with no open transaction.
	CodeNoActiveTx = "25P01"
	// CodeIOError (58030): an I/O failure reading external input.
	CodeIOError = "58030"
	// CodeSessionBusy (55006): a new statement was started while the
	// session's previous result stream is still open (one statement at a
	// time per session).
	CodeSessionBusy = "55006"
	// CodeInternal (XX000): an invariant violation (e.g. a dangling rowid
	// returned by an index).
	CodeInternal = "XX000"
)

// errf builds a typed engine error. The format string supports %w; the
// wrapped cause stays reachable through errors.Is/As.
func errf(code string, format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	return &Error{Code: code, Msg: err.Error(), Err: errors.Unwrap(err)}
}

// heapErr maps heap-layer sentinels onto typed engine errors at the DML
// boundary: a rowid slot-field overflow is an engine encoding invariant
// (CodeInternal), not a user mistake. Other errors pass through unchanged.
func heapErr(err error) error {
	if errors.Is(err, heap.ErrSlotOverflow) {
		return errf(CodeInternal, "rowid slot field overflow: %w", err)
	}
	return err
}

// ErrorCode extracts the SQLSTATE-style code from err, or "" when err
// carries none.
func ErrorCode(err error) string {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return ""
}

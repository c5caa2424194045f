// Package am is this engine's Virtual-Index Interface: the framework
// through which developer-defined secondary access methods plug into the
// server, mirroring the paper's Section 4 step by step.
//
//   - Purpose functions (Table 2) are Go functions with fixed signatures,
//     registered by name in a "shared library" (the grtree.bld analogue),
//     bound to SQL names with CREATE FUNCTION, and assembled into an access
//     method with CREATE SECONDARY ACCESS_METHOD. Only am_getnext is
//     mandatory.
//   - Descriptors (index, scan, qualification) carry the information the
//     purpose functions need; the server fills in most fields and passes
//     them down (Section 4, Step 2).
//   - Operator classes group the strategy functions (usable in WHERE
//     clauses, making the optimizer consider the index) and support
//     functions (internal maintenance) of an access method (Step 4).
//   - Qualification descriptors are restricted to single-column predicates
//     f(column, constant) / f(constant, column) / f(column) — the
//     restriction that forced the one-column time-extent type (Section 5.1).
package am

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/chronon"
	"repro/internal/heap"
	"repro/internal/lock"
	"repro/internal/mi"
	"repro/internal/obs"
	"repro/internal/sbspace"
	"repro/internal/types"
)

// ErrNoEntry is returned (wrapped) by am_delete when the index holds no
// entry for the given row and rowid. Under deferred index maintenance the
// vacuum tolerates it: a version may die before an index is built over it,
// and a NoWAL vacuum retry may revisit entries a half-failed earlier pass
// already removed. Any other delete error still aborts the caller.
var ErrNoEntry = errors.New("am: index has no entry for row")

// Library is a loaded shared object: symbol name → Go function. A blade
// package exports one; the engine loads it under the EXTERNAL NAME path
// used in CREATE FUNCTION statements.
type Library map[string]any

// UDRFunc is the uniform signature of a user-defined routine callable from
// SQL (strategy and support functions, casts, helpers).
type UDRFunc func(ctx *mi.Context, args []types.Datum) (types.Datum, error)

// Services is the server-side interface handed to purpose functions through
// the index descriptor: sbspaces, the transaction, the clock, and the
// "table associated with the access method" in which grt_create records the
// index's large-object handle (Appendix A, steps 6/3).
type Services interface {
	// Space resolves an sbspace by name.
	Space(name string) (*sbspace.Space, error)
	// TxID returns the current transaction's lock owner id.
	TxID() lock.TxID
	// Isolation returns the transaction's isolation level.
	Isolation() lock.IsolationLevel
	// Clock returns the server clock (purpose functions resolve UC/NOW
	// through it, per the Section 5.4 policy the blade implements).
	Clock() chronon.Clock
	// AMRecordPut stores a record in the access method's bookkeeping table.
	AMRecordPut(amName, indexName string, data []byte) error
	// AMRecordGet fetches a bookkeeping record.
	AMRecordGet(amName, indexName string) ([]byte, bool, error)
	// AMRecordDelete removes a bookkeeping record.
	AMRecordDelete(amName, indexName string) error
	// InvokeUDR dynamically resolves and calls a registered UDR by SQL name
	// (how non-hard-coded strategy/support functions are executed).
	InvokeUDR(name string, args []types.Datum) (types.Datum, error)
}

// IndexDesc is the index descriptor: per-open-index state passed to every
// purpose function.
type IndexDesc struct {
	Name      string
	TableName string
	AmName    string
	Columns   []string
	ColTypes  []types.Type
	ColIdxs   []int // positions of the indexed columns in the table row
	OpClass   string
	// Support names the operator class's support functions (SYSOPCLASSES),
	// which the access method may call through Services.InvokeUDR.
	Support   []string
	SpaceName string
	Params    map[string]string
	// ReadOnly tells the access method the statement will not mutate the
	// index, so it may open its storage with a shared lock (Section 5.3).
	ReadOnly bool

	// Stats is the index's collected statistics (SYSSTATS), filled by the
	// server when UPDATE STATISTICS has run for the table. Nil means no
	// statistics were collected — am_scancost falls back to its built-in
	// estimate family.
	Stats *IndexStats

	Ctx      *mi.Context
	Services Services

	// UserData is the blade's state for the open index (the Tree object of
	// Appendix A lives here).
	UserData any
}

// ScanDesc is the scan descriptor passed to the scan purpose functions.
type ScanDesc struct {
	Index *IndexDesc
	Qual  *Qual
	// UserData is the blade's cursor state (the Cursor object).
	UserData any

	// BatchCap is the server's proposed am_getmulti batch capacity. It is
	// set before am_beginscan so the access method can negotiate: a blade
	// that prefers a different granularity (e.g. one leaf node's worth of
	// entries) may lower or raise it during am_beginscan, and the server
	// allocates Batch to the agreed size afterwards. Zero means the server
	// will use the row-at-a-time am_getnext protocol only.
	BatchCap int
	// Exact is the access method's promise, made in am_beginscan the way it
	// negotiates BatchCap, that every entry it returns satisfies the
	// qualification as the strategy functions would evaluate it on the
	// fetched row. When the qualification is the whole WHERE clause the
	// server then skips re-evaluating it (PostgreSQL's xs_recheck, inverted).
	// False, the default, means the answers are candidates to re-check.
	Exact bool
	// Batch is the shared output buffer am_getmulti fills. The server
	// owns the allocation; the access method must not retain references to
	// it across calls.
	Batch *ScanBatch

	// Obs is the statement's execution profile (nil when the statement is
	// not profiled). The framework counts rows delivered by the access
	// method here; blades may additionally record their own slot counts.
	Obs *obs.ExecContext

	// Snapshot is the statement's MVCC read view. The server applies it when
	// resolving the rowids the access method returns against the heap, so
	// blades never consult it — it rides on the descriptor because the
	// resolution happens per batch, including inside parallel scan workers.
	Snapshot *heap.Snapshot
}

// ScanBatch is the am_getmulti output buffer: parallel slices of qualifying
// rowids and their indexed-column values. Scans may leave a row entry nil
// (the server fetches the row from the heap either way); am_build feeds fill
// every one. Whether an entry needs re-checking is ScanDesc.Exact's business,
// not the row's.
type ScanBatch struct {
	RowIDs []heap.RowID
	Rows   [][]types.Datum
	N      int // entries filled by the last am_getmulti call
}

// NewScanBatch allocates a batch buffer of the given capacity (minimum 1).
func NewScanBatch(capacity int) *ScanBatch {
	if capacity < 1 {
		capacity = 1
	}
	return &ScanBatch{
		RowIDs: make([]heap.RowID, capacity),
		Rows:   make([][]types.Datum, capacity),
	}
}

// Cap returns the batch capacity.
func (b *ScanBatch) Cap() int { return len(b.RowIDs) }

// Reset empties the batch (discarding any buffered rowids, e.g. on
// am_rescan — a restarted cursor must not replay stale entries).
func (b *ScanBatch) Reset() {
	for i := 0; i < b.N; i++ {
		b.Rows[i] = nil
	}
	b.N = 0
}

// Full reports whether the batch has reached capacity.
func (b *ScanBatch) Full() bool { return b.N >= len(b.RowIDs) }

// Append adds one qualifying entry. It panics past capacity (purpose
// functions must check Full).
func (b *ScanBatch) Append(rid heap.RowID, row []types.Datum) {
	b.RowIDs[b.N] = rid
	b.Rows[b.N] = row
	b.N++
}

// QualOp discriminates qualification nodes.
type QualOp int

const (
	// QFunc is a single strategy-function predicate.
	QFunc QualOp = iota
	// QAnd is a conjunction.
	QAnd
	// QOr is a disjunction.
	QOr
)

// Qual is a qualification descriptor: the relevant part of the WHERE clause
// the server passes to the index interface. Leaves are single-column
// predicates only (Section 5.1).
type Qual struct {
	Op       QualOp
	Children []*Qual

	// Leaf fields (QFunc):
	Func     string      // strategy function SQL name (lower-cased)
	ColIdx   int         // indexed-column ordinal within the index (0-based)
	Const    types.Datum // the constant argument
	ColFirst bool        // true for f(column, constant)
}

// NewFuncQual builds a leaf predicate.
func NewFuncQual(fn string, colIdx int, c types.Datum, colFirst bool) *Qual {
	return &Qual{Op: QFunc, Func: strings.ToLower(fn), ColIdx: colIdx, Const: c, ColFirst: colFirst}
}

// NewBoolQual builds an AND/OR node.
func NewBoolQual(op QualOp, children ...*Qual) *Qual {
	return &Qual{Op: op, Children: children}
}

// Leaves returns the function predicates in evaluation order (the "break a
// complex qualification into simple ones" logic of Section 6.3).
func (q *Qual) Leaves() []*Qual {
	if q == nil {
		return nil
	}
	if q.Op == QFunc {
		return []*Qual{q}
	}
	var out []*Qual
	for _, c := range q.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Evaluate computes the qualification over per-leaf truth values supplied
// by eval.
func (q *Qual) Evaluate(eval func(*Qual) (bool, error)) (bool, error) {
	if q == nil {
		return true, nil
	}
	switch q.Op {
	case QFunc:
		return eval(q)
	case QAnd:
		for _, c := range q.Children {
			ok, err := c.Evaluate(eval)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case QOr:
		for _, c := range q.Children {
			ok, err := c.Evaluate(eval)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("am: bad qual op %d", q.Op)
}

func (q *Qual) String() string {
	if q == nil {
		return "<none>"
	}
	switch q.Op {
	case QFunc:
		if q.ColFirst {
			return fmt.Sprintf("%s(col%d, const)", q.Func, q.ColIdx)
		}
		return fmt.Sprintf("%s(const, col%d)", q.Func, q.ColIdx)
	case QAnd, QOr:
		sep := " AND "
		if q.Op == QOr {
			sep = " OR "
		}
		parts := make([]string, len(q.Children))
		for i, c := range q.Children {
			parts[i] = c.String()
		}
		return "(" + strings.Join(parts, sep) + ")"
	}
	return "?"
}

// Purpose-function signatures (Table 2). RowID is the heap rowid; Row is
// the indexed columns' values.
type (
	// AmIndexFunc is the signature of am_create/drop/open/close.
	AmIndexFunc func(ctx *mi.Context, id *IndexDesc) error
	// AmScanFunc is the signature of am_beginscan/endscan/rescan.
	AmScanFunc func(ctx *mi.Context, sd *ScanDesc) error
	// AmGetNextFunc returns the next qualifying rowid plus the indexed
	// column values (nil when the access method does not materialise them);
	// ok=false ends the scan.
	AmGetNextFunc func(ctx *mi.Context, sd *ScanDesc) (rid heap.RowID, row []types.Datum, ok bool, err error)
	// AmGetMultiFunc is the batched variant of am_getnext: it resets and
	// fills sd.Batch with up to sd.Batch.Cap() qualifying entries and
	// returns the count. Returning fewer than the capacity signals that
	// the scan is exhausted. The slot is optional — the server adapts
	// getnext-only access methods automatically (only am_getnext is
	// mandatory, Table 2).
	AmGetMultiFunc func(ctx *mi.Context, sd *ScanDesc) (int, error)
	// AmMutateFunc is the signature of am_insert/am_delete.
	AmMutateFunc func(ctx *mi.Context, id *IndexDesc, row []types.Datum, rid heap.RowID) error
	// AmUpdateFunc is the signature of am_update.
	AmUpdateFunc func(ctx *mi.Context, id *IndexDesc, oldRow []types.Datum, oldRid heap.RowID, newRow []types.Datum, newRid heap.RowID) error
	// AmScanCostFunc estimates the I/O cost of an index scan.
	AmScanCostFunc func(ctx *mi.Context, id *IndexDesc, q *Qual) (float64, error)
	// AmStatsFunc collects index statistics: a human-readable summary plus
	// (optionally) the entry count and key histograms UPDATE STATISTICS
	// persists into SYSSTATS for am_scancost.
	AmStatsFunc func(ctx *mi.Context, id *IndexDesc) (*IndexStats, error)
	// AmCheckFunc verifies index consistency.
	AmCheckFunc func(ctx *mi.Context, id *IndexDesc) error
	// AmBuildNext feeds an am_build bulk load: each call returns the next
	// batch of rows to index (rowids plus indexed-column values, the same
	// ScanBatch shape am_getmulti produces) or nil when the source scan is
	// exhausted. The batch buffer is reused between calls; the access method
	// must copy anything it keeps.
	AmBuildNext func() (*ScanBatch, error)
	// AmBuildFunc is the optional bulk-build slot: it loads a freshly created,
	// empty index from the batches the feed supplies and returns the number of
	// rows loaded. Access methods that bind it get the fast path at CREATE
	// INDEX time (e.g. a sort-based bottom-up pack); methods without it are
	// fed through batched am_insert calls instead.
	AmBuildFunc func(ctx *mi.Context, id *IndexDesc, next AmBuildNext) (int, error)
	// AmParallelScanFunc is the optional intra-query parallelism slot. The
	// server calls it right after am_beginscan, offering a degree of
	// parallelism; an access method that accepts returns one ScanDesc per
	// partition (sharing sd.Index/sd.Qual/sd.Obs, each with its own
	// UserData cursor), which independent workers then drive through the
	// normal am_getmulti protocol. Returning nil, or fewer than two
	// partitions, declines the offer and the server runs the scan serially.
	// Partition cursors must be safe to drive from distinct goroutines; the
	// server guarantees am_rescan/am_endscan are only called on the parent
	// descriptor after every worker has stopped.
	AmParallelScanFunc func(ctx *mi.Context, sd *ScanDesc, degree int) ([]*ScanDesc, error)
	// AmAggregateFunc is the optional aggregate-pushdown slot: the server
	// offers a single-table COUNT/MIN/MAX over an indexable qualification
	// and the access method answers it from the index structure alone
	// (entry counts in covered subtrees, boundary leaves) without producing
	// rowids. Returning ok=false declines the offer — the server falls back
	// to the tuple-drain path. The server only trusts the result when its
	// MVCC gate proves every indexed entry visible to the statement's
	// snapshot; blades compute over current index state and need no
	// snapshot logic of their own.
	AmAggregateFunc func(ctx *mi.Context, id *IndexDesc, req *AggRequest) (*AggResult, bool, error)
)

// AggKind discriminates the aggregates offered through am_aggregate.
type AggKind int

const (
	// AggCount is COUNT(*) (and COUNT(col) over the indexed column, which
	// the server proves equivalent — indexed entries are never NULL).
	AggCount AggKind = iota
	// AggMin is MIN(col) over the indexed column.
	AggMin
	// AggMax is MAX(col) over the indexed column.
	AggMax
)

func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return "?"
}

// AggRequest is the aggregate offer handed to am_aggregate.
type AggRequest struct {
	Kind AggKind
	// Qual is the full qualification — residual-free by construction (the
	// server only offers aggregates whose WHERE clause the index claims
	// entirely).
	Qual *Qual
}

// AggResult is am_aggregate's answer.
type AggResult struct {
	// Count is the matching-entry count (AggCount).
	Count int64
	// Value is the extreme indexed-column value (AggMin/AggMax); nil with
	// Empty set when no entry matched (SQL NULL).
	Value types.Datum
	// Empty reports that no entry matched (MIN/MAX of an empty set).
	Empty bool
}

// PurposeSet is a resolved access method: each slot holds the purpose
// function registered for it (nil when the access method omitted it). Only
// GetNext is mandatory (Section 4, Step 2).
type PurposeSet struct {
	Create    AmIndexFunc
	Drop      AmIndexFunc
	Open      AmIndexFunc
	Close     AmIndexFunc
	BeginScan AmScanFunc
	EndScan   AmScanFunc
	Rescan    AmScanFunc
	GetNext   AmGetNextFunc
	GetMulti  AmGetMultiFunc
	Insert    AmMutateFunc
	Delete    AmMutateFunc
	Update    AmUpdateFunc
	ScanCost  AmScanCostFunc
	Stats     AmStatsFunc
	Check     AmCheckFunc
	// Build is the optional am_build bulk-load slot (nil = populate via
	// batched am_insert).
	Build AmBuildFunc
	// ParallelScan is the optional am_parallelscan slot (nil = the access
	// method never accepts a parallel offer).
	ParallelScan AmParallelScanFunc
	// Aggregate is the optional am_aggregate slot (nil = COUNT/MIN/MAX are
	// always answered by the tuple-drain path).
	Aggregate AmAggregateFunc
}

// PurposeSlots are the am_* parameter names accepted by CREATE SECONDARY
// ACCESS_METHOD, in Table 2 order.
var PurposeSlots = []string{
	"am_create", "am_drop", "am_open", "am_close",
	"am_beginscan", "am_endscan", "am_rescan", "am_getnext", "am_getmulti",
	"am_insert", "am_delete", "am_update", "am_build",
	"am_scancost", "am_stats", "am_check", "am_parallelscan", "am_aggregate",
}

// Bind assembles a PurposeSet from slot-name → symbol assignments, looking
// symbols up in resolve (which maps a registered function name to the Go
// function behind it). It enforces that am_getnext is present and that each
// symbol has the slot's signature.
func Bind(slots map[string]string, resolve func(fname string) (any, error)) (*PurposeSet, error) {
	ps := &PurposeSet{}
	for slot, fname := range slots {
		if strings.EqualFold(slot, "am_sptype") {
			continue // storage-kind declaration ("S" = sbspace), not a function
		}
		sym, err := resolve(fname)
		if err != nil {
			return nil, fmt.Errorf("am: %s = %s: %w", slot, fname, err)
		}
		ok := true
		switch strings.ToLower(slot) {
		case "am_create":
			ps.Create, ok = sym.(AmIndexFunc)
		case "am_drop":
			ps.Drop, ok = sym.(AmIndexFunc)
		case "am_open":
			ps.Open, ok = sym.(AmIndexFunc)
		case "am_close":
			ps.Close, ok = sym.(AmIndexFunc)
		case "am_beginscan":
			ps.BeginScan, ok = sym.(AmScanFunc)
		case "am_endscan":
			ps.EndScan, ok = sym.(AmScanFunc)
		case "am_rescan":
			ps.Rescan, ok = sym.(AmScanFunc)
		case "am_getnext":
			ps.GetNext, ok = sym.(AmGetNextFunc)
		case "am_getmulti":
			ps.GetMulti, ok = sym.(AmGetMultiFunc)
		case "am_insert":
			ps.Insert, ok = sym.(AmMutateFunc)
		case "am_delete":
			ps.Delete, ok = sym.(AmMutateFunc)
		case "am_update":
			ps.Update, ok = sym.(AmUpdateFunc)
		case "am_build":
			ps.Build, ok = sym.(AmBuildFunc)
		case "am_scancost":
			ps.ScanCost, ok = sym.(AmScanCostFunc)
		case "am_stats":
			ps.Stats, ok = sym.(AmStatsFunc)
		case "am_check":
			ps.Check, ok = sym.(AmCheckFunc)
		case "am_parallelscan":
			ps.ParallelScan, ok = sym.(AmParallelScanFunc)
		case "am_aggregate":
			ps.Aggregate, ok = sym.(AmAggregateFunc)
		default:
			return nil, fmt.Errorf("am: unknown purpose slot %q", slot)
		}
		if !ok {
			return nil, fmt.Errorf("am: %s = %s has the wrong signature (%T)", slot, fname, sym)
		}
	}
	if ps.GetNext == nil {
		return nil, fmt.Errorf("am: am_getnext is mandatory")
	}
	return ps, nil
}

// DefaultBatchCap is the server's default am_getmulti batch capacity when
// an access method does not negotiate a different one at am_beginscan.
const DefaultBatchCap = 64

// AdaptGetNext wraps a getnext-only access method's am_getnext as a batch
// fill, so the server's batched executor drives legacy blades unchanged.
// The hooks bracket each underlying am_getnext call (the server traces the
// call and closes its PER_FUNCTION memory window there), preserving the
// paper's Figure 6 row-at-a-time call sequence in the trace.
func AdaptGetNext(next AmGetNextFunc, before, after func()) AmGetMultiFunc {
	return func(ctx *mi.Context, sd *ScanDesc) (int, error) {
		b := sd.Batch
		b.Reset()
		for !b.Full() {
			if before != nil {
				before()
			}
			rid, row, ok, err := next(ctx, sd)
			if after != nil {
				after()
			}
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			b.Append(rid, row)
		}
		return b.N, nil
	}
}

// FillFrom drives one am_getmulti (or adapted am_getnext) call through the
// purpose set, allocating sd.Batch on first use. getMulti is the resolved
// batch function (native GetMulti or an AdaptGetNext wrapper). Rows are
// counted into sd.Obs here — after the fill, at the single point both paths
// share — so a native am_getmulti and an adapted am_getnext scan report
// identical rows-scanned counts by construction.
func FillFrom(ctx *mi.Context, sd *ScanDesc, getMulti AmGetMultiFunc) (int, error) {
	if sd.Batch == nil {
		if sd.BatchCap < 1 {
			sd.BatchCap = 1
		}
		sd.Batch = NewScanBatch(sd.BatchCap)
	}
	n, err := getMulti(ctx, sd)
	if err == nil {
		sd.Obs.AddScanned(n)
	}
	return n, err
}

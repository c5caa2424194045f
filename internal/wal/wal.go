// Package wal implements the engine's write-ahead log and crash recovery.
//
// The paper observes (Section 5.3) that a DataBlade developer gets no access
// to Informix's log manager: indices stored in sbspace large objects inherit
// the server's coarse page-level recovery, and the fine-grained protocols of
// Kornacker et al. cannot be expressed. This package is that server-side log
// manager: physical byte-range logging of page updates with redo-history
// recovery (redo everything in log order, then undo loser transactions in
// reverse order, writing compensation records).
//
// The write path is built for concurrency. Append encodes records into an
// in-memory tail buffer (no syscall, one copy of the images, pooled buffers);
// a dedicated flusher goroutine writes and fsyncs the tail in batches; and
// committing sessions choose how to wait for durability (CommitMode): SYNC
// forces a private flush, GROUP parks on the flusher so concurrent commits
// coalesce into one fsync, ASYNC returns at append time with bounded loss.
// Checkpoint records plus TruncateTo rotation keep the log prefix — and the
// startup scan — bounded. See flush.go for the flusher, group commit, and
// rotation.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/storage"
)

// LSN is a log sequence number: the logical byte offset of a record in the
// log stream. LSNs are stable across truncation — rotating the log away
// under a record does not renumber the survivors.
type LSN uint64

// NilLSN terminates undo chains.
const NilLSN LSN = 0

// RecType discriminates log records.
type RecType uint8

const (
	// RecBegin marks the start of a transaction.
	RecBegin RecType = iota + 1
	// RecCommit marks a committed transaction; appending it forces the log.
	RecCommit
	// RecAbort marks a rolled-back transaction (after its undo completed).
	RecAbort
	// RecUpdate is a physical byte-range page update with before/after images.
	RecUpdate
	// RecCLR is a compensation record written while undoing an update.
	RecCLR
	// RecCheckpoint records the set of active transactions.
	RecCheckpoint
)

func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecUpdate:
		return "UPDATE"
	case RecCLR:
		return "CLR"
	case RecCheckpoint:
		return "CHECKPOINT"
	}
	return "?"
}

// Record is one log record.
type Record struct {
	LSN     LSN
	Type    RecType
	Tx      uint64
	PrevLSN LSN // previous record of the same transaction (undo chain)
	Space   uint32
	Page    uint64
	Offset  uint16
	Before  []byte
	After   []byte
	// UndoNext, in a CLR, is the next record of the transaction still to be
	// undone; recovery resumes there instead of re-undoing compensated work.
	UndoNext LSN
	// Active, in a checkpoint, lists transactions alive at checkpoint time
	// with their last LSNs.
	Active map[uint64]LSN
}

// Log is an append-only write-ahead log backed by one file.
//
// Logical layout: LSNs [base, written) live in the file, [written,
// written+len(writing)) are mid-write by the flusher, and the tail up to
// size sits in the pending buffer. written and pending boundaries always
// fall on record boundaries, so any record lives wholly in one region.
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast whenever flushed advances

	base     LSN   // LSN of the first byte retained in the file
	size     int64 // logical append point (next LSN)
	written  int64 // records below this are in the file
	flushed  int64 // records below this are durable
	pending  []byte
	writing  []byte         // owned by an in-flight flush (ioMu holder)
	lastLSN  map[uint64]LSN // per-transaction undo chain heads
	firstLSN map[uint64]LSN // per-transaction first record (truncation floor)
	nparked  int            // commits currently parked on the flusher
	closed   bool
	ioErr    error // sticky flusher I/O error, reported to waiters

	// ioMu serialises the write+fsync and rotation sections so that at most
	// one goroutine owns the file position and the writing buffer.
	ioMu sync.Mutex
	f    *os.File
	path string

	flushC chan struct{} // wakes the flusher (capacity 1)
	quit   chan struct{}
	done   chan struct{}

	obs *obs.Registry
}

// SetObs attaches the registry that counts the log's appends, bytes, fsyncs
// (wal.flushes, split by cause), commit groups and truncated bytes. Call
// before concurrent use.
func (l *Log) SetObs(reg *obs.Registry) { l.obs = reg }

// Log file header: magic, format version, base LSN of the first record.
const logHeaderSize = 16
const logMagic = 0x47525457
const logVersion = 2

var errClosed = errors.New("wal: log closed")

// encode buffers are pooled across flush cycles; oversized ones (a huge
// checkpoint or image burst) are dropped rather than pinned forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// Open opens or creates the log at path and positions appends at its end
// (discarding a torn tail, if any). The startup scan begins at the log's
// base LSN, so a checkpointed-and-truncated log opens in time proportional
// to the retained suffix, not total history.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{
		f:        f,
		path:     path,
		lastLSN:  make(map[uint64]LSN),
		firstLSN: make(map[uint64]LSN),
		flushC:   make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		l.base = logHeaderSize
		err := writeHeader(f, l.base)
		if err == nil {
			err = syncDir(filepath.Dir(path))
		}
		if err != nil {
			f.Close()
			return nil, err
		}
	} else {
		var hdr [logHeaderSize]byte
		if _, err := io.ReadFull(io.NewSectionReader(f, 0, logHeaderSize), hdr[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %s: short header", path)
		}
		if binary.BigEndian.Uint32(hdr[:4]) != logMagic {
			f.Close()
			return nil, fmt.Errorf("wal: %s is not a log file", path)
		}
		if v := binary.BigEndian.Uint32(hdr[4:8]); v != logVersion {
			f.Close()
			return nil, fmt.Errorf("wal: %s: unsupported log version %d", path, v)
		}
		l.base = LSN(binary.BigEndian.Uint64(hdr[8:16]))
	}
	// Scan to the end of valid records to find the append point and rebuild
	// per-transaction chains. The sentinel makes readAt treat the whole
	// stream as file-resident while the logical bounds are still unknown.
	l.size = 1 << 62
	l.written = 1 << 62
	end := int64(l.base)
	err = l.Scan(func(r Record) error {
		l.chain(r)
		end = int64(r.LSN) + int64(recordDiskSize(r))
		return nil
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	l.size = end
	l.written = end
	l.flushed = end
	go l.flusher()
	return l, nil
}

func writeHeader(f *os.File, base LSN) error {
	var hdr [logHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], logMagic)
	binary.BigEndian.PutUint32(hdr[4:8], logVersion)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(base))
	_, err := f.WriteAt(hdr[:], 0)
	return err
}

// fileOff maps a logical LSN to its offset in the current file. Caller
// holds mu (or ioMu during a flush, which excludes rotation).
func (l *Log) fileOff(lsn int64) int64 {
	return logHeaderSize + (lsn - int64(l.base))
}

// Close stops the flusher (which drains and fsyncs the tail) and closes the
// file. Safe to call twice.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.done
	l.mu.Lock()
	err := l.ioErr
	l.cond.Broadcast() // release any stragglers; flushed covers them now
	l.mu.Unlock()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// LastLSN returns the head of tx's undo chain.
func (l *Log) LastLSN(tx uint64) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN[tx]
}

// Size returns the logical append point: total bytes ever appended plus the
// header. Monotonic across truncation (the checkpointer thresholds on its
// growth).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Base returns the LSN of the oldest retained byte (advances on TruncateTo).
func (l *Log) Base() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Append buffers the record (filling in LSN and PrevLSN) and returns its
// LSN. No syscall happens here: the record reaches the file on the next
// flush (the flusher's cadence, a commit, or an explicit Flush).
func (l *Log) Append(r Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return NilLSN, errClosed
	}
	return l.appendLocked(r), nil
}

// appendLocked encodes r directly into the pooled tail buffer — the only
// copy of the image bytes the log ever makes — and updates the
// per-transaction chains. Caller holds mu.
func (l *Log) appendLocked(r Record) LSN {
	r.LSN = LSN(l.size)
	if r.Type != RecCheckpoint {
		r.PrevLSN = l.lastLSN[r.Tx]
	}
	if l.pending == nil {
		l.pending = (*bufPool.Get().(*[]byte))[:0]
	}
	n0 := len(l.pending)
	l.pending = appendRecord(l.pending, r)
	n := len(l.pending) - n0
	l.size += int64(n)
	l.obs.Inc(obs.WalAppends)
	l.obs.Add(obs.WalBytes, uint64(n))
	l.chain(r)
	return r.LSN
}

// chain keeps the per-transaction chains current for record r. Transaction
// 0's updates are redo-only: they get no undo chain, and they never hold
// back truncation. Caller holds mu (or owns the log during Open).
func (l *Log) chain(r Record) {
	switch {
	case r.Type == RecCommit || r.Type == RecAbort:
		delete(l.lastLSN, r.Tx)
		delete(l.firstLSN, r.Tx)
	case r.Type == RecCheckpoint || r.Tx == 0:
		// no chain bookkeeping
	default:
		l.lastLSN[r.Tx] = r.LSN
		if _, ok := l.firstLSN[r.Tx]; !ok {
			l.firstLSN[r.Tx] = r.LSN
		}
	}
}

// Begin appends a BEGIN record for tx.
func (l *Log) Begin(tx uint64) (LSN, error) {
	return l.Append(Record{Type: RecBegin, Tx: tx})
}

// Update appends one physical byte-range update record per changed run of a
// single page edit, all under one hold of the log's mutex, so the flusher
// never writes part of an edit. Each record chains to the one before it, so
// undo restores every run. The images are copied exactly once, into the tail
// buffer, before Update returns — callers may reuse the runs immediately.
// Transaction 0 marks a redo-only update. It returns the last record's LSN.
func (l *Log) Update(tx uint64, space uint32, page uint64, runs []storage.Run) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return NilLSN, errClosed
	}
	lsn := NilLSN
	for _, r := range runs {
		lsn = l.appendLocked(Record{
			Type: RecUpdate, Tx: tx, Space: space, Page: page, Offset: uint16(r.Off),
			Before: r.Before, After: r.After,
		})
	}
	return lsn, nil
}

// Abort appends an ABORT record (the caller must already have applied the
// undo, normally via RollbackTo).
func (l *Log) Abort(tx uint64) (LSN, error) {
	return l.Append(Record{Type: RecAbort, Tx: tx})
}

// CheckpointCut appends a checkpoint record carrying the live transactions
// (snapshotted atomically with the append), makes it durable, and returns
// its LSN with the truncation cutoff: the oldest LSN recovery still needs,
// i.e. the minimum of the checkpoint LSN and every live transaction's first
// record. Any transaction whose page writes might still be in flight is live
// at the moment the record is appended, so forcing dirty pages after this
// call and truncating to the cutoff is safe.
func (l *Log) CheckpointCut() (lsn, cutoff LSN, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return NilLSN, NilLSN, errClosed
	}
	cp := Record{Type: RecCheckpoint, Active: make(map[uint64]LSN, len(l.lastLSN))}
	for tx, at := range l.lastLSN {
		cp.Active[tx] = at
	}
	lsn = l.appendLocked(cp)
	cutoff = lsn
	for _, first := range l.firstLSN {
		if first < cutoff {
			cutoff = first
		}
	}
	target := l.size
	l.mu.Unlock()
	return lsn, cutoff, l.flushTo(target)
}

// Flush forces all appended records to durable storage.
func (l *Log) Flush() error {
	l.mu.Lock()
	target := l.size
	l.mu.Unlock()
	return l.flushTo(target)
}

// FlushedTo reports whether the record at lsn is durable.
func (l *Log) FlushedTo(lsn LSN) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(lsn) < l.flushed
}

// ReadRecord reads the record at lsn (from the file or, for the unflushed
// tail, from the in-memory buffers — rollback walks chains that may not
// have hit disk yet).
func (l *Log) ReadRecord(lsn LSN) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readAt(int64(lsn))
}

// Scan iterates all valid records in log order, starting at the base (the
// truncated prefix is gone). Iteration stops early if fn returns an error.
// Each record is read under the mutex and fn runs without it, so fn may flush
// the log: redo does, when its page write evicts a dirty page and the buffer
// pool's flush hook forces the log first.
func (l *Log) Scan(fn func(Record) error) error {
	l.mu.Lock()
	off := l.base
	l.mu.Unlock()
	for {
		r, err := l.ReadRecord(off)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, errTorn) {
				return nil // clean end or torn tail
			}
			return err
		}
		if err := fn(r); err != nil {
			return err
		}
		off += LSN(recordDiskSize(r))
	}
}

var errTorn = errors.New("wal: torn record")

// readAt resolves the record at logical offset off from whichever region
// holds it: the file, the flusher's in-flight chunk, or the pending tail.
// Caller holds mu.
func (l *Log) readAt(off int64) (Record, error) {
	if off < int64(l.base) {
		return Record{}, fmt.Errorf("wal: LSN %d is below the truncated log base %d", off, l.base)
	}
	pendStart := l.written + int64(len(l.writing))
	if off >= pendStart {
		if off >= l.size {
			return Record{}, io.EOF
		}
		return decodeBytes(l.pending[off-pendStart:], off)
	}
	if off >= l.written {
		return decodeBytes(l.writing[off-l.written:], off)
	}
	var hdr [8]byte
	n, err := l.f.ReadAt(hdr[:], l.fileOff(off))
	if err != nil || n < 8 {
		if err == nil || errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	sum := binary.BigEndian.Uint32(hdr[4:8])
	if length == 0 || length > 1<<24 {
		return Record{}, errTorn
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(io.NewSectionReader(l.f, l.fileOff(off)+8, int64(length)), payload); err != nil {
		return Record{}, errTorn
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, errTorn
	}
	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, err
	}
	r.LSN = LSN(off)
	return r, nil
}

// decodeBytes parses one record from an in-memory region.
func decodeBytes(b []byte, off int64) (Record, error) {
	if len(b) < 8 {
		return Record{}, errTorn
	}
	length := binary.BigEndian.Uint32(b[:4])
	sum := binary.BigEndian.Uint32(b[4:8])
	if length == 0 || length > 1<<24 || len(b) < 8+int(length) {
		return Record{}, errTorn
	}
	payload := b[8 : 8+length]
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, errTorn
	}
	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, err
	}
	r.LSN = LSN(off)
	return r, nil
}

func recordDiskSize(r Record) int { return 8 + payloadSize(r) }

func payloadSize(r Record) int {
	n := 1 + 8 + 8 + 4 + 8 + 2 + 4 + len(r.Before) + 4 + len(r.After) + 8 + 4 + 16*len(r.Active)
	return n
}

// appendRecord encodes r (8-byte length+CRC header, then payload) directly
// onto buf. This is the single copy the image bytes make on the append
// path.
func appendRecord(buf []byte, r Record) []byte {
	hdrAt := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	pStart := len(buf)
	buf = append(buf, byte(r.Type))
	buf = binary.BigEndian.AppendUint64(buf, r.Tx)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.PrevLSN))
	buf = binary.BigEndian.AppendUint32(buf, r.Space)
	buf = binary.BigEndian.AppendUint64(buf, r.Page)
	buf = binary.BigEndian.AppendUint16(buf, r.Offset)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Before)))
	buf = append(buf, r.Before...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.After)))
	buf = append(buf, r.After...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.UndoNext))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Active)))
	for tx, lsn := range r.Active {
		buf = binary.BigEndian.AppendUint64(buf, tx)
		buf = binary.BigEndian.AppendUint64(buf, uint64(lsn))
	}
	payload := buf[pStart:]
	binary.BigEndian.PutUint32(buf[hdrAt:hdrAt+4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[hdrAt+4:hdrAt+8], crc32.ChecksumIEEE(payload))
	return buf
}

func decodePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < 1+8+8+4+8+2+4 {
		return r, errTorn
	}
	r.Type = RecType(p[0])
	p = p[1:]
	r.Tx = binary.BigEndian.Uint64(p)
	p = p[8:]
	r.PrevLSN = LSN(binary.BigEndian.Uint64(p))
	p = p[8:]
	r.Space = binary.BigEndian.Uint32(p)
	p = p[4:]
	r.Page = binary.BigEndian.Uint64(p)
	p = p[8:]
	r.Offset = binary.BigEndian.Uint16(p)
	p = p[2:]
	bl := binary.BigEndian.Uint32(p)
	p = p[4:]
	if uint32(len(p)) < bl {
		return r, errTorn
	}
	r.Before = append([]byte(nil), p[:bl]...)
	p = p[bl:]
	if len(p) < 4 {
		return r, errTorn
	}
	al := binary.BigEndian.Uint32(p)
	p = p[4:]
	if uint32(len(p)) < al {
		return r, errTorn
	}
	r.After = append([]byte(nil), p[:al]...)
	p = p[al:]
	if len(p) < 12 {
		return r, errTorn
	}
	r.UndoNext = LSN(binary.BigEndian.Uint64(p))
	p = p[8:]
	na := binary.BigEndian.Uint32(p)
	p = p[4:]
	if na > 0 {
		if uint32(len(p)) < 16*na {
			return r, errTorn
		}
		r.Active = make(map[uint64]LSN, na)
		for i := uint32(0); i < na; i++ {
			tx := binary.BigEndian.Uint64(p)
			lsn := LSN(binary.BigEndian.Uint64(p[8:]))
			r.Active[tx] = lsn
			p = p[16:]
		}
	}
	return r, nil
}

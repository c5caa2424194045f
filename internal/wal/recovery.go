package wal

import (
	"fmt"
)

// PageStore is the page write recovery and rollback need: write img at off
// of page, extending the store when a crash lost the page's allocation. The
// engine's buffer pools implement it, so redo and undo stay cache-coherent.
type PageStore interface {
	Apply(page uint64, off uint16, img []byte) error
}

// RecoveryReport summarises a recovery run.
type RecoveryReport struct {
	RecordsScanned int
	Redone         int
	UndoneTx       []uint64
	UndoneRecords  int
}

// Recover brings the page stores to a transaction-consistent state after a
// crash: redo history in log order, then undo every loser transaction in
// reverse order, appending compensation records and a final ABORT for each.
// Updates under transaction 0 are redo-only: redone, never undone.
func Recover(l *Log, spaces map[uint32]PageStore) (RecoveryReport, error) {
	var rep RecoveryReport

	// Analysis: find loser transactions (begun, neither committed nor
	// aborted) and their last LSNs. done remembers finished transactions so
	// a checkpoint's active table (stale by the time of a later COMMIT)
	// cannot resurrect them as losers.
	losers := make(map[uint64]LSN)
	undoNext := make(map[uint64]LSN) // resume point per tx (CLR-aware)
	done := make(map[uint64]bool)
	err := l.Scan(func(r Record) error {
		rep.RecordsScanned++
		switch r.Type {
		case RecBegin:
			losers[r.Tx] = r.LSN
			undoNext[r.Tx] = NilLSN
		case RecCommit, RecAbort:
			delete(losers, r.Tx)
			delete(undoNext, r.Tx)
			done[r.Tx] = true
		case RecUpdate:
			if r.Tx == 0 {
				break // redo-only: never undone
			}
			losers[r.Tx] = r.LSN
			undoNext[r.Tx] = r.LSN
		case RecCLR:
			losers[r.Tx] = r.LSN
			undoNext[r.Tx] = r.UndoNext
		case RecCheckpoint:
			for tx, lsn := range r.Active {
				if _, known := losers[tx]; !known && !done[tx] {
					losers[tx] = lsn
					undoNext[tx] = lsn
				}
			}
		}
		return nil
	})
	if err != nil {
		return rep, err
	}

	// Redo history: apply every after-image (updates and CLRs) in log order.
	err = l.Scan(func(r Record) error {
		if r.Type != RecUpdate && r.Type != RecCLR {
			return nil
		}
		if err := applyImage(spaces, r.Space, r.Page, r.Offset, r.After); err != nil {
			return err
		}
		rep.Redone++
		return nil
	})
	if err != nil {
		return rep, err
	}

	// Undo losers: walk each chain from its resume point, applying before
	// images and writing CLRs.
	for tx := range losers {
		rep.UndoneTx = append(rep.UndoneTx, tx)
		n, err := undoChain(l, spaces, tx, undoNext[tx], NilLSN)
		if err != nil {
			return rep, err
		}
		rep.UndoneRecords += n
		if _, err := l.Abort(tx); err != nil {
			return rep, err
		}
	}
	if err := l.Flush(); err != nil {
		return rep, err
	}
	return rep, nil
}

// RollbackTo undoes tx's records after stop (a LastLSN taken earlier, or
// NilLSN for the whole transaction) at run time, applying before images back
// through the undo chain and writing CLRs, and leaves the transaction open:
// the caller appends ABORT (Abort) when it rolls the whole transaction back.
func RollbackTo(l *Log, spaces map[uint32]PageStore, tx uint64, stop LSN) error {
	_, err := undoChain(l, spaces, tx, l.LastLSN(tx), stop)
	return err
}

// undoChain walks tx's chain from LSN from down to, not including, stop. A
// CLR's UndoNext skips work an earlier undo already compensated.
func undoChain(l *Log, spaces map[uint32]PageStore, tx uint64, from, stop LSN) (int, error) {
	undone := 0
	lsn := from
	for lsn > stop {
		r, err := l.ReadRecord(lsn)
		if err != nil {
			return undone, fmt.Errorf("wal: undo tx %d at %d: %w", tx, lsn, err)
		}
		switch r.Type {
		case RecUpdate:
			if err := applyImage(spaces, r.Space, r.Page, r.Offset, r.Before); err != nil {
				return undone, err
			}
			if _, err := l.Append(Record{
				Type: RecCLR, Tx: tx, Space: r.Space, Page: r.Page,
				Offset: r.Offset, After: r.Before, UndoNext: r.PrevLSN,
			}); err != nil {
				return undone, err
			}
			undone++
			lsn = r.PrevLSN
		case RecCLR:
			lsn = r.UndoNext // skip already-compensated work
		default:
			lsn = r.PrevLSN
		}
	}
	return undone, nil
}

func applyImage(spaces map[uint32]PageStore, space uint32, page uint64, offset uint16, img []byte) error {
	if len(img) == 0 {
		return nil
	}
	ps, ok := spaces[space]
	if !ok {
		return fmt.Errorf("wal: unknown space %d in log", space)
	}
	return ps.Apply(page, offset, img)
}

package engine

import (
	"fmt"
	"sync"

	"snapdb/internal/binlog"
	"snapdb/internal/sqlparse"
	"snapdb/internal/wal"
)

// txnState is one open explicit transaction.
//
// The design mirrors the ACID machinery §3 of the paper points at:
// every change is already in the undo log before commit (that is what
// makes rollback — even across crashes — possible), so *both* committed
// and aborted transactions leave byte-level traces in the WAL. Only the
// binlog is commit-scoped: statement events buffer in the transaction
// and flush on COMMIT, as in MySQL's binlog cache.
type txnState struct {
	walTxn uint64 // WAL transaction id (stamps every record)

	// mu guards undo, binlogBuf and view: the owning session mutates
	// them mid-transaction while the active_transactions system view
	// reads them from other sessions.
	mu        sync.Mutex
	undo      []wal.Record   // this transaction's undo records, in order
	binlogBuf []binlog.Event // statement events awaiting COMMIT

	// sessionID owns the transaction (for the active_transactions view).
	sessionID int
	// readOnly marks a SET TRANSACTION READ ONLY transaction: DML is
	// refused, reads still pin a consistent view.
	readOnly bool
	// view is the transaction's MVCC read view, pinned at its first
	// consistent read (repeatable read) and released at COMMIT/ROLLBACK.
	view *readView
}

// stmtTxn returns the WAL transaction id a statement logs under: the
// open explicit transaction's, or a fresh ephemeral id whose commit
// marker the statement itself writes (auto=true). Recovery replays a
// transaction only if its commit marker reached disk, so autocommit
// statements are crash-atomic too.
func (s *Session) stmtTxn(e *Engine) (txn uint64, auto bool) {
	if s.txn != nil {
		return s.txn.walTxn, false
	}
	return e.wal.BeginTxn(), true
}

// noteUndo buffers an undo record in the open transaction's rollback
// buffer. An autocommit statement keeps its own list (dmlStmt.undo).
func (s *Session) noteUndo(rec wal.Record) {
	if s.txn != nil {
		s.txn.mu.Lock()
		s.txn.undo = append(s.txn.undo, rec)
		s.txn.mu.Unlock()
	}
}

// emitBinlog routes a statement's binlog event: buffered inside an open
// transaction, committed through the binlog's group-commit pipeline
// otherwise (which stamps the commit-time LSN and timestamp). The
// returned error is the durability sink's, if one is attached.
func (s *Session) emitBinlog(e *Engine, ev binlog.Event) error {
	if !e.cfg.EnableBinlog {
		return nil
	}
	if s.txn != nil {
		s.txn.mu.Lock()
		s.txn.binlogBuf = append(s.txn.binlogBuf, ev)
		s.txn.mu.Unlock()
		return nil
	}
	if err := e.binlog.Commit(ev); err != nil {
		return fmt.Errorf("engine: binlog: %w", err)
	}
	return nil
}

// InTransaction reports whether the session has an open transaction.
func (s *Session) InTransaction() bool { return s.txn != nil }

func (e *Engine) execTxnControl(s *Session, st *sqlparse.TxnControl, ts int64) (*Result, error) {
	switch st.Op {
	case sqlparse.TxnBegin:
		if s.txn != nil {
			return nil, fmt.Errorf("engine: transaction already open")
		}
		s.txn = &txnState{walTxn: e.wal.BeginTxn(), sessionID: s.ID, readOnly: s.nextTxnReadOnly}
		s.nextTxnReadOnly = false // one-shot, like MySQL's SET TRANSACTION
		e.openTxns.Add(1)
		e.mu.Lock()
		e.activeTxns[s.ID] = s.txn
		e.mu.Unlock()
		return &Result{}, nil
	case sqlparse.TxnCommit:
		if s.txn == nil {
			return nil, fmt.Errorf("engine: COMMIT without open transaction")
		}
		// The commit marker is the transaction's durability point:
		// recovery replays these changes only once it is on disk. It
		// must reach the WAL *before* the binlog flush — the historical
		// reverse order meant a crash between the two left binlog'd
		// statements the WAL would never replay, silently diverging the
		// replication stream from the recovered data. (The binlog append
		// is the crash-torture kill point covering this window.) On a
		// WAL sink failure the transaction stays open: nothing is
		// durable, and the client may retry or roll back.
		s.txn.mu.Lock()
		undo := s.txn.undo
		evs := s.txn.binlogBuf
		s.txn.binlogBuf = nil
		s.txn.mu.Unlock()
		if len(undo) > 0 {
			if err := e.wal.LogCommit(s.txn.walTxn); err != nil {
				return nil, fmt.Errorf("engine: wal commit: %w", err)
			}
		}
		// Flush buffered statement events with the commit timestamp as
		// one contiguous group-committed batch, as MySQL writes the
		// binlog cache at commit. The transaction is already durably
		// committed here, so a binlog failure is reported but cannot
		// reopen it — recovered data may carry statements the binlog
		// lacks, never the reverse.
		for i := range evs {
			evs[i].Timestamp = ts
		}
		binlogErr := e.binlog.CommitBatch(evs)
		e.commitVersions(s.txn.walTxn) // before openTxns drops: a checkpoint must find every chain resolved
		s.endTxn(e)
		if binlogErr != nil {
			return nil, fmt.Errorf("engine: binlog: %w", binlogErr)
		}
		return &Result{}, nil
	case sqlparse.TxnRollback:
		if s.txn == nil {
			return nil, fmt.Errorf("engine: ROLLBACK without open transaction")
		}
		txn := s.endTxn(e)
		if err := e.rollbackTxn(txn.walTxn, txn.undo); err != nil {
			return nil, fmt.Errorf("engine: rollback: %w", err)
		}
		// MySQL reports 0 rows affected for ROLLBACK; the undo-record
		// count the engine used to report here double-counted
		// multi-column updates (one undo record per column).
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("engine: unknown transaction op")
	}
}

// endTxn closes the session's open transaction — the session is back in
// autocommit mode, the read view is released — and returns it. No other
// session can reach the returned state any more.
func (s *Session) endTxn(e *Engine) *txnState {
	txn := s.txn
	s.txn = nil
	e.openTxns.Add(-1)
	e.mu.Lock()
	delete(e.activeTxns, s.ID)
	e.mu.Unlock()
	if txn.view != nil {
		e.versions.release(txn.view)
	}
	return txn
}

// rollbackTxn is the abort protocol — ROLLBACK's, a failed autocommit
// statement's, and recovery's for a loser: undo the logged changes, log
// the abort marker, resolve txn in the version store. The marker
// records that the rollback ran to completion; after a crash, recovery
// sees it and leaves the compensated state alone instead of undoing a
// second time. Resolving txn makes the compensated (= pre-transaction)
// state the visible latest; the intermediate versions stay invisible to
// every view, and purge can reclaim the chains.
func (e *Engine) rollbackTxn(txn uint64, undo []wal.Record) error {
	if err := e.applyUndo(txn, undo); err != nil {
		return err
	}
	if len(undo) > 0 {
		if err := e.wal.LogAbort(txn); err != nil {
			return fmt.Errorf("abort marker: %w", err)
		}
	}
	e.commitVersions(txn)
	return nil
}

// applyUndo reverses a transaction's changes newest-first, logging
// compensating records to the WAL under the same transaction id (as
// InnoDB does) — which is exactly why §3 notes that even aborted
// activity persists on disk.
func (e *Engine) applyUndo(txn uint64, undo []wal.Record) error {
	for i := len(undo) - 1; i >= 0; i-- {
		rec := undo[i]
		t, ok := e.TableByID(rec.Table)
		if !ok {
			return fmt.Errorf("undo references unknown table %d", rec.Table)
		}
		if err := e.undoRecord(t, txn, rec); err != nil {
			return err
		}
		e.qcache.InvalidateTable(t.Name)
	}
	return nil
}

// undoRecord reverses one undo record under the table's write latch
// (MVCC readers take no stripes, so the latch is what keeps them from
// observing a half-reversed row): look the row up, run the opposite row
// mutator, and log the compensation under the same transaction. The
// mutators file each compensation's pre-image too: the rolled-back
// values join the version chains, where — as §3 predicts for aborted
// activity — they remain recoverable.
func (e *Engine) undoRecord(t *Table, txn uint64, rec wal.Record) error {
	t.latch.Lock()
	defer t.latch.Unlock()
	if len(rec.Image) < 1 {
		return fmt.Errorf("corrupt %v-undo image", rec.Op)
	}
	key := rec.Image[:1]
	var logErr error
	switch rec.Op {
	case wal.OpInsert:
		// Undo an insert: delete the row, if it is still there. The
		// compensation logs a key-only delete image — there is no older
		// row for anyone to restore.
		row, found, err := t.Tree.Search(key[0])
		if err != nil || !found {
			return err
		}
		if err := e.deleteRow(t, row, txn); err != nil {
			return err
		}
		_, _, logErr = e.wal.TxDelete(txn, t.ID, key)
	case wal.OpUpdate:
		// Undo an update: restore the old column value.
		if len(rec.Image) < 2 {
			return fmt.Errorf("corrupt update-undo image")
		}
		cur, found, err := t.Tree.Search(key[0])
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("undo target row %s missing", key[0])
		}
		col := int(rec.Column)
		if col >= len(cur) {
			return fmt.Errorf("undo column %d out of range", col)
		}
		if err := e.updateRow(t, cur, []setOp{{idx: col, val: rec.Image[1]}}, txn); err != nil {
			return err
		}
		_, _, logErr = e.wal.TxUpdate(txn, t.ID, key, rec.Column, cur[col:col+1], rec.Image[1:2])
	case wal.OpDelete:
		// Undo a delete: reinsert the full old row.
		if err := e.insertRow(t, rec.Image.Clone(), txn); err != nil {
			return err
		}
		_, _, logErr = e.wal.TxInsert(txn, t.ID, rec.Image)
	default:
		return fmt.Errorf("unknown undo op %v", rec.Op)
	}
	if logErr != nil {
		return fmt.Errorf("logging compensation: %w", logErr)
	}
	return nil
}

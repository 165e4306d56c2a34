package engine

import (
	"errors"
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

// publish ends a statement that changed something. Inside an open
// transaction its binlog event joins the transaction's buffer and COMMIT
// publishes it; otherwise the statement is its own transaction txn —
// txn 0 when it logged nothing (ANALYZE TABLE) — and commitTxn queues
// its end, which the session syncs with the rest of its pending group.
func (s *Session) publish(e *Engine, txn uint64, ev binlog.Event) {
	if s.txn == nil {
		s.pending = e.commitTxn(txn, txn != 0, []binlog.Event{ev})
		return
	}
	if e.cfg.EnableBinlog {
		s.txn.mu.Lock()
		s.txn.binlogBuf = append(s.txn.binlogBuf, ev)
		s.txn.mu.Unlock()
	}
}

// commitTxn queues the one commit order — COMMIT's, every autocommit
// statement's, and (with nothing logged) ANALYZE TABLE's and DDL's — and
// returns the ticket to sync on. One flush then stores, in order:
//
//  1. the WAL commit marker, if txn logged anything, with the redo and
//     undo records before it: the durability point, after which
//     recovery replays the changes;
//  2. the binlog batch, stamped with the marker's LSN and the commit
//     timestamp;
//
// and then resolves txn in the version store (wal.Manager.Resolved),
// which makes its changes the visible latest. Nothing reaches the
// binlog before the marker is on disk, so a crash anywhere leaves the
// recovered binlog at or behind the recovered data, never ahead: a
// replica never applies a write the primary lost. If the flush fails
// before the marker is durable, txn is not committed and never becomes
// visible; a binlog failure after it is reported but cannot undo the
// commit.
func (e *Engine) commitTxn(txn uint64, logged bool, evs []binlog.Event) wal.Ticket {
	op := wal.Op(0)
	if logged {
		op = wal.OpCommit
	}
	if !e.cfg.EnableBinlog {
		evs = nil
	}
	return e.wal.EndTxn(txn, op, evs)
}

// commitDDL is every DDL statement's durability point. The catalog is
// not WAL-logged, so the engine persists DDL by checkpointing —
// every later WAL record then references a table the checkpoint knows —
// and only then binlogs the statement, so a crash between the two
// leaves the recovered catalog ahead of the binlog, never behind it.
// Callers hold every table lock and not e.mu (the checkpoint takes it).
func (e *Engine) commitDDL(query string, ts int64) error {
	if err := e.checkpointLocked(); err != nil {
		return fmt.Errorf("engine: DDL checkpoint: %w", err)
	}
	return e.wal.Sync(e.commitTxn(0, false, []binlog.Event{{Timestamp: ts, Statement: query}}))
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
		// Buffered statement events flush with the commit timestamp as
		// one contiguous batch, as MySQL writes the binlog cache at
		// commit. If the flush fails before the commit marker is durable
		// the transaction stays open: nothing is durable, and the client
		// may retry or roll back. The flush resolves the versions before
		// openTxns drops, so a checkpoint finds every chain resolved.
		txn := s.txn.walTxn
		s.txn.mu.Lock()
		logged := len(s.txn.undo) > 0
		evs := s.txn.binlogBuf
		s.txn.mu.Unlock()
		for i := range evs {
			evs[i].Timestamp = ts
		}
		err := e.wal.Sync(e.commitTxn(txn, logged, evs))
		if !logged {
			e.versions.commit(txn) // no marker: nothing for the flush to resolve
		} else if err != nil && !errors.Is(err, wal.ErrBinlog) {
			return nil, fmt.Errorf("engine: commit: %w", err)
		}
		s.endTxn(e)
		if err != nil {
			return nil, fmt.Errorf("engine: commit: %w", err)
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
// statement's, and recovery's for a loser: undo the logged changes,
// queue the abort marker behind the compensations, and sync them all
// in one step. The marker records that the rollback ran to completion;
// after a crash, recovery sees it and leaves the compensated state alone
// instead of undoing a second time. Its flush resolves txn in the
// version store (a transaction that logged nothing is resolved here),
// which makes the compensated (= pre-transaction) state the visible
// latest; the intermediate versions stay invisible to every view, and
// purge can reclaim the chains.
func (e *Engine) rollbackTxn(txn uint64, undo []wal.Record) error {
	if _, err := e.applyUndo(txn, undo); err != nil {
		return err
	}
	if len(undo) == 0 {
		e.versions.commit(txn)
		return nil
	}
	if err := e.wal.Sync(e.wal.EndTxn(txn, wal.OpAbort, nil)); err != nil {
		return fmt.Errorf("abort marker: %w", err)
	}
	return nil
}

// applyUndo reverses a transaction's changes newest-first, queueing
// compensating records to the WAL under the same transaction id (as
// InnoDB does) — which is exactly why §3 notes that even aborted
// activity persists on disk. It returns the last compensation's ticket.
func (e *Engine) applyUndo(txn uint64, undo []wal.Record) (wal.Ticket, error) {
	var last wal.Ticket
	for i := len(undo) - 1; i >= 0; i-- {
		rec := undo[i]
		t, ok := e.TableByID(rec.Table)
		if !ok {
			return last, fmt.Errorf("undo references unknown table %d", rec.Table)
		}
		tk, err := e.undoRecord(t, txn, rec)
		if err != nil {
			return last, err
		}
		last = tk
		e.qcache.InvalidateTable(t.Name)
	}
	return last, nil
}

// undoRecord reverses one undo record under the table's write latch
// (MVCC readers take no stripes, so the latch is what keeps them from
// observing a half-reversed row): look the row up, run the opposite row
// mutator, and queue the compensation under the same transaction. The
// mutators file each compensation's pre-image too: the rolled-back
// values join the version chains, where — as §3 predicts for aborted
// activity — they remain recoverable. A row with nothing to reverse
// queues nothing and returns the zero ticket.
func (e *Engine) undoRecord(t *Table, txn uint64, rec wal.Record) (tk wal.Ticket, err error) {
	t.latch.Lock()
	defer t.latch.Unlock()
	if len(rec.Image) < 1 {
		return tk, fmt.Errorf("corrupt %v-undo image", rec.Op)
	}
	key := rec.Image[:1]
	switch rec.Op {
	case wal.OpInsert:
		// Undo an insert: delete the row, if it is still there. The
		// compensation logs a key-only delete image — there is no older
		// row for anyone to restore.
		row, found, err := t.Tree.Search(key[0])
		if err != nil || !found {
			return tk, err
		}
		if err := e.deleteRow(t, row, txn); err != nil {
			return tk, err
		}
		_, _, tk = e.wal.TxDelete(txn, t.ID, key)
	case wal.OpUpdate:
		// Undo an update: restore the old column value.
		if len(rec.Image) < 2 {
			return tk, fmt.Errorf("corrupt update-undo image")
		}
		cur, found, err := t.Tree.Search(key[0])
		if err != nil {
			return tk, err
		}
		if !found {
			return tk, fmt.Errorf("undo target row %s missing", key[0])
		}
		col := int(rec.Column)
		if col >= len(cur) {
			return tk, fmt.Errorf("undo column %d out of range", col)
		}
		if err := e.updateRow(t, cur, []setOp{{idx: col, val: rec.Image[1]}}, txn); err != nil {
			return tk, err
		}
		_, _, tk = e.wal.TxUpdate(txn, t.ID, key, rec.Column, cur[col:col+1], rec.Image[1:2])
	case wal.OpDelete:
		// Undo a delete: reinsert the full old row.
		if err := e.insertRow(t, rec.Image.Clone(), txn); err != nil {
			return tk, err
		}
		_, _, tk = e.wal.TxInsert(txn, t.ID, rec.Image)
	default:
		return tk, fmt.Errorf("unknown undo op %v", rec.Op)
	}
	return tk, nil
}

package engine

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"snapdb/internal/binlog"
	"snapdb/internal/btree"
	"snapdb/internal/bufpool"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// TruncationInfo records where and why a log file's parse stopped
// before its end — the torn tail or corruption that recovery cut off.
type TruncationInfo struct {
	Offset int
	Reason string
}

// RecoveryReport is the structured outcome of Recover: what was found
// on disk, what was cut off, and what was redone and undone. It is the
// operator-facing account of a crash — and, per §3 of the paper, an
// inventory of exactly how much transcript a crashed data directory
// still holds.
type RecoveryReport struct {
	CheckpointFound bool
	CheckpointLSN   uint64
	Tables          int // tables reopened from the checkpoint

	RedoRecords  int // valid records parsed from the redo file
	UndoRecords  int
	BinlogEvents int

	RedoTruncated   *TruncationInfo // non-nil if the redo file had a bad tail
	UndoTruncated   *TruncationInfo
	BinlogTruncated *TruncationInfo

	TxnsCommitted  int // commit markers in the redo log, one per committed txn
	TxnsAborted    int // abort markers in the redo log, one per rolled-back txn
	TxnsRolledBack int // loser txns rolled back by recovery
	RecordsApplied int // redo records replayed into the trees
	FramesSkipped  int // records skipped (pre-checkpoint LSN or inapplicable)

	BufferPoolWarmed bool // the on-disk dump passed its checksum
	MaxLSN           uint64
}

// readLog reads one framed log file — a missing file is an empty log —
// and walks its valid prefix with walk, which validates every frame it
// passes and does what its caller needs with each. It returns how many
// frames are valid, the length of that prefix (where appends resume,
// cutting off any torn tail) and the truncation to report, if the file
// had a bad tail. A file that exists but cannot be read is an error,
// not an empty log: recovery would otherwise cut it to zero bytes and
// lose every record in it.
func readLog(fs vfs.FS, name string, walk func([]byte) storage.ParseReport) (int, int64, *TruncationInfo, error) {
	img, err := fs.ReadFile(name)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil, fmt.Errorf("engine: read %s: %w", name, err)
	}
	rep := walk(img)
	if rep.Truncated() {
		return rep.Frames, int64(rep.TruncatedAt), &TruncationInfo{Offset: rep.TruncatedAt, Reason: rep.Reason}, nil
	}
	return rep.Frames, int64(len(img)), nil, nil
}

// Recover opens a data directory, rebuilding engine state ARIES-style:
// load the last checkpoint, repeat history from the redo log's valid
// prefix, then roll back transactions that never reached a commit or
// abort marker. Torn or corrupt log tails are truncated (and reported),
// never fatal; a corrupt checkpoint is fatal (there is no state to
// rebuild from) but still a clean error, never a panic. So is a
// checkpoint or log file that exists but cannot be read, and a redo
// record that fails to replay; either way recovery leaves the directory
// as it lies. New with Config.FS set opens its directory the same way.
//
// The returned engine is durable on fs (its Config().FS) and ready to
// serve. The report is non-nil whenever the error is nil, and also on
// log-parse anomalies that were handled; it is returned alongside
// fatal errors too, with whatever was learned before the failure.
func Recover(fs vfs.FS, cfg Config) (*Engine, *RecoveryReport, error) {
	cfg.FS = fs
	// At-rest encryption wraps here, above everything recovery reads:
	// the checkpoint, the log walks and the attached persistor all see
	// plaintext, while fs below holds only ciphertext.
	fs, err := wrapEncryption(fs, cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &RecoveryReport{}

	// The engine is built once, around the tablespace it will serve:
	// the checkpoint's, or an empty one if there is none yet.
	var meta CheckpointMeta
	ts := storage.NewTablespace()
	img, err := fs.ReadFile(FileCheckpoint)
	found := err == nil
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, rep, fmt.Errorf("engine: read checkpoint: %w", err)
	}
	if found {
		var tsImage []byte
		if meta, tsImage, err = DecodeCheckpoint(img); err != nil {
			return nil, rep, err
		}
		rep.CheckpointFound = true
		rep.CheckpointLSN = meta.LSN
		if ts, err = storage.LoadTablespace(tsImage); err != nil {
			return nil, rep, fmt.Errorf("engine: checkpoint tablespace: %w", err)
		}
	}
	e, err := build(cfg, ts)
	if err != nil {
		return nil, rep, err
	}
	if err := e.loadCatalog(meta); err != nil {
		return nil, rep, err
	}
	rep.Tables = len(meta.Tables)

	// Repeat history in one walk of the redo log: every post-checkpoint
	// data record is replayed as it is decoded, in LSN order, winners
	// and losers alike (losers' rollbacks are then redone logically
	// below, exactly as ARIES repeats and compensates). Replaying a
	// record also yields the pre-image that undoes it: the undo *file*
	// may have lost its own tail in the crash, but replay order makes
	// the pre-images exact. A transaction's pre-images are kept in open
	// until its commit or abort marker passes; whatever is still open at
	// the end of the walk is a loser. Txn 0 (records logged outside any
	// transaction, e.g. by tooling driving the wal.Manager directly) is
	// treated as committed, matching its pre-transaction semantics.
	// Replay repeats the trees, not the version store: during the walk
	// the store files no version except onto a chain the checkpoint
	// restored, and only with purge off (mvccStore.replayWrite) — no view
	// can reach the rest, since none opens before every replayed
	// transaction is resolved.
	type openTxn struct {
		txn, last uint64 // last: LSN of its latest applied record
		undo      []wal.Record
	}
	open := make(map[uint64]*openTxn)
	var spare []*openTxn // closed entries, reused: most close a few records after they open
	maxLSN, maxTxn := meta.LSN, meta.Txn
	var redoErr error
	e.versions.beginReplay(cfg.DisablePurge)
	redoN, redoOff, redoTrunc, err := readLog(fs, FileRedo, func(img []byte) storage.ParseReport {
		return wal.WalkLog(img, func(r wal.Record) {
			if redoErr != nil {
				return
			}
			maxLSN, maxTxn = max(maxLSN, r.LSN), max(maxTxn, r.Txn)
			if r.Op.IsMarker() {
				if r.Op == wal.OpCommit {
					rep.TxnsCommitted++
				} else {
					rep.TxnsAborted++
				}
				if o := open[r.Txn]; o != nil {
					delete(open, r.Txn)
					clear(o.undo)
					o.undo = o.undo[:0]
					spare = append(spare, o)
				}
				// Resolve the transaction in the version store at its
				// marker, mirroring the original commit/rollback-completion
				// points: it takes the next commit sequence, and a commit
				// entry if it extended a chain. Pre-checkpoint markers are
				// skipped: those transactions' sequences came with the
				// checkpoint's serialized store.
				if r.Txn != 0 && (!found || r.LSN > meta.LSN) {
					e.versions.commit(r.Txn)
				}
				return
			}
			if found && r.LSN <= meta.LSN {
				rep.FramesSkipped++
				return
			}
			undo, applied, err := e.applyRedo(r)
			if err != nil {
				redoErr = fmt.Errorf("engine: redo LSN %d: %w", r.LSN, err)
				return
			}
			if !applied {
				rep.FramesSkipped++
				return
			}
			rep.RecordsApplied++
			if r.Txn != 0 {
				o := open[r.Txn]
				if o == nil {
					if n := len(spare); n > 0 {
						o, spare = spare[n-1], spare[:n-1]
					} else {
						o = new(openTxn)
					}
					o.txn = r.Txn
					open[r.Txn] = o
				}
				o.undo = append(o.undo, undo)
				o.last = r.LSN
			}
		})
	})
	e.versions.endReplay()
	rep.RedoRecords, rep.RedoTruncated = redoN, redoTrunc
	if err == nil {
		err = redoErr
	}
	if err != nil {
		return nil, rep, err
	}
	rep.MaxLSN = maxLSN

	// Of the undo file recovery needs only where its valid prefix ends,
	// and of the binlog that and the last event: every frame is still
	// decoded and validated, and none is kept.
	undoN, undoOff, undoTrunc, err := readLog(fs, FileUndo, func(img []byte) storage.ParseReport {
		return wal.WalkLog(img, func(wal.Record) {})
	})
	if err != nil {
		return nil, rep, err
	}
	var lastEv binlog.Event
	blogN, blogOff, blogTrunc, err := readLog(fs, FileBinlog, func(img []byte) storage.ParseReport {
		return binlog.Walk(img, func(ev binlog.Event) { lastEv = ev })
	})
	if err != nil {
		return nil, rep, err
	}
	rep.UndoRecords, rep.BinlogEvents = undoN, blogN
	rep.UndoTruncated, rep.BinlogTruncated = undoTrunc, blogTrunc

	// The logs stay in their files: nothing is read back into memory
	// beyond the stamping floors new activity continues from.
	if blogN > 0 {
		e.binlog.Prime(lastEv.Timestamp, lastEv.LSN)
	}
	e.wal.SetRecovered(maxLSN, maxTxn)

	// Attach the durability sink at the valid-prefix offsets; this also
	// truncates the torn tails off the files, now that every walk has
	// succeeded. From here on, compensation records logged below are
	// persisted like any other write.
	if err := e.attachPersist(fs, redoOff, undoOff, blogOff); err != nil {
		return nil, rep, err
	}

	// Undo losers, newest transaction first, logging compensations and
	// an abort marker so a second crash finds only winners and aborted
	// transactions — recovery converges.
	losers := make([]*openTxn, 0, len(open))
	for _, o := range open {
		losers = append(losers, o)
	}
	sort.Slice(losers, func(i, j int) bool { return losers[i].last > losers[j].last })
	for _, o := range losers {
		if err := e.rollbackTxn(o.txn, o.undo); err != nil {
			return nil, rep, fmt.Errorf("engine: rolling back txn %d: %w", o.txn, err)
		}
		rep.TxnsRolledBack++
	}

	// Warm the buffer pool from the dump if its checksum holds; a
	// damaged dump is simply ignored, never trusted.
	if dump, derr := fs.ReadFile(FileBufferPool); derr == nil {
		if ids, perr := bufpool.ParseDump(dump); perr == nil {
			rep.BufferPoolWarmed = true
			for i := len(ids) - 1; i >= 0; i-- { // least-recent first rebuilds LRU order
				_, _ = e.pool.Fetch(ids[i])
			}
		}
	}
	return e, rep, nil
}

// loadCatalog reopens a checkpoint's catalog over the engine's
// tablespace: every table's and index's tree, row count and planner
// statistics, and the version store.
func (e *Engine) loadCatalog(meta CheckpointMeta) error {
	for _, ct := range meta.Tables {
		t := &Table{
			ID:      ct.ID,
			Name:    ct.Name,
			Columns: ct.Columns,
			PKIndex: ct.PK,
			layout:  columnTypes(ct.Columns),
			Tree:    btree.Open(e.ts, e.pool, ct.Root),
		}
		for _, ci := range ct.Indexes {
			t.Indexes = append(t.Indexes, &SecondaryIndex{
				Name:   ci.Name,
				Column: ci.Column,
				colIdx: ci.ColIdx,
				Tree:   btree.Open(e.ts, e.pool, ci.Root),
			})
		}
		sort.Slice(t.Indexes, func(i, j int) bool { return t.Indexes[i].Name < t.Indexes[j].Name })
		if ct.Stats != nil {
			t.setStats(ct.Stats.Cols, ct.Stats.AnalyzedAt, ct.Stats.Baseline)
		}
		if t.Name == "" || e.tables[t.Name] != nil {
			return fmt.Errorf("engine: checkpoint catalog has duplicate or empty table %q", t.Name)
		}
		// Counting walks every leaf: a tree the checkpoint's forger
		// looped fails here, naming the page, instead of hanging.
		n, err := t.Tree.Len()
		if err != nil {
			return fmt.Errorf("engine: checkpoint table %q: %w", t.Name, err)
		}
		t.rows.Store(int64(n))
		e.tables[t.Name] = t
		e.tablesByID[t.ID] = t
	}
	e.nextTableID = meta.NextTableID
	// The checkpointed version store comes back whole: every
	// not-yet-purged pre-image — deleted rows included — survives the
	// crash (and the WAL truncation the checkpoint performed), which is
	// E16's recovery arm.
	e.versions.loadCkpt(meta.Versions, e.tablesByID)
	return nil
}

// applyRedo replays one data record through the row mutators, in one
// descent of the table's tree. It returns the undo record for the
// change — the same record the forward path logged, rebuilt from the
// row as replay finds it — and applied=false when the record is a no-op
// against current state (already present / already gone, unknown
// table, malformed image) — tolerated, counted by the caller, never
// fatal. A skipped record still costs its descent.
func (e *Engine) applyRedo(r wal.Record) (undo wal.Record, applied bool, err error) {
	t, ok := e.TableByID(r.Table)
	if !ok || len(r.Image) == 0 {
		return wal.Record{}, false, nil
	}
	key := r.Image[:1]
	switch r.Op {
	case wal.OpInsert:
		// The tree refuses a present key before it changes anything.
		var redo wal.Record
		redo, undo = wal.InsertRecords(r.Txn, r.Table, r.Image)
		if err = t.Tree.Insert(redo.Image); errors.Is(err, btree.ErrDuplicateKey) {
			return wal.Record{}, false, nil
		}
		if err == nil {
			err = e.insertedRow(t, redo.Image, r.Txn)
		}
	case wal.OpUpdate:
		col := int(r.Column)
		var sets []setOp
		// fits reports whether the stored row cur takes the record, and
		// if so rebuilds its undo and its one SET.
		fits := func(cur storage.Record) bool {
			if len(r.Image) < 2 || col >= len(cur) {
				return false
			}
			_, undo = wal.UpdateRecords(r.Txn, r.Table, key, r.Column, cur[col:col+1], r.Image[1:2])
			sets = []setOp{{idx: col, val: r.Image[1]}}
			return true
		}
		if t.indexed(col) {
			// The read stays ahead of the write, so the index pages are
			// fetched between two descents, as on the forward path.
			cur, found, err := t.Tree.Search(key[0])
			if err != nil || !found || !fits(cur) {
				return wal.Record{}, false, err
			}
			err = e.updateRow(t, cur, sets, r.Txn)
			return undo, err == nil, err
		}
		if _, err = t.Tree.Modify(key[0], func(cur storage.Record) (storage.Record, error) {
			if applied = fits(cur); !applied {
				return nil, nil
			}
			return e.updatedRow(t, cur, sets, r.Txn)
		}); !applied {
			return wal.Record{}, false, err
		}
	case wal.OpDelete:
		var old storage.Record
		if old, err = e.takeRow(t, key[0], r.Txn); old == nil {
			return wal.Record{}, false, err
		}
		_, undo = wal.DeleteRecords(r.Txn, r.Table, old)
	default:
		return wal.Record{}, false, nil
	}
	return undo, err == nil, err
}

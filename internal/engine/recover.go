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

	TxnsCommitted  int // distinct txns with a commit marker
	TxnsAborted    int // distinct txns with an abort marker
	TxnsRolledBack int // loser txns rolled back by recovery
	RecordsApplied int // redo records replayed into the trees
	FramesSkipped  int // records skipped (pre-checkpoint LSN or inapplicable)

	BufferPoolWarmed bool // the on-disk dump passed its checksum
	MaxLSN           uint64
}

// readLog reads one framed log file — a missing file is an empty log —
// and parses its valid prefix. It returns what parsed, the length of
// that prefix (where appends resume, cutting off any torn tail) and the
// truncation to report, if the file had a bad tail.
func readLog[T any](fs vfs.FS, name string, parse func([]byte) ([]T, storage.ParseReport)) ([]T, int64, *TruncationInfo) {
	img, _ := fs.ReadFile(name)
	items, rep := parse(img)
	if rep.Truncated() {
		return items, int64(rep.TruncatedAt), &TruncationInfo{Offset: rep.TruncatedAt, Reason: rep.Reason}
	}
	return items, int64(len(img)), nil
}

// Recover opens a data directory, rebuilding engine state ARIES-style:
// load the last checkpoint, repeat history from the redo log's valid
// prefix, then roll back transactions that never reached a commit or
// abort marker. Torn or corrupt log tails are truncated (and reported),
// never fatal; a corrupt checkpoint is fatal (there is no state to
// rebuild from) but still a clean error, never a panic.
//
// The returned engine is durable on fs and ready to serve. The report
// is non-nil whenever the error is nil, and also on log-parse anomalies
// that were handled; it is returned alongside fatal errors too, with
// whatever was learned before the failure.
func Recover(fs vfs.FS, cfg Config) (*Engine, *RecoveryReport, error) {
	// At-rest encryption wraps here, above everything recovery reads:
	// the checkpoint, WAL parsing, and the reattached persistor all see
	// plaintext, while fs below holds only ciphertext.
	fs, err := wrapEncryption(fs, cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg.FS = nil // the persistor is attached manually, after truncation offsets are known
	e, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &RecoveryReport{}

	var meta CheckpointMeta
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
		if err := e.loadCheckpoint(meta, tsImage); err != nil {
			return nil, rep, err
		}
		rep.Tables = len(meta.Tables)
	}

	redoRecs, redoOff, redoTrunc := readLog(fs, FileRedo, wal.ParseLogReport)
	undoRecs, undoOff, undoTrunc := readLog(fs, FileUndo, wal.ParseLogReport)
	blogEvs, blogOff, blogTrunc := readLog(fs, FileBinlog, binlog.ParseWithReport)
	rep.RedoRecords, rep.UndoRecords, rep.BinlogEvents = len(redoRecs), len(undoRecs), len(blogEvs)
	rep.RedoTruncated, rep.UndoTruncated, rep.BinlogTruncated = redoTrunc, undoTrunc, blogTrunc

	// Sort winners from losers. Txn 0 (records logged outside any
	// transaction, e.g. by tooling driving the wal.Manager directly) is
	// treated as committed, matching its pre-transaction semantics.
	committed := make(map[uint64]bool)
	aborted := make(map[uint64]bool)
	seen := make(map[uint64]bool)
	maxLSN := meta.LSN
	maxTxn := meta.Txn
	for _, r := range redoRecs {
		if r.LSN > maxLSN {
			maxLSN = r.LSN
		}
		if r.Txn > maxTxn {
			maxTxn = r.Txn
		}
		switch r.Op {
		case wal.OpCommit:
			committed[r.Txn] = true
		case wal.OpAbort:
			aborted[r.Txn] = true
		default:
			if r.Txn != 0 {
				seen[r.Txn] = true
			}
		}
	}
	rep.TxnsCommitted = len(committed)
	rep.TxnsAborted = len(aborted)
	rep.MaxLSN = maxLSN

	// Repopulate the in-memory circular logs with the valid prefixes, so
	// the forensic surface (snapshots, SHOW-style inspection) carries
	// across the crash exactly as the files do.
	e.wal.Redo.AppendBatch(redoRecs)
	e.wal.Undo.AppendBatch(undoRecs)
	for _, ev := range blogEvs {
		e.binlog.Append(ev)
	}
	if n := len(blogEvs); n > 0 {
		e.binlog.Prime(blogEvs[n-1].Timestamp, blogEvs[n-1].LSN)
	}
	e.wal.SetRecovered(maxLSN, maxTxn)

	// Attach the durability sink at the valid-prefix offsets; this also
	// truncates the torn tails off the files. From here on, compensation
	// records logged below are persisted like any other write.
	if err := e.attachPersist(fs, redoOff, undoOff, blogOff); err != nil {
		return nil, rep, err
	}

	// Repeat history: replay every post-checkpoint data record in LSN
	// order, winners and losers alike (losers' rollbacks are then redone
	// logically below, exactly as ARIES repeats and compensates). While
	// replaying a loser's records, capture the pre-images needed to undo
	// them: the undo *file* may have lost its own tail in the crash, but
	// replay order makes the pre-images exact.
	synth := make(map[uint64][]wal.Record)
	loserMaxLSN := make(map[uint64]uint64)
	for _, r := range redoRecs {
		if r.Op.IsMarker() {
			// Resolve the transaction in the version store at its marker,
			// mirroring the original commit/rollback-completion points.
			// Pre-checkpoint markers are skipped: those transactions'
			// sequences came with the checkpoint's serialized store.
			if r.Txn != 0 && (!found || r.LSN > meta.LSN) {
				e.commitVersions(r.Txn)
			}
			continue
		}
		if found && r.LSN <= meta.LSN {
			rep.FramesSkipped++
			continue
		}
		loser := r.Txn != 0 && seen[r.Txn] && !committed[r.Txn] && !aborted[r.Txn]
		undoRec, applied, err := e.applyRedo(r)
		if err != nil {
			return nil, rep, fmt.Errorf("engine: redo LSN %d: %w", r.LSN, err)
		}
		if !applied {
			rep.FramesSkipped++
			continue
		}
		rep.RecordsApplied++
		if loser {
			synth[r.Txn] = append(synth[r.Txn], undoRec)
			loserMaxLSN[r.Txn] = r.LSN
		}
	}

	// Undo losers, newest transaction first, logging compensations and
	// an abort marker so a second crash finds only winners and aborted
	// transactions — recovery converges.
	losers := make([]uint64, 0, len(synth))
	for txn := range synth {
		losers = append(losers, txn)
	}
	sort.Slice(losers, func(i, j int) bool { return loserMaxLSN[losers[i]] > loserMaxLSN[losers[j]] })
	for _, txn := range losers {
		if err := e.rollbackTxn(txn, synth[txn]); err != nil {
			return nil, rep, fmt.Errorf("engine: rolling back txn %d: %w", txn, err)
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

// loadCheckpoint replaces the engine's fresh state with the checkpoint
// image: tablespace, buffer pool, catalog, reopened B+ trees.
func (e *Engine) loadCheckpoint(meta CheckpointMeta, tsImage []byte) error {
	ts, err := storage.LoadTablespace(tsImage)
	if err != nil {
		return fmt.Errorf("engine: checkpoint tablespace: %w", err)
	}
	pool, err := bufpool.New(ts, e.cfg.BufferPoolPages)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ts = ts
	e.pool = pool
	e.tables = make(map[string]*Table, len(meta.Tables))
	e.tablesByID = make(map[uint8]*Table, len(meta.Tables))
	for _, ct := range meta.Tables {
		t := &Table{
			ID:      ct.ID,
			Name:    ct.Name,
			Columns: ct.Columns,
			PKIndex: ct.PK,
			Tree:    btree.Open(ts, pool, ct.Root),
		}
		for _, ci := range ct.Indexes {
			t.Indexes = append(t.Indexes, &SecondaryIndex{
				Name:   ci.Name,
				Column: ci.Column,
				colIdx: ci.ColIdx,
				Tree:   btree.Open(ts, pool, ci.Root),
			})
		}
		sort.Slice(t.Indexes, func(i, j int) bool { return t.Indexes[i].Name < t.Indexes[j].Name })
		if ct.Stats != nil {
			t.setStats(ct.Stats.Cols, ct.Stats.AnalyzedAt, ct.Stats.Baseline)
		}
		if t.Name == "" || e.tables[t.Name] != nil {
			return fmt.Errorf("engine: checkpoint catalog has duplicate or empty table %q", t.Name)
		}
		if n, err := t.Tree.Len(); err == nil {
			t.rows.Store(int64(n))
		}
		e.tables[t.Name] = t
		e.tablesByID[t.ID] = t
	}
	e.nextTableID = meta.NextTableID
	e.wal.SetRecovered(meta.LSN, meta.Txn)
	if e.versions != nil {
		// The checkpointed version store comes back whole: every
		// not-yet-purged pre-image — deleted rows included — survives
		// the crash (and the WAL truncation the checkpoint performed),
		// which is E16's recovery arm.
		e.versions.loadCkpt(meta.Versions, e.tablesByID)
	}
	return nil
}

// applyRedo replays one data record through the row mutators. It
// returns the undo record for the change — the same record the forward
// path logged, rebuilt from the row as replay finds it — and
// applied=false when the record is a no-op against current state
// (already present / already gone, unknown table, malformed image) —
// tolerated, counted by the caller, never fatal.
func (e *Engine) applyRedo(r wal.Record) (undo wal.Record, applied bool, err error) {
	t, ok := e.TableByID(r.Table)
	if !ok || len(r.Image) == 0 {
		return wal.Record{}, false, nil
	}
	key := r.Image[:1]
	cur, found, err := t.Tree.Search(key[0])
	if err != nil {
		return wal.Record{}, false, err
	}
	switch r.Op {
	case wal.OpInsert:
		if found {
			return wal.Record{}, false, nil
		}
		var redo wal.Record
		redo, undo = wal.InsertRecords(r.Txn, r.Table, r.Image)
		err = e.insertRow(t, redo.Image, r.Txn)
	case wal.OpUpdate:
		col := int(r.Column)
		if !found || len(r.Image) < 2 || col >= len(cur) {
			return wal.Record{}, false, nil
		}
		_, undo = wal.UpdateRecords(r.Txn, r.Table, key, r.Column, cur[col:col+1], r.Image[1:2])
		err = e.updateRow(t, cur, []setOp{{idx: col, val: r.Image[1]}}, r.Txn)
	case wal.OpDelete:
		if !found {
			return wal.Record{}, false, nil
		}
		_, undo = wal.DeleteRecords(r.Txn, r.Table, cur)
		err = e.deleteRow(t, cur, r.Txn)
	default:
		return wal.Record{}, false, nil
	}
	return undo, err == nil, err
}

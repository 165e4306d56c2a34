package engine

import (
	"cmp"
	"errors"
	"fmt"
	"io"
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

// logChunk is how many bytes of a log recovery reads at a time, into
// one reused buffer per log.
const logChunk = 256 << 10

// redoBatchLen is how many redo records the reader hands the replay at
// a time. Batch boundaries fall every redoBatchLen records, so which
// pre-images replay skips depends on the log alone.
const redoBatchLen = 1024

// redoBatches is how many batches circulate between the reader and the
// replay: what the reader may decode ahead.
const redoBatches = 4

// logScan is one framed log file as recovery found it: the handle it
// was read through, which the persistor goes on appending through, and
// what the walk of its valid prefix learned.
type logScan struct {
	name   string
	f      vfs.File        // nil: the file does not exist, an empty log
	frames int             // valid frames
	off    int64           // the valid prefix's length: where appends resume
	trunc  *TruncationInfo // non-nil if the file had a bad tail
	err    error           // the file exists but could not be opened or read
}

// openLog opens name for a walk. A missing file is an empty log. A file
// that exists but cannot be opened or read is an error, not an empty
// log: recovery would otherwise cut it to zero bytes and lose every
// record in it.
func openLog(fs vfs.FS, name string) *logScan {
	l := &logScan{name: name}
	f, err := fs.Open(name)
	switch {
	case err == nil:
		l.f = f
	case !errors.Is(err, os.ErrNotExist):
		l.err = fmt.Errorf("engine: read %s: %w", name, err)
	}
	return l
}

// walk streams the file's valid prefix through fn, which reads it from
// r, and records what it found. Once stop is closed every read fails,
// ending the walk early.
func (l *logScan) walk(stop <-chan struct{}, fn func(r io.ReaderAt, size int64) (storage.ParseReport, error)) {
	if l.f == nil || l.err != nil {
		return
	}
	size, err := l.f.Size()
	var rep storage.ParseReport
	if err == nil {
		rep, err = fn(stopReader{l.f, stop}, size)
	}
	l.frames = rep.Frames
	if err != nil {
		l.err = fmt.Errorf("engine: read %s: %w", l.name, err)
		return
	}
	l.off = size
	if rep.Truncated() {
		l.off, l.trunc = int64(rep.TruncatedAt), &TruncationInfo{Offset: rep.TruncatedAt, Reason: rep.Reason}
	}
}

// checkSideLogs walks the undo file and the binlog, which recovery only
// checks: of the undo file it needs where the valid prefix ends, and of
// the binlog that and the last event's timestamp and LSN (its Statement
// is empty). Every frame is checked as the parsers check it, and
// nothing is decoded that the walk does not keep, so what the walk
// allocates does not grow with the logs.
func checkSideLogs(undo, blog *logScan, stop <-chan struct{}) binlog.Event {
	var last binlog.Event
	undo.walk(stop, func(r io.ReaderAt, size int64) (storage.ParseReport, error) {
		return wal.CheckLogAt(r, size, logChunk)
	})
	blog.walk(stop, func(r io.ReaderAt, size int64) (storage.ParseReport, error) {
		return binlog.WalkHeadersAt(r, size, logChunk, func(ev binlog.Event) { last = ev })
	})
	return last
}

// close releases the handle of a log no persistor took.
func (l *logScan) close() {
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
}

// stopReader reads through r until stop is closed, and fails after.
type stopReader struct {
	r    io.ReaderAt
	stop <-chan struct{}
}

var errRecoveryStopped = errors.New("engine: recovery stopped")

func (s stopReader) ReadAt(p []byte, off int64) (int, error) {
	select {
	case <-s.stop:
		return 0, errRecoveryStopped
	default:
		return s.r.ReadAt(p, off)
	}
}

// redoBatch is a run of consecutive redo records, in log order.
type redoBatch struct {
	recs []wal.Record
	// resolved[i]: recs[i]'s transaction commits or aborts later in
	// this batch, so it cannot be a loser and replay builds no
	// pre-image for recs[i].
	resolved []bool
}

// streamRedo walks the redo log behind l, handing its records to the
// replay in batches of redoBatchLen on out, which it closes when the
// walk ends. It fills only batches it takes from free, and out has
// room for all of them, so it never decodes more than redoBatches
// batches ahead and never blocks on out.
func streamRedo(l *logScan, free <-chan *redoBatch, out chan<- *redoBatch, stop <-chan struct{}) {
	defer close(out)
	var b *redoBatch
	ends := make(map[uint64]bool) // transactions with a marker later in b
	flush := func() {
		for i := len(b.recs) - 1; i >= 0; i-- {
			r := &b.recs[i]
			if r.Op.IsMarker() {
				ends[r.Txn] = true
			}
			b.resolved[i] = ends[r.Txn]
		}
		clear(ends)
		out <- b
		b = nil
	}
	l.walk(stop, func(r io.ReaderAt, size int64) (storage.ParseReport, error) {
		return wal.WalkLogAt(r, size, logChunk, func(rec wal.Record) {
			if b == nil {
				select {
				case b = <-free:
					b.recs = b.recs[:0]
				case <-stop:
					return
				}
			}
			if b.recs = append(b.recs, rec); len(b.recs) == redoBatchLen {
				flush()
			}
		})
	})
	if b != nil && len(b.recs) > 0 {
		flush()
	}
}

// Recover opens a data directory, rebuilding engine state ARIES-style:
// load the last checkpoint, repeat history from the redo log's valid
// prefix, then roll back transactions that never reached a commit or
// abort marker. Torn or corrupt log tails are truncated (and reported),
// never fatal; a corrupt checkpoint is fatal (there is no state to
// rebuild from) but still a clean error, never a panic. So is a
// checkpoint or log file that exists but cannot be read, and a redo
// record that fails to replay; either way recovery leaves the directory
// as it lies. New opens its directory (Config.FS, or a new MemFS) the
// same way.
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

	// Recovery reads while it replays. The logs are opened here, in
	// order, and read through those handles by two goroutines: one
	// streams the redo log and decodes it into batches for the replay
	// on this one; the other walks the undo file and the binlog, which
	// recovery only checks. Neither touches the pool or the tablespace.
	// Both have ended before anything is decided from what they read,
	// and on every return path.
	redo, undo, blog := openLog(fs, FileRedo), openLog(fs, FileUndo), openLog(fs, FileBinlog)
	stop := make(chan struct{})
	// Each channel has room for every batch there is, so neither
	// handing a batch over nor returning it ever blocks.
	free, batches := make(chan *redoBatch, redoBatches), make(chan *redoBatch, redoBatches)
	for range redoBatches {
		free <- &redoBatch{recs: make([]wal.Record, 0, redoBatchLen), resolved: make([]bool, redoBatchLen)}
	}
	go streamRedo(redo, free, batches, stop)
	var lastEv binlog.Event
	walked := make(chan struct{})
	go func() {
		defer close(walked)
		lastEv = checkSideLogs(undo, blog, stop)
	}()

	// The engine is built once, around the tablespace it will serve:
	// the checkpoint's, or an empty one if there is none yet. A
	// checkpoint that fails stops the walks.
	e, meta, found, ckptErr := openCheckpoint(fs, cfg, rep)
	if ckptErr != nil {
		close(stop)
	}

	// Repeat history: every post-checkpoint data record is replayed as
	// the reader hands it over, in LSN order, winners and losers alike
	// (losers' rollbacks are then redone logically below, exactly as
	// ARIES repeats and compensates). Replaying a record can also yield
	// the pre-image that undoes it: the undo *file* may have lost its
	// own tail in the crash, but replay order makes the pre-images
	// exact. A transaction's pre-images are kept in open until its
	// commit or abort marker passes; whatever is still open at the end
	// of the log is a loser. A record whose transaction ends later in
	// the same batch cannot belong to a loser, so it builds none. Txn 0
	// (records logged outside any transaction, e.g. by tooling driving
	// the wal.Manager directly) is treated as committed, matching its
	// pre-transaction semantics. Replay repeats the trees, not the
	// version store: during the walk the store files no version except
	// onto a chain the checkpoint restored, and only with purge off
	// (mvccStore.replayWrite) — no view can reach the rest, since none
	// opens before every replayed transaction is resolved. A record that
	// fails to replay ends the replay, not the walk: a read error later
	// in the log still comes first.
	type openTxn struct {
		txn, last uint64 // last: LSN of its latest applied record
		undo      []wal.Record
	}
	open := make(map[uint64]*openTxn)
	var spare []*openTxn // closed entries, reused: most close a few records after they open
	maxLSN, maxTxn := meta.LSN, meta.Txn
	var redoErr error
	if e != nil {
		e.versions.beginReplay(cfg.DisablePurge)
	}
	for b := range batches {
		for i := 0; e != nil && redoErr == nil && i < len(b.recs); i++ {
			r := b.recs[i]
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
				continue
			}
			if found && r.LSN <= meta.LSN {
				rep.FramesSkipped++
				continue
			}
			keep := r.Txn != 0 && !b.resolved[i]
			undo, applied, err := e.applyRedo(r, keep)
			if err != nil {
				redoErr = fmt.Errorf("engine: redo LSN %d: %w", r.LSN, err)
				break
			}
			if !applied {
				rep.FramesSkipped++
				continue
			}
			rep.RecordsApplied++
			if keep {
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
		}
		free <- b
	}
	<-walked
	if e != nil {
		e.versions.endReplay()
	}

	// The errors, in order: the checkpoint, reading the redo log,
	// replaying it, then the undo file's and the binlog's walks.
	err = ckptErr
	if err == nil {
		rep.RedoRecords, rep.RedoTruncated = redo.frames, redo.trunc
		err = cmp.Or(redo.err, redoErr, undo.err, blog.err)
	}
	if err != nil {
		redo.close()
		undo.close()
		blog.close()
		return nil, rep, err
	}
	rep.MaxLSN = maxLSN
	rep.UndoRecords, rep.BinlogEvents = undo.frames, blog.frames
	rep.UndoTruncated, rep.BinlogTruncated = undo.trunc, blog.trunc

	// The logs stay in their files: nothing is read back into memory
	// beyond the stamping floors new activity continues from.
	if blog.frames > 0 {
		e.binlog.Prime(lastEv.Timestamp, lastEv.LSN)
	}
	e.wal.SetRecovered(maxLSN, maxTxn)

	// Attach the durability sink at the valid-prefix offsets; this also
	// truncates the torn tails off the files, now that every walk has
	// succeeded. From here on, compensation records logged below are
	// persisted like any other write.
	if err := e.attachPersist(fs, redo, undo, blog); err != nil {
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

// openCheckpoint builds the engine recovery replays into, around the
// checkpoint's tablespace and catalog, or around an empty tablespace if
// there is no checkpoint yet; found reports which.
func openCheckpoint(fs vfs.FS, cfg Config, rep *RecoveryReport) (e *Engine, meta CheckpointMeta, found bool, err error) {
	ts := storage.NewTablespace()
	img, err := fs.ReadFile(FileCheckpoint)
	found = err == nil
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, meta, false, fmt.Errorf("engine: read checkpoint: %w", err)
	}
	if found {
		var tsImage []byte
		if meta, tsImage, err = DecodeCheckpoint(img); err != nil {
			return nil, meta, false, err
		}
		rep.CheckpointFound = true
		rep.CheckpointLSN = meta.LSN
		if ts, err = storage.LoadTablespace(tsImage); err != nil {
			return nil, meta, false, fmt.Errorf("engine: checkpoint tablespace: %w", err)
		}
	}
	if e, err = build(cfg, ts); err != nil {
		return nil, meta, false, err
	}
	if err := e.loadCatalog(meta); err != nil {
		return nil, meta, false, err
	}
	rep.Tables = len(meta.Tables)
	return e, meta, found, nil
}

// loadCatalog reopens a checkpoint's catalog over the engine's
// tablespace: every table's and index's tree, row count and planner
// statistics, and the version store. A table whose primary key is not
// column 0 is refused: every tree, log image and version chain keys on
// column 0.
func (e *Engine) loadCatalog(meta CheckpointMeta) error {
	for _, ct := range meta.Tables {
		if ct.PK != 0 {
			return fmt.Errorf("engine: checkpoint table %q has its primary key in column %d; it must be column 0", ct.Name, ct.PK)
		}
		t := &Table{
			ID:      ct.ID,
			Name:    ct.Name,
			Columns: ct.Columns,
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
// descent of the table's tree. With keep set it also returns the undo
// record for the change — the same record the forward path logged,
// rebuilt from the row as replay finds it; without, the zero Record. It
// returns applied=false when the record is a no-op against current
// state (already present / already gone, unknown table, malformed
// image) — tolerated, counted by the caller, never fatal. A skipped
// record still costs its descent.
func (e *Engine) applyRedo(r wal.Record, keep bool) (undo wal.Record, applied bool, err error) {
	t, ok := e.TableByID(r.Table)
	if !ok || len(r.Image) == 0 {
		return wal.Record{}, false, nil
	}
	key := r.Image[:1]
	switch r.Op {
	case wal.OpInsert:
		// The tree refuses a present key before it changes anything. The
		// row is the record's own: the decoder allocated it, and nothing
		// else holds it.
		if err = t.Tree.Insert(r.Image); errors.Is(err, btree.ErrDuplicateKey) {
			return wal.Record{}, false, nil
		}
		if err == nil {
			err = e.insertedRow(t, r.Image, r.Txn)
		}
		if keep {
			_, undo = wal.InsertRecords(r.Txn, r.Table, r.Image)
		}
	case wal.OpUpdate:
		col := int(r.Column)
		var sets []setOp
		// fits reports whether the stored row cur takes the record, and
		// if so rebuilds its one SET and, if kept, its undo.
		fits := func(cur storage.Record) bool {
			if len(r.Image) < 2 || col >= len(cur) {
				return false
			}
			if keep {
				_, undo = wal.UpdateRecords(r.Txn, r.Table, key, r.Column, cur[col:col+1], r.Image[1:2])
			}
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
		if keep {
			_, undo = wal.DeleteRecords(r.Txn, r.Table, old)
		}
	default:
		return wal.Record{}, false, nil
	}
	return undo, err == nil, err
}

package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// On-disk file names in an engine's data directory. A disk
// snapshot (internal/snapshot) is such a directory, under these names:
// the forensic tooling reads a daemon's directory and a dump alike.
const (
	FileCheckpoint = "checkpoint.snapdb"
	FileRedo       = "ib_logfile_redo"
	FileUndo       = "ib_logfile_undo"
	FileBinlog     = "binlog.000001"
	FileBufferPool = "ib_buffer_pool"
)

// logFile is one append-only framed log file: its handle and its
// durable valid prefix.
type logFile struct {
	name string
	f    vfs.File
	off  int64
}

// openLogFile takes over the handle recovery read l through, or
// creates the file if it did not exist, and cuts it back to l's valid
// prefix.
func openLogFile(fs vfs.FS, l *logScan) (logFile, error) {
	if l.f == nil {
		f, err := fs.Create(l.name)
		if err != nil {
			return logFile{}, fmt.Errorf("engine: open %s: %w", l.name, err)
		}
		l.f = f
	}
	lf := logFile{name: l.name, f: l.f}
	return lf, lf.truncateTo(l.off)
}

// truncateTo durably cuts the file back to off and appends from there.
func (l *logFile) truncateTo(off int64) error {
	if err := l.f.Truncate(off); err != nil {
		return fmt.Errorf("engine: truncate %s: %w", l.name, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("engine: sync %s: %w", l.name, err)
	}
	l.off = off
	return nil
}

// logAppend is one file's share of a batch: the frames to append.
type logAppend struct {
	l   *logFile
	buf []byte
}

// appendBatch makes each file's frames durable. The durable-op sequence
// is a contract (the crash-torture schedule and TestCostCensus
// enumerate it by ordinal): every file's write, then every file's sync,
// in argument order, skipping files with nothing to append. A
// group-commit flush runs it twice — redo and undo, then the binlog —
// so one flush of a group of autocommit statements is six ops: redo
// write, undo write, redo sync, undo sync, binlog write, binlog sync.
// Offsets advance only after all of it succeeded, and a failed batch
// fails the persistor for good (see persistor.err): a crash leaves at
// worst a torn tail that recovery truncates.
func appendBatch(files ...logAppend) error {
	for _, a := range files {
		if len(a.buf) == 0 {
			continue
		}
		if _, err := a.l.f.WriteAt(a.buf, a.l.off); err != nil {
			return fmt.Errorf("engine: %s append: %w", a.l.name, err)
		}
	}
	for _, a := range files {
		if len(a.buf) == 0 {
			continue
		}
		if err := a.l.f.Sync(); err != nil {
			return fmt.Errorf("engine: %s sync: %w", a.l.name, err)
		}
	}
	for _, a := range files {
		a.l.off += int64(len(a.buf))
	}
	return nil
}

// persistor is the engine's durability sink and its logs' one store.
// The WAL's group-commit leader hands it each flushed batch, already
// framed: the redo and undo frames, then the binlog's. It appends each
// to its file and fsyncs before the batch is acknowledged, so a
// statement only returns success once its log records are on stable
// storage. No copy of the batch is kept in memory.
//
// A failed append is sticky: err keeps it, and every later append and
// checkpoint fails without touching a file. A later batch may already
// build on the failed batch's rows, which never became visible, so the
// logs cannot go on past it; reopening the directory runs recovery.
type persistor struct {
	mu               sync.Mutex
	fs               vfs.FS
	redo, undo, blog logFile
	closed           bool
	err              error

	dumpMu sync.Mutex // serializes buffer-pool dumps, which share one temp file
}

// attachPersist appends to the three log files through the handles
// recovery read them through (creating a file that did not exist), cut
// back to their parse-verified valid prefixes (cutting off any torn
// tail a crash left; an empty directory's are 0), and wires the
// persistor into the WAL's group-commit pipeline as the durability
// sink of its logs. On error it closes the handles.
func (e *Engine) attachPersist(fs vfs.FS, redo, undo, blog *logScan) error {
	p := &persistor{fs: fs}
	var err error
	if p.redo, err = openLogFile(fs, redo); err == nil {
		if p.undo, err = openLogFile(fs, undo); err == nil {
			p.blog, err = openLogFile(fs, blog)
		}
	}
	if err == nil {
		if err = fs.SyncDir(); err != nil {
			err = fmt.Errorf("engine: syncdir: %w", err)
		}
	}
	if err != nil {
		redo.close()
		undo.close()
		blog.close()
		return err
	}
	e.persist, e.wal.Sink = p, p.append
	return nil
}

// append is the wal.Manager sink: persist one group-commit batch, its
// redo and undo frames and then its binlog frames. A binlog failure
// wraps wal.ErrBinlog: the batch's transactions are committed.
func (p *persistor) append(b *wal.Batch) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.refusal(); err != nil {
		return err
	}
	if p.err = appendBatch(logAppend{&p.redo, b.Redo}, logAppend{&p.undo, b.Undo}); p.err != nil {
		return p.err
	}
	if p.err = appendBatch(logAppend{&p.blog, b.Binlog}); p.err != nil {
		return fmt.Errorf("%w: %w", wal.ErrBinlog, p.err)
	}
	return nil
}

// failure is the error a write is refused with once an append has
// failed, or nil.
func (p *persistor) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refusal()
}

// refusal is the error an append or checkpoint is refused with because
// an earlier append failed, or nil. Caller holds p.mu.
func (p *persistor) refusal() error {
	if p.err == nil {
		return nil
	}
	return fmt.Errorf("engine: logs unwritable since an earlier failure: %w", p.err)
}

// Close releases the engine's log file handles. It is idempotent; the
// engine keeps serving reads, and writes fail because their log records
// can no longer be made durable. Every acknowledged batch was synced
// when it was appended, so a close error has nothing to lose.
func (e *Engine) Close() {
	p := e.persist
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		_, _, _ = p.redo.f.Close(), p.undo.f.Close(), p.blog.f.Close()
	}
}

// writeDump persists a buffer-pool dump crash-atomically.
func (p *persistor) writeDump(dump []byte) error {
	p.dumpMu.Lock()
	defer p.dumpMu.Unlock()
	return vfs.WriteFileAtomic(p.fs, FileBufferPool, dump)
}

// CheckpointMeta is the checkpoint's catalog section: everything
// needed to reopen the B+ trees inside the checkpointed tablespace
// image. It lies on disk as plaintext JSON, which is why forensic
// reconstruction never lacks table and column names.
type CheckpointMeta struct {
	LSN         uint64
	Txn         uint64
	NextTableID uint8
	Tables      []CheckpointTable

	// Versions carries the MVCC version store through the checkpoint —
	// deliberately, and measurably (E16): the checkpoint truncates the
	// WAL files, closing the redo/undo forensic window, but the old row
	// versions it serializes here keep every not-yet-purged pre-image
	// (including deleted rows) recoverable from the checkpoint file.
	Versions *ckptVersions `json:",omitempty"`
}

// CheckpointTable is one table's catalog entry in a checkpoint.
type CheckpointTable struct {
	ID      uint8
	Name    string
	Columns []sqlparse.ColumnDef
	// PK is the primary key's column: always 0, and a checkpoint that
	// names another is refused.
	PK      int
	Root    storage.PageID
	Indexes []ckptIndex
	Stats   *ckptStats `json:",omitempty"`
}

type ckptIndex struct {
	Name   string
	Column string
	ColIdx int
	Root   storage.PageID
}

// ckptStats carries a table's planner statistics across restarts: an
// analyzed table stays analyzed after recovery, so the cost model does
// not silently fall back to default selectivities until someone re-runs
// ANALYZE. Nil when the table was never analyzed.
type ckptStats struct {
	AnalyzedAt int64
	Baseline   int64
	Cols       map[int]colStats
}

// EncodeCheckpoint renders the bytes of FileCheckpoint — the catalog
// metadata and the tablespace image, one CRC32-C frame each — for the
// persistor and for a snapshot materializing a stolen disk.
func EncodeCheckpoint(meta CheckpointMeta, tsImage []byte) ([]byte, error) {
	metaBuf, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("engine: checkpoint meta: %w", err)
	}
	// Pad the meta frame (trailing spaces — valid JSON whitespace) so
	// the tablespace pages inside tsImage land on storage.PageSize file
	// offsets: two frame headers plus the tablespace's u64 page count
	// precede them. Aligned checkpoints make page-granular analysis
	// stable — both ours (E17 diffs ciphertext checkpoint pages across
	// snapshots and must attribute a change to the page, not to a meta
	// length drift shifting every byte after it) and a real attacker's.
	if over := (2*storage.FrameHeaderSize + len(metaBuf) + 8) % storage.PageSize; over != 0 {
		metaBuf = append(metaBuf, bytes.Repeat([]byte{' '}, storage.PageSize-over)...)
	}
	return storage.AppendFrame(storage.AppendFrame(nil, metaBuf), tsImage), nil
}

// DecodeCheckpoint is EncodeCheckpoint's inverse, for Recover and for
// the snapshot package's passive disk reader. The bytes may come from a
// stolen or hand-assembled directory: anything malformed is an error —
// never a panic, never a half-loaded catalog — and the returned
// tablespace image (aliasing img) declares the pages it holds.
func DecodeCheckpoint(img []byte) (CheckpointMeta, []byte, error) {
	metaBuf, n, err := storage.ReadFrame(img)
	if err != nil {
		return CheckpointMeta{}, nil, fmt.Errorf("engine: checkpoint meta frame: %w", err)
	}
	tsImage, n2, err := storage.ReadFrame(img[n:])
	if err != nil {
		return CheckpointMeta{}, nil, fmt.Errorf("engine: checkpoint tablespace frame: %w", err)
	}
	if n+n2 != len(img) {
		return CheckpointMeta{}, nil, fmt.Errorf("engine: checkpoint has %d trailing bytes", len(img)-n-n2)
	}
	var meta CheckpointMeta
	if err := json.Unmarshal(metaBuf, &meta); err != nil {
		return CheckpointMeta{}, nil, fmt.Errorf("engine: checkpoint meta: %w", err)
	}
	if _, err := storage.TablespacePages(tsImage); err != nil {
		return CheckpointMeta{}, nil, fmt.Errorf("engine: checkpoint tablespace: %w", err)
	}
	return meta, tsImage, nil
}

// writeCheckpoint persists a quiesced engine image as one crash-atomic
// file, then truncates the redo and undo files whose records the image
// supersedes. A crash between the two steps is safe: recovery skips
// WAL records at or below the checkpoint LSN.
func (p *persistor) writeCheckpoint(img []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.refusal(); err != nil {
		return err
	}
	if err := vfs.WriteFileAtomic(p.fs, FileCheckpoint, img); err != nil {
		return fmt.Errorf("engine: checkpoint write: %w", err)
	}
	if err := p.redo.truncateTo(0); err != nil {
		return err
	}
	return p.undo.truncateTo(0)
}

// CheckpointImage returns the bytes FileCheckpoint would hold if the
// engine checkpointed its current state. Checkpoint calls it with the
// engine quiesced; a snapshot attacker copying a live system does not
// quiesce anything, and neither does this.
func (e *Engine) CheckpointImage() ([]byte, error) {
	e.mu.Lock()
	meta := CheckpointMeta{
		LSN:         e.wal.CurrentLSN(),
		Txn:         e.wal.TxnSeq(),
		NextTableID: e.nextTableID,
	}
	for _, t := range e.tables {
		ct := CheckpointTable{
			ID:      t.ID,
			Name:    t.Name,
			Columns: t.Columns,
			Root:    t.Tree.Root(),
		}
		for _, ix := range t.Indexes {
			ct.Indexes = append(ct.Indexes, ckptIndex{
				Name: ix.Name, Column: ix.Column, ColIdx: ix.colIdx, Root: ix.Tree.Root(),
			})
		}
		if analyzed, at, baseline, cols := t.statsSnapshot(); analyzed {
			ct.Stats = &ckptStats{AnalyzedAt: at, Baseline: baseline, Cols: cols}
		}
		meta.Tables = append(meta.Tables, ct)
	}
	// e.tables is a map: sort so two checkpoints of the same state are
	// byte-identical. E17's page-diff analysis (and any external
	// snapshot differ) depends on checkpoint bytes being a function of
	// engine state, not of map iteration order.
	sort.Slice(meta.Tables, func(i, j int) bool { return meta.Tables[i].ID < meta.Tables[j].ID })
	meta.Versions = e.versions.ckptSnapshot()
	tsImage := e.ts.Serialize()
	e.mu.Unlock()
	return EncodeCheckpoint(meta, tsImage)
}

// checkpointLocked writes a checkpoint of the current engine state.
// Callers must hold all table locks (the engine must be quiesced) and
// have verified no transactions are open. It first flushes every log
// entry still queued — other sessions' pending groups included — so the
// image supersedes all of the redo and undo it truncates, and every
// transaction it captures is resolved.
func (e *Engine) checkpointLocked() error {
	if err := e.wal.SyncAll(); err != nil {
		return err
	}
	img, err := e.CheckpointImage()
	if err != nil {
		return err
	}
	return e.persist.writeCheckpoint(img)
}

// Checkpoint quiesces the engine and persists a crash-atomic image of
// the catalog and tablespace, truncating the WAL files it supersedes.
// It refuses while any explicit transaction is open, because their
// undo information lives in those WAL files.
func (e *Engine) Checkpoint() error {
	e.locks.lockAll()
	defer e.locks.unlockAll()
	if n := e.openTxns.Load(); n != 0 {
		return fmt.Errorf("engine: checkpoint refused: %d open transaction(s)", n)
	}
	return e.checkpointLocked()
}

package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"snapdb/internal/binlog"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// On-disk file names in a durable engine's data directory. A disk
// snapshot (internal/snapshot) is such a directory, under these names:
// the forensic tooling reads a daemon's directory and a dump alike.
const (
	FileCheckpoint = "checkpoint.snapdb"
	FileRedo       = "ib_logfile_redo"
	FileUndo       = "ib_logfile_undo"
	FileBinlog     = "binlog.000001"
	FileBufferPool = "ib_buffer_pool"
)

// logFile is one append-only framed log file: its handle, its durable
// valid prefix, and the reused encode buffer of the batch being appended.
type logFile struct {
	name string
	f    vfs.File
	off  int64
	buf  []byte
}

// openLogFile opens (or creates) name and cuts it back to off.
func openLogFile(fs vfs.FS, name string, off int64) (logFile, error) {
	f, err := fs.Open(name)
	if errors.Is(err, os.ErrNotExist) {
		f, err = fs.Create(name)
	}
	if err != nil {
		return logFile{}, fmt.Errorf("engine: open %s: %w", name, err)
	}
	l := logFile{name: name, f: f}
	return l, l.truncateTo(off)
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

// appendBatch makes the batch encoded in each file's buf durable. The
// durable-op sequence is a contract (the crash-torture schedule
// enumerates it by ordinal): every file's write, then every file's
// sync, in argument order, skipping files with nothing to append.
// Offsets advance only after all of it succeeded: a failed or torn
// batch is overwritten by the next one, and a crash leaves at worst a
// torn tail that recovery truncates.
func appendBatch(files ...*logFile) error {
	for _, l := range files {
		if len(l.buf) == 0 {
			continue
		}
		if _, err := l.f.WriteAt(l.buf, l.off); err != nil {
			return fmt.Errorf("engine: %s append: %w", l.name, err)
		}
	}
	for _, l := range files {
		if len(l.buf) == 0 {
			continue
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("engine: %s sync: %w", l.name, err)
		}
	}
	for _, l := range files {
		l.off += int64(len(l.buf))
	}
	return nil
}

// persistor is the engine's durability sink. The WAL and binlog group
// commit leaders call into it with each flushed batch; it appends the
// batch to the corresponding file inside CRC32-C frames and fsyncs
// before the batch is acknowledged, so a statement only returns success
// once its log records are on stable storage.
type persistor struct {
	mu               sync.Mutex
	fs               vfs.FS
	redo, undo, blog logFile
	closed           bool
}

// attachPersist opens (or creates) the three append-only log files, cut
// back to the given valid-prefix offsets — 0 for a fresh engine, the
// parse-verified prefixes after recovery (cutting off any torn tail a
// crash left) — and wires the persistor into the WAL and binlog
// group-commit pipelines as their durability sink.
func (e *Engine) attachPersist(fs vfs.FS, redoOff, undoOff, blogOff int64) error {
	p := &persistor{fs: fs}
	var err error
	if p.redo, err = openLogFile(fs, FileRedo, redoOff); err != nil {
		return err
	}
	if p.undo, err = openLogFile(fs, FileUndo, undoOff); err != nil {
		return err
	}
	if p.blog, err = openLogFile(fs, FileBinlog, blogOff); err != nil {
		return err
	}
	if err := fs.SyncDir(); err != nil {
		return fmt.Errorf("engine: syncdir: %w", err)
	}
	e.persist, e.wal.Sink, e.binlog.Sink = p, p.appendWAL, p.appendBinlog
	return nil
}

// appendWAL is the wal.Manager sink: persist one group-commit batch to
// the redo and undo files.
func (p *persistor) appendWAL(redo, undo []wal.Record) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.redo.buf = storage.AppendFrames(p.redo.buf[:0], redo)
	p.undo.buf = storage.AppendFrames(p.undo.buf[:0], undo)
	return appendBatch(&p.redo, &p.undo)
}

// appendBinlog is the binlog.Log sink: persist one group-commit batch
// of events.
func (p *persistor) appendBinlog(evs []binlog.Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blog.buf = storage.AppendFrames(p.blog.buf[:0], evs)
	return appendBatch(&p.blog)
}

// Close releases a durable engine's log file handles. It is idempotent;
// the engine keeps serving reads, and writes fail because their log
// records can no longer be made durable. Every acknowledged batch was
// synced when it was appended, so a close error has nothing to lose.
func (e *Engine) Close() {
	p := e.persist
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		_, _, _ = p.redo.f.Close(), p.undo.f.Close(), p.blog.f.Close()
	}
}

// writeDump persists the periodic buffer-pool dump crash-atomically.
func (p *persistor) writeDump(dump []byte) error {
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
	if err := vfs.WriteFileAtomic(p.fs, FileCheckpoint, img); err != nil {
		return fmt.Errorf("engine: checkpoint write: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
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
			PK:      t.PKIndex,
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
	if e.versions != nil {
		meta.Versions = e.versions.ckptSnapshot()
	}
	tsImage := e.ts.Serialize()
	e.mu.Unlock()
	return EncodeCheckpoint(meta, tsImage)
}

// checkpointLocked writes a checkpoint of the current engine state.
// Callers must hold all table locks (the engine must be quiesced) and
// have verified no transactions are open.
func (e *Engine) checkpointLocked() error {
	if e.persist == nil {
		return nil
	}
	img, err := e.CheckpointImage()
	if err != nil {
		return err
	}
	if err := e.persist.writeCheckpoint(img); err != nil {
		return err
	}
	// The in-memory circular logs mirror the (now empty) disk logs.
	e.wal.Redo.Reset()
	e.wal.Undo.Reset()
	return nil
}

// Checkpoint quiesces the engine and persists a crash-atomic image of
// the catalog and tablespace, truncating the WAL files it supersedes.
// It refuses while any explicit transaction is open, because their
// undo information lives in those WAL files. No-op for a non-durable
// engine.
func (e *Engine) Checkpoint() error {
	if e.persist == nil {
		return nil
	}
	e.locks.lockAll()
	defer e.locks.unlockAll()
	if n := e.openTxns.Load(); n != 0 {
		return fmt.Errorf("engine: checkpoint refused: %d open transaction(s)", n)
	}
	return e.checkpointLocked()
}

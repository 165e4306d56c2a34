package snapshot

import (
	"errors"
	"fmt"
	"os"

	"snapdb/internal/binlog"
	"snapdb/internal/engine"
	"snapdb/internal/forensics"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// A disk snapshot is a data directory: the engine's own files (the
// engine.File* names) in the engine's own formats, so what WriteDirFS
// writes boots under engine.Recover and what a daemon leaves behind
// reads under ReadDirFS — plus the two query logs, which only a dump
// carries (the daemon keeps them in memory).
const (
	FileGeneralLog = "general.log"
	FileSlowLog    = "slow.log"
)

// setCheckpoint records the checkpoint file's bytes and what they
// decode to: the tablespace image (aliasing img) and the forensic
// catalog (WAL table id → schema). The checkpoint's catalog section is
// plaintext JSON — MySQL's .frm files — so table structure travels
// with every stolen disk.
func (d *DiskState) setCheckpoint(img []byte) error {
	meta, ts, err := engine.DecodeCheckpoint(img)
	if err != nil {
		return err
	}
	cat := make(forensics.Catalog, len(meta.Tables))
	for _, t := range meta.Tables {
		cols := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = c.Name
		}
		cat[t.ID] = forensics.TableSchema{Name: t.Name, Columns: cols}
	}
	d.Checkpoint, d.Tablespace, d.Catalog = img, ts, cat
	return nil
}

// WriteDirFS writes the snapshot's persistent state — not diagnostics,
// not memory — into fs. Each file lands crash-atomically (a crash
// mid-write leaves the old file or the new one, never a torn hybrid)
// and in sorted-name order, for deterministic fault-injection replay.
// The checkpoint is the live image as of the capture, so Recover finds
// every log record at or below its LSN and replays none: a transaction
// still open at the capture boots with its writes in place.
func (s *Snapshot) WriteDirFS(fs vfs.FS) error {
	d := s.Disk
	if d == nil {
		return fmt.Errorf("snapshot: %v reveals no disk state to write", s.Attack)
	}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{engine.FileBinlog, d.Binlog},
		{engine.FileCheckpoint, d.Checkpoint},
		{FileGeneralLog, []byte(d.GeneralLog)},
		{engine.FileBufferPool, d.BufferPoolDump},
		{engine.FileRedo, d.RedoLog},
		{engine.FileUndo, d.UndoLog},
		{FileSlowLog, []byte(d.SlowLog)},
	} {
		if f.name == engine.FileCheckpoint && f.data == nil {
			continue // a disk that never checkpointed; an empty file would not decode
		}
		if err := vfs.WriteFileAtomic(fs, f.name, f.data); err != nil {
			return fmt.Errorf("snapshot: writing %s: %w", f.name, err)
		}
	}
	return nil
}

// fileDst is a file of a data directory and where its bytes go.
type fileDst struct {
	name string
	dst  *[]byte
}

// logFiles is where the redo, undo and binlog files and the buffer-pool
// dump of a data directory go in d.
func (d *DiskState) logFiles() []fileDst {
	return []fileDst{
		{engine.FileRedo, &d.RedoLog},
		{engine.FileUndo, &d.UndoLog},
		{engine.FileBinlog, &d.Binlog},
		{engine.FileBufferPool, &d.BufferPoolDump},
	}
}

// readFiles reads each file of fs into its dst. Every file is
// optional: a missing or empty one reads as nil.
func readFiles(fs vfs.FS, files ...fileDst) error {
	for _, f := range files {
		b, err := fs.ReadFile(f.name)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("snapshot: reading %s: %w", f.name, err)
		}
		if len(b) > 0 {
			*f.dst = b
		}
	}
	return nil
}

// ReadDirFS reads a data directory the way the thief does: it only
// reads. Nothing is truncated, replayed or rolled back — that is
// recovery's job, and recovery destroys evidence (E13). Over a
// vfs.CryptFS it is the key-holder's view; the keyless analyst reads
// the inner FS's ciphertext instead (E17).
//
// Every file is optional. A directory with no checkpoint yet and empty
// logs — a freshly booted daemon — is an empty disk. Each log comes
// back as its bytes lie on disk, torn tail included; where a log's
// valid prefix ends short of the file is reported in Truncated, not
// treated as an error. Only a checkpoint that does not decode is
// fatal: there is no tablespace or catalog to report.
func ReadDirFS(fs vfs.FS) (*Snapshot, error) {
	d := &DiskState{}
	var img, general, slow []byte
	if err := readFiles(fs, append(d.logFiles(), fileDst{engine.FileCheckpoint, &img},
		fileDst{FileGeneralLog, &general}, fileDst{FileSlowLog, &slow})...); err != nil {
		return nil, err
	}
	d.GeneralLog, d.SlowLog = string(general), string(slow)
	if img != nil {
		if err := d.setCheckpoint(img); err != nil {
			return nil, fmt.Errorf("snapshot: %s: %w", engine.FileCheckpoint, err)
		}
	}
	// Each log is walked, as recovery walks it, only for where its
	// valid prefix ends: no record is kept.
	redo := wal.WalkLog(d.RedoLog, func(wal.Record) {})
	undo := wal.WalkLog(d.UndoLog, func(wal.Record) {})
	blog := binlog.Walk(d.Binlog, func(binlog.Event) {})
	for name, rep := range map[string]storage.ParseReport{engine.FileRedo: redo, engine.FileUndo: undo, engine.FileBinlog: blog} {
		if rep.Truncated() {
			if d.Truncated == nil {
				d.Truncated = make(map[string]storage.ParseReport)
			}
			d.Truncated[name] = rep
		}
	}
	return &Snapshot{Attack: DiskTheft, Disk: d}, nil
}

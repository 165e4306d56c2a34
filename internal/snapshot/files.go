package snapshot

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"snapdb/internal/engine"
	"snapdb/internal/forensics"
	"snapdb/internal/vfs"
)

// Disk-snapshot file names, mirroring a MySQL data directory: the
// tablespace, the transaction logs, the binlog, the query logs, the
// buffer-pool dump, and the schema files (MySQL's .frm files — table
// structure lives on disk in the clear, which is why forensic
// reconstruction never lacks column names).
const (
	FileTablespace = "tablespace.ibd"
	FileRedo       = engine.FileRedo
	FileUndo       = engine.FileUndo
	FileBinlog     = engine.FileBinlog
	FileGeneralLog = "general.log"
	FileSlowLog    = "slow.log"
	FileBufferPool = engine.FileBufferPool
	FileCatalog    = "schema.frm.json"
)

// CatalogOf extracts the forensic catalog (WAL table id → schema) from
// an engine, the information a real attacker reads out of the schema
// files on the stolen disk.
func CatalogOf(e *engine.Engine) forensics.Catalog {
	cat := make(forensics.Catalog)
	for _, t := range e.Tables() {
		cols := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = c.Name
		}
		cat[t.ID] = forensics.TableSchema{Name: t.Name, Columns: cols}
	}
	return cat
}

// WriteDir materializes the snapshot's persistent state as files in
// dir, creating it if needed — the literal contents of the stolen
// disk. Volatile state (diagnostics, memory) is deliberately not
// written: a disk holds only persistent artifacts.
func (s *Snapshot) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	fs, err := vfs.NewOSFS(dir)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return s.WriteDirFS(fs)
}

// WriteDirFS writes the snapshot's persistent state into fs. Each file
// lands crash-atomically (temp file, fsync, rename, directory fsync),
// so a crash mid-write leaves either the old file or the new one —
// never a torn hybrid. Files are written in sorted-name order for
// deterministic fault-injection replay.
func (s *Snapshot) WriteDirFS(fs vfs.FS) error {
	if s.Disk == nil {
		return fmt.Errorf("snapshot: %v reveals no disk state to write", s.Attack)
	}
	catJSON, err := json.MarshalIndent(s.Disk.Catalog, "", "  ")
	if err != nil {
		return fmt.Errorf("snapshot: encoding catalog: %w", err)
	}
	files := map[string][]byte{
		FileTablespace: s.Disk.Tablespace,
		FileRedo:       s.Disk.RedoLog,
		FileUndo:       s.Disk.UndoLog,
		FileBinlog:     s.Disk.Binlog,
		FileGeneralLog: []byte(s.Disk.GeneralLog),
		FileSlowLog:    []byte(s.Disk.SlowLog),
		FileBufferPool: s.Disk.BufferPoolDump,
		FileCatalog:    catJSON,
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := vfs.WriteFileAtomic(fs, name, files[name]); err != nil {
			return fmt.Errorf("snapshot: writing %s: %w", name, err)
		}
	}
	return nil
}

// ReadDir loads a disk snapshot previously written with WriteDir (or
// assembled by hand from stolen files). Missing optional files
// (query logs, buffer pool dump, catalog) are tolerated; the
// tablespace and logs must exist.
func ReadDir(dir string) (*Snapshot, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	fs, err := vfs.NewOSFS(dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return ReadDirFS(fs)
}

// ReadDirFS is ReadDir over any vfs.FS — in particular a vfs.CryptFS,
// which is how a key-holding operator restores an encrypted snapshot
// directory, and how E17 distinguishes the key-holder's view from the
// ciphertext-only analyst's (who reads the same files off the inner
// FS directly).
func ReadDirFS(fs vfs.FS) (*Snapshot, error) {
	read := func(name string, required bool) ([]byte, error) {
		b, err := fs.ReadFile(name)
		if err != nil {
			if os.IsNotExist(err) && !required {
				return nil, nil
			}
			return nil, fmt.Errorf("snapshot: reading %s: %w", name, err)
		}
		return b, nil
	}
	disk := &DiskState{}
	var err error
	if disk.Tablespace, err = read(FileTablespace, true); err != nil {
		return nil, err
	}
	if disk.RedoLog, err = read(FileRedo, true); err != nil {
		return nil, err
	}
	if disk.UndoLog, err = read(FileUndo, true); err != nil {
		return nil, err
	}
	if disk.Binlog, err = read(FileBinlog, false); err != nil {
		return nil, err
	}
	gen, err := read(FileGeneralLog, false)
	if err != nil {
		return nil, err
	}
	disk.GeneralLog = string(gen)
	slow, err := read(FileSlowLog, false)
	if err != nil {
		return nil, err
	}
	disk.SlowLog = string(slow)
	if disk.BufferPoolDump, err = read(FileBufferPool, false); err != nil {
		return nil, err
	}
	if catJSON, err := read(FileCatalog, false); err != nil {
		return nil, err
	} else if len(catJSON) > 0 {
		if err := json.Unmarshal(catJSON, &disk.Catalog); err != nil {
			return nil, fmt.Errorf("snapshot: parsing catalog: %w", err)
		}
	}
	return &Snapshot{Attack: DiskTheft, Disk: disk}, nil
}

// Package vfs is the file layer under every snapdb persistence path:
// WAL segments, the binlog, the buffer-pool dump, checkpoints, and
// snapshot directories all go through an FS. Three implementations:
//
//   - OSFS: the real filesystem, rooted at a directory.
//   - MemFS: an in-memory filesystem that models the volatile/durable
//     split of a page cache — unsynced writes are lost at Crash(),
//     namespace operations (create/rename/remove) become durable only
//     at SyncDir(). The crash-torture harness runs on it.
//   - FaultFS: a wrapper injecting failpoint-driven faults (write
//     errors, torn writes, dropped fsyncs, bit flips, kill-points)
//     into any inner FS.
//
// The interface is deliberately narrow: positional reads and writes,
// per-file sync, directory sync, rename. That is exactly the contract
// crash-consistent storage needs — and exactly where real systems get
// it wrong, which is what the fault injection demonstrates.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// File is one open file.
type File interface {
	io.Closer
	// WriteAt writes len(p) bytes at offset off, extending the file
	// (zero-filled) if off is past the end.
	WriteAt(p []byte, off int64) (int, error)
	// ReadAt reads into p from offset off; it returns io.EOF when
	// fewer than len(p) bytes are available.
	ReadAt(p []byte, off int64) (int, error)
	// Size returns the current file size.
	Size() (int64, error)
	// Sync makes the file's current content durable.
	Sync() error
	// Truncate resizes the file.
	Truncate(size int64) error
}

// ErrBadName reports a file name that is not a plain flat name: empty,
// a dot entry, or containing a path separator. The FS namespace is
// deliberately flat; before this check, OSFS silently collapsed any
// separator-bearing name to its base (filepath.Base), so two distinct
// logical names like "a/log" and "b/log" could alias one on-disk file.
// All implementations now reject such names up front with this error.
var ErrBadName = errors.New("vfs: name must be a flat file name without separators")

// CheckName validates name against the flat-namespace contract shared
// by every FS implementation.
func CheckName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, `/\`) || strings.ContainsRune(name, os.PathSeparator) {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// FS is a flat filesystem rooted at one directory.
type FS interface {
	// Create creates (or truncates) a file.
	Create(name string) (File, error)
	// Open opens an existing file for reading and writing.
	Open(name string) (File, error)
	// ReadFile returns the full content of a file. Missing files
	// return an error satisfying os.IsNotExist / errors.Is(ErrNotExist).
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname's file. The
	// rename is durable only after SyncDir.
	Rename(oldname, newname string) error
	// Remove deletes a file. Durable only after SyncDir.
	Remove(name string) error
	// SyncDir makes the directory's namespace (creates, renames,
	// removals) durable.
	SyncDir() error
}

// WriteFileAtomic writes data under name crash-atomically: write to a
// temp file, sync it, rename it over name, sync the directory. After a
// crash the file holds either the old content or the new, never a mix.
//
// A failure between Create and Rename removes the temp file
// (best-effort): a stale *.tmp is not just clutter, it is a forensic
// surface — the full intended content of the next checkpoint or
// snapshot file, sitting beside the real one under a name no reader
// ever validates (E17 notes the at-rest-encryption variant of this
// residue). A crash can of course still strand one; crash recovery
// paths tolerate and overwrite it on the next write.
func WriteFileAtomic(fs FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("vfs: create %s: %w", tmp, err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return fmt.Errorf("vfs: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return fmt.Errorf("vfs: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		_ = fs.Remove(tmp)
		return fmt.Errorf("vfs: close %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, name); err != nil {
		_ = fs.Remove(tmp)
		return fmt.Errorf("vfs: rename %s -> %s: %w", tmp, name, err)
	}
	if err := fs.SyncDir(); err != nil {
		return fmt.Errorf("vfs: syncdir for %s: %w", name, err)
	}
	return nil
}

// OSFS is the real filesystem rooted at Dir.
type OSFS struct {
	dir string
}

// NewOSFS creates an OSFS rooted at dir, creating the directory if
// needed.
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: mkdir %s: %w", dir, err)
	}
	return &OSFS{dir: dir}, nil
}

// path maps a validated flat name into the root directory. Callers
// must CheckName first: the old filepath.Base mapping here silently
// flattened "a/log" and "b/log" onto one file.
func (fs *OSFS) path(name string) string { return filepath.Join(fs.dir, name) }

// Create implements FS.
func (fs *OSFS) Create(name string) (File, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(fs.path(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return (*osFile)(f), nil
}

// Open implements FS.
func (fs *OSFS) Open(name string) (File, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(fs.path(name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return (*osFile)(f), nil
}

// ReadFile implements FS.
func (fs *OSFS) ReadFile(name string) ([]byte, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	return os.ReadFile(fs.path(name))
}

// Rename implements FS.
func (fs *OSFS) Rename(oldname, newname string) error {
	if err := CheckName(oldname); err != nil {
		return err
	}
	if err := CheckName(newname); err != nil {
		return err
	}
	return os.Rename(fs.path(oldname), fs.path(newname))
}

// Remove implements FS.
func (fs *OSFS) Remove(name string) error {
	if err := CheckName(name); err != nil {
		return err
	}
	return os.Remove(fs.path(name))
}

// SyncDir implements FS: fsync on the directory makes renames durable.
func (fs *OSFS) SyncDir() error {
	d, err := os.Open(fs.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

type osFile os.File

func (f *osFile) WriteAt(p []byte, off int64) (int, error) { return (*os.File)(f).WriteAt(p, off) }
func (f *osFile) ReadAt(p []byte, off int64) (int, error)  { return (*os.File)(f).ReadAt(p, off) }
func (f *osFile) Sync() error                              { return (*os.File)(f).Sync() }
func (f *osFile) Truncate(size int64) error                { return (*os.File)(f).Truncate(size) }
func (f *osFile) Close() error                             { return (*os.File)(f).Close() }

func (f *osFile) Size() (int64, error) {
	st, err := (*os.File)(f).Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

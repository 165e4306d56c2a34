package vfs

import (
	"snapdb/internal/failpoint"
)

// FaultFS wraps an FS and consults a failpoint registry before every
// mutating operation. Point names are "<op>:<file>" for file ops
// (write, sync, truncate, create, open, rename, remove) and "syncdir"
// for directory sync, so a harness can target one persistence path
// ("write:ib_logfile_redo") or everything ("*").
//
// Reads are never faulted: the harness injects faults while the engine
// runs, then recovers through a clean FS, the same way a real crash
// separates the dying process from the rebooted one.
type FaultFS struct {
	inner FS
	reg   *failpoint.Registry
}

// NewFaultFS wraps inner with fault injection driven by reg.
func NewFaultFS(inner FS, reg *failpoint.Registry) *FaultFS {
	return &FaultFS{inner: inner, reg: reg}
}

// Registry returns the driving registry.
func (fs *FaultFS) Registry() *failpoint.Registry { return fs.reg }

// check evaluates a non-write failpoint: only Err and Crash apply.
func (fs *FaultFS) check(point string) error {
	kind, fired := fs.reg.Eval(point)
	if !fired {
		return nil
	}
	switch kind {
	case failpoint.KindCrash:
		return failpoint.ErrCrashed
	case failpoint.KindErr:
		return failpoint.ErrInjected
	}
	return nil
}

// Create implements FS. Bad names are rejected before failpoint
// evaluation, so they never consume a scheduled fault hit.
func (fs *FaultFS) Create(name string) (File, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	if err := fs.check("create:" + name); err != nil {
		return nil, err
	}
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, fs: fs, name: name}, nil
}

// Open implements FS.
func (fs *FaultFS) Open(name string) (File, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	if err := fs.check("open:" + name); err != nil {
		return nil, err
	}
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, fs: fs, name: name}, nil
}

// ReadFile implements FS. Reads are not faulted.
func (fs *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	if fs.reg.Crashed() {
		return nil, failpoint.ErrCrashed
	}
	return fs.inner.ReadFile(name)
}

// Rename implements FS.
func (fs *FaultFS) Rename(oldname, newname string) error {
	if err := CheckName(oldname); err != nil {
		return err
	}
	if err := CheckName(newname); err != nil {
		return err
	}
	if err := fs.check("rename:" + oldname); err != nil {
		return err
	}
	return fs.inner.Rename(oldname, newname)
}

// Remove implements FS.
func (fs *FaultFS) Remove(name string) error {
	if err := CheckName(name); err != nil {
		return err
	}
	if err := fs.check("remove:" + name); err != nil {
		return err
	}
	return fs.inner.Remove(name)
}

// SyncDir implements FS.
func (fs *FaultFS) SyncDir() error {
	kind, fired := fs.reg.Eval("syncdir")
	if fired {
		switch kind {
		case failpoint.KindCrash:
			return failpoint.ErrCrashed
		case failpoint.KindErr:
			return failpoint.ErrInjected
		case failpoint.KindDropSync:
			return nil // lie: report success without syncing
		}
	}
	return fs.inner.SyncDir()
}

type faultFile struct {
	f    File
	fs   *FaultFS
	name string
}

// WriteAt implements File, injecting write faults: Err drops the write,
// Torn applies a seeded prefix then fails, BitFlip corrupts one seeded
// bit silently, Crash tears the write and kills everything after it.
func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	kind, fired := f.fs.reg.Eval("write:" + f.name)
	if !fired {
		return f.f.WriteAt(p, off)
	}
	switch kind {
	case failpoint.KindErr:
		return 0, failpoint.ErrInjected
	case failpoint.KindTorn, failpoint.KindCrash:
		n := 0
		if len(p) > 0 {
			n = f.fs.reg.Intn(len(p))
		}
		if n > 0 {
			if _, err := f.f.WriteAt(p[:n], off); err != nil {
				return 0, err
			}
		}
		if kind == failpoint.KindCrash {
			return n, failpoint.ErrCrashed
		}
		return n, failpoint.ErrInjected
	case failpoint.KindBitFlip:
		if len(p) == 0 {
			return f.f.WriteAt(p, off)
		}
		corrupt := make([]byte, len(p))
		copy(corrupt, p)
		bit := f.fs.reg.Intn(len(p) * 8)
		corrupt[bit/8] ^= 1 << (bit % 8)
		return f.f.WriteAt(corrupt, off)
	default:
		return f.f.WriteAt(p, off)
	}
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.reg.Crashed() {
		return 0, failpoint.ErrCrashed
	}
	return f.f.ReadAt(p, off)
}

func (f *faultFile) Size() (int64, error) {
	if f.fs.reg.Crashed() {
		return 0, failpoint.ErrCrashed
	}
	return f.f.Size()
}

// Sync implements File: DropSync reports success without syncing.
func (f *faultFile) Sync() error {
	kind, fired := f.fs.reg.Eval("sync:" + f.name)
	if fired {
		switch kind {
		case failpoint.KindCrash:
			return failpoint.ErrCrashed
		case failpoint.KindErr:
			return failpoint.ErrInjected
		case failpoint.KindDropSync:
			return nil
		}
	}
	return f.f.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.check("truncate:" + f.name); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *faultFile) Close() error { return f.f.Close() }

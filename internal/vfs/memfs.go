package vfs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
)

// MemFS is an in-memory filesystem that models what a real disk keeps
// across a power cut:
//
//   - file content written but not Sync'd lives only in the volatile
//     view and is lost at Crash();
//   - Sync captures the file's current content into the durable view;
//   - namespace operations (Create, Rename, Remove) are volatile until
//     SyncDir, matching the need to fsync a directory after renaming —
//     a crash before SyncDir brings the old directory entries back.
//
// Crash() atomically replaces the volatile view with the durable one,
// simulating the post-reboot filesystem the recovery path must handle.
type MemFS struct {
	mu  sync.Mutex
	vol map[string]*memFile // current (volatile) namespace
	dur map[string]*memFile // durable namespace (what a crash preserves)
}

type memFile struct {
	fs      *MemFS
	data    []byte // volatile content; its capacity grows geometrically
	durData []byte // content at last Sync
	// dirty is the lowest offset of data changed since the last Sync:
	// data and durData agree below it, so Sync copies only from there
	// and a file that only grows costs linear time to write and sync.
	dirty   int
	name    string // volatile name, "" if unlinked
	durName string // durable directory entry, "" if none
}

// resize sets the volatile length to n, zeroing whatever it exposes —
// spare capacity may still hold bytes a shrink cut off.
func (f *memFile) resize(n int) {
	old := len(f.data)
	if n <= old {
		f.data = f.data[:n]
		f.dirty = min(f.dirty, n)
		return
	}
	f.data = slices.Grow(f.data, n-old)[:n]
	clear(f.data[old:])
	f.dirty = min(f.dirty, old)
}

// NewMemFS creates an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{vol: make(map[string]*memFile), dur: make(map[string]*memFile)}
}

// Create implements FS. Creating over an existing name truncates it in
// the volatile view; the old content stays durable until Sync.
func (fs *MemFS) Create(name string) (File, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.vol[name]; ok {
		f.resize(0)
		return &memHandle{f: f}, nil
	}
	f := &memFile{fs: fs, name: name}
	fs.vol[name] = f
	return &memHandle{f: f}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.vol[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memHandle{f: f}, nil
}

// ReadFile implements FS.
func (fs *MemFS) ReadFile(name string) ([]byte, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.vol[name]
	if !ok {
		return nil, &os.PathError{Op: "read", Path: name, Err: os.ErrNotExist}
	}
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, nil
}

// Rename implements FS. The volatile namespace changes immediately; the
// durable namespace only at SyncDir.
func (fs *MemFS) Rename(oldname, newname string) error {
	if err := CheckName(oldname); err != nil {
		return err
	}
	if err := CheckName(newname); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.vol[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	if tgt, ok := fs.vol[newname]; ok && tgt != f {
		tgt.name = "" // replaced; durable entry (if any) dies at SyncDir
	}
	delete(fs.vol, oldname)
	f.name = newname
	fs.vol[newname] = f
	return nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	if err := CheckName(name); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.vol[name]
	if !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	f.name = ""
	delete(fs.vol, name)
	return nil
}

// SyncDir implements FS: the volatile namespace becomes the durable
// one. File content durability is separate (per-file Sync).
func (fs *MemFS) SyncDir() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.dur {
		f.durName = ""
	}
	fs.dur = make(map[string]*memFile, len(fs.vol))
	for name, f := range fs.vol {
		f.durName = name
		fs.dur[name] = f
	}
	return nil
}

// Crash simulates a power cut + reboot: the volatile view is discarded
// and rebuilt from the durable one. Files whose directory entry was
// never SyncDir'd vanish; content past the last Sync is lost. Open
// handles keep referencing the pre-crash file objects, which are now
// orphaned — as with a dead process, their writes go nowhere visible.
func (fs *MemFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.vol = make(map[string]*memFile, len(fs.dur))
	newDur := make(map[string]*memFile, len(fs.dur))
	for name, f := range fs.dur {
		nf := &memFile{fs: fs, data: bytes.Clone(f.durData), durData: bytes.Clone(f.durData), dirty: len(f.durData), name: name, durName: name}
		fs.vol[name] = nf
		newDur[name] = nf
	}
	fs.dur = newDur
}

// Names returns the volatile file names, for tests and tooling.
func (fs *MemFS) Names() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.vol))
	for name := range fs.vol {
		out = append(out, name)
	}
	return out
}

type memHandle struct {
	f      *memFile
	closed bool
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	if h.closed {
		return 0, os.ErrClosed
	}
	h.f.fs.mu.Lock()
	defer h.f.fs.mu.Unlock()
	end := int(off) + len(p)
	if len(h.f.data) < end {
		h.f.resize(end)
	}
	h.f.dirty = min(h.f.dirty, int(off))
	copy(h.f.data[off:end], p)
	return len(p), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	if h.closed {
		return 0, os.ErrClosed
	}
	h.f.fs.mu.Lock()
	defer h.f.fs.mu.Unlock()
	if off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Size() (int64, error) {
	if h.closed {
		return 0, os.ErrClosed
	}
	h.f.fs.mu.Lock()
	defer h.f.fs.mu.Unlock()
	return int64(len(h.f.data)), nil
}

// Sync makes the file's current content durable under its durable
// directory entry (if it has one; a file created and synced but never
// SyncDir'd is unreachable after a crash, like a real orphaned inode).
// It copies only what changed since the last Sync.
func (h *memHandle) Sync() error {
	if h.closed {
		return os.ErrClosed
	}
	h.f.fs.mu.Lock()
	defer h.f.fs.mu.Unlock()
	f := h.f
	f.durData = append(f.durData[:f.dirty], f.data[f.dirty:]...)
	f.dirty = len(f.data)
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	if h.closed {
		return os.ErrClosed
	}
	h.f.fs.mu.Lock()
	defer h.f.fs.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("vfs: negative truncate size %d", size)
	}
	h.f.resize(int(size))
	return nil
}

func (h *memHandle) Close() error {
	h.closed = true
	return nil
}

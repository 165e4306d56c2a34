package vfs

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"testing"
)

// refFS is MemFS's reference model: the original copy-everything
// algorithm, where every growing write, truncate and sync copies the
// whole file. MemFS grows in place and syncs only what changed; the
// fuzz target below holds it to exactly this model's observable
// behaviour, crash semantics included.
type refFS struct {
	vol, dur map[string]*refFile
}

type refFile struct {
	data, durData []byte
}

func newRefFS() *refFS {
	return &refFS{vol: make(map[string]*refFile), dur: make(map[string]*refFile)}
}

func (fs *refFS) create(name string) *refFile {
	if f, ok := fs.vol[name]; ok {
		f.data = nil
		return f
	}
	f := &refFile{}
	fs.vol[name] = f
	return f
}

func (fs *refFS) rename(oldname, newname string) bool {
	f, ok := fs.vol[oldname]
	if ok {
		delete(fs.vol, oldname)
		fs.vol[newname] = f
	}
	return ok
}

func (fs *refFS) remove(name string) bool {
	_, ok := fs.vol[name]
	delete(fs.vol, name)
	return ok
}

func (fs *refFS) syncDir() {
	fs.dur = make(map[string]*refFile, len(fs.vol))
	for name, f := range fs.vol {
		fs.dur[name] = f
	}
}

func (fs *refFS) crash() {
	fs.vol = make(map[string]*refFile, len(fs.dur))
	newDur := make(map[string]*refFile, len(fs.dur))
	for name, f := range fs.dur {
		nf := &refFile{data: append([]byte(nil), f.durData...), durData: append([]byte(nil), f.durData...)}
		fs.vol[name] = nf
		newDur[name] = nf
	}
	fs.dur = newDur
}

func (f *refFile) writeAt(p []byte, off int) {
	if end := off + len(p); len(f.data) < end {
		grown := make([]byte, end)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:], p)
}

func (f *refFile) truncate(size int) {
	if len(f.data) > size {
		f.data = f.data[:size]
	} else if len(f.data) < size {
		grown := make([]byte, size)
		copy(grown, f.data)
		f.data = grown
	}
}

func (f *refFile) sync() {
	f.durData = append([]byte(nil), f.data...)
}

// FuzzMemFSMatchesModel runs a random script of Create (over existing
// files too), Open, WriteAt (past EOF too), Truncate both ways, Sync,
// SyncDir, Rename, Remove and Crash against MemFS and refFS, and after
// every step compares every name's ReadFile and every open handle's
// Size and content — handles a crash orphaned included.
func FuzzMemFSMatchesModel(f *testing.F) {
	// op bytes: 0 Create, 1 Open, 2 WriteAt, 3 Truncate, 4 Sync,
	// 5 SyncDir, 6 Rename, 7 Remove, 8 Crash.
	f.Add([]byte{0, 0, 2, 0, 40, 9, 7, 4, 0, 5, 3, 0, 3, 2, 0, 90, 3, 1, 8})         // write, sync, shrink, write past EOF, crash
	f.Add([]byte{0, 1, 2, 0, 0, 200, 1, 4, 0, 5, 0, 1, 2, 0, 3, 5, 2, 8, 1, 1})      // Create over a synced file, then crash
	f.Add([]byte{0, 2, 2, 0, 10, 60, 3, 4, 0, 6, 2, 0, 5, 3, 0, 120, 4, 0, 8, 1, 0}) // rename, grow by truncate
	f.Fuzz(func(t *testing.T, script []byte) {
		mem, ref := NewMemFS(), newRefFS()
		names := []string{"a", "b", "c"}
		type handle struct {
			f   File
			ref *refFile
		}
		var hs []handle
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		slot := func() (handle, bool) {
			if len(hs) == 0 {
				next()
				return handle{}, false
			}
			return hs[next()%len(hs)], true
		}
		for step := 0; len(script) > 0 && step < 64; step++ {
			op := next() % 9
			switch op {
			case 0:
				name := names[next()%len(names)]
				fh, err := mem.Create(name)
				if err != nil {
					t.Fatal(err)
				}
				hs = append(hs, handle{fh, ref.create(name)})
			case 1:
				name := names[next()%len(names)]
				fh, err := mem.Open(name)
				rf, ok := ref.vol[name]
				if (err == nil) != ok {
					t.Fatalf("step %d: Open(%s) err %v, model has it %v", step, name, err, ok)
				}
				if ok {
					hs = append(hs, handle{fh, rf})
				}
			case 2:
				h, ok := slot()
				off, n, fill := next()*3, next(), byte(next())
				if ok {
					p := bytes.Repeat([]byte{fill | 1}, n)
					if _, err := h.f.WriteAt(p, int64(off)); err != nil {
						t.Fatal(err)
					}
					h.ref.writeAt(p, off)
				}
			case 3:
				h, ok := slot()
				size := next() * 2
				if ok {
					if err := h.f.Truncate(int64(size)); err != nil {
						t.Fatal(err)
					}
					h.ref.truncate(size)
				}
			case 4:
				if h, ok := slot(); ok {
					if err := h.f.Sync(); err != nil {
						t.Fatal(err)
					}
					h.ref.sync()
				}
			case 5:
				if err := mem.SyncDir(); err != nil {
					t.Fatal(err)
				}
				ref.syncDir()
			case 6:
				from, to := names[next()%len(names)], names[next()%len(names)]
				err := mem.Rename(from, to)
				if ok := ref.rename(from, to); (err == nil) != ok {
					t.Fatalf("step %d: Rename(%s, %s) err %v, model renamed %v", step, from, to, err, ok)
				}
			case 7:
				name := names[next()%len(names)]
				err := mem.Remove(name)
				if ok := ref.remove(name); (err == nil) != ok {
					t.Fatalf("step %d: Remove(%s) err %v, model removed %v", step, name, err, ok)
				}
			case 8:
				mem.Crash()
				ref.crash()
			}
			for _, name := range names {
				got, err := mem.ReadFile(name)
				rf, ok := ref.vol[name]
				if ok != (err == nil) || (err != nil && !errors.Is(err, os.ErrNotExist)) {
					t.Fatalf("step %d (op %d): ReadFile(%s) err %v, model has it %v", step, op, name, err, ok)
				}
				if ok && !bytes.Equal(got, rf.data) {
					t.Fatalf("step %d (op %d): %s holds %x, model %x", step, op, name, got, rf.data)
				}
			}
			for i, h := range hs {
				size, err := h.f.Size()
				if err != nil || size != int64(len(h.ref.data)) {
					t.Fatalf("step %d (op %d): handle %d size %d (err %v), model %d", step, op, i, size, err, len(h.ref.data))
				}
				buf := make([]byte, size)
				if n, _ := h.f.ReadAt(buf, 0); n != len(buf) || !bytes.Equal(buf, h.ref.data) {
					t.Fatalf("step %d (op %d): handle %d reads %x, model %x", step, op, i, buf[:n], h.ref.data)
				}
			}
		}
	})
}

// TestMemFSAppendIsLinear: appending a log in small synced batches —
// how every engine writes its redo, undo and binlog — costs MemFS
// memory linear in the file, not a copy of the file per batch.
// 256 KiB in 64-byte WriteAt+Sync pairs allocated about 1 GiB under
// the copy-everything algorithm.
func TestMemFSAppendIsLinear(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("log")
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{0xab}, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := 0; off < 256<<10; off += len(chunk) {
		if _, err := f.WriteAt(chunk, int64(off)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Errorf("appending 256 KiB in 64-byte synced writes allocated %d bytes, want under 4 MiB", got)
	}
}

package vfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"

	"snapdb/internal/crypto/prim"
	"snapdb/internal/failpoint"
)

// allFS enumerates every FS implementation under one constructor each,
// so contract tests run over the whole matrix — including both CryptFS
// modes stacked over MemFS, which must be indistinguishable from plain
// at this layer.
func allFS(t *testing.T) map[string]FS {
	t.Helper()
	mustCrypt := func(det bool) FS {
		cfs, err := NewCryptFS(NewMemFS(), prim.TestKey("conformance"), det)
		if err != nil {
			t.Fatal(err)
		}
		return cfs
	}
	osfs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FS{
		"memfs":     NewMemFS(),
		"osfs":      osfs,
		"faultfs":   NewFaultFS(NewMemFS(), failpoint.New(1)),
		"cryptdet":  mustCrypt(true),
		"cryptrand": mustCrypt(false),
	}
}

// TestFSRejectsSeparatorNames is the regression test for the OSFS name
// flattening bug: path(name) used filepath.Base, so "a/log" and "b/log"
// silently aliased one on-disk file ("log"). Every implementation must
// now reject separator-bearing and dot names with ErrBadName, on every
// namespace operation.
func TestFSRejectsSeparatorNames(t *testing.T) {
	bad := []string{"", ".", "..", "a/log", "b/log", `a\log`, "../escape", "nested/../log"}
	for fsName, fs := range allFS(t) {
		// A valid file to direct Rename at.
		f, err := fs.Create("log")
		if err != nil {
			t.Fatalf("%s: create valid: %v", fsName, err)
		}
		f.Close()
		for _, name := range bad {
			if _, err := fs.Create(name); !errors.Is(err, ErrBadName) {
				t.Errorf("%s: Create(%q) err = %v, want ErrBadName", fsName, name, err)
			}
			if _, err := fs.Open(name); !errors.Is(err, ErrBadName) {
				t.Errorf("%s: Open(%q) err = %v, want ErrBadName", fsName, name, err)
			}
			if _, err := fs.ReadFile(name); !errors.Is(err, ErrBadName) {
				t.Errorf("%s: ReadFile(%q) err = %v, want ErrBadName", fsName, name, err)
			}
			if err := fs.Rename(name, "log2"); !errors.Is(err, ErrBadName) {
				t.Errorf("%s: Rename(%q, ...) err = %v, want ErrBadName", fsName, name, err)
			}
			if err := fs.Rename("log", name); !errors.Is(err, ErrBadName) {
				t.Errorf("%s: Rename(..., %q) err = %v, want ErrBadName", fsName, name, err)
			}
			if err := fs.Remove(name); !errors.Is(err, ErrBadName) {
				t.Errorf("%s: Remove(%q) err = %v, want ErrBadName", fsName, name, err)
			}
		}
	}
}

// TestOSFSSeparatorNamesDoNotAlias pins the concrete disaster the old
// code allowed: two distinct logical names collapsing onto one file.
func TestOSFSSeparatorNamesDoNotAlias(t *testing.T) {
	fs, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("a/log"); err == nil {
		// Old behavior: this created "<dir>/log". A second create of
		// "b/log" would then truncate the first file's content.
		t.Fatal("Create(\"a/log\") succeeded; separator names must be rejected")
	}
	// And nothing may have leaked onto disk under the flattened name.
	if _, err := fs.ReadFile("log"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("flattened file exists: err=%v", err)
	}
}

// TestFSReadAtShortRead is the shared ReadAt contract test: reading
// across EOF from a non-page-aligned offset returns the available bytes
// AND io.EOF in the same call; reading at/after EOF returns (0, EOF);
// a closed handle returns os.ErrClosed. CryptFS must inherit all of it
// unchanged — the keystream is positional, so decryption cannot round
// offsets or lengths to page boundaries.
func TestFSReadAtShortRead(t *testing.T) {
	// 3 pages minus a tail, so EOF is non-page-aligned too.
	content := make([]byte, 3*CryptPageSize-37)
	for i := range content {
		content[i] = byte(i * 7)
	}
	for fsName, fs := range allFS(t) {
		f, err := fs.Create("data")
		if err != nil {
			t.Fatalf("%s: %v", fsName, err)
		}
		if _, err := f.WriteAt(content, 0); err != nil {
			t.Fatalf("%s: write: %v", fsName, err)
		}
		size, err := f.Size()
		if err != nil || size != int64(len(content)) {
			t.Fatalf("%s: size = %d, %v; want %d", fsName, size, err, len(content))
		}

		// Interior read at a deliberately unaligned offset.
		buf := make([]byte, 100)
		off := int64(CryptPageSize + 13)
		n, err := f.ReadAt(buf, off)
		if n != 100 || err != nil {
			t.Fatalf("%s: interior ReadAt = (%d, %v), want (100, nil)", fsName, n, err)
		}
		for i := range buf {
			if buf[i] != content[off+int64(i)] {
				t.Fatalf("%s: interior read wrong at byte %d", fsName, i)
			}
		}

		// Read straddling EOF: short count plus io.EOF together.
		off = size - 10
		n, err = f.ReadAt(buf, off)
		if n != 10 || err != io.EOF {
			t.Fatalf("%s: straddling ReadAt = (%d, %v), want (10, io.EOF)", fsName, n, err)
		}
		for i := 0; i < n; i++ {
			if buf[i] != content[off+int64(i)] {
				t.Fatalf("%s: straddling read wrong at byte %d", fsName, i)
			}
		}

		// At and past EOF.
		if n, err = f.ReadAt(buf, size); n != 0 || err != io.EOF {
			t.Fatalf("%s: ReadAt(EOF) = (%d, %v), want (0, io.EOF)", fsName, n, err)
		}
		if n, err = f.ReadAt(buf, size+12345); n != 0 || err != io.EOF {
			t.Fatalf("%s: ReadAt(past EOF) = (%d, %v), want (0, io.EOF)", fsName, n, err)
		}

		// Zero-length read succeeds anywhere below EOF.
		if n, err = f.ReadAt(nil, 5); n != 0 || err != nil {
			t.Fatalf("%s: zero-length ReadAt = (%d, %v), want (0, nil)", fsName, n, err)
		}

		if err := f.Close(); err != nil {
			t.Fatalf("%s: close: %v", fsName, err)
		}
		if _, err := f.ReadAt(buf, 0); !errors.Is(err, os.ErrClosed) {
			t.Fatalf("%s: ReadAt after Close err = %v, want os.ErrClosed", fsName, err)
		}
	}
}

// TestWriteFileAtomicNoTmpResidue is the regression test for the tmp
// leak: a WriteFileAtomic failure used to strand "<name>.tmp" — the
// full intended new content under an unvalidated name. Every pre-rename
// failure must now leave no tmp entry in the namespace.
func TestWriteFileAtomicNoTmpResidue(t *testing.T) {
	for _, point := range []string{"write:cfg.tmp", "sync:cfg.tmp", "rename:cfg.tmp"} {
		mem := NewMemFS()
		reg := failpoint.New(1)
		fs := NewFaultFS(mem, reg)
		if err := WriteFileAtomic(fs, "cfg", []byte("v1")); err != nil {
			t.Fatalf("%s: seed write: %v", point, err)
		}
		reg.Arm(point, failpoint.KindErr, 1)
		if err := WriteFileAtomic(fs, "cfg", []byte("v2-much-longer-content")); err == nil {
			t.Fatalf("%s: injected failure did not surface", point)
		}
		for _, name := range mem.Names() {
			if name == "cfg.tmp" {
				t.Fatalf("%s: cfg.tmp stranded in namespace", point)
			}
		}
		got, err := fs.ReadFile("cfg")
		if err != nil || string(got) != "v1" {
			t.Fatalf("%s: cfg = %q, %v; want old content intact", point, got, err)
		}
	}
}

// TestFSWritePastEOFAfterShrink holds every FS to the zero-gap contract
// after a file shrank under a handle that had just written it: through
// the same handle, through a second handle, and by Create over the
// name. CryptFS remembers the size a handle last saw or produced;
// trusting it past a shrink would skip the zero gap, and the inner
// file's raw zero fill would decrypt to keystream.
func TestFSWritePastEOFAfterShrink(t *testing.T) {
	const long = 3000
	cases := map[string]func(fs FS, f File) (int64, error){
		"same handle": func(_ FS, f File) (int64, error) { return 1000, f.Truncate(1000) },
		"second handle": func(fs FS, _ File) (int64, error) {
			g, err := fs.Open("shrunk")
			if err != nil {
				return 0, err
			}
			defer g.Close()
			return 1000, g.Truncate(1000)
		},
		"create": func(fs FS, _ File) (int64, error) {
			g, err := fs.Create("shrunk")
			if err != nil {
				return 0, err
			}
			return 0, g.Close()
		},
	}
	for caseName, shrink := range cases {
		for fsName, fs := range allFS(t) {
			f, err := fs.Create("shrunk")
			if err != nil {
				t.Fatalf("%s/%s: %v", caseName, fsName, err)
			}
			old := bytes.Repeat([]byte{0xAA}, long)
			if _, err := f.WriteAt(old, 0); err != nil {
				t.Fatalf("%s/%s: %v", caseName, fsName, err)
			}
			kept, err := shrink(fs, f)
			if err != nil {
				t.Fatalf("%s/%s: shrink: %v", caseName, fsName, err)
			}
			if _, err := f.WriteAt([]byte("tail"), long-1000); err != nil {
				t.Fatalf("%s/%s: write past EOF: %v", caseName, fsName, err)
			}
			f.Close()
			want := make([]byte, long-1000+4)
			copy(want, old[:kept])
			copy(want[long-1000:], "tail")
			if got, err := fs.ReadFile("shrunk"); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s/%s: after shrink to %d and a write at %d, content differs (err %v)", caseName, fsName, kept, long-1000, err)
			}
		}
	}
}

// TestCryptFSWriteAfterFailedWrite is the same contract after an inner
// write failed outright (FaultFS KindErr) or tore (KindTorn): the next
// write, inside the failed write's span but past what landed, must
// zero the gap, and a torn prefix reads back as the bytes that landed.
func TestCryptFSWriteAfterFailedWrite(t *testing.T) {
	for _, det := range []bool{true, false} {
		for _, kind := range []failpoint.Kind{failpoint.KindErr, failpoint.KindTorn} {
			mem := NewMemFS()
			reg := failpoint.New(11)
			cfs, err := NewCryptFS(NewFaultFS(mem, reg), prim.TestKey("conformance"), det)
			if err != nil {
				t.Fatal(err)
			}
			f, err := cfs.Create("log")
			if err != nil {
				t.Fatal(err)
			}
			head := bytes.Repeat([]byte{0x11}, CryptPageSize)
			if _, err := f.WriteAt(head, 0); err != nil {
				t.Fatal(err)
			}
			rec := bytes.Repeat([]byte{0x22}, 1000)
			reg.Arm("write:log", kind, 1)
			if _, err := f.WriteAt(rec, CryptPageSize); !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("det=%v kind=%v: err = %v, want injected", det, kind, err)
			}
			raw, _ := mem.ReadFile("log")
			landed := len(raw) - CryptPageSize
			if _, err := f.WriteAt([]byte("next"), CryptPageSize+999); err != nil {
				t.Fatal(err)
			}
			want := append(append([]byte(nil), head...), rec[:landed]...)
			want = append(want, make([]byte, 999-landed)...)
			want = append(want, "next"...)
			if got, err := cfs.ReadFile("log"); err != nil || !bytes.Equal(got, want) {
				t.Errorf("det=%v kind=%v: %d bytes landed, then the gap or the landed tail read back wrong (err %v)", det, kind, landed, err)
			}
		}
	}
}

package vfs

import (
	"bytes"
	"testing"

	"snapdb/internal/crypto/prim"
)

// FuzzCryptFSSidecar plants arbitrary bytes as a fresh-IV file and its
// ".iv" sidecar — of any length, torn mid-tweak or longer than the data
// included, as a crash or a tamperer may leave them — and asserts that
// reading through CryptFS never panics: ReadFile returns the file's own
// length, and a positional ReadAt returns the same bytes ReadFile does.
func FuzzCryptFSSidecar(f *testing.F) {
	// A genuine pair: two pages written through a fresh-IV CryptFS.
	mem := NewMemFS()
	cfs, err := NewCryptFS(mem, prim.TestKey("fuzz-sidecar"), false)
	if err != nil {
		f.Fatal(err)
	}
	fh, err := cfs.Create("f")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := fh.WriteAt(bytes.Repeat([]byte("snapdb "), CryptPageSize/4), 0); err != nil {
		f.Fatal(err)
	}
	data, _ := mem.ReadFile("f")
	sidecar, _ := mem.ReadFile("f" + SidecarSuffix)
	f.Add(data, sidecar, uint16(CryptPageSize-3))
	f.Add(data, sidecar[:prim.TweakSize+5], uint16(0)) // torn mid-tweak
	f.Add(data[:100], sidecar, uint16(90))             // tweaks past the data
	f.Add([]byte{}, []byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data, sidecar []byte, off uint16) {
		mem := NewMemFS()
		writeFile(t, mem, "f", data)
		writeFile(t, mem, "f"+SidecarSuffix, sidecar)
		cfs, err := NewCryptFS(mem, prim.TestKey("fuzz-sidecar"), false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cfs.ReadFile("f")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(data) {
			t.Fatalf("ReadFile returned %d bytes of a %d-byte file", len(got), len(data))
		}
		fh, err := cfs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		n, _ := fh.ReadAt(buf, int64(off))
		if n > 0 && !bytes.Equal(buf[:n], got[off:int(off)+n]) {
			t.Fatalf("ReadAt(%d) disagrees with ReadFile", off)
		}
	})
}

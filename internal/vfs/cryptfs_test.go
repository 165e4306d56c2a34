package vfs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"snapdb/internal/crypto/prim"
	"snapdb/internal/failpoint"
)

func newCrypt(t *testing.T, det bool) (*CryptFS, *MemFS) {
	t.Helper()
	mem := NewMemFS()
	cfs, err := NewCryptFS(mem, prim.TestKey("cryptfs"), det)
	if err != nil {
		t.Fatal(err)
	}
	return cfs, mem
}

func writeFile(t *testing.T, fs FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCryptFSRoundTrip(t *testing.T) {
	for _, det := range []bool{true, false} {
		cfs, mem := newCrypt(t, det)
		// Multi-page content with a non-aligned tail.
		data := bytes.Repeat([]byte("snapdb-page-content-"), 300) // 6000 bytes
		writeFile(t, cfs, "redo", data)

		got, err := cfs.ReadFile("redo")
		if err != nil {
			t.Fatalf("det=%v: %v", det, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("det=%v: logical read != written data", det)
		}
		// The inner (at-rest) bytes are ciphertext of the same length.
		raw, err := mem.ReadFile("redo")
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != len(data) {
			t.Fatalf("det=%v: ciphertext length %d != plaintext %d", det, len(raw), len(data))
		}
		if bytes.Contains(raw, []byte("snapdb-page-content-")) {
			t.Fatalf("det=%v: plaintext visible at rest", det)
		}
		// Positional sub-reads through a fresh handle decrypt too.
		f, err := cfs.Open("redo")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if _, err := f.ReadAt(buf, CryptPageSize-17); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[CryptPageSize-17:CryptPageSize-17+64]) {
			t.Fatalf("det=%v: positional read wrong across page boundary", det)
		}
		f.Close()
	}
}

// TestCryptFSDeterministicPages pins the leakage property E17 exploits:
// in deterministic mode, writing the same plaintext page at the same
// position of the same file yields the same ciphertext — across
// separate CryptFS instances sharing a key — while fresh-IV mode yields
// different ciphertext on every write, even of identical plaintext.
func TestCryptFSDeterministicPages(t *testing.T) {
	page := bytes.Repeat([]byte{0xA5, 0x5A, 0x01}, CryptPageSize/3+1)[:CryptPageSize]

	cfs1, mem1 := newCrypt(t, true)
	cfs2, mem2 := newCrypt(t, true)
	writeFile(t, cfs1, "ibdata", page)
	writeFile(t, cfs2, "ibdata", page)
	ct1, _ := mem1.ReadFile("ibdata")
	ct2, _ := mem2.ReadFile("ibdata")
	if !bytes.Equal(ct1, ct2) {
		t.Fatal("deterministic mode: same (key, name, page, plaintext) gave different ciphertext")
	}
	// Same plaintext at a different page position must differ.
	writeFile(t, cfs1, "two", append(append([]byte(nil), page...), page...))
	ct, _ := mem1.ReadFile("two")
	if bytes.Equal(ct[:CryptPageSize], ct[CryptPageSize:]) {
		t.Fatal("deterministic mode: page number does not separate ciphertext")
	}

	// Fresh-IV: rewriting the identical plaintext re-randomizes.
	rfs, rmem := newCrypt(t, false)
	writeFile(t, rfs, "ibdata", page)
	before, _ := rmem.ReadFile("ibdata")
	f, err := rfs.Open("ibdata")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(page, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	after, _ := rmem.ReadFile("ibdata")
	if bytes.Equal(before, after) {
		t.Fatal("fresh-IV mode: rewrite of identical plaintext left ciphertext unchanged")
	}
	got, err := rfs.ReadFile("ibdata")
	if err != nil || !bytes.Equal(got, page) {
		t.Fatalf("fresh-IV mode: content lost across re-encryption: %v", err)
	}
}

// TestCryptFSSubPageRewrite exercises read-modify-write in fresh mode
// and pure positional XOR in det mode: overwriting a small interior
// range must leave the rest of the page intact.
func TestCryptFSSubPageRewrite(t *testing.T) {
	for _, det := range []bool{true, false} {
		cfs, _ := newCrypt(t, det)
		data := bytes.Repeat([]byte{0x11}, 2*CryptPageSize+100)
		writeFile(t, cfs, "ts", data)
		f, err := cfs.Open("ts")
		if err != nil {
			t.Fatal(err)
		}
		patch := bytes.Repeat([]byte{0xEE}, 300)
		// Straddles the page 0 / page 1 boundary.
		if _, err := f.WriteAt(patch, CryptPageSize-100); err != nil {
			t.Fatalf("det=%v: %v", det, err)
		}
		f.Close()
		copy(data[CryptPageSize-100:], patch)
		got, err := cfs.ReadFile("ts")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("det=%v: sub-page rewrite corrupted surrounding bytes", det)
		}
	}
}

// TestCryptFSGapReadsZero pins the File contract that a write past EOF
// zero-fills the gap: the gap must decrypt to zeros, not keystream.
func TestCryptFSGapReadsZero(t *testing.T) {
	for _, det := range []bool{true, false} {
		cfs, _ := newCrypt(t, det)
		f, err := cfs.Create("gapped")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("head"), 0); err != nil {
			t.Fatal(err)
		}
		// Leave a gap spanning a page boundary, then grow via Truncate.
		if _, err := f.WriteAt([]byte("tail"), CryptPageSize+50); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(2*CryptPageSize + 10); err != nil {
			t.Fatal(err)
		}
		f.Close()
		got, err := cfs.ReadFile("gapped")
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 2*CryptPageSize+10)
		copy(want, "head")
		copy(want[CryptPageSize+50:], "tail")
		if !bytes.Equal(got, want) {
			t.Fatalf("det=%v: gap or growth bytes are not zeros after decrypt", det)
		}
	}
}

// TestCryptFSAtomicWriteAndRename checks the WriteFileAtomic pattern:
// the ".tmp" file is encrypted under its canonical (final) name's
// tweaks, so the rename needs no re-encryption; arbitrary cross-name
// renames are refused in deterministic mode.
func TestCryptFSAtomicWriteAndRename(t *testing.T) {
	for _, det := range []bool{true, false} {
		cfs, mem := newCrypt(t, det)
		content := bytes.Repeat([]byte("checkpoint-meta "), 400)
		if err := WriteFileAtomic(cfs, "ib_checkpoint", content); err != nil {
			t.Fatalf("det=%v: %v", det, err)
		}
		got, err := cfs.ReadFile("ib_checkpoint")
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("det=%v: atomic write round trip failed: %v", det, err)
		}
		if raw, _ := mem.ReadFile("ib_checkpoint"); bytes.Contains(raw, []byte("checkpoint-meta")) {
			t.Fatalf("det=%v: plaintext at rest after atomic write", det)
		}
		if !det {
			// Sidecar must have followed the rename.
			if _, err := mem.ReadFile("ib_checkpoint.iv"); err != nil {
				t.Fatalf("sidecar missing after rename: %v", err)
			}
			if _, err := mem.ReadFile("ib_checkpoint.tmp.iv"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("tmp sidecar stranded: %v", err)
			}
		}
	}
	// Cross-domain rename: deterministic mode refuses up front.
	cfs, _ := newCrypt(t, true)
	writeFile(t, cfs, "a", []byte("x"))
	if err := cfs.Rename("a", "b"); !errors.Is(err, ErrCryptRename) {
		t.Fatalf("cross-domain rename err = %v, want ErrCryptRename", err)
	}
	// Fresh mode allows it (tweaks are stored, not name-derived).
	rfs, _ := newCrypt(t, false)
	writeFile(t, rfs, "a", []byte("moved content"))
	if err := rfs.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if got, err := rfs.ReadFile("b"); err != nil || string(got) != "moved content" {
		t.Fatalf("fresh-mode rename lost content: %q, %v", got, err)
	}
}

// TestCryptFSRemoveCleansSidecar checks Remove drops the fresh-IV
// sidecar with its file.
func TestCryptFSRemoveCleansSidecar(t *testing.T) {
	cfs, mem := newCrypt(t, false)
	writeFile(t, cfs, "doomed", []byte("bytes"))
	if _, err := mem.ReadFile("doomed.iv"); err != nil {
		t.Fatalf("sidecar not created: %v", err)
	}
	if err := cfs.Remove("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.ReadFile("doomed.iv"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("sidecar survived remove: %v", err)
	}
}

// TestCryptFSReopenSharedKey models restart-after-crash: a second
// CryptFS instance (same key, fresh state) over the surviving inner
// bytes must read everything back — in fresh mode via the sidecar file.
func TestCryptFSReopenSharedKey(t *testing.T) {
	for _, det := range []bool{true, false} {
		cfs, mem := newCrypt(t, det)
		data := bytes.Repeat([]byte("durable "), 1024)
		f, err := cfs.Create("wal")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := cfs.SyncDir(); err != nil {
			t.Fatal(err)
		}

		mem.Crash()
		reopened, err := NewCryptFS(mem, prim.TestKey("cryptfs"), det)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.ReadFile("wal")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("det=%v: reopen after crash failed: %v", det, err)
		}
		// Wrong key must NOT read back plaintext.
		wrong, err := NewCryptFS(mem, prim.TestKey("not-the-key"), det)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := wrong.ReadFile("wal"); err == nil && bytes.Equal(got, data) {
			t.Fatalf("det=%v: wrong key decrypted the file", det)
		}
	}
}

// TestCryptFSBitFlipMapsOneToOne pins satellite 4's mechanism: a single
// flipped ciphertext bit decrypts to the same single flipped plaintext
// bit (positional keystream), so the CRC framing above detects it —
// never a silently scrambled page. The flip is injected below CryptFS
// via FaultFS, i.e. on the at-rest bytes.
func TestCryptFSBitFlipMapsOneToOne(t *testing.T) {
	mem := NewMemFS()
	reg := failpoint.New(42)
	ffs := NewFaultFS(mem, reg)
	cfs, err := NewCryptFS(ffs, prim.TestKey("cryptfs"), true)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x00}, 4096)
	reg.Arm("write:frame", failpoint.KindBitFlip, 1)
	writeFile(t, cfs, "frame", data)

	got, err := cfs.ReadFile("frame")
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		for b := got[i] ^ data[i]; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("one ciphertext bit flip decrypted to %d plaintext bit flips, want exactly 1", diff)
	}
}

// TestCryptFSTornWriteIsPositional pins the torture-harness-critical
// property of deterministic mode: a torn write through CryptFS leaves
// exactly the plaintext prefix a plain FS would — old acked bytes
// outside the torn range are untouched.
func TestCryptFSTornWriteIsPositional(t *testing.T) {
	mem := NewMemFS()
	reg := failpoint.New(7)
	ffs := NewFaultFS(mem, reg)
	cfs, err := NewCryptFS(ffs, prim.TestKey("cryptfs"), true)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0xAA}, 1000)
	writeFile(t, cfs, "redo", old)

	f, err := cfs.Open("redo")
	if err != nil {
		t.Fatal(err)
	}
	reg.Arm("write:redo", failpoint.KindTorn, 1)
	next := bytes.Repeat([]byte{0xBB}, 1000)
	if _, err := f.WriteAt(next, 0); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("torn write err = %v", err)
	}
	f.Close()

	got, err := cfs.ReadFile("redo")
	if err != nil {
		t.Fatal(err)
	}
	// Some prefix is new, the rest must still be the OLD plaintext —
	// not garbage, which a page-granular RMW cipher would produce.
	n := 0
	for n < len(got) && got[n] == 0xBB {
		n++
	}
	for i := n; i < len(got); i++ {
		if got[i] != 0xAA {
			t.Fatalf("byte %d after torn prefix of %d is %#x, want old 0xAA", i, n, got[i])
		}
	}
}

// goldenPattern is n deterministic, non-repeating-looking bytes.
func goldenPattern(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*131 + i*7 + i>>8)
	}
	return b
}

// goldenCiphertext is the SHA-256 of every file the write script below
// leaves in the inner MemFS, computed when the deterministic keystream
// was still produced one AES block at a time. Any change to tweak
// derivation, the CTR counter, segmentation or gap filling moves one,
// and an encrypted data directory written by an older binary would no
// longer decrypt under a newer one.
var goldenCiphertext = map[string]string{
	"checkpoint.snapdb": "ab2e41b4c1d24a705d79e6b5d4ff23b64011f3f5c620322a64b6f54cb8742340",
	"ib_logfile_redo":   "e748e4d6f1459182d1bd3ee617b95f513128b644d82ff7bee35c314ba9b6eac2",
	"tablespace-tablespace-tablespace-tablespace-tablespace-tablespace-00001.ibd": "6a32b9607664f358e5ce9acfb50c48d3f2237137703804219f5f8c9bf378f01a",
}

// TestCryptFSGoldenCiphertext runs a fixed write script — log-style
// appends across page boundaries, an unaligned overwrite, a write past
// EOF, shrink and regrowth, an atomic (".tmp"-canonical) checkpoint and
// a name longer than one SHA-256 block — through a deterministic
// CryptFS under a fixed key, and pins the at-rest bytes.
func TestCryptFSGoldenCiphertext(t *testing.T) {
	cfs, mem := newCrypt(t, true)
	f, err := cfs.Create("ib_logfile_redo")
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	for i := 0; i < 60; i++ {
		rec := goldenPattern(i, 17+(i*37)%284)
		if _, err := f.WriteAt(rec, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(rec))
	}
	steps := []func() error{
		func() error { _, err := f.WriteAt(goldenPattern(99, 300), CryptPageSize-150); return err },
		func() error { _, err := f.WriteAt(goldenPattern(7, 40), off+CryptPageSize+123); return err },
		func() error { return f.Truncate(off / 2) },
		func() error { _, err := f.WriteAt(goldenPattern(8, 77), off/2); return err },
		func() error { _, err := f.WriteAt(goldenPattern(12, 30), off/2-300); return err },
		func() error { return f.Truncate(off/2 + 5000) },
		f.Close,
		func() error { return WriteFileAtomic(cfs, "checkpoint.snapdb", goldenPattern(3, 3*CryptPageSize+1000)) },
		func() error {
			long := strings.Repeat("tablespace-", 6) + "00001.ibd"
			return WriteFileAtomic(cfs, long, goldenPattern(5, CryptPageSize+33))
		},
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	names := mem.Names()
	sort.Strings(names)
	got := make(map[string]string, len(names))
	for _, name := range names {
		raw, err := mem.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		got[name] = hex.EncodeToString(sum[:])
		if want := goldenCiphertext[name]; got[name] != want {
			t.Errorf("%s (%d bytes): sha256 %s, want %s", name, len(raw), got[name], want)
		}
	}
	if len(got) != len(goldenCiphertext) {
		t.Errorf("files %v, want %d pinned", names, len(goldenCiphertext))
	}
}

// raceEnabled is set under -race, where sync.Pool drops items at random
// and allocation counts stop being exact.
var raceEnabled bool

// TestCryptFSAllocationBudget is the deterministic write path's exact
// allocation gate: a 200-byte log append through a deterministic
// CryptFS over MemFS costs MemFS's own growth of the file and, once a
// page, a new tweak's CTR stream; it was 12 when every append built a
// fresh HMAC and ciphertext buffer. PageCipher.Tweak allocates nothing.
func TestCryptFSAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	cfs, _ := newCrypt(t, true)
	f, err := cfs.Create("ib_logfile_redo")
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{0x5A}, 200)
	var off int64
	appendRec := func() {
		if _, err := f.WriteAt(rec, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(rec))
	}
	if got := testing.AllocsPerRun(200, appendRec); got > 2 {
		t.Errorf("200-byte deterministic append: %.0f allocs, want <= 2", got)
	}
	pc, err := prim.NewPageCipher(prim.TestKey("cryptfs"))
	if err != nil {
		t.Fatal(err)
	}
	page := uint64(0)
	if got := testing.AllocsPerRun(200, func() { pc.Tweak("ib_logfile_redo", page); page++ }); got != 0 {
		t.Errorf("PageCipher.Tweak: %.0f allocs, want 0", got)
	}
}

// TestCryptFSConcurrentHandles drives the keystream and size memos from
// two goroutines on one CryptFS, in both modes. Each appends to its own
// log, now and then past EOF, and now and then shrinks it, which moves
// the shrink counter under the other's remembered size. Both also write
// disjoint pages through one shared handle and read them back through
// it, so that handle's memo and buffer are contended.
func TestCryptFSConcurrentHandles(t *testing.T) {
	for _, det := range []bool{true, false} {
		cfs, _ := newCrypt(t, det)
		shared, err := cfs.Create("shared")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		models := make([][]byte, 2)
		for g := range models {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f, err := cfs.Create(fmt.Sprintf("log%d", g))
				if err != nil {
					t.Error(err)
					return
				}
				defer f.Close()
				var model []byte
				for i := 0; i < 200; i++ {
					if i%25 == 24 {
						model = model[:len(model)/2]
						if err := f.Truncate(int64(len(model))); err != nil {
							t.Error(err)
							return
						}
						continue
					}
					if i%10 == 9 {
						model = append(model, make([]byte, 77)...)
					}
					rec := goldenPattern(g*1000+i, 50+i%150)
					if _, err := f.WriteAt(rec, int64(len(model))); err != nil {
						t.Error(err)
						return
					}
					model = append(model, rec...)

					mine := goldenPattern(g*1000+i, 300)
					off := int64(2*(i%8)+g)*CryptPageSize + int64(i%50)
					back := make([]byte, len(mine))
					if _, err := shared.WriteAt(mine, off); err != nil {
						t.Error(err)
						return
					}
					if _, err := shared.ReadAt(back, off); err != nil || !bytes.Equal(back, mine) {
						t.Errorf("det=%v goroutine %d: shared handle read back wrong at %d (err %v)", det, g, off, err)
						return
					}
				}
				models[g] = model
			}()
		}
		wg.Wait()
		for g, model := range models {
			if got, err := cfs.ReadFile(fmt.Sprintf("log%d", g)); err != nil || !bytes.Equal(got, model) {
				t.Errorf("det=%v: log%d differs from its model (err %v)", det, g, err)
			}
		}
	}
}

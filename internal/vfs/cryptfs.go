package vfs

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"snapdb/internal/crypto/prim"
)

// CryptPageSize is the encryption granularity: every file an engine
// persists through a CryptFS is ciphered in fixed 4 KiB pages, matching
// storage.PageSize so one tablespace page maps onto one cipher page
// (the alignment E17's page-diff analyst exploits).
const CryptPageSize = 4096

// CryptFS wraps an inner FS with page-level encryption at rest, the
// seam the SQLite adiantum/xts VFSes occupy. Two modes:
//
//   - Deterministic (XTS-style): page p of file f is XORed with a
//     keystream derived from (key, f, p). Length- and position-
//     preserving, so every crash-consistency property of the inner FS
//     transfers byte-for-byte: torn writes tear the same plaintext
//     ranges, dropped fsyncs lose the same bytes, a flipped ciphertext
//     bit flips exactly one plaintext bit (caught downstream by the CRC
//     framing), and sizes/offsets/EOF are identical to plaintext. The
//     cost is determinism itself: equal plaintext pages at equal
//     positions encrypt equally across snapshots — the channel E17
//     breaks — and rewriting a page in place under the same tweak
//     XOR-relates old and new ciphertext.
//
//   - Fresh-IV (the mitigation ablation): every page write draws a new
//     random tweak, stored in a plaintext "<name>.iv" sidecar (16 bytes
//     per page). Ciphertext pages become unlinkable across writes,
//     killing the page-diff channel — but a page rewrite is now a full
//     read-modify-write under a new tweak, so a torn page write can
//     damage previously synced bytes of the same page (real engines pay
//     a double-write buffer here; see DESIGN.md), and the sidecar's
//     per-page write pattern is itself a small new metadata surface.
//
// Neither mode hides file names, file sizes, write positions, or
// timing; E17 shows that is already enough for past-query inference.
type CryptFS struct {
	inner FS
	pc    *prim.PageCipher
	det   bool

	mu     sync.Mutex
	tweaks map[string]*tweakTable // fresh mode: per-file page tweaks
}

// tweakTable caches a fresh-IV file's page tweaks alongside its open
// sidecar handle.
type tweakTable struct {
	ivs     [][prim.TweakSize]byte
	set     []bool // ivs[i] valid
	sidecar File   // open "<name>.iv" handle, lazily created
}

// SidecarSuffix names the fresh-IV tweak file beside its data file;
// its presence is how a reader tells the two modes apart.
const SidecarSuffix = ".iv"

// NewCryptFS wraps inner with page encryption under key. deterministic
// selects the XTS-style mode; false selects the fresh-IV mode.
func NewCryptFS(inner FS, key prim.Key, deterministic bool) (*CryptFS, error) {
	pc, err := prim.NewPageCipher(key)
	if err != nil {
		return nil, err
	}
	return &CryptFS{inner: inner, pc: pc, det: deterministic, tweaks: make(map[string]*tweakTable)}, nil
}

// EncryptionKeyEnv carries the at-rest key to the binaries that open an
// encrypted data directory (snapdbd -encrypt, cmd/forensic). An env var
// keeps the key out of the process argv, which any co-tenant can read —
// though as DESIGN.md notes, at-rest encryption never defends against
// a live co-resident attacker anyway.
const EncryptionKeyEnv = "SNAPDB_ENCRYPTION_KEY"

// EncryptionKeyFromEnv parses EncryptionKeyEnv (64 hex chars = 32
// bytes); set is false when it is unset or empty.
func EncryptionKeyFromEnv() (key prim.Key, set bool, err error) {
	s := os.Getenv(EncryptionKeyEnv)
	if s == "" {
		return key, false, nil
	}
	raw, err := hex.DecodeString(s)
	if err == nil {
		key, err = prim.KeyFromBytes(raw)
	}
	if err != nil {
		return key, true, fmt.Errorf("%s: %w", EncryptionKeyEnv, err)
	}
	return key, true, nil
}

// Inner returns the wrapped FS — the raw-ciphertext view a disk thief
// or snapshot analyst reads.
func (fs *CryptFS) Inner() FS { return fs.inner }

// Deterministic reports the mode.
func (fs *CryptFS) Deterministic() bool { return fs.det }

// canonical is the tweak-derivation name: the ".tmp" suffix that
// WriteFileAtomic appends is stripped, so the temp file is encrypted
// under its final name's tweaks and the atomic rename needs no
// re-encryption (and cannot tear one).
func canonical(name string) string { return strings.TrimSuffix(name, ".tmp") }

// ErrCryptRename reports a rename that would change a file's tweak
// domain. Deterministic tweaks bind the canonical file name, so only
// renames within one canonical name (the WriteFileAtomic "<name>.tmp"
// -> "<name>" pattern) are decryptable afterwards; anything else would
// silently produce garbage on the next read, which this error refuses
// up front.
var ErrCryptRename = errors.New("vfs: cryptfs rename across tweak domains")

// Create implements FS.
func (fs *CryptFS) Create(name string) (File, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	if !fs.det {
		// A created (truncated) file starts with no valid pages: reset
		// the tweak table and sidecar.
		fs.mu.Lock()
		if tt := fs.tweaks[name]; tt != nil && tt.sidecar != nil {
			_ = tt.sidecar.Close()
		}
		delete(fs.tweaks, name)
		fs.mu.Unlock()
		if sc, err := fs.inner.Create(name + SidecarSuffix); err == nil {
			_ = sc.Close()
		}
	}
	return &cryptFile{fs: fs, f: f, name: name}, nil
}

// Open implements FS.
func (fs *CryptFS) Open(name string) (File, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &cryptFile{fs: fs, f: f, name: name}, nil
}

// ReadFile implements FS, returning the decrypted content.
func (fs *CryptFS) ReadFile(name string) ([]byte, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	b, err := fs.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if err := fs.xorRange(name, 0, b); err != nil {
		return nil, err
	}
	return b, nil
}

// Rename implements FS. The fresh-IV sidecar travels with its file.
func (fs *CryptFS) Rename(oldname, newname string) error {
	if err := CheckName(oldname); err != nil {
		return err
	}
	if err := CheckName(newname); err != nil {
		return err
	}
	if fs.det && canonical(oldname) != canonical(newname) {
		return fmt.Errorf("%w: %q -> %q", ErrCryptRename, oldname, newname)
	}
	if err := fs.inner.Rename(oldname, newname); err != nil {
		return err
	}
	if !fs.det {
		// Sidecar rename is best-effort after the data rename: a crash
		// between the two is the fresh-IV mode's documented atomicity
		// hole (DESIGN.md), not silently hidden here.
		_ = fs.inner.Rename(oldname+SidecarSuffix, newname+SidecarSuffix)
		fs.mu.Lock()
		if tt, ok := fs.tweaks[oldname]; ok {
			if tt.sidecar != nil {
				_ = tt.sidecar.Close()
				tt.sidecar = nil // reopened lazily under the new name
			}
			delete(fs.tweaks, oldname)
			fs.tweaks[newname] = tt
		} else {
			delete(fs.tweaks, newname)
		}
		fs.mu.Unlock()
	}
	return nil
}

// Remove implements FS.
func (fs *CryptFS) Remove(name string) error {
	if err := CheckName(name); err != nil {
		return err
	}
	if err := fs.inner.Remove(name); err != nil {
		return err
	}
	if !fs.det {
		_ = fs.inner.Remove(name + SidecarSuffix)
		fs.mu.Lock()
		if tt := fs.tweaks[name]; tt != nil && tt.sidecar != nil {
			_ = tt.sidecar.Close()
		}
		delete(fs.tweaks, name)
		fs.mu.Unlock()
	}
	return nil
}

// SyncDir implements FS.
func (fs *CryptFS) SyncDir() error { return fs.inner.SyncDir() }

// xorRange applies the per-page keystream to data, which lives at byte
// offset off of file name. Deterministic mode derives every tweak;
// fresh mode looks tweaks up, leaving bytes of pages with no recorded
// tweak untouched (raw ciphertext): such bytes can only be damage —
// e.g. a crash that landed data without its sidecar entry — and
// passing them through unmasked lets the CRC framing above report the
// corruption instead of hiding it behind a synthetic decrypt.
func (fs *CryptFS) xorRange(name string, off int64, data []byte) error {
	cname := canonical(name)
	var tt *tweakTable
	if !fs.det {
		var err error
		if tt, err = fs.loadTweaks(name); err != nil {
			return err
		}
	}
	for len(data) > 0 {
		page := uint64(off) / CryptPageSize
		in := int(uint64(off) % CryptPageSize)
		n := CryptPageSize - in
		if n > len(data) {
			n = len(data)
		}
		if fs.det {
			fs.pc.XORKeyStreamAt(fs.pc.Tweak(cname, page), in, data[:n])
		} else if int(page) < len(tt.set) && tt.set[page] {
			fs.pc.XORKeyStreamAt(tt.ivs[page], in, data[:n])
		}
		data = data[n:]
		off += int64(n)
	}
	return nil
}

// loadTweaks returns the (cached) tweak table for name, reading the
// sidecar file on first access.
func (fs *CryptFS) loadTweaks(name string) (*tweakTable, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if tt, ok := fs.tweaks[name]; ok {
		return tt, nil
	}
	tt := &tweakTable{}
	b, err := fs.inner.ReadFile(name + SidecarSuffix)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("vfs: cryptfs sidecar %s: %w", name, err)
	}
	for o := 0; o+prim.TweakSize <= len(b); o += prim.TweakSize {
		var tw [prim.TweakSize]byte
		copy(tw[:], b[o:])
		tt.ivs = append(tt.ivs, tw)
		tt.set = append(tt.set, tw != [prim.TweakSize]byte{})
	}
	fs.tweaks[name] = tt
	return tt, nil
}

// setTweak records a freshly drawn tweak for page pg of name, in memory
// and in the sidecar file.
func (fs *CryptFS) setTweak(name string, tt *tweakTable, pg uint64) ([prim.TweakSize]byte, error) {
	var tw [prim.TweakSize]byte
	if _, err := rand.Read(tw[:]); err != nil {
		return tw, fmt.Errorf("vfs: cryptfs tweak: %w", err)
	}
	fs.mu.Lock()
	for uint64(len(tt.ivs)) <= pg {
		tt.ivs = append(tt.ivs, [prim.TweakSize]byte{})
		tt.set = append(tt.set, false)
	}
	tt.ivs[pg] = tw
	tt.set[pg] = true
	if tt.sidecar == nil {
		sc, err := fs.inner.Open(name + SidecarSuffix)
		if errors.Is(err, os.ErrNotExist) {
			sc, err = fs.inner.Create(name + SidecarSuffix)
		}
		if err != nil {
			fs.mu.Unlock()
			return tw, fmt.Errorf("vfs: cryptfs sidecar %s: %w", name, err)
		}
		tt.sidecar = sc
	}
	sc := tt.sidecar
	fs.mu.Unlock()
	if _, err := sc.WriteAt(tw[:], int64(pg)*prim.TweakSize); err != nil {
		return tw, fmt.Errorf("vfs: cryptfs sidecar %s: %w", name, err)
	}
	return tw, nil
}

// cryptFile is one open handle on an encrypted file.
type cryptFile struct {
	fs   *CryptFS
	f    File
	name string
}

// ReadAt implements File: read ciphertext, XOR in place. Short-read
// and EOF semantics are the inner file's own.
func (c *cryptFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.f.ReadAt(p, off)
	if n > 0 {
		if xerr := c.fs.xorRange(c.name, off, p[:n]); xerr != nil && err == nil {
			err = xerr
		}
	}
	return n, err
}

// WriteAt implements File. Deterministic mode is a pure positional
// XOR — one inner write of the same length at the same offset, so
// fault injection below sees the identical operation stream as
// plaintext. Fresh-IV mode re-encrypts every touched page under a new
// random tweak, which turns sub-page writes into read-modify-write.
// Both modes keep the zero-fill extension contract: a write past EOF
// first encrypts the zero gap explicitly, so the gap later reads back
// as zeros, not as keystream.
func (c *cryptFile) WriteAt(p []byte, off int64) (int, error) {
	size, err := c.f.Size()
	if err != nil {
		return 0, err
	}
	if off > size {
		if err := c.writeSpan(make([]byte, off-size), size, size); err != nil {
			return 0, err
		}
		size = off
	}
	if err := c.writeSpan(p, off, size); err != nil {
		return 0, err
	}
	return len(p), nil
}

// writeSpan encrypts and writes p at off; size is the current file
// size (>= off, the caller has closed any gap).
func (c *cryptFile) writeSpan(p []byte, off, size int64) error {
	if len(p) == 0 {
		// Preserve the inner file's handling of empty writes (e.g. a
		// closed handle must still error).
		_, err := c.f.WriteAt(p, off)
		return err
	}
	if c.fs.det {
		ct := make([]byte, len(p))
		copy(ct, p)
		if err := c.fs.xorRange(c.name, off, ct); err != nil {
			return err
		}
		_, err := c.f.WriteAt(ct, off)
		return err
	}
	tt, err := c.fs.loadTweaks(c.name)
	if err != nil {
		return err
	}
	end := off + int64(len(p))
	for pos := off; pos < end; {
		pg := uint64(pos) / CryptPageSize
		pageStart := int64(pg) * CryptPageSize
		pageEnd := pageStart + CryptPageSize
		segEnd := end
		if segEnd > pageEnd {
			segEnd = pageEnd
		}
		// Assemble the page's new plaintext: existing extent (decrypted
		// under the old tweak) patched with this write's segment.
		oldEnd := size
		if oldEnd > pageEnd {
			oldEnd = pageEnd
		}
		newEnd := segEnd
		if oldEnd > newEnd {
			newEnd = oldEnd
		}
		buf := make([]byte, newEnd-pageStart)
		if oldEnd > pageStart {
			m, rerr := c.f.ReadAt(buf[:oldEnd-pageStart], pageStart)
			if rerr != nil && rerr != io.EOF {
				return rerr
			}
			c.fs.mu.Lock()
			has := int(pg) < len(tt.set) && tt.set[pg]
			tw := [prim.TweakSize]byte{}
			if has {
				tw = tt.ivs[pg]
			}
			c.fs.mu.Unlock()
			if has {
				c.fs.pc.XORKeyStreamAt(tw, 0, buf[:m])
			}
		}
		copy(buf[pos-pageStart:], p[pos-off:segEnd-off])
		tw, terr := c.fs.setTweak(c.name, tt, pg)
		if terr != nil {
			return terr
		}
		c.fs.pc.XORKeyStreamAt(tw, 0, buf)
		if _, werr := c.f.WriteAt(buf, pageStart); werr != nil {
			return werr
		}
		if newEnd > size {
			size = newEnd
		}
		pos = segEnd
	}
	return nil
}

func (c *cryptFile) Size() (int64, error) { return c.f.Size() }

// Sync implements File; fresh mode also syncs the sidecar, whose
// tweaks the just-synced pages need to decrypt.
func (c *cryptFile) Sync() error {
	if err := c.f.Sync(); err != nil {
		return err
	}
	if !c.fs.det {
		c.fs.mu.Lock()
		var sc File
		if tt := c.fs.tweaks[c.name]; tt != nil {
			sc = tt.sidecar
		}
		c.fs.mu.Unlock()
		if sc != nil {
			return sc.Sync()
		}
	}
	return nil
}

// Truncate implements File. Shrinking needs no re-encryption in either
// mode (the keystream is positional); growth goes through the explicit
// zero-encryption path so extended bytes read back as zeros.
func (c *cryptFile) Truncate(size int64) error {
	cur, err := c.f.Size()
	if err != nil {
		return err
	}
	if size <= cur {
		return c.f.Truncate(size)
	}
	return c.writeSpan(make([]byte, size-cur), cur, cur)
}

func (c *cryptFile) Close() error { return c.f.Close() }

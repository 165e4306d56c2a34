package prim

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
)

// PageCipher is the tweaked, length-preserving page encryption beneath
// vfs.CryptFS: each fixed-size page of a file is XORed with an AES-CTR
// keystream whose IV (the "tweak") binds the file name and page number,
// the construction the SQLite adiantum/xts VFSes use at the same seam.
//
// Because ciphertext byte i depends only on plaintext byte i, the
// cipher commutes with everything the crash-consistency machinery
// cares about: torn writes tear the same byte ranges, a flipped
// ciphertext bit flips exactly one plaintext bit (surfacing as a CRC
// frame failure downstream, never as silently different data), and
// file sizes, offsets and EOF behavior are identical to the plaintext
// file. The price of determinism is the leakage E17 demonstrates: with
// a fixed tweak, equal plaintext pages at equal positions produce
// equal ciphertext across snapshots, and rewriting a page in place
// XOR-relates the two ciphertexts. The fresh-IV mode (a caller-stored
// random tweak per page write) trades the in-place properties away to
// close the equality channel.
type PageCipher struct {
	block cipher.Block // AES-256 under the derived "page" key

	// ipad and opad are HMAC-SHA256's key schedule for the "page-tweak"
	// PRF key, run once: the marshaled SHA-256 states after absorbing
	// the key XOR ipad and XOR opad blocks. A tweak resumes from them,
	// so it costs two compressions rather than a fresh HMAC.
	ipad, opad []byte
	macs       sync.Pool // *tweakMAC: per-call hash state, so Tweak allocates nothing
}

// tweakMAC is one Tweak call's working memory.
type tweakMAC struct {
	h   hash.Hash
	buf []byte
}

// TweakSize is the size in bytes of a page tweak (the AES-CTR IV).
const TweakSize = aes.BlockSize

// NewPageCipher derives the page-encryption subkeys from k.
func NewPageCipher(k Key) (*PageCipher, error) {
	encKey := Derive(k, "page-enc")
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		return nil, fmt.Errorf("prim: page cipher init: %w", err)
	}
	twKey := Derive(k, "page-tweak")
	c := &PageCipher{block: block}
	if c.ipad, err = padState(twKey, 0x36); err == nil {
		c.opad, err = padState(twKey, 0x5c)
	}
	if err != nil {
		return nil, fmt.Errorf("prim: page tweak key schedule: %w", err)
	}
	c.macs.New = func() any { return &tweakMAC{h: sha256.New(), buf: make([]byte, 0, sha256.BlockSize)} }
	return c, nil
}

// padState returns the marshaled SHA-256 state after absorbing one
// block of key XOR pad: HMAC's inner (0x36) or outer (0x5c) prefix.
func padState(key Key, pad byte) ([]byte, error) {
	var blk [sha256.BlockSize]byte
	copy(blk[:], key[:])
	for i := range blk {
		blk[i] ^= pad
	}
	h := sha256.New()
	h.Write(blk[:])
	return h.(encoding.BinaryMarshaler).MarshalBinary()
}

// Tweak derives the deterministic tweak for page number page of the
// file named name: PRF(twKey, name || page). Binding the name keeps
// equal pages of different files unrelated; binding the page number is
// what makes the scheme XTS-style rather than a single reused stream.
func (c *PageCipher) Tweak(name string, page uint64) [TweakSize]byte {
	m := c.macs.Get().(*tweakMAC)
	m.buf = binary.BigEndian.AppendUint64(append(m.buf[:0], name...), page)
	m.buf = m.sum(c.ipad, m.buf)
	m.buf = m.sum(c.opad, m.buf)
	var tw [TweakSize]byte
	copy(tw[:], m.buf)
	c.macs.Put(m)
	return tw
}

// sum resumes the hash from state, absorbs msg and returns the digest
// in m.buf's storage (msg may alias it).
func (m *tweakMAC) sum(state, msg []byte) []byte {
	// The states were marshaled by this package's own SHA-256, so
	// restoring them cannot fail.
	_ = m.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state)
	m.h.Write(msg)
	return m.h.Sum(m.buf[:0])
}

// KeyStream returns the keystream of the page whose tweak is tw,
// positioned at byte offset off within the page: successive
// XORKeyStream calls on it cover successive bytes, so a caller that
// keeps it can continue exactly where its last call ended. It is the
// standard library's pipelined AES-CTR over the big-endian 128-bit
// counter tw + block index, wrapping at 2^128.
func (c *PageCipher) KeyStream(tw [TweakSize]byte, off int) cipher.Stream {
	ctr := tw
	addCounter(&ctr, uint64(off/aes.BlockSize))
	s := cipher.NewCTR(c.block, ctr[:])
	if skip := off % aes.BlockSize; skip > 0 {
		var discard [aes.BlockSize]byte
		s.XORKeyStream(discard[:skip], discard[:skip])
	}
	return s
}

// XORKeyStreamAt XORs data in place with the keystream of the page
// whose tweak is tw, starting at byte offset off within the page.
// Encryption and decryption are the same operation. off+len(data) may
// not exceed the page size the caller segments by; the keystream is
// defined for any offset, so the caller's page size is not a parameter
// here.
func (c *PageCipher) XORKeyStreamAt(tw [TweakSize]byte, off int, data []byte) {
	if len(data) > 0 {
		c.KeyStream(tw, off).XORKeyStream(data, data)
	}
}

// addCounter adds n to the big-endian 128-bit counter in place.
func addCounter(ctr *[aes.BlockSize]byte, n uint64) {
	for i := aes.BlockSize - 1; i >= 0 && n > 0; i-- {
		n += uint64(ctr[i])
		ctr[i] = byte(n)
		n >>= 8
	}
}

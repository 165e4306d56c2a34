package prim

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"testing"
)

func TestPageCipherRoundTrip(t *testing.T) {
	pc, err := NewPageCipher(TestKey("pages"))
	if err != nil {
		t.Fatal(err)
	}
	tw := pc.Tweak("ib_logfile_redo", 3)
	plain := []byte("the quick brown fox jumps over the lazy dog, twice over")
	ct := append([]byte(nil), plain...)
	pc.XORKeyStreamAt(tw, 0, ct)
	if bytes.Equal(ct, plain) {
		t.Fatal("ciphertext equals plaintext")
	}
	pc.XORKeyStreamAt(tw, 0, ct)
	if !bytes.Equal(ct, plain) {
		t.Fatalf("round trip broken: %q", ct)
	}
}

// TestPageCipherSeek pins the property CryptFS depends on: XORing a
// sub-range at offset off must equal XORing the whole page and taking
// the same sub-range, for offsets that straddle AES block boundaries.
func TestPageCipherSeek(t *testing.T) {
	pc, _ := NewPageCipher(TestKey("pages"))
	tw := pc.Tweak("f", 9)
	page := make([]byte, 256)
	for i := range page {
		page[i] = byte(i)
	}
	whole := append([]byte(nil), page...)
	pc.XORKeyStreamAt(tw, 0, whole)
	for _, off := range []int{0, 1, 15, 16, 17, 31, 100, 255} {
		for _, n := range []int{1, 3, 16, 33} {
			if off+n > len(page) {
				continue
			}
			part := append([]byte(nil), page[off:off+n]...)
			pc.XORKeyStreamAt(tw, off, part)
			if !bytes.Equal(part, whole[off:off+n]) {
				t.Fatalf("off=%d n=%d: seeked stream diverges from full stream", off, n)
			}
		}
	}
}

// TestPageCipherCTRAgreement checks the hand-rolled counter against the
// standard library's CTR mode over a multi-block page.
func TestPageCipherCTRAgreement(t *testing.T) {
	pc, _ := NewPageCipher(TestKey("pages"))
	tw := pc.Tweak("f", 1)
	plain := bytes.Repeat([]byte("abcdefgh"), 64) // 512 bytes
	got := append([]byte(nil), plain...)
	pc.XORKeyStreamAt(tw, 0, got)

	encKey := Derive(TestKey("pages"), "page-enc")
	block, _ := aes.NewCipher(encKey[:])
	want := make([]byte, len(plain))
	cipher.NewCTR(block, tw[:]).XORKeyStream(want, plain)
	if !bytes.Equal(got, want) {
		t.Fatal("page keystream disagrees with crypto/cipher CTR")
	}
}

func TestPageCipherTweakBinding(t *testing.T) {
	pc, _ := NewPageCipher(TestKey("pages"))
	plain := make([]byte, 64)
	enc := func(name string, page uint64) []byte {
		out := append([]byte(nil), plain...)
		pc.XORKeyStreamAt(pc.Tweak(name, page), 0, out)
		return out
	}
	base := enc("binlog.000001", 0)
	if !bytes.Equal(base, enc("binlog.000001", 0)) {
		t.Fatal("deterministic encryption is not deterministic")
	}
	if bytes.Equal(base, enc("binlog.000001", 1)) {
		t.Fatal("page number does not separate keystreams")
	}
	if bytes.Equal(base, enc("ib_logfile_redo", 0)) {
		t.Fatal("file name does not separate keystreams")
	}
	pc2, _ := NewPageCipher(TestKey("other"))
	other := append([]byte(nil), plain...)
	pc2.XORKeyStreamAt(pc2.Tweak("binlog.000001", 0), 0, other)
	if bytes.Equal(base, other) {
		t.Fatal("key does not separate keystreams")
	}
}

func TestPageCipherCounterCarry(t *testing.T) {
	var ctr [16]byte
	for i := range ctr {
		ctr[i] = 0xFF
	}
	addCounter(&ctr, 1) // wraps to zero
	for i, b := range ctr {
		if b != 0 {
			t.Fatalf("byte %d = %#x after wrap", i, b)
		}
	}
	addCounter(&ctr, 1<<40)
	if ctr[15] != 0 || ctr[10] != 1 {
		t.Fatalf("carry landed wrong: %x", ctr)
	}
}

// refXORKeyStreamAt is the keystream as PageCipher computed it one AES
// block at a time, before it ran the standard library's pipelined CTR:
// the reference every ciphertext byte must still equal.
func refXORKeyStreamAt(block cipher.Block, tw [TweakSize]byte, off int, data []byte) {
	var ctr [aes.BlockSize]byte
	copy(ctr[:], tw[:])
	addCounter(&ctr, uint64(off/aes.BlockSize))
	skip := off % aes.BlockSize
	var ks [aes.BlockSize]byte
	for len(data) > 0 {
		block.Encrypt(ks[:], ctr[:])
		n := min(aes.BlockSize-skip, len(data))
		for i := 0; i < n; i++ {
			data[i] ^= ks[skip+i]
		}
		data = data[n:]
		skip = 0
		addCounter(&ctr, 1)
	}
}

// FuzzPageCipherKeystream checks XORKeyStreamAt, and a KeyStream
// continued across two calls, against the block-at-a-time reference
// for any tweak, offset and length — the seeds put the counter at the
// 64-bit carry and at the 128-bit wrap — and Tweak against
// PRF(twKey, name || page), names longer than one SHA-256 block
// included.
func FuzzPageCipherKeystream(f *testing.F) {
	carry := append(make([]byte, 8), bytes.Repeat([]byte{0xFF}, 8)...)
	wrap := bytes.Repeat([]byte{0xFF}, TweakSize)
	f.Add(carry, uint16(0), uint16(64), uint16(20), "ib_logfile_redo", uint64(0))
	f.Add(carry, uint16(4090), uint16(300), uint16(7), "binlog.000001", uint64(1<<40))
	f.Add(wrap, uint16(5), uint16(4096), uint16(1000), "checkpoint.snapdb.tmp", uint64(1<<63))
	f.Add(wrap, uint16(0), uint16(1), uint16(0), "", ^uint64(0))
	f.Add([]byte{1, 2, 3}, uint16(17), uint16(8191), uint16(4096), string(bytes.Repeat([]byte("n"), 120)), uint64(9))
	key := TestKey("pages")
	pc, err := NewPageCipher(key)
	if err != nil {
		f.Fatal(err)
	}
	encKey := Derive(key, "page-enc")
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		f.Fatal(err)
	}
	twKey := Derive(key, "page-tweak")
	f.Fuzz(func(t *testing.T, tweak []byte, off, n, split uint16, name string, page uint64) {
		var tw [TweakSize]byte
		copy(tw[:], tweak)
		data := make([]byte, n%8193)
		for i := range data {
			data[i] = byte(i * 31)
		}
		want := append([]byte(nil), data...)
		refXORKeyStreamAt(block, tw, int(off), want)
		got := append([]byte(nil), data...)
		pc.XORKeyStreamAt(tw, int(off), got)
		if !bytes.Equal(got, want) {
			t.Fatalf("XORKeyStreamAt(tw=%x, off=%d, n=%d) differs from the reference", tw, off, len(data))
		}
		k := int(split) % (len(data) + 1)
		cont := append([]byte(nil), data...)
		s := pc.KeyStream(tw, int(off))
		s.XORKeyStream(cont[:k], cont[:k])
		s.XORKeyStream(cont[k:], cont[k:])
		if !bytes.Equal(cont, want) {
			t.Fatalf("KeyStream(tw=%x, off=%d) continued after %d of %d bytes differs from the reference", tw, off, k, len(data))
		}
		msg := binary.BigEndian.AppendUint64([]byte(name), page)
		full := PRF(twKey, msg)
		if tw := pc.Tweak(name, page); !bytes.Equal(tw[:], full[:TweakSize]) {
			t.Fatalf("Tweak(%q, %d) = %x, want PRF prefix %x", name, page, tw, full[:TweakSize])
		}
	})
}

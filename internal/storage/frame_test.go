package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	for i, want := range payloads {
		got, n, err := ReadFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload %q != %q", i, got, want)
		}
		if n != FrameHeaderSize+len(want) {
			t.Fatalf("frame %d: consumed %d", i, n)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, []byte("payload"))
	for cut := 0; cut < len(full); cut++ {
		_, _, err := ReadFrame(full[:cut])
		if !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("cut at %d: err = %v, want truncated", cut, err)
		}
	}
}

func TestFrameCorrupt(t *testing.T) {
	full := AppendFrame(nil, []byte("payload"))
	// Flip one bit in every byte position; header-length flips may read
	// as truncation (length grew) — payload and checksum flips must be
	// corruption.
	for i := 4; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x01
		_, _, err := ReadFrame(mut)
		if !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("flip at %d: err = %v, want corrupt", i, err)
		}
	}
}

func TestFrameInsaneLength(t *testing.T) {
	var b [FrameHeaderSize]byte
	binary.BigEndian.PutUint32(b[0:4], MaxFramePayload+1)
	_, _, err := ReadFrame(b[:])
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("err = %v, want corrupt", err)
	}
}

// TestCountFramesBoundsWalkFrames: the header-only count equals the
// walk's on a clean image and is never below it on a damaged one, at
// every cut and for a bit flipped at every position.
func TestCountFramesBoundsWalkFrames(t *testing.T) {
	var img []byte
	for _, p := range [][]byte{[]byte("one"), nil, bytes.Repeat([]byte("two"), 40), []byte("3")} {
		img = AppendFrame(img, p)
	}
	accept := func(payload []byte) (int, error) { return len(payload), nil }
	if got := CountFrames(img); got != 4 {
		t.Fatalf("CountFrames = %d on a clean 4-frame image", got)
	}
	for i := 0; i <= len(img); i++ {
		if n, walked := CountFrames(img[:i]), WalkFrames(img[:i], "x", accept).Frames; n != walked {
			t.Fatalf("cut at %d: CountFrames = %d, WalkFrames accepted %d", i, n, walked)
		}
		if i == len(img) {
			break
		}
		mut := append([]byte(nil), img...)
		mut[i] ^= 0x80
		if n, walked := CountFrames(mut), WalkFrames(mut, "x", accept).Frames; n < walked {
			t.Fatalf("flip at %d: CountFrames = %d below the %d frames WalkFrames accepted", i, n, walked)
		}
	}
}

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

// walkBoth walks img whole and streamed in chunk-byte reads, with a
// decoder that refuses payloads starting 0xEE and consumes one byte
// short of those starting 0xEF, and fails t if the two walks differ in
// any payload or in the report.
func walkBoth(t *testing.T, img []byte, chunk int) {
	t.Helper()
	walk := func(stream bool) (payloads [][]byte, rep ParseReport) {
		decode := func(p []byte) (int, error) {
			payloads = append(payloads, bytes.Clone(p))
			switch {
			case len(p) > 0 && p[0] == 0xEE:
				return 0, errors.New("refused")
			case len(p) > 0 && p[0] == 0xEF:
				return len(p) - 1, nil
			}
			return len(p), nil
		}
		if !stream {
			return payloads, WalkFrames(img, "thing", decode)
		}
		rep, err := WalkFramesAt(bytes.NewReader(img), int64(len(img)), chunk, "thing", decode)
		if err != nil {
			t.Fatalf("chunk %d: streamed walk: %v", chunk, err)
		}
		return payloads, rep
	}
	wantP, want := walk(false)
	gotP, got := walk(true)
	if got != want {
		t.Fatalf("chunk %d: streamed walk reports %+v, the whole-image walk %+v", chunk, got, want)
	}
	if len(gotP) != len(wantP) {
		t.Fatalf("chunk %d: streamed walk decoded %d payloads, the whole-image walk %d", chunk, len(gotP), len(wantP))
	}
	for i := range wantP {
		if !bytes.Equal(gotP[i], wantP[i]) {
			t.Fatalf("chunk %d: payload %d is %q streamed, %q whole", chunk, i, gotP[i], wantP[i])
		}
	}
}

// FuzzStreamedWalkMatchesWalkFrames holds the streamed walk to the
// whole-image one over any bytes and any chunk size from one byte up:
// the same payloads reach decode, and the reports agree in Frames,
// TruncatedAt and Reason — clean, torn, corrupt, oversized-header and
// undecodable images alike.
func FuzzStreamedWalkMatchesWalkFrames(f *testing.F) {
	var clean []byte
	for _, p := range [][]byte{[]byte("one"), nil, bytes.Repeat([]byte("two"), 400), []byte("3")} {
		clean = AppendFrame(clean, p)
	}
	f.Add(clean, uint16(1))
	f.Add(clean, uint16(7))
	f.Add(clean, uint16(4096))
	f.Add(clean[:len(clean)-2], uint16(16))
	flipped := bytes.Clone(clean)
	flipped[FrameHeaderSize+len("one")+FrameHeaderSize+3] ^= 1
	f.Add(flipped, uint16(9))
	var huge [FrameHeaderSize]byte
	binary.BigEndian.PutUint32(huge[:], MaxFramePayload+1)
	f.Add(append(AppendFrame(nil, []byte("ok")), huge[:]...), uint16(3))
	binary.BigEndian.PutUint32(huge[:], MaxFramePayload)
	f.Add(append(AppendFrame(nil, []byte("ok")), huge[:]...), uint16(5))
	f.Add(AppendFrame(AppendFrame(nil, []byte("ok")), []byte{0xEE, 1}), uint16(2))
	f.Add(AppendFrame(AppendFrame(nil, []byte{0xEF, 1, 2}), []byte("late")), uint16(64))
	f.Fuzz(func(t *testing.T, img []byte, chunk uint16) {
		walkBoth(t, img, int(chunk)+1)
	})
}

// TestStreamedWalkEveryChunkSize runs the streamed walk over one image
// of frames from empty to three times the starting buffer, cut at every
// length, in every chunk size up to past the image's.
func TestStreamedWalkEveryChunkSize(t *testing.T) {
	var img []byte
	for i := 0; i < 12; i++ {
		img = AppendFrame(img, bytes.Repeat([]byte{byte('a' + i)}, i*i))
	}
	for cut := 0; cut <= len(img); cut += 5 {
		for chunk := 1; chunk <= len(img)+1; chunk += 3 {
			walkBoth(t, img[:cut], chunk)
		}
	}
}

// failingReader serves r's bytes below at and fails any read that
// reaches past it.
type failingReader struct {
	r  *bytes.Reader
	at int64
}

var errRead = errors.New("device error")

func (f failingReader) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > f.at {
		return 0, errRead
	}
	return f.r.ReadAt(p, off)
}

// TestStreamedWalkReadError: a read that fails ends the streamed walk
// with that error, having decoded only frames read before it.
func TestStreamedWalkReadError(t *testing.T) {
	var img []byte
	for i := 0; i < 40; i++ {
		img = AppendFrame(img, bytes.Repeat([]byte{'x'}, 50))
	}
	const chunk = 256
	decoded := 0
	rep, err := WalkFramesAt(failingReader{bytes.NewReader(img), 3 * chunk}, int64(len(img)), chunk, "x",
		func(p []byte) (int, error) { decoded++; return len(p), nil })
	if !errors.Is(err, errRead) {
		t.Fatalf("err = %v, want the read error", err)
	}
	if most := 3 * chunk / (FrameHeaderSize + 50); decoded != rep.Frames || decoded == 0 || decoded > most {
		t.Fatalf("decoded %d, reported %d frames before the failed read; want as many, between 1 and %d", decoded, rep.Frames, most)
	}
}

package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame is the checksummed on-disk envelope for every log-structured
// file snapdb persists: WAL records, binlog events, the buffer-pool
// dump, and checkpoint sections. Layout:
//
//	u32 payload length | u32 CRC32-C of payload | payload
//
// The checksum lets a reader distinguish a torn tail (the file ends
// mid-frame: the write never completed) from corruption (the frame is
// whole but its bytes are wrong). Both stop the scan; neither may
// panic.

// FrameHeaderSize is the per-frame overhead in bytes.
const FrameHeaderSize = 8

// MaxFramePayload caps a single frame's payload. Anything larger in a
// length header is treated as corruption, bounding allocation when
// parsing hostile or damaged files.
const MaxFramePayload = 1 << 26

// ErrFrameTruncated reports a frame cut short by the end of the buffer:
// the tail of a file whose last write was torn.
var ErrFrameTruncated = errors.New("storage: truncated frame")

// ErrFrameCorrupt reports a structurally complete frame whose checksum
// or length header is invalid.
var ErrFrameCorrupt = errors.New("storage: corrupt frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload to dst wrapped in a frame and returns the
// extended slice.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ReadFrame parses one frame from the front of b, returning the payload
// and the total bytes consumed (header + payload). A short buffer
// returns ErrFrameTruncated; a bad length or checksum returns
// ErrFrameCorrupt. The payload aliases b.
func ReadFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < FrameHeaderSize {
		return nil, 0, ErrFrameTruncated
	}
	plen := binary.BigEndian.Uint32(b[0:4])
	if plen > MaxFramePayload {
		return nil, 0, fmt.Errorf("%w: payload length %d exceeds cap", ErrFrameCorrupt, plen)
	}
	total := FrameHeaderSize + int(plen)
	if len(b) < total {
		return nil, 0, ErrFrameTruncated
	}
	payload = b[FrameHeaderSize:total]
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(b[4:8]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrFrameCorrupt)
	}
	return payload, total, nil
}

// AppendFramed appends it to dst as one frame, encoding the payload in
// place behind a reserved header; every framed log is written here.
func AppendFramed[T interface{ AppendEncode(dst []byte) []byte }](dst []byte, it T) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, FrameHeaderSize)...)
	dst = it.AppendEncode(dst)
	payload := dst[start+FrameHeaderSize:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// AppendFrames appends one frame per item to dst (AppendFramed).
func AppendFrames[T interface{ AppendEncode(dst []byte) []byte }](dst []byte, items []T) []byte {
	for _, it := range items {
		dst = AppendFramed(dst, it)
	}
	return dst
}

// CountFrames returns how many frames img's length headers chain
// through before one runs past the end: an upper bound on the frames
// WalkFrames will accept (no checksum is read), for sizing a parse's
// result before the parse.
func CountFrames(img []byte) int {
	n := 0
	for len(img) >= FrameHeaderSize {
		plen := binary.BigEndian.Uint32(img)
		if plen > MaxFramePayload || int(plen) > len(img)-FrameHeaderSize {
			break
		}
		img = img[FrameHeaderSize+int(plen):]
		n++
	}
	return n
}

// ParseReport describes how the parse of a framed log image ended.
type ParseReport struct {
	// Frames is the number of valid frames parsed.
	Frames int
	// TruncatedAt is the byte offset of the first bad frame, or -1 if
	// the image parsed cleanly to the end. Bytes before TruncatedAt are
	// the valid prefix a recovery can keep.
	TruncatedAt int
	// Reason says why the scan stopped: "torn frame" for a tail cut
	// short mid-frame, a checksum/length description for corruption, or
	// "bad <what>: ..." for an intact frame whose payload did not decode.
	Reason string
}

// Truncated reports whether the parse stopped before the end of the
// image.
func (p ParseReport) Truncated() bool { return p.TruncatedAt >= 0 }

// WalkFrames walks a framed log image, handing each payload to decode
// (which returns the bytes it consumed), and stops at the first torn or
// corrupt frame or the first payload that fails to decode or decodes
// short; what names the payload in the reason. It never panics on
// malformed input.
func WalkFrames(img []byte, what string, decode func(payload []byte) (int, error)) ParseReport {
	rep := ParseReport{TruncatedAt: -1}
	for pos := 0; pos < len(img); {
		n, reason := walkFrame(img[pos:], what, decode)
		if reason != "" {
			rep.TruncatedAt, rep.Reason = pos, reason
			return rep
		}
		rep.Frames++
		pos += n
	}
	return rep
}

// WalkFramesAt is WalkFrames over the first size bytes of r, streamed
// through one reused buffer of chunk bytes instead of read whole: decode
// sees the same payloads, and the walk stops at the same offset for the
// same reason. A payload aliases the buffer, so decode must not keep it.
// A frame longer than the buffer grows it to fit, never past what is
// left of the file (a length header beyond MaxFramePayload is
// corruption, as ReadFrame says). An error reading r ends the walk: it
// is returned with the report of the frames before it.
func WalkFramesAt(r io.ReaderAt, size int64, chunk int, what string, decode func(payload []byte) (int, error)) (ParseReport, error) {
	rep := ParseReport{TruncatedAt: -1}
	buf := make([]byte, max(chunk, 1))
	var base int64 // the file offset of buf[0]
	lo, hi := 0, 0 // buf[lo:hi] is read and not yet walked
	// fill reads until buf[lo:hi] holds need bytes or the rest of the
	// file, whichever is less.
	fill := func(need int) error {
		need = int(min(int64(need), size-base-int64(lo)))
		if hi-lo >= need {
			return nil
		}
		base += int64(lo)
		hi = copy(buf, buf[lo:hi])
		lo = 0
		if need > len(buf) {
			grown := make([]byte, need)
			copy(grown, buf[:hi])
			buf = grown
		}
		for hi < need {
			want := int(min(int64(len(buf)-hi), size-base-int64(hi)))
			n, err := r.ReadAt(buf[hi:hi+want], base+int64(hi))
			hi += n
			if n < want {
				if err == nil || errors.Is(err, io.EOF) {
					err = io.ErrUnexpectedEOF
				}
				return err
			}
		}
		return nil
	}
	for base+int64(lo) < size {
		if err := fill(FrameHeaderSize); err != nil {
			return rep, err
		}
		if hi-lo >= FrameHeaderSize {
			if plen := binary.BigEndian.Uint32(buf[lo:]); plen <= MaxFramePayload {
				if err := fill(FrameHeaderSize + int(plen)); err != nil {
					return rep, err
				}
			}
		}
		n, reason := walkFrame(buf[lo:hi], what, decode)
		if reason != "" {
			rep.TruncatedAt, rep.Reason = int(base)+lo, reason
			return rep, nil
		}
		rep.Frames++
		lo += n
	}
	return rep, nil
}

// walkFrame reads the frame at the front of b and hands its payload to
// decode. It returns the frame's length, or why a walk stops at it.
func walkFrame(b []byte, what string, decode func(payload []byte) (int, error)) (int, string) {
	payload, n, err := ReadFrame(b)
	switch {
	case errors.Is(err, ErrFrameTruncated):
		return 0, "torn frame"
	case err != nil:
		return 0, err.Error()
	}
	used, err := decode(payload)
	if err == nil && used != len(payload) {
		err = fmt.Errorf("%d trailing bytes in frame", len(payload)-used)
	}
	if err != nil {
		return 0, "bad " + what + ": " + err.Error()
	}
	return n, ""
}

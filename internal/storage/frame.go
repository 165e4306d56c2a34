package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// AppendFrames appends one frame per item to dst, encoding each payload
// in place behind a reserved header; every framed log is written here.
func AppendFrames[T interface{ AppendEncode(dst []byte) []byte }](dst []byte, items []T) []byte {
	for _, it := range items {
		start := len(dst)
		dst = append(dst, make([]byte, FrameHeaderSize)...)
		dst = it.AppendEncode(dst)
		payload := dst[start+FrameHeaderSize:]
		binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
		binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
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
		payload, n, err := ReadFrame(img[pos:])
		switch {
		case errors.Is(err, ErrFrameTruncated):
			rep.Reason = "torn frame"
		case err != nil:
			rep.Reason = err.Error()
		default:
			used, derr := decode(payload)
			if derr == nil && used != len(payload) {
				derr = fmt.Errorf("%d trailing bytes in frame", len(payload)-used)
			}
			if derr != nil {
				rep.Reason = "bad " + what + ": " + derr.Error()
			}
		}
		if rep.Reason != "" {
			rep.TruncatedAt = pos
			return rep
		}
		rep.Frames++
		pos += n
	}
	return rep
}

package wal

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"snapdb/internal/storage"
)

// FuzzDecodeRecord asserts DecodeRecord never panics and never reads
// past the buffer, whatever bytes arrive — the property recovery
// depends on when the tail of a crashed server's log is garbage — and
// that checkRecord, which recovery's undo walk uses in its place, takes
// the same bytes and fails with the same error.
func FuzzDecodeRecord(f *testing.F) {
	r := Record{LSN: 9, Txn: 3, Op: OpUpdate, Table: 2, Column: 1, Image: row(7, "seed")}
	f.Add(r.Encode())
	f.Add([]byte{})
	f.Add(make([]byte, headerSize))
	f.Add(make([]byte, headerSize-1))
	f.Add(append(r.Encode(), 1, 2))
	f.Add(Record{Op: OpDelete, Image: row(1, "a")}.Encode()[:headerSize+5])
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if cn, cerr := checkRecord(data); cn != n || fmt.Sprint(cerr) != fmt.Sprint(err) {
			t.Fatalf("checkRecord = %d, %v; DecodeRecord took %d, %v", cn, cerr, n, err)
		}
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// A successfully decoded record re-encodes to the consumed bytes.
		enc := rec.Encode()
		if len(enc) != n {
			t.Fatalf("re-encode length %d != consumed %d", len(enc), n)
		}
	})
}

// FuzzParseLog asserts the report-producing parser never panics and
// that its truncation offset always bounds the valid prefix.
func FuzzParseLog(f *testing.F) {
	l, _ := NewLog("fuzz", 1<<16)
	l.Append(Record{LSN: 1, Op: OpInsert, Table: 1, Column: WholeRow, Image: row(1, "a")})
	l.Append(Record{LSN: 2, Op: OpCommit, Column: WholeRow})
	img := l.Serialize()
	f.Add(img)
	f.Add(img[:len(img)-2])
	f.Add([]byte{0, 0, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, rep := ParseLogReport(data)
		if rep.Truncated() {
			if rep.TruncatedAt < 0 || rep.TruncatedAt > len(data) {
				t.Fatalf("TruncatedAt %d outside image of %d bytes", rep.TruncatedAt, len(data))
			}
			if rep.Reason == "" {
				t.Fatal("truncated without a reason")
			}
		}
		if len(recs) != rep.Frames {
			t.Fatalf("records %d != frames %d", len(recs), rep.Frames)
		}
	})
}

// refLog is the circular Log as it was before it held its framed
// image: a slice of records and their encoded sizes, evicting from the
// front after every append. FuzzLogMatchesModel holds Log to it.
type refLog struct {
	capacity int
	records  []Record
	sizes    []int
	bytes    int
	evicted  uint64
}

func (l *refLog) append(r Record) {
	enc := r.EncodedSize()
	l.records = append(l.records, r)
	l.sizes = append(l.sizes, enc)
	l.bytes += enc
	for l.bytes > l.capacity && len(l.records) > 1 {
		l.bytes -= l.sizes[0]
		l.records = l.records[1:]
		l.sizes = l.sizes[1:]
		l.evicted++
	}
}

func (l *refLog) oldestLSN() uint64 {
	if len(l.records) == 0 {
		return 0
	}
	return l.records[0].LSN
}

func (l *refLog) serialize() []byte {
	return storage.AppendFrames(make([]byte, 0, l.bytes+storage.FrameHeaderSize*len(l.records)), l.records)
}

// FuzzLogMatchesModel drives Log and refLog with the same run of Append
// and AppendFrames calls — the second as a group-commit batch hands
// frames to the in-memory store — at a capacity and with record sizes
// the input picks, records larger than the whole capacity included, and
// compares everything a reader of the log sees after every step: Len,
// Evicted, Bytes, OldestLSN, Records and Serialize. E2 and the
// WAL-granularity ablation read those numbers, so they must not move
// with the representation.
func FuzzLogMatchesModel(f *testing.F) {
	f.Add([]byte{0, 40, 0, 10, 1, 3, 20, 30, 40, 0, 200, 2, 1, 0})
	f.Add([]byte{1, 0, 1, 255, 0, 255, 1, 4, 255, 255, 255, 255})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := 1 + (int(data[0])<<8 | int(data[1]))
		data = data[2:]
		l, err := NewLog("fuzz", capacity)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refLog{capacity: capacity}
		var lsn uint64
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		record := func() Record {
			n := int(next())
			lsn += uint64(1 + n)
			r := Record{LSN: lsn, Txn: uint64(n % 7), Op: Op(1 + n%5), Table: byte(n), Column: WholeRow}
			if r.Op.IsMarker() {
				return r
			}
			// Up to 1 KiB of payload: larger than small capacities.
			r.Image = row(int64(n), strings.Repeat("p", 4*n))
			return r
		}
		for step := 0; len(data) > 0; step++ {
			if op := next(); op%2 == 0 {
				r := record()
				l.Append(r)
				ref.append(r)
			} else {
				recs := make([]Record, int(op/2)%6)
				for i := range recs {
					recs[i] = record()
					ref.append(recs[i])
				}
				l.AppendFrames(storage.AppendFrames(nil, recs))
			}
			if l.Len() != len(ref.records) || l.Evicted() != ref.evicted || l.Bytes() != ref.bytes || l.OldestLSN() != ref.oldestLSN() {
				t.Fatalf("step %d (capacity %d): Len %d Evicted %d Bytes %d OldestLSN %d, model %d %d %d %d", step, capacity,
					l.Len(), l.Evicted(), l.Bytes(), l.OldestLSN(), len(ref.records), ref.evicted, ref.bytes, ref.oldestLSN())
			}
			if got, want := l.Serialize(), ref.serialize(); !bytes.Equal(got, want) {
				t.Fatalf("step %d: Serialize differs from the model's (%d vs %d bytes)", step, len(got), len(want))
			}
			recs := l.Records()
			if len(recs) != len(ref.records) {
				t.Fatalf("step %d: Records holds %d, model %d", step, len(recs), len(ref.records))
			}
			for i, r := range recs {
				if !bytes.Equal(r.Encode(), ref.records[i].Encode()) {
					t.Fatalf("step %d: record %d is %+v, model %+v", step, i, r, ref.records[i])
				}
			}
		}
	})
}

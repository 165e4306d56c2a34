package wal

import (
	"fmt"
	"testing"
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

package wal

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

func row(k int64, payload string) storage.Record {
	return storage.Record{sqlparse.IntValue(k), sqlparse.StrValue(payload)}
}

func TestRecordEncodeDecode(t *testing.T) {
	recs := []Record{
		{LSN: 1, Op: OpInsert, Table: 3, Column: WholeRow, Image: row(7, "hello")},
		{LSN: 99999, Op: OpUpdate, Table: 0, Column: 2, Image: storage.Record{sqlparse.IntValue(1), sqlparse.StrValue("new")}},
		{LSN: 5, Op: OpDelete, Table: 255, Column: WholeRow, Image: storage.Record{sqlparse.IntValue(42)}},
	}
	for _, r := range recs {
		enc := r.Encode()
		dec, n, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("DecodeRecord: %v", err)
		}
		if n != len(enc) {
			t.Errorf("consumed %d of %d", n, len(enc))
		}
		if dec.LSN != r.LSN || dec.Op != r.Op || dec.Table != r.Table || dec.Column != r.Column {
			t.Errorf("header mismatch: %+v vs %+v", dec, r)
		}
		if !dec.Image.Equal(r.Image) {
			t.Errorf("image mismatch: %v vs %v", dec.Image, r.Image)
		}
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	if _, _, err := DecodeRecord(nil); err == nil {
		t.Error("nil accepted")
	}
	r := Record{LSN: 1, Op: OpInsert, Table: 1, Column: WholeRow, Image: row(1, "x")}
	enc := r.Encode()
	if _, _, err := DecodeRecord(enc[:headerSize+1]); err == nil {
		t.Error("truncated payload accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[16] = 0x77 // bogus op
	if _, _, err := DecodeRecord(bad); err == nil {
		t.Error("bad op accepted")
	}
}

func TestNewLogRejectsBadCapacity(t *testing.T) {
	if _, err := NewLog("x", 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestCircularEviction(t *testing.T) {
	l, err := NewLog("redo", 1024)
	if err != nil {
		t.Fatal(err)
	}
	r := Record{Op: OpInsert, Table: 1, Column: WholeRow, Image: row(0, strings.Repeat("p", 100))}
	encSize := headerSize + len(storage.EncodeRecord(r.Image))
	n := 1024/encSize + 10
	for i := 0; i < n; i++ {
		r.LSN = uint64(i + 1)
		l.Append(r)
	}
	if l.Bytes() > 1024 {
		t.Errorf("log holds %d bytes, capacity 1024", l.Bytes())
	}
	if l.Evicted() == 0 {
		t.Error("no evictions despite overflow")
	}
	recs := l.Records()
	if recs[len(recs)-1].LSN != uint64(n) {
		t.Errorf("newest record LSN = %d, want %d", recs[len(recs)-1].LSN, n)
	}
	if l.OldestLSN() != recs[0].LSN {
		t.Errorf("OldestLSN = %d, records[0] = %d", l.OldestLSN(), recs[0].LSN)
	}
	// Oldest retained LSN should be recent, not 1.
	if recs[0].LSN == 1 {
		t.Error("oldest record survived wraparound")
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	l, _ := NewLog("redo", 1<<20)
	for i := 0; i < 50; i++ {
		l.Append(Record{LSN: uint64(i + 1), Op: OpInsert, Table: 2, Column: WholeRow, Image: row(int64(i), "payload")})
	}
	img := l.Serialize()
	recs, err := ParseLog(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("parsed %d records", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Errorf("record %d LSN = %d", i, r.LSN)
		}
	}
}

func TestParseLogTornTail(t *testing.T) {
	l, _ := NewLog("redo", 1<<20)
	for i := 0; i < 3; i++ {
		l.Append(Record{LSN: uint64(i + 1), Op: OpInsert, Table: 1, Column: WholeRow, Image: row(int64(i), "x")})
	}
	img := l.Serialize()
	recs, err := ParseLog(img[:len(img)-4])
	if err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	if len(recs) != 2 {
		t.Errorf("parsed %d records from torn log, want 2", len(recs))
	}
	if _, err := ParseLog([]byte{1, 2, 3}); err == nil {
		t.Error("pure garbage accepted")
	}
}

func TestParseLogEmpty(t *testing.T) {
	recs, err := ParseLog(nil)
	if err != nil || len(recs) != 0 {
		t.Errorf("empty log: recs=%d err=%v", len(recs), err)
	}
}

func TestManagerLSNMonotonic(t *testing.T) {
	m, err := NewManager(1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 100; i++ {
		lsn, _, _ := m.LogInsert(1, row(int64(i), "abc"))
		if lsn <= last {
			t.Fatalf("LSN not increasing: %d after %d", lsn, last)
		}
		last = lsn
	}
	if m.CurrentLSN() != last {
		t.Errorf("CurrentLSN = %d, last = %d", m.CurrentLSN(), last)
	}
}

func TestManagerInsertImages(t *testing.T) {
	m, _ := NewManager(1<<20, 1<<20)
	m.LogInsert(1, row(7, "secret-data"))
	redo := m.Redo.Records()
	undo := m.Undo.Records()
	if len(redo) != 1 || len(undo) != 1 {
		t.Fatalf("redo=%d undo=%d", len(redo), len(undo))
	}
	if len(redo[0].Image) != 2 || redo[0].Image[1].Str != "secret-data" {
		t.Errorf("redo image = %v, want full row", redo[0].Image)
	}
	if len(undo[0].Image) != 1 || undo[0].Image[0].Int != 7 {
		t.Errorf("undo image = %v, want key only", undo[0].Image)
	}
}

func TestManagerUpdateImages(t *testing.T) {
	m, _ := NewManager(1<<20, 1<<20)
	key := storage.Record{sqlparse.IntValue(7)}
	m.LogUpdate(1, key, 2,
		storage.Record{sqlparse.StrValue("old-value")},
		storage.Record{sqlparse.StrValue("new-value")})
	redo := m.Redo.Records()[0]
	undo := m.Undo.Records()[0]
	if redo.Column != 2 || undo.Column != 2 {
		t.Errorf("columns: redo=%d undo=%d", redo.Column, undo.Column)
	}
	if redo.Image[1].Str != "new-value" {
		t.Errorf("redo new value = %v", redo.Image)
	}
	if undo.Image[1].Str != "old-value" {
		t.Errorf("undo old value = %v", undo.Image)
	}
	if redo.LSN != undo.LSN {
		t.Error("redo and undo LSNs differ for one change")
	}
}

func TestManagerDeleteImages(t *testing.T) {
	m, _ := NewManager(1<<20, 1<<20)
	m.LogDelete(1, row(9, "the-deleted-row"))
	redo := m.Redo.Records()[0]
	undo := m.Undo.Records()[0]
	if len(redo.Image) != 1 {
		t.Errorf("redo delete image = %v, want key only", redo.Image)
	}
	if len(undo.Image) != 2 || undo.Image[1].Str != "the-deleted-row" {
		t.Errorf("undo delete image = %v, want full old row", undo.Image)
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(lsn uint64, key int64, payload string) bool {
		r := Record{LSN: lsn, Op: OpUpdate, Table: 1, Column: 1,
			Image: storage.Record{sqlparse.IntValue(key), sqlparse.StrValue(payload)}}
		enc := r.Encode()
		if len(storage.EncodeRecord(r.Image)) > 0xFFFF {
			return true // payload length field saturates; skip
		}
		dec, _, err := DecodeRecord(enc)
		return err == nil && dec.LSN == lsn && dec.Image.Equal(r.Image)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkLogInsert(b *testing.B) {
	m, err := NewManager(DefaultCapacity, DefaultCapacity)
	if err != nil {
		b.Fatal(err)
	}
	r := row(1, strings.Repeat("f", 20))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.LogInsert(1, r)
	}
}

func TestGroupCommitConcurrentOrder(t *testing.T) {
	m, err := NewManager(1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.LogInsert(1, row(int64(w*perWorker+i), "payload"))
			}
		}(w)
	}
	wg.Wait()

	// Every append is durable (flushed) by the time LogInsert returns,
	// and the log is in strictly increasing LSN order even though the
	// appends raced: LSN assignment and queue order share one critical
	// section, and the leader drains FIFO.
	recs := m.Redo.Records()
	if len(recs) != workers*perWorker {
		t.Fatalf("redo records = %d, want %d", len(recs), workers*perWorker)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			t.Fatalf("LSN order violated at %d: %d after %d", i, recs[i].LSN, recs[i-1].LSN)
		}
	}
	undo := m.Undo.Records()
	for i := 1; i < len(undo); i++ {
		if undo[i].LSN <= undo[i-1].LSN {
			t.Fatalf("undo LSN order violated at %d: %d after %d", i, undo[i].LSN, undo[i-1].LSN)
		}
	}
	committed, flushes := m.GroupCommitStats()
	if committed != workers*perWorker {
		t.Errorf("committed = %d, want %d", committed, workers*perWorker)
	}
	if flushes == 0 || flushes > committed {
		t.Errorf("flushes = %d, committed = %d", flushes, committed)
	}
}

// parseLogImage is a redo image shaped like a write workload's: per
// statement one row change (a one-column update image, a whole row or a
// key) and its commit marker.
func parseLogImage(records int) []byte {
	recs := make([]Record, 0, records)
	for i := 0; len(recs) < records; i++ {
		txn := uint64(i + 1)
		change := Record{LSN: uint64(i * 100), Txn: txn, Op: OpUpdate, Table: uint8(i % 4), Column: 2,
			Image: storage.Record{sqlparse.IntValue(int64(i % 5000)), sqlparse.StrValue(strings.Repeat("v", 24))}}
		switch i % 10 {
		case 0, 1, 2:
			change.Op, change.Column = OpInsert, WholeRow
			change.Image = storage.Record{sqlparse.IntValue(int64(i)), sqlparse.StrValue(strings.Repeat("n", 16)), sqlparse.IntValue(int64(i)), sqlparse.StrValue(strings.Repeat("t", 40))}
		case 3, 4:
			change.Op, change.Column = OpDelete, WholeRow
			change.Image = storage.Record{sqlparse.IntValue(int64(i % 5000))}
		}
		recs = append(recs, change, Record{LSN: uint64(i*100 + 50), Txn: txn, Op: OpCommit, Column: WholeRow, Image: storage.Record{}})
	}
	return storage.AppendFrames(nil, recs)
}

// BenchmarkParseLog prices the parse recovery starts with, on a small
// image and on one the size of a long write window's redo log, alone
// and beside a live heap the size of a recovered engine's (whose
// collections the parser's allocations then pay for).
func BenchmarkParseLog(b *testing.B) {
	for _, tc := range []struct {
		name     string
		records  int
		liveHeap int // pointer-holding values kept reachable
	}{
		{"40k-records", 40_000, 0},
		{"400k-records", 400_000, 0},
		{"400k-records-beside-live-heap", 400_000, 2_000_000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			img := parseLogImage(tc.records)
			ballast := make([]storage.Record, tc.liveHeap)
			for i := range ballast {
				ballast[i] = storage.Record{sqlparse.IntValue(int64(i))}
			}
			b.SetBytes(int64(len(img)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := ParseLog(img)
				if err != nil || len(recs) != tc.records {
					b.Fatalf("ParseLog = %d records, %v", len(recs), err)
				}
			}
			runtime.KeepAlive(ballast)
		})
	}
}

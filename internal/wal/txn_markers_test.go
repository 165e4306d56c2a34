package wal

import (
	"errors"
	"strings"
	"testing"

	"snapdb/internal/storage"
)

func TestMarkersRoundTrip(t *testing.T) {
	m, err := NewManager(1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tx := m.BeginTxn()
	if tx == 0 {
		t.Fatal("BeginTxn returned the reserved txn id 0")
	}
	if tx2 := m.BeginTxn(); tx2 <= tx {
		t.Errorf("txn ids not increasing: %d then %d", tx, tx2)
	}
	m.TxInsert(tx, 1, row(1, "a")) // queued; the commit marker's sync stores both
	if err := m.LogCommit(tx); err != nil {
		t.Fatal(err)
	}
	recs := m.Redo.Records()
	if len(recs) != 2 {
		t.Fatalf("redo records = %d, want 2", len(recs))
	}
	if recs[0].Txn != tx || recs[1].Txn != tx {
		t.Errorf("txn ids on records: %d, %d, want %d", recs[0].Txn, recs[1].Txn, tx)
	}
	if recs[1].Op != OpCommit || !recs[1].Op.IsMarker() {
		t.Errorf("commit marker op = %v", recs[1].Op)
	}
	if recs[0].Op.IsMarker() {
		t.Errorf("data record classified as marker")
	}
	if len(recs[1].Image) != 0 {
		t.Errorf("marker carries an image: %v", recs[1].Image)
	}

	// Markers survive serialization.
	parsed, rep := ParseLogReport(m.Redo.Serialize())
	if rep.Truncated() {
		t.Fatalf("clean log reported truncated: %+v", rep)
	}
	if len(parsed) != 2 || parsed[1].Op != OpCommit || parsed[1].Txn != tx {
		t.Errorf("marker did not round-trip: %+v", parsed)
	}
}

func TestAbortMarker(t *testing.T) {
	m, err := NewManager(1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tx := m.BeginTxn()
	if err := m.LogAbort(tx); err != nil {
		t.Fatal(err)
	}
	recs := m.Redo.Records()
	if len(recs) != 1 || recs[0].Op != OpAbort || recs[0].Txn != tx {
		t.Fatalf("abort marker = %+v", recs)
	}
}

func TestSetRecovered(t *testing.T) {
	m, err := NewManager(1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	m.SetRecovered(5000, 17)
	if got := m.CurrentLSN(); got != 5000 {
		t.Errorf("CurrentLSN after SetRecovered = %d, want 5000", got)
	}
	if tx := m.BeginTxn(); tx != 18 {
		t.Errorf("BeginTxn after SetRecovered = %d, want 18", tx)
	}
	lsn, _, err := m.LogInsert(1, row(1, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= 5000 {
		t.Errorf("post-recovery LSN %d did not advance past floor", lsn)
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	m, err := NewManager(1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	store := m.Sink
	m.Sink = func(*Batch) error { return boom }
	if _, _, err := m.LogInsert(1, row(1, "x")); !errors.Is(err, boom) {
		t.Fatalf("LogInsert error = %v, want sink error", err)
	}
	// A failed flush must not make the record visible in memory.
	if n := m.Redo.Len(); n != 0 {
		t.Errorf("failed sink left %d redo records in memory", n)
	}
	if n := m.Undo.Len(); n != 0 {
		t.Errorf("failed sink left %d undo records in memory", n)
	}
	// Clearing the failure makes commits flow again.
	m.Sink = store
	if _, _, err := m.LogInsert(1, row(2, "y")); err != nil {
		t.Fatal(err)
	}
	if n := m.Redo.Len(); n != 1 {
		t.Errorf("redo records after recovery = %d, want 1", n)
	}
}

// TestSinkReplacesMemoryStore: with another Sink attached that sink is
// the logs' one store — the in-memory logs stay empty.
func TestSinkReplacesMemoryStore(t *testing.T) {
	m, err := NewManager(1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var sunkRedo, sunkUndo int
	m.Sink = func(b *Batch) error {
		sunkRedo += storage.CountFrames(b.Redo)
		sunkUndo += storage.CountFrames(b.Undo)
		return nil
	}
	tx := m.BeginTxn()
	m.TxUpdate(tx, 1, row(1, "k")[:1], 1, row(1, "old")[1:], row(1, "new")[1:])
	if err := m.LogCommit(tx); err != nil {
		t.Fatal(err)
	}
	if sunkRedo != 2 {
		t.Errorf("sink saw %d redo records, want 2", sunkRedo)
	}
	if sunkUndo != 1 {
		t.Errorf("sink saw %d undo records, want 1 (markers are redo-only)", sunkUndo)
	}
	if r, u := m.Redo.Len(), m.Undo.Len(); r != 0 || u != 0 {
		t.Errorf("in-memory logs hold %d redo / %d undo records beside the sink, want 0", r, u)
	}
}

func TestParseLogReportCorruptMiddle(t *testing.T) {
	l, err := NewLog("redo", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Append(Record{LSN: uint64(i + 1), Op: OpInsert, Table: 1, Column: WholeRow, Image: row(int64(i), "v")})
	}
	img := l.Serialize()

	// Flip a payload byte inside the third frame: the scan must stop
	// there with a checksum complaint and keep the two-frame prefix.
	frame := len(img) / 5
	bad := append([]byte(nil), img...)
	bad[2*frame+10] ^= 0x01
	recs, rep := ParseLogReport(bad)
	if len(recs) != 2 {
		t.Fatalf("valid prefix = %d records, want 2", len(recs))
	}
	if !rep.Truncated() || rep.TruncatedAt != 2*frame {
		t.Errorf("TruncatedAt = %d, want %d", rep.TruncatedAt, 2*frame)
	}
	if !strings.Contains(rep.Reason, "checksum") {
		t.Errorf("Reason = %q, want checksum mismatch", rep.Reason)
	}

	// A torn tail is distinguished from corruption.
	recs, rep = ParseLogReport(img[:len(img)-3])
	if len(recs) != 4 || rep.Reason != "torn frame" {
		t.Errorf("torn tail: %d records, reason %q", len(recs), rep.Reason)
	}

	// ParseLog tolerates a torn tail when a prefix survives...
	if _, err := ParseLog(img[:len(img)-3]); err != nil {
		t.Errorf("ParseLog rejected torn tail with valid prefix: %v", err)
	}
	// ...but errors when nothing parses at all.
	if _, err := ParseLog(img[:3]); err == nil {
		t.Error("ParseLog accepted an image with no parseable record")
	}
}

// TestBatchResetKeepsSmallBuffers: a flushed batch is emptied for the
// next group, its counts and markers cleared; a buffer up to 64 KiB is
// kept for reuse and a larger one (a bulk load's group) is dropped.
func TestBatchResetKeepsSmallBuffers(t *testing.T) {
	b := Batch{
		Redo:    make([]byte, 10, maxKept),
		Undo:    make([]byte, 10, maxKept+1),
		Binlog:  make([]byte, 10, 100),
		Markers: []uint64{1, 2},
		Records: 3,
		Events:  1,
	}
	b.reset()
	if len(b.Redo) != 0 || cap(b.Redo) != maxKept || cap(b.Binlog) != 100 {
		t.Errorf("kept buffers: redo len %d cap %d, binlog cap %d; want empty with their arrays", len(b.Redo), cap(b.Redo), cap(b.Binlog))
	}
	if b.Undo != nil {
		t.Errorf("a %d-byte buffer was kept, want it dropped", cap(b.Undo))
	}
	if len(b.Markers) != 0 || b.Records != 0 || b.Events != 0 {
		t.Errorf("reset batch holds %d markers, %d records, %d events", len(b.Markers), b.Records, b.Events)
	}
}

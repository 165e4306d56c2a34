package binlog

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"snapdb/internal/storage"
)

func TestAppendAndEvents(t *testing.T) {
	l := New()
	l.Append(Event{Timestamp: 100, LSN: 1, Statement: "INSERT INTO t (id) VALUES (1)"})
	l.Append(Event{Timestamp: 101, LSN: 2, Statement: "UPDATE t SET v = 2 WHERE id = 1"})
	evs := l.Events()
	if len(evs) != 2 || l.Len() != 2 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Timestamp != 100 || evs[1].LSN != 2 {
		t.Errorf("events = %+v", evs)
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	l := New()
	stmts := []string{
		"INSERT INTO accounts (id, ssn) VALUES (1, '078-05-1120')",
		"UPDATE accounts SET balance = 99 WHERE id = 1",
		"DELETE FROM accounts WHERE id = 1",
	}
	for i, s := range stmts {
		l.Append(Event{Timestamp: int64(1000 + i), LSN: uint64(i * 50), Statement: s})
	}
	parsed, err := Parse(l.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(stmts) {
		t.Fatalf("parsed %d events", len(parsed))
	}
	for i, ev := range parsed {
		if ev.Statement != stmts[i] || ev.Timestamp != int64(1000+i) || ev.LSN != uint64(i*50) {
			t.Errorf("event %d = %+v", i, ev)
		}
	}
}

func TestParseRejectsTruncation(t *testing.T) {
	l := New()
	l.Append(Event{Timestamp: 1, LSN: 1, Statement: "INSERT INTO t (id) VALUES (1)"})
	img := l.Serialize()
	if _, err := Parse(img[:len(img)-3]); err == nil {
		t.Error("truncated statement accepted")
	}
	if _, err := Parse(img[:10]); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestParseEmpty(t *testing.T) {
	evs, err := Parse(nil)
	if err != nil || len(evs) != 0 {
		t.Errorf("empty: evs=%d err=%v", len(evs), err)
	}
}

// TestParseWithReportPresizes: the result is allocated once, at the
// frame count, and an image that yields nothing still parses to nil.
func TestParseWithReportPresizes(t *testing.T) {
	l := New()
	for i := 0; i < 100; i++ {
		l.Append(Event{Timestamp: int64(i), LSN: uint64(i), Statement: "INSERT INTO t (id) VALUES (1)"})
	}
	img := l.Serialize()
	evs, rep := ParseWithReport(img)
	if rep.Truncated() || len(evs) != 100 || cap(evs) != 100 {
		t.Errorf("clean image: len=%d cap=%d report=%+v, want 100/100", len(evs), cap(evs), rep)
	}
	torn := append([]byte(nil), img...)
	torn[len(torn)-1] ^= 0xff // the last event's last byte: only that frame fails
	if evs, rep := ParseWithReport(torn); !rep.Truncated() || len(evs) != 99 {
		t.Errorf("torn tail: len=%d report=%+v, want 99 and truncated", len(evs), rep)
	}
	torn[storage.FrameHeaderSize] ^= 0xff // and now the first: nothing parses
	if evs, rep := ParseWithReport(torn); evs != nil || !rep.Truncated() {
		t.Errorf("fully torn image: evs=%v report=%+v, want nil and truncated", evs, rep)
	}
	if evs, rep := ParseWithReport(nil); evs != nil || rep.Truncated() {
		t.Errorf("empty image: evs=%v report=%+v, want nil and clean", evs, rep)
	}
}

func TestPurge(t *testing.T) {
	l := New()
	for i := int64(0); i < 10; i++ {
		l.Append(Event{Timestamp: i, LSN: uint64(i), Statement: "x"})
	}
	purged := l.Purge(5)
	if purged != 5 {
		t.Errorf("purged %d, want 5", purged)
	}
	evs := l.Events()
	if len(evs) != 5 || evs[0].Timestamp != 5 {
		t.Errorf("remaining = %+v", evs)
	}
	if l.Purge(0) != 0 {
		t.Error("purge before oldest removed events")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(ts int64, lsn uint64, stmt string) bool {
		l := New()
		l.Append(Event{Timestamp: ts, LSN: lsn, Statement: stmt})
		evs, err := Parse(l.Serialize())
		return err == nil && len(evs) == 1 && evs[0] == (Event{Timestamp: ts, LSN: lsn, Statement: stmt})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	l := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append(Event{Timestamp: int64(i), LSN: uint64(i), Statement: "INSERT INTO t (id, v) VALUES (1, 'x')"})
	}
}

func TestCommitStampsMonotoneOrder(t *testing.T) {
	l := New()
	var lsn uint64
	l.LSNSource = func() uint64 { return lsn }

	lsn = 10
	l.Commit(Event{Timestamp: 100, Statement: "a"})
	lsn = 30
	l.Commit(Event{Timestamp: 200, Statement: "b"})
	// A clock that runs backwards (or a slow writer stamped earlier)
	// must not produce a regressing binlog: both fields clamp.
	lsn = 20
	l.Commit(Event{Timestamp: 150, Statement: "c"})

	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].LSN != 10 || evs[1].LSN != 30 {
		t.Errorf("LSNs = %d, %d", evs[0].LSN, evs[1].LSN)
	}
	if evs[2].LSN != 30 || evs[2].Timestamp != 200 {
		t.Errorf("regressing event not clamped: LSN=%d ts=%d", evs[2].LSN, evs[2].Timestamp)
	}
}

func TestCommitConcurrentMonotone(t *testing.T) {
	l := New()
	var lsn atomic.Uint64
	l.LSNSource = func() uint64 { return lsn.Add(1) }

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Commit(Event{Timestamp: int64(100 + i), Statement: "s"})
			}
		}(w)
	}
	wg.Wait()

	evs := l.Events()
	if len(evs) != workers*perWorker {
		t.Fatalf("events = %d, want %d", len(evs), workers*perWorker)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Timestamp < evs[i-1].Timestamp {
			t.Fatalf("timestamp regressed at %d", i)
		}
		if evs[i].LSN < evs[i-1].LSN {
			t.Fatalf("LSN regressed at %d", i)
		}
	}
	committed, flushes := l.GroupCommitStats()
	if committed != workers*perWorker {
		t.Errorf("committed = %d", committed)
	}
	if flushes == 0 || flushes > committed {
		t.Errorf("flushes = %d, committed = %d", flushes, committed)
	}
}

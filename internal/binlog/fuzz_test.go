package binlog

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzDecodeEvent asserts event decoding never panics and consumed
// bytes round-trip, and that decodeHeader, which recovery's binlog walk
// uses in its place, takes the same bytes with the same error and the
// same timestamp and LSN.
func FuzzDecodeEvent(f *testing.F) {
	f.Add(Event{Timestamp: 100, LSN: 7, Statement: "INSERT INTO t VALUES (1)"}.Encode())
	f.Add([]byte{})
	f.Add(make([]byte, eventHeaderSize-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, n, err := DecodeEvent(data)
		hd, hn, herr := decodeHeader(data)
		if hn != n || fmt.Sprint(herr) != fmt.Sprint(err) ||
			hd.Timestamp != ev.Timestamp || hd.LSN != ev.LSN || hd.Statement != "" {
			t.Fatalf("decodeHeader = %+v, %d, %v; DecodeEvent %+v, %d, %v", hd, hn, herr, ev, n, err)
		}
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if got := ev.Encode(); len(got) != n {
			t.Fatalf("re-encode length %d != consumed %d", len(got), n)
		}
	})
}

// FuzzParse asserts the image parser never panics and its report stays
// consistent with the parsed events.
func FuzzParse(f *testing.F) {
	l := New()
	l.Commit(Event{Timestamp: 1, LSN: 10, Statement: "UPDATE t SET v = 1"})
	l.Commit(Event{Timestamp: 2, LSN: 20, Statement: "DELETE FROM t"})
	img := l.Serialize()
	f.Add(img)
	f.Add(img[:len(img)-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, rep := ParseWithReport(data)
		if len(evs) != rep.Frames {
			t.Fatalf("events %d != report %d", len(evs), rep.Frames)
		}
		if rep.Truncated() && (rep.TruncatedAt > len(data) || rep.Reason == "") {
			t.Fatalf("bad report: %+v for %d bytes", rep, len(data))
		}
	})
}

func TestParseWithReportTornAndCorrupt(t *testing.T) {
	l := New()
	l.Commit(Event{Timestamp: 1, LSN: 10, Statement: "INSERT INTO t VALUES (1)"})
	l.Commit(Event{Timestamp: 2, LSN: 20, Statement: "INSERT INTO t VALUES (2)"})
	img := l.Serialize()

	evs, rep := ParseWithReport(img)
	if rep.Truncated() || len(evs) != 2 {
		t.Fatalf("clean image: %d events, report %+v", len(evs), rep)
	}

	evs, rep = ParseWithReport(img[:len(img)-5])
	if len(evs) != 1 || rep.Reason != "torn frame" {
		t.Errorf("torn tail: %d events, reason %q", len(evs), rep.Reason)
	}

	bad := append([]byte(nil), img...)
	bad[len(img)/2+8] ^= 0x40
	evs, rep = ParseWithReport(bad)
	if !rep.Truncated() {
		t.Error("corruption went undetected")
	}
	if len(evs) > 1 {
		t.Errorf("corrupt image yielded %d events", len(evs))
	}
}

func TestPrimeRaisesStampFloor(t *testing.T) {
	l := New()
	l.Prime(1000, 500)
	if err := l.Commit(Event{Timestamp: 5, LSN: 3, Statement: "INSERT INTO t VALUES (1)"}); err != nil {
		t.Fatal(err)
	}
	evs := l.Events()
	if evs[0].Timestamp != 1000 || evs[0].LSN != 500 {
		t.Errorf("stamps not clamped to primed floor: %+v", evs[0])
	}
	// Prime never lowers the floor.
	l.Prime(1, 1)
	if err := l.Commit(Event{Timestamp: 2000, LSN: 600, Statement: "INSERT INTO t VALUES (2)"}); err != nil {
		t.Fatal(err)
	}
	evs = l.Events()
	if evs[1].Timestamp != 2000 || evs[1].LSN != 600 {
		t.Errorf("floor wrongly lowered: %+v", evs[1])
	}
}

func TestParseErrorMentionsOffset(t *testing.T) {
	l := New()
	l.Commit(Event{Timestamp: 1, LSN: 1, Statement: "SELECT 1"})
	img := l.Serialize()
	_, err := Parse(img[:len(img)-1])
	if err == nil || !strings.Contains(err.Error(), "offset") {
		t.Errorf("Parse error = %v, want offset mention", err)
	}
}

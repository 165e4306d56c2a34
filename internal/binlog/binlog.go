// Package binlog implements the engine's binary log: a statement-based
// replication log holding the full text of every transaction that
// modifies any row, together with its UNIX timestamp and the commit
// LSN. It mirrors MySQL's binlog, which §3 of the paper highlights:
// it is present on any production (replicated) server, its contents are
// never purged without an explicit administrative command, and it gives
// a disk-snapshot attacker both query text and timing.
//
// An engine keeps its binlog in one file of its data directory, framed
// and stored by its commit pipeline (wal.Manager); only a Log used on
// its own keeps events in memory. On disk (Serialize) every event
// travels inside a CRC32-C frame, so a reader can stop cleanly at a
// torn or corrupt tail. Reader implements the pre-installed
// mysqlbinlog-style utility view.
package binlog

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"snapdb/internal/storage"
)

// Event is one logged write transaction.
type Event struct {
	Timestamp int64  // UNIX seconds
	LSN       uint64 // engine LSN at commit time
	Statement string // full statement text, literals included
}

// eventHeaderSize is the encoded event header: timestamp(8) lsn(8)
// statementLen(4).
const eventHeaderSize = 20

// EncodedSize returns the encoded size of the event without encoding it.
func (ev Event) EncodedSize() int { return eventHeaderSize + len(ev.Statement) }

// Encode serializes one event (the frame payload).
func (ev Event) Encode() []byte {
	return ev.AppendEncode(make([]byte, 0, ev.EncodedSize()))
}

// AppendEncode appends the event's encoding to dst and returns the
// extended slice, so batch serializers can reuse one buffer.
func (ev Event) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(ev.Timestamp))
	dst = binary.BigEndian.AppendUint64(dst, ev.LSN)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ev.Statement)))
	return append(dst, ev.Statement...)
}

// DecodeEvent parses one encoded event, returning it and the bytes
// consumed. It never panics on malformed input.
func DecodeEvent(b []byte) (Event, int, error) {
	ev, n, err := decodeHeader(b)
	if err != nil {
		return Event{}, 0, err
	}
	ev.Statement = string(b[eventHeaderSize:n])
	return ev, n, nil
}

// decodeHeader is DecodeEvent without the statement text: the same
// checks with the same errors, the event's timestamp and LSN, and the
// bytes the event takes.
func decodeHeader(b []byte) (Event, int, error) {
	if len(b) < eventHeaderSize {
		return Event{}, 0, fmt.Errorf("binlog: event header truncated (%d bytes)", len(b))
	}
	ev := Event{
		Timestamp: int64(binary.BigEndian.Uint64(b)),
		LSN:       binary.BigEndian.Uint64(b[8:]),
	}
	n := int(binary.BigEndian.Uint32(b[16:]))
	if len(b) < eventHeaderSize+n {
		return Event{}, 0, fmt.Errorf("binlog: statement truncated (want %d bytes)", n)
	}
	return ev, eventHeaderSize + n, nil
}

// Log is the binary log's stamping floor and commit counts, and, for a
// Log used on its own, its in-memory store, which grows without bound,
// matching MySQL's default retention (only an explicit administrative
// purge removes binlog content).
//
// Every event is stamped as it is committed — timestamp and LSN clamped
// to be non-decreasing — so the on-disk binlog is monotone in both. In
// an engine the commit pipeline (wal.Manager) stamps each event as it
// frames it behind its transaction's marker, stores the frames in the
// binlog file once the marker is durable, and reports them with Stored;
// the engine's Log holds no events. CommitBatch stamps and stores in
// memory, for a Log used on its own.
type Log struct {
	mu     sync.Mutex // guards events and the commit counts
	events []Event    // the in-memory store, filled only by CommitBatch

	committed, flushes uint64

	stampMu sync.Mutex // guards the stamp floors
	lastTs  int64
	lastLSN uint64
}

// New creates an empty binlog.
func New() *Log { return &Log{} }

// Commit stamps one event and stores it in the in-memory log.
func (l *Log) Commit(ev Event) error { return l.CommitBatch([]Event{ev}) }

// CommitBatch commits a transaction's events as one contiguous, stamped
// batch in the in-memory log: each keeps its caller-supplied LSN and
// timestamp, clamped to the previous commit's, so binlog order is
// non-decreasing in both fields. The caller's slice is left untouched.
// The in-memory store cannot fail; the error is always nil.
func (l *Log) CommitBatch(evs []Event) error {
	if len(evs) == 0 {
		return nil
	}
	l.stampMu.Lock()
	defer l.stampMu.Unlock()
	l.mu.Lock()
	for _, ev := range evs {
		l.events = append(l.events, l.stampLocked(ev, ev.LSN))
	}
	l.mu.Unlock()
	l.Stored(len(evs))
	return nil
}

// Stamp returns ev stamped for commit at lsn: its LSN and timestamp
// clamped to be no lower than the last stamped event's. The caller
// stores the stamped events in stamp order and reports them with
// Stored.
func (l *Log) Stamp(ev Event, lsn uint64) Event {
	l.stampMu.Lock()
	defer l.stampMu.Unlock()
	return l.stampLocked(ev, lsn)
}

func (l *Log) stampLocked(ev Event, lsn uint64) Event {
	ev.LSN = max(lsn, l.lastLSN)
	l.lastLSN = ev.LSN
	ev.Timestamp = max(ev.Timestamp, l.lastTs)
	l.lastTs = ev.Timestamp
	return ev
}

// Stored counts one stored batch of n events.
func (l *Log) Stored(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.committed += uint64(n)
	l.flushes++
}

// Prime raises the monotone stamping floor. Recovery calls it with the
// last event of the binlog file, so post-recovery commits continue
// non-decreasing in timestamp and LSN.
func (l *Log) Prime(ts int64, lsn uint64) {
	l.stampMu.Lock()
	defer l.stampMu.Unlock()
	l.lastTs = max(l.lastTs, ts)
	l.lastLSN = max(l.lastLSN, lsn)
}

// GroupCommitStats reports stored event and batch counts;
// committed/flushes is the mean group size.
func (l *Log) GroupCommitStats() (committed, flushes uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed, l.flushes
}

// Events returns all retained events, oldest first.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Len returns the retained event count.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Serialize renders the log as a byte image (the on-disk binlog file):
// one CRC32-C frame per event.
func (l *Log) Serialize() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := 0
	for _, ev := range l.events {
		size += storage.FrameHeaderSize + ev.EncodedSize()
	}
	return storage.AppendFrames(make([]byte, 0, size), l.events)
}

// ParseWithReport decodes a Serialize image, stopping at the first torn
// or corrupt frame and reporting where and why. It never panics on
// malformed input.
func ParseWithReport(img []byte) ([]Event, storage.ParseReport) {
	// Sized up front, as wal.ParseLogReport is and for its reason. The
	// frame count is read from unverified headers, so it is capped by
	// what the image could hold of events with an empty statement.
	const minFrame = storage.FrameHeaderSize + eventHeaderSize
	out := make([]Event, 0, min(storage.CountFrames(img), len(img)/minFrame))
	rep := Walk(img, func(ev Event) { out = append(out, ev) })
	if len(out) == 0 {
		return nil, rep // an image that yields nothing has always parsed to nil
	}
	return out, rep
}

// Walk is ParseWithReport without the result slice: it decodes the
// events of a Serialize image in order, validating each, and hands every
// event of the valid prefix to fn.
func Walk(img []byte, fn func(Event)) storage.ParseReport {
	return storage.WalkFrames(img, "event", decodeFrames(DecodeEvent, fn))
}

// WalkAt is Walk over the first size bytes of r, streamed in chunk-byte
// reads (storage.WalkFramesAt). No event aliases the read buffer.
func WalkAt(r io.ReaderAt, size int64, chunk int, fn func(Event)) (storage.ParseReport, error) {
	return storage.WalkFramesAt(r, size, chunk, "event", decodeFrames(DecodeEvent, fn))
}

// WalkHeadersAt is WalkAt without the statement text: it reads and
// checks every frame and event as WalkAt does, returning the same
// report, but hands fn each event with an empty Statement, copying none.
func WalkHeadersAt(r io.ReaderAt, size int64, chunk int, fn func(Event)) (storage.ParseReport, error) {
	return storage.WalkFramesAt(r, size, chunk, "event", decodeFrames(decodeHeader, fn))
}

// decodeFrames decodes one frame's payload as an event and hands it to
// fn if it fills the payload exactly.
func decodeFrames(decode func([]byte) (Event, int, error), fn func(Event)) func(payload []byte) (int, error) {
	return func(payload []byte) (int, error) {
		ev, n, err := decode(payload)
		if err == nil && n == len(payload) {
			fn(ev)
		}
		return n, err
	}
}

// Parse decodes a Serialize image — the mysqlbinlog-equivalent reader a
// forensic analyst runs over a stolen disk. Unlike ParseWithReport it
// treats any truncation or corruption as an error.
func Parse(img []byte) ([]Event, error) {
	evs, rep := ParseWithReport(img)
	if rep.Truncated() {
		return nil, fmt.Errorf("binlog: bad image at offset %d: %s", rep.TruncatedAt, rep.Reason)
	}
	return evs, nil
}

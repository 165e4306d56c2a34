// Package binlog implements the engine's binary log: a statement-based
// replication log holding the full text of every transaction that
// modifies any row, together with its UNIX timestamp and the commit
// LSN. It mirrors MySQL's binlog, which §3 of the paper highlights:
// it is present on any production (replicated) server, its contents are
// never purged without an explicit administrative command, and it gives
// a disk-snapshot attacker both query text and timing.
//
// On disk (Serialize) every event travels inside a CRC32-C frame, so a
// reader can stop cleanly at a torn or corrupt tail. Reader implements
// the pre-installed mysqlbinlog-style utility view.
package binlog

import (
	"encoding/binary"
	"fmt"
	"sync"

	"snapdb/internal/commitq"
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
	ev.Statement = string(b[eventHeaderSize : eventHeaderSize+n])
	return ev, eventHeaderSize + n, nil
}

// Log is the binary log. It grows without bound until Purge is called,
// matching MySQL's default retention.
//
// Concurrent sessions commit through the group-commit queue (commitq,
// which documents the ordering invariant): each event is stamped —
// commit-time LSN from LSNSource, timestamp and LSN clamped to be
// non-decreasing — as it is queued, so the on-disk binlog is monotone in
// both. A transaction's buffered events commit as one contiguous batch,
// like MySQL's binlog cache.
//
// If a Sink is attached, the leader hands each flushed batch to it
// before the events become visible in the log; a sink failure is
// reported to every caller whose events rode in that batch.
type Log struct {
	mu     sync.Mutex // guards events
	events []Event

	// LSNSource, when set (the engine wires it to wal.Manager.CurrentLSN),
	// stamps each committed event with the engine LSN at commit time.
	// Events passed to the raw Append keep their caller-supplied LSN.
	LSNSource func() uint64

	// Sink, if set, receives each flushed batch before it is appended
	// to the in-memory log — the persistence layer's durability hook.
	// The slice is only valid during the call. Set it before concurrent
	// use.
	Sink func([]Event) error

	q       *commitq.Queue[Event] // its lock also guards the stamp floors
	lastTs  int64
	lastLSN uint64
}

// New creates an empty binlog.
func New() *Log {
	l := &Log{}
	l.q = commitq.New(l.flush)
	return l
}

// Append records a write transaction exactly as given, bypassing the
// group-commit stamping. Forensic tooling, recovery, and tests use it
// to rebuild binlog images; the engine commits through Commit/CommitBatch.
func (l *Log) Append(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
}

// Commit stamps and records one event through the group-commit
// pipeline, returning once it is durable (if a Sink is attached) and
// visible in the log.
func (l *Log) Commit(ev Event) error { return l.CommitBatch([]Event{ev}) }

// CommitBatch commits a transaction's events as one contiguous,
// stamped batch: as they are queued every event gets its commit-time
// LSN (from LSNSource) and a timestamp clamped to the previous commit's,
// so binlog order is non-decreasing in both fields. The caller's slice
// is left untouched.
func (l *Log) CommitBatch(evs []Event) error {
	if len(evs) == 0 {
		return nil
	}
	return l.q.Commit(func(pend []Event) []Event {
		for _, ev := range evs {
			if l.LSNSource != nil {
				ev.LSN = l.LSNSource()
			}
			if ev.LSN < l.lastLSN {
				ev.LSN = l.lastLSN
			}
			l.lastLSN = ev.LSN
			if ev.Timestamp < l.lastTs {
				ev.Timestamp = l.lastTs
			}
			l.lastTs = ev.Timestamp
			pend = append(pend, ev)
		}
		return pend
	})
}

// flush is the queue leader's batch flush: through the Sink, then into
// the in-memory log.
func (l *Log) flush(batch []Event) error {
	if l.Sink != nil {
		if err := l.Sink(batch); err != nil {
			return err
		}
	}
	l.mu.Lock()
	l.events = append(l.events, batch...)
	l.mu.Unlock()
	return nil
}

// Prime raises the monotone stamping floor. Recovery calls it after
// repopulating the log from disk, so post-recovery commits continue
// non-decreasing in timestamp and LSN.
func (l *Log) Prime(ts int64, lsn uint64) {
	l.q.Lock()
	defer l.q.Unlock()
	if ts > l.lastTs {
		l.lastTs = ts
	}
	if lsn > l.lastLSN {
		l.lastLSN = lsn
	}
}

// GroupCommitStats reports committed event and batch-flush counts;
// committed/flushes is the mean group size.
func (l *Log) GroupCommitStats() (committed, flushes uint64) { return l.q.Stats() }

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

// Purge discards all events up to (excluding) the first one with
// timestamp >= before — the explicit administrative command the paper
// notes is the only way binlog content disappears.
func (l *Log) Purge(before int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	cut := 0
	for cut < len(l.events) && l.events[cut].Timestamp < before {
		cut++
	}
	l.events = append([]Event(nil), l.events[cut:]...)
	return cut
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
	rep := storage.WalkFrames(img, "event", func(payload []byte) (int, error) {
		ev, n, err := DecodeEvent(payload)
		if err == nil && n == len(payload) {
			out = append(out, ev)
		}
		return n, err
	})
	if len(out) == 0 {
		return nil, rep // an image that yields nothing has always parsed to nil
	}
	return out, rep
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

// Package wal implements the engine's transaction logging: a circular
// redo log and a circular undo log, both recording byte-level changes
// to individual records, stamped with a global log sequence number
// (LSN) and the id of the transaction that made them. This mirrors
// InnoDB's multi-version concurrency control machinery, and — as §3 of
// the paper demonstrates — it is also a transcript of every recent
// write that a disk-snapshot attacker can replay with standard forensic
// techniques.
//
// Every change is framed as it is queued: the pending group-commit
// Batch holds the bytes its flush will write, and one Sink stores it.
// An engine's Sink is the log files of its data directory, so its
// in-memory Logs stay empty. The Sink NewManager installs is the
// in-memory store that a Manager used on its own keeps (E2's retention
// model, the ablations, the benchmark's probes): a circular Log per
// log, holding its framed image, from which the oldest records fall
// off when it exceeds its capacity. The retention window therefore
// depends on write volume and record size, which experiment E2
// measures (the paper's "50 MB stores 16 days of 20-byte writes at 1
// write/s" estimate).
//
// On disk (Serialize) every record travels inside a CRC32-C frame
// (storage.AppendFramed), so a reader can tell a torn tail from silent
// corruption and stop the scan at the first bad frame instead of
// misparsing garbage.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"snapdb/internal/binlog"
	"snapdb/internal/commitq"
	"snapdb/internal/storage"
)

// Op is the kind of change a log record describes.
type Op uint8

// Log record operations. OpCommit and OpAbort are transaction markers:
// redo-only records with an empty image whose Txn field says which
// transaction finished. Recovery replays only transactions that reached
// an OpCommit marker.
const (
	OpInsert Op = iota + 1
	OpUpdate
	OpDelete
	OpCommit
	OpAbort
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "INSERT"
	case OpUpdate:
		return "UPDATE"
	case OpDelete:
		return "DELETE"
	case OpCommit:
		return "COMMIT"
	case OpAbort:
		return "ABORT"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// IsMarker reports whether the op is a transaction marker rather than a
// data change.
func (o Op) IsMarker() bool { return o == OpCommit || o == OpAbort }

// WholeRow marks a record image that covers the entire row rather than
// a single column.
const WholeRow = 0xFF

// Record is one log record. For the redo log, Image holds the new
// data; for the undo log, the old data:
//
//	insert:  redo Image = full new row;         undo Image = key only
//	update:  redo Image = {key, new col value}; undo Image = {key, old col value}
//	delete:  redo Image = key only;             undo Image = full old row
//	commit/abort: empty Image, Txn identifies the finished transaction
type Record struct {
	LSN    uint64
	Txn    uint64 // owning transaction; 0 = pre-transaction (legacy) records
	Op     Op
	Table  uint8
	Column uint8 // column index for updates, WholeRow otherwise
	Image  storage.Record
}

// headerSize is the encoded record header: lsn(8) txn(8) op(1) table(1)
// column(1) payloadLen(2).
const headerSize = 21

// EncodedSize returns the encoded size of the record without encoding
// it. LSNs are byte offsets, so every logged change is sized on the
// hot path; this keeps that sizing allocation-free.
func (r Record) EncodedSize() int {
	return headerSize + storage.RecordSize(r.Image)
}

// Encode serializes the record.
func (r Record) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, r.EncodedSize()))
}

// AppendEncode appends the record's encoding to dst and returns the
// extended slice, so batch serializers can reuse one buffer.
func (r Record) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, r.LSN)
	dst = binary.BigEndian.AppendUint64(dst, r.Txn)
	dst = append(dst, byte(r.Op), r.Table, r.Column)
	dst = binary.BigEndian.AppendUint16(dst, uint16(storage.RecordSize(r.Image)))
	dst = storage.AppendRecord(dst, r.Image)
	return dst
}

// DecodeRecord parses one record from b, returning it and the bytes
// consumed. It never panics on malformed input.
func DecodeRecord(b []byte) (Record, int, error) {
	r, payload, err := decodeHeader(b)
	if err != nil {
		return Record{}, 0, err
	}
	img, n, err := storage.DecodeRecord(payload)
	if err = payloadErr(payload, n, err); err != nil {
		return Record{}, 0, err
	}
	r.Image = img
	return r, headerSize + len(payload), nil
}

// checkRecord is DecodeRecord without the record: the same checks with
// the same errors, and the bytes the record takes, decoding nothing.
func checkRecord(b []byte) (int, error) {
	_, payload, err := decodeHeader(b)
	if err != nil {
		return 0, err
	}
	n, err := storage.RecordLen(payload)
	if err = payloadErr(payload, n, err); err != nil {
		return 0, err
	}
	return headerSize + len(payload), nil
}

// decodeHeader parses the record header at the front of b and returns
// it with the payload it announces.
func decodeHeader(b []byte) (Record, []byte, error) {
	if len(b) < headerSize {
		return Record{}, nil, fmt.Errorf("wal: record header truncated (%d bytes)", len(b))
	}
	r := Record{
		LSN:    binary.BigEndian.Uint64(b),
		Txn:    binary.BigEndian.Uint64(b[8:]),
		Op:     Op(b[16]),
		Table:  b[17],
		Column: b[18],
	}
	if r.Op < OpInsert || r.Op > OpAbort {
		return Record{}, nil, fmt.Errorf("wal: unknown op %d", b[16])
	}
	plen := int(binary.BigEndian.Uint16(b[19:]))
	if len(b) < headerSize+plen {
		return Record{}, nil, fmt.Errorf("wal: record payload truncated (want %d bytes)", plen)
	}
	return r, b[headerSize : headerSize+plen], nil
}

// payloadErr is the error of a payload decode that read n bytes of
// payload and returned err.
func payloadErr(payload []byte, n int, err error) error {
	if err != nil {
		return fmt.Errorf("wal: payload: %w", err)
	}
	if n != len(payload) {
		return fmt.Errorf("wal: payload has %d trailing bytes", len(payload)-n)
	}
	return nil
}

// Log is one circular log (redo or undo), held as its framed image:
// the bytes Serialize returns, one CRC32-C frame per record. Its
// capacity counts record payloads (Record.EncodedSize), not frame
// headers: E2's retention figures are in record bytes.
type Log struct {
	mu       sync.Mutex
	name     string
	capacity int // bytes of record payload

	img     []byte // the retained records' frames, oldest first
	n       int    // records in img
	bytes   int    // their payload bytes
	evicted uint64 // count of records that have fallen off the front
}

// DefaultCapacity is the default log size, matching the paper's "50 Mb"
// figure for MySQL's default redo/undo configuration.
const DefaultCapacity = 50 << 20

// NewLog creates a circular log holding at most capacity bytes of
// encoded records.
func NewLog(name string, capacity int) (*Log, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("wal: capacity must be positive, got %d", capacity)
	}
	return &Log{name: name, capacity: capacity}, nil
}

// Append adds a record, evicting the oldest records if the log would
// exceed its capacity.
func (l *Log) Append(r Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.img = storage.AppendFramed(l.img, r)
	l.n++
	l.bytes += r.EncodedSize()
	l.evict()
}

// AppendFrames adds the records framed in frames — whole frames, as a
// Batch holds them — in order, evicting as Append does.
func (l *Log) AppendFrames(frames []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.img = append(l.img, frames...)
	for len(frames) > 0 {
		size := payloadLen(frames)
		l.n++
		l.bytes += size
		frames = frames[storage.FrameHeaderSize+size:]
	}
	l.evict()
}

// evict drops the oldest records while the log exceeds its capacity,
// keeping at least the newest.
func (l *Log) evict() {
	for l.bytes > l.capacity && l.n > 1 {
		size := payloadLen(l.img)
		l.img = l.img[storage.FrameHeaderSize+size:]
		l.n--
		l.bytes -= size
		l.evicted++
	}
}

// payloadLen reads the payload length of the frame at the front of b.
func payloadLen(b []byte) int { return int(binary.BigEndian.Uint32(b)) }

// Records returns the retained records, oldest first.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs, _ := ParseLogReport(l.img)
	return recs
}

// Len returns the retained record count.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Bytes returns the retained encoded size.
func (l *Log) Bytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Evicted returns how many records have been overwritten by the
// circular wraparound.
func (l *Log) Evicted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}

// OldestLSN returns the LSN of the oldest retained record, or 0 if the
// log is empty.
func (l *Log) OldestLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0
	}
	return binary.BigEndian.Uint64(l.img[storage.FrameHeaderSize:])
}

// Serialize returns the retained log as one byte image — the "file on
// disk" that a disk snapshot captures. Each record is wrapped in a
// CRC32-C frame.
func (l *Log) Serialize() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(make([]byte, 0, len(l.img)), l.img...)
}

// ParseLogReport parses a Serialize image back into records, stopping
// at the first torn or corrupt frame. It returns the records of the
// valid prefix and a report saying where and why the scan stopped. It
// never panics on malformed input.
func ParseLogReport(img []byte) ([]Record, storage.ParseReport) {
	// Sized up front: grown by append, the result's regrowth — copying
	// and clearing ever larger arrays, and the collections that forces
	// — cost more than decoding a long redo log's records did. The
	// frame count is read from unverified headers, so it is capped by
	// what the image could hold of the smallest record there is.
	const minFrame = storage.FrameHeaderSize + headerSize + 2
	out := make([]Record, 0, min(storage.CountFrames(img), len(img)/minFrame))
	rep := WalkLog(img, func(r Record) { out = append(out, r) })
	return out, rep
}

// WalkLog is ParseLogReport without the result slice: it decodes the
// records of a Serialize image in order, validating each, and hands
// every record of the valid prefix to fn.
func WalkLog(img []byte, fn func(Record)) storage.ParseReport {
	return storage.WalkFrames(img, "record", decodeFrames(fn))
}

// WalkLogAt is WalkLog over the first size bytes of r, streamed in
// chunk-byte reads (storage.WalkFramesAt). No record aliases the read
// buffer.
func WalkLogAt(r io.ReaderAt, size int64, chunk int, fn func(Record)) (storage.ParseReport, error) {
	return storage.WalkFramesAt(r, size, chunk, "record", decodeFrames(fn))
}

// CheckLogAt is WalkLogAt with nothing handed over: it reads and checks
// every frame and record as WalkLogAt does, returning the same report,
// and decodes none of them.
func CheckLogAt(r io.ReaderAt, size int64, chunk int) (storage.ParseReport, error) {
	return storage.WalkFramesAt(r, size, chunk, "record", checkRecord)
}

// decodeFrames decodes one frame's payload as a record and hands it to
// fn if it fills the payload exactly.
func decodeFrames(fn func(Record)) func(payload []byte) (int, error) {
	return func(payload []byte) (int, error) {
		r, n, err := DecodeRecord(payload)
		if err == nil && n == len(payload) {
			fn(r)
		}
		return n, err
	}
}

// ParseLog parses a Serialize image back into records. It is resilient
// to a truncated tail (the torn final record of a crashed server): it
// returns everything parseable, and errors only when a non-empty image
// yields nothing at all.
func ParseLog(img []byte) ([]Record, error) {
	recs, rep := ParseLogReport(img)
	if len(recs) == 0 && rep.Truncated() {
		return nil, fmt.Errorf("wal: unparseable log image at offset %d: %s", rep.TruncatedAt, rep.Reason)
	}
	return recs, nil
}

// Ticket names the group-commit batch an enqueued change joined;
// Manager.Sync on it returns once the change is in its store.
type Ticket = commitq.Ticket

// ErrBinlog wraps a flush error raised after the batch's redo and undo
// were stored: its transactions are committed, and only their binlog
// events are lost.
var ErrBinlog = errors.New("wal: committed, binlog write failed")

// Batch is one pending group: the frames its flush appends to the
// redo, undo and binlog files, in queue order, and what the flush
// reports about them. Manager.change and EndTxn frame every change,
// marker and event into it under the queue lock, right after stamping
// it, so the group holds bytes, not records.
type Batch struct {
	Redo, Undo, Binlog []byte   // CRC32-C frames (storage.AppendFramed)
	Markers            []uint64 // the transactions of its commit and abort markers, in log order
	Records, Events    int      // redo records and binlog events framed
}

// maxKept is the largest batch buffer kept for reuse: a bulk load's
// group is left to the collector instead of staying pinned.
const maxKept = 64 << 10

// reset empties b for the next group, dropping any buffer over maxKept.
// A kept buffer still holds its last group's frames beyond its length
// until the next group overwrites them.
func (b *Batch) reset() {
	kept := func(buf []byte) []byte {
		if cap(buf) > maxKept {
			return nil
		}
		return buf[:0]
	}
	markers := b.Markers[:0]
	if cap(markers)*8 > maxKept {
		markers = nil
	}
	*b = Batch{Redo: kept(b.Redo), Undo: kept(b.Undo), Binlog: kept(b.Binlog), Markers: markers}
}

// Manager owns the global LSN counter and the redo and undo logs,
// provides the typed logging entry points the engine calls, and is the
// engine's one commit pipeline: the binlog events a commit carries
// travel through it behind their transaction's marker.
//
// Every change, marker and event goes through the group-commit queue
// (commitq, which documents the ordering invariant). Each change gets
// its LSN as it is queued and is framed into the pending Batch at once,
// so both logs come out strictly LSN-ordered no matter how statements
// interleave, and queueing does not wait: the Tx* entry points and
// EndTxn return a Ticket, and Sync on it returns once everything queued
// up to it is in its store. The first Sync while no flush runs flushes
// every entry queued so far, whoever queued it.
//
// A flush hands the batch to the one Sink, which stores it in a fixed
// order: the redo and undo frames first (the persistence layer writes
// and syncs both files, so a statement only returns success once its
// records are on stable storage), then the binlog frames, so no event is
// stored before its marker. A Sink failure fails the batch for every
// waiter in it.
type Manager struct {
	q      *commitq.Queue[Batch] // its lock also guards lsn and txnSeq
	lsn    uint64
	txnSeq uint64

	// Sink stores each flushed batch, redo and undo before the binlog;
	// an error raised after the redo and undo are stored wraps ErrBinlog.
	// The batch is reused once Sink returns, so Sink keeps none of its
	// bytes. NewManager installs the in-memory store (Redo and Undo); an
	// engine replaces it with its log files. Set it before concurrent
	// use.
	Sink func(*Batch) error

	// Binlog stamps the events EndTxn queues and counts them once their
	// batch is stored. Set it before concurrent use.
	Binlog *binlog.Log

	// Resolved, if set, is called with the transactions of the commit
	// and abort markers a flush made durable, in log order, after the
	// flush's binlog step (failed or not) and before any waiter of the
	// batch returns. Set it before concurrent use.
	Resolved func(txns ...uint64)

	// Redo and Undo are the in-memory store that NewManager's Sink
	// fills: a Manager used on its own keeps its records there, an
	// engine's never does.
	Redo *Log
	Undo *Log

	committed, flushes atomic.Uint64 // redo records stored, and the flushes that stored them
}

// NewManager creates a manager with the given per-log capacities.
func NewManager(redoCapacity, undoCapacity int) (*Manager, error) {
	redo, err := NewLog("redo", redoCapacity)
	if err != nil {
		return nil, err
	}
	undo, err := NewLog("undo", undoCapacity)
	if err != nil {
		return nil, err
	}
	m := &Manager{Redo: redo, Undo: undo}
	m.Sink = m.store
	m.q = commitq.New(m.flush, (*Batch).reset)
	return m, nil
}

// store is NewManager's Sink: the batch's redo and undo frames go to
// Redo and Undo. A Manager on its own has no Binlog, so its batches
// carry no events.
func (m *Manager) store(b *Batch) error {
	m.Redo.AppendFrames(b.Redo)
	m.Undo.AppendFrames(b.Undo)
	return nil
}

// BeginTxn allocates a transaction id. Every data change and its
// closing OpCommit/OpAbort marker carry this id so recovery can sort
// winners from losers.
func (m *Manager) BeginTxn() uint64 {
	m.q.Lock()
	defer m.q.Unlock()
	m.txnSeq++
	return m.txnSeq
}

// TxnSeq returns the last allocated transaction id.
func (m *Manager) TxnSeq() uint64 {
	m.q.Lock()
	defer m.q.Unlock()
	return m.txnSeq
}

// SetRecovered primes the LSN counter and transaction id counter after
// recovery, so new activity continues past everything already logged.
func (m *Manager) SetRecovered(lsn, txnSeq uint64) {
	m.q.Lock()
	defer m.q.Unlock()
	if lsn > m.lsn {
		m.lsn = lsn
	}
	if txnSeq > m.txnSeq {
		m.txnSeq = txnSeq
	}
}

// change queues one change, assigning its LSN as it is enqueued: the
// LSN advances by size, the encoded size of the change, matching
// InnoDB's byte-offset LSNs (which is what makes the paper's
// LSN↔timestamp correlation linear in write volume).
func (m *Manager) change(redo, undo Record, size int) (uint64, Record, Ticket) {
	t := m.q.Enqueue(func(b *Batch) {
		m.lsn += uint64(size)
		redo.LSN, undo.LSN = m.lsn, m.lsn
		b.Redo = storage.AppendFramed(b.Redo, redo)
		b.Undo = storage.AppendFramed(b.Undo, undo)
		b.Records++
	})
	return redo.LSN, undo, t
}

// EndTxn queues the end of txn: its marker op (OpCommit or OpAbort;
// none when op is 0), then evs, each stamped by Binlog with the LSN the
// marker took (the current LSN when there is none), in one critical
// section. A flush that stores an event therefore holds its marker too.
// With neither a marker nor events it queues nothing and returns the
// zero Ticket.
func (m *Manager) EndTxn(txn uint64, op Op, evs []binlog.Event) Ticket {
	if op == 0 && len(evs) == 0 {
		return Ticket{}
	}
	return m.q.Enqueue(func(b *Batch) {
		if op != 0 {
			marker := Record{Txn: txn, Op: op, Column: WholeRow}
			m.lsn += uint64(marker.EncodedSize())
			marker.LSN = m.lsn
			b.Redo = storage.AppendFramed(b.Redo, marker)
			b.Records++
			b.Markers = append(b.Markers, txn)
		}
		for _, ev := range evs {
			b.Binlog = storage.AppendFramed(b.Binlog, m.Binlog.Stamp(ev, m.lsn))
		}
		b.Events += len(evs)
	})
}

// Sync returns once everything queued up to t is in its store, flushing
// it if no other flush does, or after its batch's flush failed.
func (m *Manager) Sync(t Ticket) error { return m.q.Wait(t) }

// SyncAll is Sync on everything queued so far.
func (m *Manager) SyncAll() error { return m.q.Wait(m.q.Tail()) }

// flush is the queue leader's batch flush: the batch into the Sink,
// then the counts and Resolved for its markers.
func (m *Manager) flush(b *Batch) error {
	err := m.Sink(b)
	if err != nil && !errors.Is(err, ErrBinlog) {
		return err
	}
	if b.Records > 0 {
		m.committed.Add(uint64(b.Records))
		m.flushes.Add(1)
	}
	if err == nil && b.Events > 0 {
		m.Binlog.Stored(b.Events)
	}
	if m.Resolved != nil && len(b.Markers) > 0 {
		m.Resolved(b.Markers...)
	}
	return err
}

// GroupCommitStats reports how many redo records have been stored and
// in how many flushes; committed/flushes is the mean group size.
func (m *Manager) GroupCommitStats() (committed, flushes uint64) {
	return m.committed.Load(), m.flushes.Load()
}

// CurrentLSN returns the current LSN without advancing it.
func (m *Manager) CurrentLSN() uint64 {
	m.q.Lock()
	defer m.q.Unlock()
	return m.lsn
}

// InsertRecords, UpdateRecords (one column) and DeleteRecords build the
// redo/undo pair for one row change by txn, in the image format
// documented on Record. The Tx* entry points log these pairs; recovery
// builds the same pairs to synthesize a loser's undo records.
func InsertRecords(txn uint64, table uint8, row storage.Record) (redo, undo Record) {
	return Record{Txn: txn, Op: OpInsert, Table: table, Column: WholeRow, Image: row.Clone()},
		Record{Txn: txn, Op: OpInsert, Table: table, Column: WholeRow, Image: storage.Record{row[0]}}
}

func UpdateRecords(txn uint64, table uint8, key storage.Record, column uint8, oldVal, newVal storage.Record) (redo, undo Record) {
	return Record{Txn: txn, Op: OpUpdate, Table: table, Column: column, Image: append(key.Clone(), newVal...)},
		Record{Txn: txn, Op: OpUpdate, Table: table, Column: column, Image: append(key.Clone(), oldVal...)}
}

func DeleteRecords(txn uint64, table uint8, oldRow storage.Record) (redo, undo Record) {
	return Record{Txn: txn, Op: OpDelete, Table: table, Column: WholeRow, Image: storage.Record{oldRow[0]}},
		Record{Txn: txn, Op: OpDelete, Table: table, Column: WholeRow, Image: oldRow.Clone()}
}

// TxInsert queues a row insertion by txn in both logs, returning the
// LSN, the undo record (which transactions buffer for rollback) and the
// ticket to Sync on. The LSN advances by the encoded size of the row
// image the change carries.
func (m *Manager) TxInsert(txn uint64, table uint8, row storage.Record) (uint64, Record, Ticket) {
	redo, undo := InsertRecords(txn, table, row)
	return m.change(redo, undo, redo.EncodedSize())
}

// TxUpdate queues a single-column update by txn.
func (m *Manager) TxUpdate(txn uint64, table uint8, key storage.Record, column uint8, oldVal, newVal storage.Record) (uint64, Record, Ticket) {
	redo, undo := UpdateRecords(txn, table, key, column, oldVal, newVal)
	return m.change(redo, undo, redo.EncodedSize())
}

// TxDelete queues a row deletion by txn.
func (m *Manager) TxDelete(txn uint64, table uint8, oldRow storage.Record) (uint64, Record, Ticket) {
	redo, undo := DeleteRecords(txn, table, oldRow)
	return m.change(redo, undo, undo.EncodedSize())
}

// LogCommit appends txn's commit marker to the redo log and returns once
// it is in its store. Recovery replays a transaction's changes only if
// this marker made it to disk — it is the durability point of the
// transaction.
func (m *Manager) LogCommit(txn uint64) error { return m.Sync(m.EndTxn(txn, OpCommit, nil)) }

// LogAbort appends txn's abort marker to the redo log, recording that
// the transaction's changes were rolled back on purpose.
func (m *Manager) LogAbort(txn uint64) error { return m.Sync(m.EndTxn(txn, OpAbort, nil)) }

// LogInsert records a row insertion outside any transaction (txn 0,
// treated as committed by recovery) and returns once it is in its store.
func (m *Manager) LogInsert(table uint8, row storage.Record) (uint64, Record, error) {
	return m.synced(m.TxInsert(0, table, row))
}

// LogUpdate records a single-column update outside any transaction.
func (m *Manager) LogUpdate(table uint8, key storage.Record, column uint8, oldVal, newVal storage.Record) (uint64, Record, error) {
	return m.synced(m.TxUpdate(0, table, key, column, oldVal, newVal))
}

// LogDelete records a row deletion outside any transaction.
func (m *Manager) LogDelete(table uint8, oldRow storage.Record) (uint64, Record, error) {
	return m.synced(m.TxDelete(0, table, oldRow))
}

// synced syncs a queued change's ticket.
func (m *Manager) synced(lsn uint64, undo Record, t Ticket) (uint64, Record, error) {
	return lsn, undo, m.Sync(t)
}

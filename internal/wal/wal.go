// Package wal implements the engine's transaction logging: a circular
// redo log and a circular undo log, both recording byte-level changes
// to individual records, stamped with a global log sequence number
// (LSN) and the id of the transaction that made them. This mirrors
// InnoDB's multi-version concurrency control machinery, and — as §3 of
// the paper demonstrates — it is also a transcript of every recent
// write that a disk-snapshot attacker can replay with standard forensic
// techniques.
//
// Each log has exactly one store. Without a Sink it is the in-memory
// Log, which is circular: when it exceeds its capacity, the oldest
// records fall off. The retention window therefore depends on write
// volume and record size, which experiment E2 measures (the paper's
// "50 MB stores 16 days of 20-byte writes at 1 write/s" estimate). With
// a Sink attached — a durable engine's log files — the records go there
// only, and the in-memory Log stays empty.
//
// On disk (Serialize) every record travels inside a CRC32-C frame
// (storage.AppendFrame), so a reader can tell a torn tail from silent
// corruption and stop the scan at the first bad frame instead of
// misparsing garbage.
package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

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

// Log is one circular log (redo or undo).
type Log struct {
	mu       sync.Mutex
	name     string
	capacity int // bytes

	records []Record
	sizes   []int
	bytes   int
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
	l.appendLocked(r)
}

// AppendBatch adds records in order under one lock acquisition — the
// flush half of the manager's group commit.
func (l *Log) AppendBatch(recs []Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range recs {
		l.appendLocked(r)
	}
}

func (l *Log) appendLocked(r Record) {
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

// Records returns the retained records, oldest first.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// Len returns the retained record count.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
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
	if len(l.records) == 0 {
		return 0
	}
	return l.records[0].LSN
}

// Serialize renders the retained log as one byte image — the "file on
// disk" that a disk snapshot captures. Each record is wrapped in a
// CRC32-C frame.
func (l *Log) Serialize() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return storage.AppendFrames(make([]byte, 0, l.bytes+storage.FrameHeaderSize*len(l.records)), l.records)
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

// pendEntry is one queued change in the group-commit pipeline. A
// transaction marker is redo-only: its undo is the zero Record.
type pendEntry struct{ redo, undo Record }

// Manager owns the global LSN counter and the redo and undo logs, and
// provides the typed logging entry points the engine calls.
//
// Concurrent writers commit through the group-commit queue (commitq,
// which documents the ordering invariant): each change gets its LSN as
// it is queued, so both logs come out strictly LSN-ordered no matter how
// statements interleave, and one leader flushes each batch.
//
// Each batch goes to one store. If a Sink is attached, the leader hands
// the batch to it and nowhere else; a sink failure is reported to every
// writer whose change rode in that batch. This is the durability hook:
// the persistence layer syncs the batch to disk inside the sink, so a
// statement only returns success once its log records are on stable
// storage.
type Manager struct {
	q      *commitq.Queue[pendEntry] // its lock also guards lsn and txnSeq
	lsn    uint64
	txnSeq uint64

	// Sink, if set, receives each flushed batch (redo records, and the
	// undo records for entries that have them) in place of Redo and
	// Undo. Set it before concurrent use.
	Sink func(redo, undo []Record) error

	// Redo and Undo are the in-memory store, used only while no Sink is
	// attached.
	Redo *Log
	Undo *Log
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
	m.q = commitq.New(m.flush)
	return m, nil
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

// commit runs one change through the group-commit queue, assigning its
// LSN as it is enqueued: the LSN advances by size, the encoded size of
// the change, matching InnoDB's byte-offset LSNs (which is what makes
// the paper's LSN↔timestamp correlation linear in write volume). It
// returns only after the change is in its store — durable if a Sink is
// attached, in the in-memory logs otherwise — or after its batch's
// flush failed.
func (m *Manager) commit(redo, undo Record, size int) (uint64, Record, error) {
	e := pendEntry{redo, undo}
	err := m.q.Commit(func(pend []pendEntry) []pendEntry {
		m.lsn += uint64(size)
		e.redo.LSN = m.lsn
		if e.undo.Op != 0 {
			e.undo.LSN = m.lsn
		}
		return append(pend, e)
	})
	return e.redo.LSN, e.undo, err
}

// flush is the queue leader's batch flush into the one store: the Sink
// if attached, the in-memory logs otherwise.
func (m *Manager) flush(batch []pendEntry) error {
	redoBatch := make([]Record, 0, len(batch))
	var undoBatch []Record
	for _, be := range batch {
		redoBatch = append(redoBatch, be.redo)
		if be.undo.Op != 0 {
			undoBatch = append(undoBatch, be.undo)
		}
	}
	if m.Sink != nil {
		return m.Sink(redoBatch, undoBatch)
	}
	m.Redo.AppendBatch(redoBatch)
	m.Undo.AppendBatch(undoBatch)
	return nil
}

// GroupCommitStats reports how many changes have been committed and in
// how many batch flushes; committed/flushes is the mean group size.
func (m *Manager) GroupCommitStats() (committed, flushes uint64) { return m.q.Stats() }

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

// TxInsert records a row insertion by txn in both logs, returning the
// LSN and the undo record (which transactions buffer for rollback). The
// LSN advances by the encoded size of the row image the change carries.
func (m *Manager) TxInsert(txn uint64, table uint8, row storage.Record) (uint64, Record, error) {
	redo, undo := InsertRecords(txn, table, row)
	return m.commit(redo, undo, redo.EncodedSize())
}

// TxUpdate records a single-column update by txn.
func (m *Manager) TxUpdate(txn uint64, table uint8, key storage.Record, column uint8, oldVal, newVal storage.Record) (uint64, Record, error) {
	redo, undo := UpdateRecords(txn, table, key, column, oldVal, newVal)
	return m.commit(redo, undo, redo.EncodedSize())
}

// TxDelete records a row deletion by txn.
func (m *Manager) TxDelete(txn uint64, table uint8, oldRow storage.Record) (uint64, Record, error) {
	redo, undo := DeleteRecords(txn, table, oldRow)
	return m.commit(redo, undo, undo.EncodedSize())
}

// LogCommit appends txn's commit marker to the redo log. Recovery
// replays a transaction's changes only if this marker made it to disk —
// it is the durability point of the transaction.
func (m *Manager) LogCommit(txn uint64) error { return m.logMarker(txn, OpCommit) }

// LogAbort appends txn's abort marker to the redo log, recording that
// the transaction's changes were rolled back on purpose.
func (m *Manager) LogAbort(txn uint64) error { return m.logMarker(txn, OpAbort) }

func (m *Manager) logMarker(txn uint64, op Op) error {
	marker := Record{Txn: txn, Op: op, Column: WholeRow}
	_, _, err := m.commit(marker, Record{}, marker.EncodedSize())
	return err
}

// LogInsert records a row insertion outside any transaction (txn 0,
// treated as committed by recovery).
func (m *Manager) LogInsert(table uint8, row storage.Record) (uint64, Record, error) {
	return m.TxInsert(0, table, row)
}

// LogUpdate records a single-column update outside any transaction.
func (m *Manager) LogUpdate(table uint8, key storage.Record, column uint8, oldVal, newVal storage.Record) (uint64, Record, error) {
	return m.TxUpdate(0, table, key, column, oldVal, newVal)
}

// LogDelete records a row deletion outside any transaction.
func (m *Manager) LogDelete(table uint8, oldRow storage.Record) (uint64, Record, error) {
	return m.TxDelete(0, table, oldRow)
}

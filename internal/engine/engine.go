// Package engine implements the snapdb DBMS: a single-node SQL engine
// in the style of MySQL/InnoDB, assembled from the substrate packages.
// Every artifact the paper's snapshot attacks exploit is wired in:
//
//   - writes go through undo/redo WALs (wal) and, when the binlog is
//     enabled (the production default), into a timestamped statement
//     binlog (binlog), each kept in one file of the engine's data
//     directory — Config.FS, or a private MemFS when that is nil;
//   - reads traverse per-table B+ trees (btree) through a buffer pool
//     (bufpool) that maintains LRU order, access counters, and a
//     periodic dump file in the same directory;
//   - every statement is visible in the processlist (infoschema) while
//     executing and lands in performance_schema's current/history/
//     digest tables (perfschema);
//   - SELECT results are cached in the internal query cache
//     (querycache);
//   - statements that exceed the slow threshold go to the slow log and,
//     if enabled, everything goes to the general log (dblog);
//   - all query text is allocated (and insecurely freed) in a simulated
//     process heap (heap).
//
// The engine's clock is injectable so experiments can replay days of
// workload in milliseconds.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snapdb/internal/binlog"
	"snapdb/internal/btree"
	"snapdb/internal/bufpool"
	"snapdb/internal/crypto/prim"
	"snapdb/internal/dblog"
	"snapdb/internal/engine/exec"
	"snapdb/internal/heap"
	"snapdb/internal/infoschema"
	"snapdb/internal/perfschema"
	"snapdb/internal/querycache"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// Config controls which artifacts the engine maintains and how large
// they are. The zero value is normalized to production-like defaults by
// Defaults.
type Config struct {
	BufferPoolPages  int  // default 256
	EnableBinlog     bool // default true: production servers replicate
	EnableGeneralLog bool // default false: too verbose for production
	EnableQueryCache bool // default true
	HistoryPerThread int  // default perfschema.DefaultHistoryPerThread
	DisableSlowLog   bool // default false: slow log is common in production

	// StatementTimeout bounds one statement's execution: a statement
	// whose scan outlives it aborts with ErrStatementTimeout. The check
	// runs at scan-leaf row boundaries (every few dozen examined rows),
	// so a statement that never times out fetches exactly the pages it
	// always fetched, and a timed-out UPDATE/DELETE aborts during its
	// scan half, before any mutation applies. Zero (the default)
	// disables the timeout, like MySQL's max_execution_time=0.
	StatementTimeout time.Duration

	// Parallel scan knobs. MaxScanWorkers caps the worker goroutines a
	// clustered full/range scan may split into; 0 or 1 keeps every scan
	// serial (the default — parallelism is opt-in because it reorders
	// the buffer-pool fetch trace, a leakage-profile change E15
	// measures). ParallelScanMinRows is the estimated row count below
	// which splitting isn't worth the goroutine machinery (default
	// 4096).
	MaxScanWorkers      int
	ParallelScanMinRows int64

	// Hardening knobs (see internal/mitigate). All default to the
	// production-realistic (leaky) setting.
	SecureHeapDelete  bool // zeroize freed heap blocks
	DisablePerfSchema bool // no statement events, history, or digests
	ScrubProcesslist  bool // clear statement text when a query finishes

	// Purge knobs. The engine always runs multi-version snapshot
	// isolation: writers file each mutated row's pre-image into a version
	// chain, SELECTs resolve the chains in their primary-key range
	// against a read view without taking table locks, and a purge pass
	// reclaims versions older than the oldest open view. DisablePurge
	// retains every version forever — E16's worst-case residue arm.
	// PurgeEvery is the statement interval between inline purge sweeps
	// (default 256); each sweep examines every chain, tables in id order
	// and each table's chains in key order.
	DisablePurge bool
	PurgeEvery   int

	// FS is the engine's data directory: every WAL and binlog
	// group-commit batch is checksummed, appended and fsynced to files
	// in it before Execute returns (before Session.Flush, for a
	// statement submitted into a pending group), DDL writes a
	// crash-atomic checkpoint to it, and periodic buffer-pool dumps go
	// there too. Nil (the default) opens a private MemFS directory, as
	// the experiments and most tests use it. New on an FS opens what it
	// finds there, exactly as Recover does (which also returns the
	// report); an empty directory is a fresh engine.
	FS vfs.FS

	// EncryptAtRest wraps FS in a vfs.CryptFS keyed by EncryptionKey, so
	// every persisted byte — WAL, binlog, checkpoint, buffer-pool dump —
	// is page-encrypted before it reaches the disk. DeterministicPages
	// selects the XTS-style mode (same plaintext page at the same
	// position encrypts identically — the industry default, and the
	// page-diff channel E17 demonstrates); false selects the fresh-IV
	// mitigation, which re-randomizes every page write at the cost of
	// read-modify-write amplification, an IV sidecar file, and a torn-
	// write window on page rewrites (see DESIGN.md). Defaults() sets
	// DeterministicPages; encryption itself is off unless requested.
	EncryptAtRest      bool
	EncryptionKey      prim.Key
	DeterministicPages bool
}

// Defaults returns the production-like default configuration the paper
// assumes: binlog on, slow log on, general log off, query cache on.
func Defaults() Config {
	return Config{
		BufferPoolPages:  256,
		EnableBinlog:     true,
		EnableQueryCache: true,
		HistoryPerThread: perfschema.DefaultHistoryPerThread,
		// Deterministic page encryption is what shipping encrypted
		// engines default to; Config{} literal users who flip
		// EncryptAtRest get fresh-IV only by leaving this false
		// explicitly.
		DeterministicPages: true,
	}
}

// wrapEncryption applies the Config's at-rest encryption (if enabled)
// to fs, returning the FS every persistence path should use.
func wrapEncryption(fs vfs.FS, cfg Config) (vfs.FS, error) {
	if !cfg.EncryptAtRest {
		return fs, nil
	}
	cfs, err := vfs.NewCryptFS(fs, cfg.EncryptionKey, cfg.DeterministicPages)
	if err != nil {
		return nil, fmt.Errorf("engine: encryption at rest: %w", err)
	}
	return cfs, nil
}

func (c Config) normalized() Config {
	d := Defaults()
	if c.BufferPoolPages <= 0 {
		c.BufferPoolPages = d.BufferPoolPages
	}
	if c.HistoryPerThread <= 0 {
		c.HistoryPerThread = d.HistoryPerThread
	}
	if c.ParallelScanMinRows <= 0 {
		c.ParallelScanMinRows = DefaultParallelScanMinRows
	}
	if c.PurgeEvery <= 0 {
		c.PurgeEvery = DefaultPurgeEvery
	}
	return c
}

// DefaultPurgeEvery is the default statement interval between inline
// MVCC purge sweeps.
const DefaultPurgeEvery = 256

// Table is one table's catalog entry. Its primary key is column 0, the
// clustered tree's key: WAL images, version chains, ghosts and index
// entries all read the key there.
type Table struct {
	ID      uint8
	Name    string
	Columns []sqlparse.ColumnDef
	// layout is Columns' types, what plan templates compile their
	// predicates for (storage.Compile).
	layout  []sqlparse.ColumnType
	Tree    *btree.Tree
	Indexes []*SecondaryIndex // sorted by name

	// rows is an advisory row-count hint maintained by the row mutators
	// (a checkpoint load seeds it); scans use it to pre-size result
	// slices. It is never used for correctness.
	rows atomic.Int64

	// stats holds the planner statistics (per-column min/max/distinct)
	// last built by ANALYZE TABLE, widened incrementally by DML. Like
	// rows, it is advisory: the cost model reads it, correctness never
	// does. See stats.go.
	stats tableStats

	// latch orders readers against writers at tree granularity: DML
	// holds it exclusively across its tree mutations, a SELECT holds it
	// shared across planning and the scan. It replaces the stripe lock
	// on the read path — writers still serialize per table on the
	// stripes, the latch just keeps a reader from observing a
	// half-applied multi-row statement.
	latch sync.RWMutex

	// mvccChains counts this table's live version chains (maintained by
	// the version store). Zero is the fast path: the tree is exactly
	// every view, so reads keep the query cache and parallel scans.
	mvccChains atomic.Int64
}

// RowHint returns the advisory row count.
func (t *Table) RowHint() int64 { return t.rows.Load() }

// ColumnIndex returns the index of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Engine is one DBMS instance.
type Engine struct {
	cfg Config

	// Clock returns UNIX seconds. Experiments override it to compress
	// time; it defaults to time.Now.
	Clock func() int64

	// ExecClock measures statement duration; overridable for tests.
	ExecClock func() time.Time

	// locks is the striped table-lock manager: shared for ANALYZE TABLE,
	// exclusive per table for DML, all stripes for DDL and rollback
	// (SELECT takes none: it reads through the table latch and a view).
	// It replaced the global statement mutex, so writes to different
	// tables don't contend; the B+ trees stay free of internal locking
	// because a table's tree is only ever mutated under its exclusive
	// stripe.
	locks lockManager

	// plans is the statement plan cache (see plancache.go). It sits in
	// front of the parser only: every statement, hit or miss, produces
	// the same forensic artifacts.
	plans *planCache

	mu          sync.Mutex
	ts          *storage.Tablespace
	pool        *bufpool.Pool
	wal         *wal.Manager
	binlog      *binlog.Log
	general     *dblog.GeneralLog
	slow        *dblog.SlowLog
	qcache      *querycache.Cache
	perf        *perfschema.Schema
	procs       *infoschema.Processlist
	arena       *heap.Arena
	tables      map[string]*Table
	tablesByID  map[uint8]*Table
	nextTableID uint8
	nextSession int

	// persist is the durability sink and the logs' one store.
	persist *persistor
	// openTxns counts sessions with an open explicit transaction;
	// checkpoints (and therefore DDL) refuse while it is nonzero,
	// because open transactions' undo information lives in the WAL
	// files a checkpoint truncates.
	openTxns atomic.Int64

	statements atomic.Uint64 // executed statement count, drives periodic dumps

	// versions is the MVCC version store. See mvcc.go.
	versions *mvccStore
	// activeTxns tracks sessions' open explicit transactions for the
	// information_schema.active_transactions surface (guarded by mu).
	activeTxns map[int]*txnState
}

// DumpInterval is how many statements pass between periodic buffer-pool
// dumps (MySQL dumps on a timer; we dump on statement count so
// experiments are deterministic).
const DumpInterval = 100

// New creates an engine with the given configuration, opened through
// Recover on cfg.FS (report dropped): an empty directory is a fresh
// engine, and a data directory comes back as it was left. Without
// cfg.FS the directory is a new, private MemFS.
func New(cfg Config) (*Engine, error) {
	fs := cfg.FS
	if fs == nil {
		fs = vfs.NewMemFS()
	}
	e, _, err := Recover(fs, cfg)
	return e, err
}

// build is the engine's one constructor: an engine with an empty
// catalog serving ts through a buffer pool of its own. Recover reopens
// the checkpointed catalog over it.
func build(cfg Config, ts *storage.Tablespace) (*Engine, error) {
	cfg = cfg.normalized()
	pool, err := bufpool.New(ts, cfg.BufferPoolPages)
	if err != nil {
		return nil, err
	}
	wm, err := wal.NewManager(wal.DefaultCapacity, wal.DefaultCapacity)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		Clock:      func() int64 { return time.Now().Unix() },
		ExecClock:  time.Now,
		ts:         ts,
		pool:       pool,
		wal:        wm,
		binlog:     binlog.New(),
		general:    dblog.NewGeneralLog(),
		slow:       dblog.NewSlowLog(),
		qcache:     querycache.New(querycache.DefaultCapacity),
		perf:       perfschema.New(cfg.HistoryPerThread),
		procs:      infoschema.New(),
		arena:      heap.NewArena(),
		tables:     make(map[string]*Table),
		tablesByID: make(map[uint8]*Table),
		activeTxns: make(map[int]*txnState),
		versions:   newMVCCStore(),
		plans:      newPlanCache(),
	}
	// The WAL's commit pipeline carries the binlog's events behind their
	// markers, stamped with the marker's LSN (the ordering the forensic
	// LSN↔timestamp correlation consumes), and resolves each group's
	// transactions in the version store once their markers are durable.
	wm.Binlog = e.binlog
	wm.Resolved = e.versions.commit
	e.general.Enabled = cfg.EnableGeneralLog
	e.qcache.Enabled = cfg.EnableQueryCache
	e.slow.Enabled = !cfg.DisableSlowLog
	e.arena.SecureDelete = cfg.SecureHeapDelete
	e.procs.Scrub = cfg.ScrubProcesslist
	return e, nil
}

// Config returns the normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// ErrStatementTimeout is the typed error a statement aborts with when
// it exceeds Config.StatementTimeout. It surfaces through the server as
// an ordinary ERR reply; the statement has no side effects (the scan
// half aborts before any mutation runs), so clients may safely resubmit.
var ErrStatementTimeout = errors.New("engine: statement timeout exceeded")

// Session is one client connection.
type Session struct {
	eng  *Engine
	ID   int
	User string

	// deadline is the running statement's absolute cutoff (zero when
	// Config.StatementTimeout is off); Execute arms it per statement
	// and the exec scan leaves consult it via deadlineCheck.
	deadline time.Time

	// histPtrs holds the heap blocks backing this session's
	// events_statements_history ring: the statement text stays live for
	// HistoryPerThread statements and is then insecurely freed.
	histPtrs []heap.Ptr

	// txn is the open explicit transaction, nil in autocommit mode.
	txn *txnState

	// nextTxnReadOnly applies SET TRANSACTION READ ONLY to the next
	// BEGIN on this session (one-shot, like MySQL's statement-scoped
	// form).
	nextTxnReadOnly bool

	// pending is the ticket of the last log entry the session queued and
	// has not synced; held are the outcomes of its pending group's
	// statements, which Flush hands to their replies.
	pending wal.Ticket
	held    []heldReply

	// purgeDue is set when one of the session's statements made an
	// inline purge sweep due; the sweep runs once that statement's
	// group is resolved.
	purgeDue bool
}

// heldReply is one statement of a pending group: its outcome as
// executed, and where it goes once the group's flush has settled it.
type heldReply struct {
	res   *Result
	err   error
	reply func(*Result, error)
}

// Connect opens a new session.
func (e *Engine) Connect(user string) *Session {
	e.mu.Lock()
	e.nextSession++
	id := e.nextSession
	e.mu.Unlock()
	e.procs.Register(id, user)
	return &Session{eng: e, ID: id, User: user}
}

// Close flushes the session's pending group and ends the session.
func (s *Session) Close() {
	s.Flush()
	s.eng.procs.Unregister(s.ID)
}

// rejectReadOnlyTxn refuses DML inside a SET TRANSACTION READ ONLY
// transaction, like MySQL's ER_CANT_EXECUTE_IN_READ_ONLY_TRANSACTION.
func (s *Session) rejectReadOnlyTxn(stmt string) error {
	if s.txn != nil && s.txn.readOnly {
		return fmt.Errorf("engine: cannot execute %s in a READ ONLY transaction", stmt)
	}
	return nil
}

// Result is the outcome of one statement.
type Result struct {
	Columns      []string
	Rows         []storage.Record
	RowsAffected int
	RowsExamined int
	FromCache    bool
	// AccessPath reports how the statement's scan ran: "", "full-scan",
	// "pk-range", or "index:<name>". Tests and demos use it; it also
	// documents that access paths are query-dependent, which is what
	// makes buffer-pool state revealing.
	AccessPath string

	// stages holds the per-operator runtime counters of a successful
	// operator-tree execution; Session.Execute records them into
	// perfschema's events_stages surface.
	stages []perfschema.StageEvent

	// Cost-model outputs for the executed plan, consumed by EXPLAIN
	// ANALYZE's rendering (estimated-vs-actual annotation on the scan
	// line). scanDesc names the leaf operator the estimates belong to.
	estRows  int64
	estCost  float64
	scanDesc string
}

// NoteReplay records the arrival of a statement the server answered
// from its exactly-once dedup cache instead of executing. Like MySQL's
// general log, the log records arrivals, not executions — so a
// replayed retry leaves a duplicate general-log record (same text, a
// later timestamp) without touching any other artifact. That residue
// is precisely the retry-forensics channel E14 measures.
func (s *Session) NoteReplay(query string) {
	e := s.eng
	e.general.Record(dblog.Entry{Timestamp: e.Clock(), Session: s.ID, Statement: query})
}

// deadlineCheck returns the exec-layer deadline check for the running
// statement, or nil when no deadline is armed (the common case — a nil
// check keeps the scan loop's fast path branch-predictable).
func (s *Session) deadlineCheck() exec.DeadlineCheck {
	if s.deadline.IsZero() {
		return nil
	}
	e, dl := s.eng, s.deadline
	return func() error {
		if e.ExecClock().After(dl) {
			return fmt.Errorf("%w (max_execution_time %v)", ErrStatementTimeout, e.cfg.StatementTimeout)
		}
		return nil
	}
}

// Execute runs one SQL statement on this session and returns once its
// effects are durable: it is a group of one, Submit and Flush with the
// outcome returned instead of handed to a reply.
func (s *Session) Execute(query string) (*Result, error) {
	res, _, err := s.exec(query)
	if ferr := s.Flush(); ferr != nil && err == nil {
		res, err = nil, ferr
	}
	return res, err
}

// Submit runs one SQL statement as Execute does, except an autocommit
// INSERT, UPDATE or DELETE: that one returns once applied and queued to
// the logs, joins the session's pending group, and stays invisible to
// other sessions until Flush makes the group durable and hands its
// outcome to reply. Any other statement flushes the pending group first
// and replies before Submit returns, so replies arrive in statement
// order. A client that pipelines writes submits them all and then
// flushes once: the group shares one durable step.
func (s *Session) Submit(query string, reply func(*Result, error)) {
	res, grouped, err := s.exec(query)
	if grouped {
		s.held = append(s.held, heldReply{res, err, reply})
		return
	}
	reply(res, err)
}

// Flush makes the session's pending group durable — one flush of the
// redo, undo and binlog records its statements queued — runs the purge
// sweep one of them made due, and then hands each held outcome to its
// reply in order. If the flush failed, every statement of the group
// that had succeeded fails with its error, which Flush also returns; if
// it failed before the commit markers were durable, none of them ever
// becomes visible.
func (s *Session) Flush() error {
	if len(s.held) == 0 && !s.pending.Pending() && !s.purgeDue {
		return nil
	}
	err := s.sync()
	s.purge()
	for i := range s.held {
		h := &s.held[i]
		if err != nil && h.err == nil {
			h.res, h.err = nil, err
		}
		h.reply(h.res, h.err)
		*h = heldReply{}
	}
	s.held = s.held[:0]
	return err
}

// sync waits until every log entry the session queued is durable.
func (s *Session) sync() error {
	t := s.pending
	s.pending = wal.Ticket{}
	if err := s.eng.wal.Sync(t); err != nil {
		return fmt.Errorf("engine: log flush: %w", err)
	}
	return nil
}

// purge runs the inline MVCC sweep a statement of the session made due,
// the deterministic analogue of InnoDB's purge thread. It is called
// only once everything the session queued is resolved, so the sweep
// reclaims what that statement's own group superseded.
func (s *Session) purge() {
	if s.purgeDue {
		s.purgeDue = false
		s.eng.versions.purge(0)
	}
}

// exec runs one statement. An autocommit INSERT, UPDATE or DELETE is
// left in the session's pending group (grouped reports it); every other
// statement flushes that group first and is synced before exec returns.
func (s *Session) exec(query string) (res *Result, grouped bool, err error) {
	e := s.eng
	start := e.ExecClock()
	ts := e.Clock()

	// Arm (or clear) the statement deadline. The scan leaves consult it
	// via Session.deadlineCheck at row boundaries; everything else on
	// the statement path runs in bounded time.
	if e.cfg.StatementTimeout > 0 {
		s.deadline = start.Add(e.cfg.StatementTimeout)
	} else {
		s.deadline = time.Time{}
	}

	// Statement pipeline front half: a plan-cache hit skips the lexer
	// and parser and reuses the digest computed when the statement text
	// was first seen. Parsing has no forensic side effects, so doing it
	// here (or not doing it, on a hit) leaves every artifact below
	// byte-identical; a parse error is carried into execute and
	// surfaces at the same point it always did.
	pl, digestText, parseErr := e.planFor(query)
	grouped = s.txn == nil && pl != nil && pl.isDML()
	if !grouped {
		s.Flush()
	}
	var digestHash string
	if pl != nil {
		digestHash = pl.dhash
	} else {
		digestHash = sqlparse.HashDigestText(digestText)
	}

	// Query text passes through several heap buffers, as in a real
	// DBMS: the connection receive buffer, the parser's working copy,
	// the digest/canonicalization buffer (freed after execution), and
	// the statement-history ring entry (freed HistoryPerThread
	// statements later). None is securely deleted.
	connBuf := e.arena.AllocString(query)
	parseBuf := e.arena.AllocString(query)
	digestBuf := e.arena.AllocString(digestText)
	if !e.cfg.DisablePerfSchema {
		s.histPtrs = append(s.histPtrs, e.arena.AllocString(query))
		if len(s.histPtrs) > e.cfg.HistoryPerThread {
			_ = e.arena.Free(s.histPtrs[0])
			s.histPtrs = s.histPtrs[1:]
		}
	}

	e.procs.SetQuery(s.ID, query, ts)
	if !e.cfg.DisablePerfSchema {
		e.perf.BeginStatementWithDigest(s.ID, query, digestHash, digestText, ts)
	}

	res, err = e.execute(s, query, pl, parseErr, ts)
	if !grouped {
		if serr := s.sync(); serr != nil && err == nil {
			res, err = nil, serr
		}
	}

	dur := e.ExecClock().Sub(start)
	examined, returned := 0, 0
	if res != nil {
		examined = res.RowsExamined
		returned = len(res.Rows)
		if res.RowsAffected > 0 && returned == 0 {
			returned = res.RowsAffected
		}
	}
	if !e.cfg.DisablePerfSchema {
		e.perf.EndStatement(s.ID, examined, returned, dur)
		if res != nil && len(res.stages) > 0 {
			e.perf.AddStages(s.ID, ts, digestHash, res.stages)
		}
	}
	e.procs.ClearQuery(s.ID)
	e.general.Record(dblog.Entry{Timestamp: ts, Session: s.ID, Duration: dur, Statement: query})
	e.slow.Record(dblog.Entry{Timestamp: ts, Session: s.ID, Duration: dur, Statement: query})

	// Insecure frees: the bytes stay in the heap.
	_ = e.arena.Free(connBuf)
	_ = e.arena.Free(parseBuf)
	_ = e.arena.Free(digestBuf)

	n := e.statements.Add(1)
	if n%DumpInterval == 0 {
		// Best-effort, like MySQL's periodic dump: the statement
		// already succeeded, and recovery validates the dump's
		// checksum before trusting it.
		_ = e.persist.writeDump(e.pool.DumpFile())
	}
	// Inline MVCC purge, statement-count driven so experiments can
	// reproduce the residue window exactly. A grouped statement's sweep
	// waits for its group's flush.
	if !e.cfg.DisablePurge && n%uint64(e.cfg.PurgeEvery) == 0 {
		s.purgeDue = true
	}
	if !grouped {
		s.purge()
	}
	return res, grouped, err
}

// isSystemTable reports whether name is a virtual diagnostic table.
// Those are served straight from the internally synchronized substrate
// packages, so they need no table lock.
func isSystemTable(name string) bool {
	return strings.HasPrefix(name, "information_schema.") ||
		strings.HasPrefix(name, "performance_schema.")
}

// execute dispatches on the statement class. DML and SELECT go to their
// entry functions, which own the class's guard and locks —
// EXPLAIN ANALYZE calls the same functions, so the two dispatchers
// cannot disagree about them; the single-dispatcher classes (DDL,
// ANALYZE, transaction control) take their locks here. The plan (parsed
// AST plus bindings) comes from the statement pipeline's front half; a
// parse failure is surfaced here, after the pre-statement artifacts
// have been recorded, exactly where the inline Parse used to fail.
func (e *Engine) execute(s *Session, query string, pl *plan, parseErr error, ts int64) (*Result, error) {
	if parseErr != nil {
		return nil, parseErr
	}
	switch st := pl.stmt.(type) {
	case *sqlparse.CreateTable, *sqlparse.CreateIndex, *sqlparse.DropTable:
		e.locks.lockAll()
		defer e.locks.unlockAll()
		if err := e.admitDDL(s); err != nil {
			return nil, err
		}
		switch st := st.(type) {
		case *sqlparse.CreateTable:
			return e.execCreate(st, query, ts)
		case *sqlparse.CreateIndex:
			return e.execCreateIndex(st, query, ts)
		default:
			return e.execDrop(st.(*sqlparse.DropTable), query, ts)
		}
	case *sqlparse.Insert:
		return e.execInsert(s, st, pl, query, ts)
	case *sqlparse.Select:
		return e.execSelect(s, st, pl, query, false)
	case *sqlparse.Update:
		return e.execUpdate(s, st, pl, query, ts)
	case *sqlparse.Delete:
		return e.execDelete(s, st, pl, query, ts)
	case *sqlparse.AnalyzeTable:
		// ANALYZE only reads the table (one clustered scan) and writes
		// the advisory stats, so readers may share the lock with it;
		// DML is excluded so the scan sees a stable tree.
		mu := e.locks.shared(st.Table)
		defer mu.RUnlock()
		return e.execAnalyzeTable(s, st, query, ts)
	case *sqlparse.TxnControl:
		if st.Op == sqlparse.TxnRollback {
			// Rollback replays undo records that may span tables.
			e.locks.lockAll()
			defer e.locks.unlockAll()
		}
		return e.execTxnControl(s, st, ts)
	case *sqlparse.SetTxn:
		if s.txn != nil {
			return nil, fmt.Errorf("engine: SET TRANSACTION not allowed inside an open transaction")
		}
		s.nextTxnReadOnly = st.ReadOnly
		return &Result{}, nil
	case *sqlparse.Explain:
		if st.Analyze {
			// EXPLAIN ANALYZE runs the wrapped statement for real, through
			// the wrapped statement's own entry function.
			return e.execExplainAnalyze(s, st, ts)
		}
		// Plain EXPLAIN plans only, reading just the catalog
		// (e.mu-guarded) — no page is fetched and no tree is walked, so
		// no table lock is needed.
		return e.execExplain(st)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", pl.stmt)
	}
}

// admitDDL is the one admission rule for DDL, checked with every
// stripe held. DDL is not transactional, so it is refused inside the
// session's own open transaction: its rollback would replay undo
// records against a catalog that changed under them. It is also
// refused while any transaction is open, because the checkpoint DDL
// writes truncates the WAL files that hold open transactions' undo
// information.
func (e *Engine) admitDDL(s *Session) error {
	if s.txn != nil {
		return fmt.Errorf("engine: DDL inside an open transaction is not supported")
	}
	if n := e.openTxns.Load(); n != 0 {
		return fmt.Errorf("engine: DDL refused: %d open transaction(s)", n)
	}
	return nil
}

func (e *Engine) execCreate(st *sqlparse.CreateTable, query string, ts int64) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.tables[st.Table]; exists {
		return nil, fmt.Errorf("engine: table %q already exists", st.Table)
	}
	if len(st.Columns) == 0 {
		return nil, fmt.Errorf("engine: table %q has no columns", st.Table)
	}
	pk := 0
	found := false
	for i, c := range st.Columns {
		if c.PrimaryKey {
			if found {
				return nil, fmt.Errorf("engine: table %q has multiple primary keys", st.Table)
			}
			pk = i
			found = true
		}
	}
	if pk != 0 {
		return nil, fmt.Errorf("engine: primary key must be the first column (clustered index)")
	}
	if e.nextTableID == 0xFF {
		return nil, fmt.Errorf("engine: table limit reached")
	}
	e.nextTableID++
	t := &Table{
		ID:      e.nextTableID,
		Name:    st.Table,
		Columns: st.Columns,
		layout:  columnTypes(st.Columns),
		Tree:    btree.New(e.ts, e.pool),
	}
	e.tables[st.Table] = t
	e.tablesByID[t.ID] = t
	// DDL invalidates every cached plan: statements parsed against the
	// old catalog may now resolve differently.
	e.plans.bumpEpoch()
	e.mu.Unlock() // execute holds all locks; commitDDL's checkpoint takes e.mu
	err := e.commitDDL(query, ts)
	e.mu.Lock()
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// execDrop removes a table from the catalog. The tree's pages are not
// scrubbed — like InnoDB, dropping is a catalog operation, and any
// in-flight MVCC reader keeps scanning the orphaned tree safely — but
// the version store's chains for the table are discarded.
func (e *Engine) execDrop(st *sqlparse.DropTable, query string, ts int64) (*Result, error) {
	e.mu.Lock()
	t, ok := e.tables[st.Table]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	delete(e.tables, st.Table)
	delete(e.tablesByID, t.ID)
	e.plans.bumpEpoch()
	e.mu.Unlock()
	e.versions.dropTable(t.ID)
	e.qcache.InvalidateTable(t.Name)
	if err := e.commitDDL(query, ts); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// lookupTable returns the catalog entry, including virtual system tables.
func (e *Engine) lookupTable(name string) (*Table, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// Table returns the catalog entry for a table (used by EDB layers that
// need schema information).
func (e *Engine) Table(name string) (*Table, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[name]
	return t, ok
}

// Tables returns all user tables sorted by name.
func (e *Engine) Tables() []*Table {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// dmlStmt is one INSERT, UPDATE or DELETE in flight — the frame the
// three share, written once: beginDML is its front half, run its back
// half, and the entry functions between them (which EXPLAIN ANALYZE
// calls too) supply only the row list and the row mutator.
type dmlStmt struct {
	e      *Engine
	s      *Session
	t      *Table
	stripe *sync.RWMutex // the table's exclusive stripe; the entry function unlocks it

	txn  uint64 // WAL transaction the statement logs under
	auto bool   // the statement is its own transaction
	// The statement's undo records, what it is compensated from if it
	// fails midway: undo in autocommit, else the open transaction's
	// rollback buffer from undoStart on.
	undo      []wal.Record
	undoStart int
}

// beginDML is the front half: read-only guard, failed-log guard,
// exclusive stripe, table resolution. On success the caller owns the
// stripe.
func (e *Engine) beginDML(s *Session, verb, table string, pl *plan) (dmlStmt, error) {
	if err := s.rejectReadOnlyTxn(verb); err != nil {
		return dmlStmt{}, err
	}
	if err := e.persist.failure(); err != nil {
		return dmlStmt{}, err
	}
	mu := e.locks.exclusive(table)
	t, err := e.planTable(pl, table)
	if err != nil {
		mu.Unlock()
		return dmlStmt{}, err
	}
	return dmlStmt{e: e, s: s, t: t, stripe: mu}, nil
}

// logged takes the result of the wal.Tx* call that follows a row
// mutator; reaching it means the mutator succeeded. It keeps the undo
// record, which compensation reverses the row from, and the ticket,
// which the session syncs.
func (d *dmlStmt) logged(_ uint64, undo wal.Record, t wal.Ticket) {
	d.s.noteUndo(undo)
	if d.auto {
		d.undo = append(d.undo, undo)
	}
	d.s.pending = t
}

// run is the back half. res.Rows is the row list — the rows to insert,
// or what the scan half matched — and mutate applies and queues one of
// them, under the table's write latch so that MVCC readers, which take
// no stripe, never observe a half-applied statement. The latch covers
// the queueing only: no log I/O runs under it. A statement that changed
// rows ends through publish: in autocommit that queues COMMIT's own
// commit order behind the rows, and the session syncs it with the rest
// of its pending group; inside a transaction the rows are synced before
// the statement returns, and a failed sync compensates the statement.
func (d *dmlStmt) run(res *Result, query string, ts int64, mutate func(row storage.Record) error) (*Result, error) {
	e, s, t := d.e, d.s, d.t
	rows := res.Rows
	res.Rows, res.RowsAffected = nil, len(rows)
	d.txn, d.auto = s.stmtTxn(e)
	if d.auto {
		d.undo = make([]wal.Record, 0, len(rows))
	} else {
		d.undoStart = len(s.txn.undo) // own buffer: only this session writes it
	}
	if err := func() error {
		t.latch.Lock()
		defer t.latch.Unlock()
		for _, row := range rows {
			if err := mutate(row); err != nil {
				return err
			}
		}
		return nil
	}(); err != nil {
		return nil, d.compensate(err)
	}
	e.qcache.InvalidateTable(t.Name)
	if len(rows) > 0 {
		s.publish(e, d.txn, binlog.Event{Timestamp: ts, Statement: query})
		if !d.auto {
			if err := s.sync(); err != nil {
				return nil, d.compensate(err)
			}
		}
	}
	e.maybeStatsDrift(t)
	return res, nil
}

// compensate makes a failed statement atomic: the row changes it applied
// before cause stopped it are rolled back — an autocommit statement as
// ROLLBACK would its transaction; inside an open transaction only the
// statement, whose records leave the rollback buffer, and the
// transaction stays open. A statement that changed nothing writes
// nothing more. It returns the statement's error: cause, joined with
// the rollback's own if that failed too (a failed log fails both).
func (d *dmlStmt) compensate(cause error) error {
	undo, tx := d.undo, d.s.txn
	if !d.auto {
		undo = tx.undo[d.undoStart:]
	}
	if len(undo) == 0 {
		return cause
	}
	var err error
	if d.auto {
		err = d.e.rollbackTxn(d.txn, undo)
		// Resolved even if the rollback stopped short: the statement is
		// over, and what compensation reached is the visible state.
		d.e.versions.commit(d.txn)
	} else {
		var last wal.Ticket
		if last, err = d.e.applyUndo(d.txn, undo); err == nil {
			tx.mu.Lock()
			tx.undo = tx.undo[:d.undoStart]
			tx.mu.Unlock()
		}
		if last.Pending() {
			d.s.pending = last // synced when the statement returns
		}
	}
	if err != nil {
		return errors.Join(cause, fmt.Errorf("engine: statement rollback: %w", err))
	}
	return cause
}

// insertRow, updateRow and deleteRow are the row mutators: each applies
// one row change — clustered tree, secondary indexes, version chain, row
// hint, planner statistics — and is the only place it is written. The
// forward path (dmlStmt.run) calls one and logs the change; rollback
// (undoRecord) looks the row up, calls the opposite one and logs that.
// Redo (applyRedo) logs nothing and learns from the tree whether the
// change was already there, in one descent: it writes the tree itself
// and finishes through each mutator's second half — insertedRow,
// updatedRow inside Tree.Modify, takeRow's deletedRow. The order of tree
// and index operations is the buffer-pool fetch trace, a forensic
// surface: insert tree → indexes; update indexes in SET order → one
// tree update; delete tree → indexes. Callers hold the table's write
// latch (recovery runs alone).

// insertRow adds row. The version is filed only once the tree insert
// has succeeded: a duplicate key must not leave a chain behind.
func (e *Engine) insertRow(t *Table, row storage.Record, txn uint64) error {
	if err := t.Tree.Insert(row); err != nil {
		return err
	}
	return e.insertedRow(t, row, txn)
}

// insertedRow finishes a row's insertion once the tree holds it.
func (e *Engine) insertedRow(t *Table, row storage.Record, txn uint64) error {
	if err := indexInsertRow(t, row); err != nil {
		return err
	}
	e.versions.noteWrite(t, row[0], nil, false, txn)
	t.rows.Add(1)
	t.statsNoteInsert(row)
	return nil
}

// updateRow applies sets to the row stored as old. The tree's Update
// replaces the stored record, so old stays intact for the chain.
func (e *Engine) updateRow(t *Table, old storage.Record, sets []setOp, txn uint64) error {
	updated, err := e.updatedRow(t, old, sets, txn)
	if err != nil {
		return err
	}
	_, err = t.Tree.Update(old[0], updated)
	return err
}

// updatedRow is an update up to its tree write: it files old in the
// version chain, re-keys the indexes, notes the statistics and returns
// the row to store. Inside Tree.Modify, the index pages it re-keys are
// fetched between the tree's read and its write, where updateRow
// fetches them between two descents.
func (e *Engine) updatedRow(t *Table, old storage.Record, sets []setOp, txn uint64) (storage.Record, error) {
	pk := old[0]
	e.versions.noteWrite(t, pk, old, false, txn)
	updated := old.Clone()
	for _, op := range sets {
		if err := indexUpdateColumn(t, pk, op.idx, old[op.idx], op.val); err != nil {
			return nil, err
		}
		t.statsNoteUpdate(op.idx, op.val)
		updated[op.idx] = op.val
	}
	return updated, nil
}

// deleteRow removes the row currently stored as old. Its image goes
// into the version chain as a tombstoned pre-image — the "deleted data
// persists" residue E16 recovers until purge drops the chain.
func (e *Engine) deleteRow(t *Table, old storage.Record, txn uint64) error {
	pk := old[0]
	e.versions.noteWrite(t, pk, old, true, txn)
	if _, err := t.Tree.Delete(pk); err != nil {
		return err
	}
	return deletedRow(t, old)
}

// takeRow is deleteRow in one descent, for a caller that has not read
// the row: it removes the row stored under pk and returns it, or nil
// when there is none.
func (e *Engine) takeRow(t *Table, pk sqlparse.Value, txn uint64) (storage.Record, error) {
	old, found, err := t.Tree.Take(pk)
	if err != nil || !found {
		return nil, err
	}
	e.versions.noteWrite(t, pk, old, true, txn)
	return old, deletedRow(t, old)
}

// deletedRow finishes a row's removal once the tree no longer holds it.
func deletedRow(t *Table, old storage.Record) error {
	if err := indexDeleteRow(t, old); err != nil {
		return err
	}
	t.rows.Add(-1)
	return nil
}

// execInsert is the INSERT entry function: the row list is built from
// the statement's tuples (every tuple is checked before any is applied).
func (e *Engine) execInsert(s *Session, st *sqlparse.Insert, pl *plan, query string, ts int64) (*Result, error) {
	d, err := e.beginDML(s, "INSERT", st.Table, pl)
	if err != nil {
		return nil, err
	}
	defer d.stripe.Unlock()
	rows := make([]storage.Record, 0, len(st.Rows))
	for _, tuple := range st.Rows {
		row, err := buildRow(d.t, st.Columns, tuple)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return d.run(&Result{Rows: rows}, query, ts, func(row storage.Record) error {
		if err := e.insertRow(d.t, row, d.txn); err != nil {
			return err
		}
		d.logged(e.wal.TxInsert(d.txn, d.t.ID, row))
		return nil
	})
}

// buildRow places tuple values into schema order, checking types.
func buildRow(t *Table, cols []string, tuple []sqlparse.Value) (storage.Record, error) {
	if len(cols) != len(t.Columns) {
		return nil, fmt.Errorf("engine: INSERT must list all %d columns of %q", len(t.Columns), t.Name)
	}
	row := make(storage.Record, len(t.Columns))
	seen := make(map[int]bool, len(cols))
	for i, name := range cols {
		idx := t.ColumnIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("engine: unknown column %q in table %q", name, t.Name)
		}
		if seen[idx] {
			return nil, fmt.Errorf("engine: duplicate column %q", name)
		}
		seen[idx] = true
		v := tuple[i]
		if err := checkType(t.Columns[idx], v); err != nil {
			return nil, err
		}
		row[idx] = v
	}
	return row, nil
}

func checkType(col sqlparse.ColumnDef, v sqlparse.Value) error {
	if col.Type == sqlparse.TypeInt && !v.IsInt {
		return fmt.Errorf("engine: column %q is INT, got string %q", col.Name, v.Str)
	}
	if col.Type == sqlparse.TypeText && v.IsInt {
		return fmt.Errorf("engine: column %q is TEXT, got integer %d", col.Name, v.Int)
	}
	return nil
}

// readAccess is what a SELECT holds while it runs: the table's read
// latch plus, when some version chain of the table differs from the
// tree for the statement's read view, that view — and no stripe, so the
// read sails past open transactions.
type readAccess struct {
	table *Table
	view  *readView // nil: the tree is exactly what the statement may see
	eph   *readView // the ephemeral view to unregister, if any
}

// acquireRead resolves the table, takes its read latch and opens the
// statement's read view, asking only whether the table differs from the
// tree for it. On success the caller must release.
func (e *Engine) acquireRead(s *Session, pl *plan, name string) (readAccess, error) {
	var ra readAccess
	var err error
	if ra.table, err = e.planTable(pl, name); err != nil {
		return ra, err
	}
	ra.table.latch.RLock()
	view, ephemeral := e.selectView(s, ra.table)
	if ephemeral {
		ra.eph = view
	}
	if view != nil && e.versions.differs(ra.table, view) {
		ra.view = view
	}
	return ra, nil
}

// filter resolves the chains in pp's primary-key range against the
// view (all of them on an index path or a full scan); nil when the tree
// is the view there. The read latch keeps writers out since
// acquireRead, and purge drops only what every view already sees.
func (ra *readAccess) filter(e *Engine, pp *physicalPlan) versionFilter {
	if ra.view == nil {
		return nil
	}
	bounded := pp.kind == accessPKPoint || pp.kind == accessPKRange
	return e.versions.filterFor(ra.table, ra.view, bounded, pp.lo, pp.hi)
}

func (ra *readAccess) release(e *Engine) {
	if ra.eph != nil {
		e.versions.release(ra.eph)
	}
	ra.table.latch.RUnlock()
}

// execSelect is the one SELECT driver: resolve the table and acquire
// read access, fetch (or build) the physical template, consult the
// query cache, run the template, and package the result. The access
// path, predicate evaluation, sorting, aggregation, projection, and
// LIMIT all live in the operators (internal/engine/exec); the planning
// lives in physical.go. The query cache holds current reads, so it is
// consulted and filled only when no chain of the whole table differs
// for the statement's view — and never for EXPLAIN ANALYZE (noCache),
// which wants genuine counters and whose rendered tree is useless to
// cache. EXPLAIN ANALYZE also passes pl == nil, which plans fresh.
func (e *Engine) execSelect(s *Session, st *sqlparse.Select, pl *plan, query string, noCache bool) (*Result, error) {
	if res, ok := e.systemSelect(st); ok {
		// Served straight from the internally synchronized substrate
		// packages: no table, no lock.
		return res, nil
	}
	ra, err := e.acquireRead(s, pl, st.Table)
	if err != nil {
		return nil, err
	}
	defer ra.release(e)
	pp := e.templateFor(pl, ra.table, st)
	useCache := ra.view == nil && !noCache
	if useCache {
		if cached, ok := e.qcache.Get(query); ok {
			return &Result{Columns: pp.cols, Rows: cached, FromCache: true}, nil
		}
	}
	res, err := e.runScan(s, pp, ra.filter(e, pp))
	if err != nil {
		return nil, err
	}
	res.Columns = pp.cols
	res.AccessPath = pp.path
	if useCache {
		e.qcache.Put(query, ra.table.Name, res.Rows)
	}
	return res, nil
}

// runScan executes a template's operator tree — all of a SELECT, the
// scan half of an UPDATE or DELETE — and returns the drained rows with
// the execution's counters. Unknown WHERE columns are reported before
// any page is fetched; aggregate, projection, ORDER BY and SET-clause
// resolution errors surface after the scan has run, as they always did.
// The deadline arms only the scan: a timed-out UPDATE/DELETE aborts
// here, before any WAL record or index mutation, so it has no partial
// effects and is safe to resubmit.
func (e *Engine) runScan(s *Session, pp *physicalPlan, vf versionFilter) (*Result, error) {
	if pp.whereErr != nil {
		return nil, pp.whereErr
	}
	pi := pp.instantiate()
	// Only the leaf runs an unbounded loop (its traversal, the part it
	// finishes in Close included), so arming it bounds the whole tree;
	// with no timeout the check is nil and the leaf runs exactly as the
	// pre-deadline executor did.
	pi.leaf.SetDeadlineCheck(s.deadlineCheck())
	pi.armVisibility(pp, vf)
	rows, err := pi.drain()
	if err != nil {
		return nil, err
	}
	if pp.deferredErr != nil {
		return nil, pp.deferredErr
	}
	return &Result{
		Rows:         rows,
		RowsExamined: pi.examined(),
		stages:       pi.stages(),
		estRows:      pp.estRows,
		estCost:      pp.estCost,
		scanDesc:     pi.leaf.Describe(),
	}, nil
}

// columnBounds extracts the predicate bounds on one column that an
// index on it can use: an equality (eq=true, lo==hi) or both range
// bounds, the tightest of each. The first equality predicate wins
// outright. ok is false when neither is there.
func columnBounds(col string, where sqlparse.Where) (lo, hi sqlparse.Value, eq, ok bool) {
	var haveLo, haveHi bool
	for _, p := range where {
		if p.Column != col {
			continue
		}
		switch p.Op {
		case sqlparse.OpEq:
			return p.Arg, p.Arg, true, true
		case sqlparse.OpGe, sqlparse.OpGt:
			if !haveLo || p.Arg.Compare(lo) > 0 {
				lo, haveLo = p.Arg, true
			}
		case sqlparse.OpLe, sqlparse.OpLt:
			if !haveHi || p.Arg.Compare(hi) < 0 {
				hi, haveHi = p.Arg, true
			}
		}
	}
	if haveLo && haveHi {
		return lo, hi, false, true
	}
	return sqlparse.Value{}, sqlparse.Value{}, false, false
}

// execUpdate is the UPDATE entry function: the row list is the scan
// half's match set (the same planner and operators as SELECT, minus
// projection), and each row logs one byte-level change record per
// modified column.
func (e *Engine) execUpdate(s *Session, st *sqlparse.Update, pl *plan, query string, ts int64) (*Result, error) {
	d, err := e.beginDML(s, "UPDATE", st.Table, pl)
	if err != nil {
		return nil, err
	}
	defer d.stripe.Unlock()
	t := d.t
	pp := e.templateFor(pl, t, st)
	res, err := e.runScan(s, pp, nil)
	if err != nil {
		return nil, err
	}
	return d.run(res, query, ts, func(old storage.Record) error {
		if err := e.updateRow(t, old, pp.sets, d.txn); err != nil {
			return err
		}
		pk := old[:1]
		for _, op := range pp.sets {
			d.logged(e.wal.TxUpdate(d.txn, t.ID, pk, uint8(op.idx),
				old[op.idx:op.idx+1], storage.Record{op.val}))
		}
		return nil
	})
}

// execDelete is the DELETE entry function: the scan half as in
// execUpdate, then the matched rows are removed.
func (e *Engine) execDelete(s *Session, st *sqlparse.Delete, pl *plan, query string, ts int64) (*Result, error) {
	d, err := e.beginDML(s, "DELETE", st.Table, pl)
	if err != nil {
		return nil, err
	}
	defer d.stripe.Unlock()
	res, err := e.runScan(s, e.templateFor(pl, d.t, st), nil)
	if err != nil {
		return nil, err
	}
	return d.run(res, query, ts, func(old storage.Record) error {
		if err := e.deleteRow(d.t, old, d.txn); err != nil {
			return err
		}
		d.logged(e.wal.TxDelete(d.txn, d.t.ID, old))
		return nil
	})
}

// Package engine implements the snapdb DBMS: a single-node SQL engine
// in the style of MySQL/InnoDB, assembled from the substrate packages.
// Every artifact the paper's snapshot attacks exploit is wired in:
//
//   - writes go through circular undo/redo WALs (wal) and, when the
//     binlog is enabled (the production default), into a timestamped
//     statement binlog (binlog);
//   - reads traverse per-table B+ trees (btree) through a buffer pool
//     (bufpool) that maintains LRU order, access counters, and a
//     periodic dump file;
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
	DisablePlanCache bool // default false: plans are cached
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

	// MVCC knobs. The engine runs multi-version snapshot isolation by
	// default: writers file each mutated row's pre-image into a version
	// chain, SELECTs resolve against a read view without taking table
	// locks, and a purge pass reclaims versions older than the oldest
	// open view. DisableMVCC reverts to the legacy stripe-locked reads
	// (the differential tests' control arm). DisablePurge retains every
	// version forever — E16's worst-case residue arm. PurgeEvery is the
	// statement interval between inline purge sweeps (default 256); each
	// sweep examines every chain.
	DisableMVCC  bool
	DisablePurge bool
	PurgeEvery   int

	// FS, when set, makes the engine durable: every WAL and binlog
	// group-commit batch is checksummed, appended and fsynced to files
	// in this filesystem before the statement returns, DDL writes a
	// crash-atomic checkpoint, and periodic buffer-pool dumps go to
	// disk. Nil (the default) keeps the engine fully in-memory, as the
	// experiments and most tests use it. Use Recover to reopen an
	// existing data directory; New on a non-empty FS starts fresh.
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
	if fs == nil || !cfg.EncryptAtRest {
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

// Table is one table's catalog entry.
type Table struct {
	ID      uint8
	Name    string
	Columns []sqlparse.ColumnDef
	PKIndex int
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

	// latch orders MVCC readers against writers at tree granularity:
	// DML holds it exclusively across its tree mutations, an MVCC
	// SELECT holds it shared across planning and the scan. It replaces
	// the stripe lock on the read path only — writers still serialize
	// per table on the stripes, the latch just keeps a reader from
	// observing a half-applied multi-row statement.
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

	// locks is the striped table-lock manager: shared for SELECT,
	// exclusive per table for DML, all stripes for DDL and rollback.
	// It replaced the global statement mutex, so reads run fully
	// parallel and writes to different tables don't contend; the B+
	// trees stay free of internal locking because a table's tree is
	// only ever mutated under its exclusive stripe.
	locks lockManager

	// plans is the statement plan cache (see plancache.go); nil when
	// disabled. It sits in front of the parser only: every statement,
	// hit or miss, produces the same forensic artifacts.
	plans *planCache

	// fc samples the buffer pool's cumulative fetch count; scan
	// operators use it to attribute pool activity per plan node.
	fc exec.FetchCounter

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
	bufpoolDump []byte // last periodic dump of the buffer pool

	// persist is the durability sink; nil for an in-memory engine.
	persist *persistor
	// openTxns counts sessions with an open explicit transaction;
	// checkpoints (and therefore DDL on a durable engine) refuse while
	// it is nonzero, because open transactions' undo information lives
	// in the WAL files a checkpoint truncates.
	openTxns atomic.Int64

	statements atomic.Uint64 // executed statement count, drives periodic dumps

	// versions is the MVCC version store; nil when Config.DisableMVCC
	// reverts to legacy stripe-locked reads. See mvcc.go.
	versions *mvccStore
	// activeTxns tracks sessions' open explicit transactions for the
	// information_schema.active_transactions surface (guarded by mu).
	activeTxns map[int]*txnState
}

// DumpInterval is how many statements pass between periodic buffer-pool
// dumps (MySQL dumps on a timer; we dump on statement count so
// experiments are deterministic).
const DumpInterval = 100

// New creates an engine with the given configuration.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.normalized()
	ts := storage.NewTablespace()
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
	}
	e.fc = pool.FetchCount
	if !cfg.DisableMVCC {
		e.versions = newMVCCStore()
	}
	if !cfg.DisablePlanCache {
		e.plans = newPlanCache()
	}
	// Binlog events are stamped with the engine LSN at commit time, the
	// ordering the forensic LSN↔timestamp correlation consumes.
	e.binlog.LSNSource = wm.CurrentLSN
	e.general.Enabled = cfg.EnableGeneralLog
	e.qcache.Enabled = cfg.EnableQueryCache
	e.slow.Enabled = !cfg.DisableSlowLog
	e.arena.SecureDelete = cfg.SecureHeapDelete
	e.procs.Scrub = cfg.ScrubProcesslist
	if cfg.FS != nil {
		fs, err := wrapEncryption(cfg.FS, cfg)
		if err != nil {
			return nil, err
		}
		if err := e.attachPersist(fs, 0, 0, 0); err != nil {
			return nil, err
		}
	}
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
	// Config.StatementTimeout is off); executeWith arms it per statement
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

// Close ends the session.
func (s *Session) Close() { s.eng.procs.Unregister(s.ID) }

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

// execFn is the statement-execution back half. Session.Execute uses
// (*Engine).execute; the equivalence tests swap in a frozen copy of the
// pre-operator executor to prove the refactor left every forensic
// artifact byte-identical.
type execFn func(e *Engine, s *Session, query string, pl *plan, parseErr error, ts int64) (*Result, error)

// Execute runs one SQL statement on this session.
func (s *Session) Execute(query string) (*Result, error) {
	return s.executeWith(query, (*Engine).execute)
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

// executeWith is Execute with the execution back half injected.
func (s *Session) executeWith(query string, fn execFn) (*Result, error) {
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
	pl, parseErr := e.planFor(query)
	var digestText, digestHash string
	if pl != nil {
		digestText, digestHash = pl.digest, pl.dhash
	} else {
		digestText = sqlparse.Digest(query)
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

	res, err := fn(e, s, query, pl, parseErr, ts)

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
		dump := e.pool.DumpFile()
		e.mu.Lock()
		e.bufpoolDump = dump
		e.mu.Unlock()
		if e.persist != nil {
			// Best-effort, like MySQL's periodic dump: the statement
			// already succeeded, and recovery validates the dump's
			// checksum before trusting it.
			_ = e.persist.writeDump(dump)
		}
	}
	// Inline MVCC purge, the deterministic analogue of InnoDB's purge
	// thread. Statement-count driven so experiments can reproduce the
	// residue window exactly.
	if e.versions != nil && !e.cfg.DisablePurge && n%uint64(e.cfg.PurgeEvery) == 0 {
		e.versions.purge(0)
	}
	return res, err
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
	case *sqlparse.CreateTable:
		e.locks.lockAll()
		defer e.locks.unlockAll()
		return e.execCreate(st, query, ts)
	case *sqlparse.CreateIndex:
		e.locks.lockAll()
		defer e.locks.unlockAll()
		return e.execCreateIndex(s, st, query, ts)
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
	case *sqlparse.DropTable:
		if s.txn != nil {
			// DDL is not transactional; refusing inside a txn keeps the
			// undo log from referencing a vanished table on rollback.
			return nil, fmt.Errorf("engine: DROP TABLE inside an open transaction is not supported")
		}
		e.locks.lockAll()
		defer e.locks.unlockAll()
		return e.execDrop(st, query, ts)
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

func (e *Engine) execCreate(st *sqlparse.CreateTable, query string, ts int64) (*Result, error) {
	if e.persist != nil {
		if n := e.openTxns.Load(); n != 0 {
			return nil, fmt.Errorf("engine: DDL refused: %d open transaction(s)", n)
		}
	}
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
		PKIndex: pk,
		Tree:    btree.New(e.ts, e.pool),
	}
	e.tables[st.Table] = t
	e.tablesByID[t.ID] = t
	// DDL invalidates every cached plan: statements parsed against the
	// old catalog may now resolve differently.
	if e.plans != nil {
		e.plans.bumpEpoch()
	}
	if e.cfg.EnableBinlog {
		if err := e.binlog.Commit(binlog.Event{Timestamp: ts, Statement: query}); err != nil {
			return nil, fmt.Errorf("engine: binlog: %w", err)
		}
	}
	// The catalog is not WAL-logged; on a durable engine DDL persists by
	// checkpointing, so every later WAL record references a table the
	// checkpoint already knows. (execute holds all locks; e.mu must be
	// released for the checkpoint's own locking.)
	e.mu.Unlock()
	err := e.checkpointLocked()
	e.mu.Lock()
	if err != nil {
		return nil, fmt.Errorf("engine: DDL checkpoint: %w", err)
	}
	return &Result{}, nil
}

// execDrop removes a table from the catalog. The tree's pages are not
// scrubbed — like InnoDB, dropping is a catalog operation, and any
// in-flight MVCC reader keeps scanning the orphaned tree safely — but
// the version store's chains for the table are discarded.
func (e *Engine) execDrop(st *sqlparse.DropTable, query string, ts int64) (*Result, error) {
	if e.persist != nil {
		if n := e.openTxns.Load(); n != 0 {
			return nil, fmt.Errorf("engine: DDL refused: %d open transaction(s)", n)
		}
	}
	e.mu.Lock()
	t, ok := e.tables[st.Table]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	delete(e.tables, st.Table)
	delete(e.tablesByID, t.ID)
	if e.plans != nil {
		e.plans.bumpEpoch()
	}
	e.mu.Unlock()
	if e.versions != nil {
		e.versions.dropTable(t.ID)
	}
	e.qcache.InvalidateTable(t.Name)
	if e.cfg.EnableBinlog {
		if err := e.binlog.Commit(binlog.Event{Timestamp: ts, Statement: query}); err != nil {
			return nil, fmt.Errorf("engine: binlog: %w", err)
		}
	}
	if err := e.checkpointLocked(); err != nil {
		return nil, fmt.Errorf("engine: DDL checkpoint: %w", err)
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
	touched   bool // a row mutator succeeded: the version store holds versions by txn
}

// beginDML is the front half: read-only guard, exclusive stripe, table
// resolution. On success the caller owns the stripe.
func (e *Engine) beginDML(s *Session, verb, table string, pl *plan) (dmlStmt, error) {
	if err := s.rejectReadOnlyTxn(verb); err != nil {
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
// mutator; reaching it means the mutator succeeded.
func (d *dmlStmt) logged(_ uint64, undo wal.Record, err error) error {
	d.touched = true
	if err != nil {
		return fmt.Errorf("engine: wal: %w", err)
	}
	d.s.noteUndo(undo)
	if d.auto {
		d.undo = append(d.undo, undo)
	}
	return nil
}

// run is the back half. res.Rows is the row list — the rows to insert,
// or what the scan half matched — and mutate applies and logs one of
// them, under the table's write latch so that MVCC readers, which take
// no stripe, never observe a half-applied statement.
//
// Autocommit commits binlog-then-WAL-marker, the reverse of COMMIT
// (execTxnControl explains why marker-first is right). Pinned on
// purpose: the binlog stamps each event with the LSN current at its
// commit, so swapping the two moves every autocommit event's LSN — a
// forensic surface E3/E8 read; that change ships with its own
// experiment (ROADMAP, write-path item).
func (d *dmlStmt) run(res *Result, query string, ts int64, mutate func(row storage.Record) error) (*Result, error) {
	e, s, t := d.e, d.s, d.t
	rows := res.Rows
	res.Rows, res.RowsAffected = nil, len(rows)
	d.txn, d.auto = s.stmtTxn(e)
	if d.auto {
		d.undo = make([]wal.Record, 0, len(rows))
		// Its versions resolve when it finishes, success or not: either
		// they are the visible state or compensation superseded them.
		defer func() {
			if d.touched {
				e.commitVersions(d.txn)
			}
		}()
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
		if err := s.emitBinlog(e, binlog.Event{Timestamp: ts, Statement: query}); err != nil {
			return nil, err
		}
		if d.auto {
			if err := e.wal.LogCommit(d.txn); err != nil {
				return nil, fmt.Errorf("engine: wal commit: %w", err)
			}
		}
	}
	e.maybeStatsDrift(t)
	return res, nil
}

// compensate makes a failed statement atomic: the row changes it logged
// before cause stopped it are rolled back — an autocommit statement as
// ROLLBACK would its transaction; inside an open transaction only the
// statement, whose records leave the rollback buffer, and the
// transaction stays open. A statement that logged nothing writes
// nothing more. It returns the statement's error: cause, joined with
// the rollback's own if that failed too (a dead log sink fails both).
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
	} else if err = d.e.applyUndo(d.txn, undo); err == nil {
		tx.mu.Lock()
		tx.undo = tx.undo[:d.undoStart]
		tx.mu.Unlock()
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
// (undoRecord) looks the row up, calls the opposite one and logs that;
// redo (applyRedo) checks idempotence, calls the same one, logs nothing.
// The order of tree and index operations is the buffer-pool fetch
// trace, a forensic surface: insert tree → indexes; update indexes in
// SET order → one tree update; delete tree → indexes. Callers hold the
// table's write latch (recovery runs alone).

// insertRow adds row. The version is filed only once the tree insert
// has succeeded: a duplicate key must not leave a chain behind.
func (e *Engine) insertRow(t *Table, row storage.Record, txn uint64) error {
	if err := t.Tree.Insert(row); err != nil {
		return err
	}
	if err := indexInsertRow(t, row); err != nil {
		return err
	}
	e.noteVersion(t, row[t.PKIndex], nil, false, txn)
	t.rows.Add(1)
	t.statsNoteInsert(row)
	return nil
}

// updateRow applies sets to the row stored as old. The tree's Update
// replaces the stored record, so old stays intact for the chain.
func (e *Engine) updateRow(t *Table, old storage.Record, sets []setOp, txn uint64) error {
	pk := old[t.PKIndex]
	e.noteVersion(t, pk, old, false, txn)
	updated := old.Clone()
	for _, op := range sets {
		if err := indexUpdateColumn(t, pk, op.idx, old[op.idx], op.val); err != nil {
			return err
		}
		t.statsNoteUpdate(op.idx, op.val)
		updated[op.idx] = op.val
	}
	_, err := t.Tree.Update(pk, updated)
	return err
}

// deleteRow removes the row currently stored as old. Its image goes
// into the version chain as a tombstoned pre-image — the "deleted data
// persists" residue E16 recovers until purge drops the chain.
func (e *Engine) deleteRow(t *Table, old storage.Record, txn uint64) error {
	pk := old[t.PKIndex]
	e.noteVersion(t, pk, old, true, txn)
	if _, err := t.Tree.Delete(pk); err != nil {
		return err
	}
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
		return d.logged(e.wal.TxInsert(d.txn, d.t.ID, row))
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

// readAccess is what a SELECT holds while it runs, and the only place
// the two isolation modes differ. Under MVCC (the default) that is the
// table's read latch plus, when the table has live version chains, the
// statement's visibility filter — and no stripe, so the read sails past
// open transactions. With Config.DisableMVCC it is the table's shared
// stripe and a nil filter: the tree is the truth.
type readAccess struct {
	table  *Table
	vf     *versionFilter // nil: the tree is exactly what the statement may see
	stripe *sync.RWMutex  // locking mode only
	view   *readView      // MVCC mode: the ephemeral view to unregister, if any
}

// acquireRead resolves the table and takes the read access the engine's
// isolation mode calls for. On success the caller must release.
func (e *Engine) acquireRead(s *Session, pl *plan, name string) (readAccess, error) {
	var ra readAccess
	var err error
	if e.versions == nil {
		ra.stripe = e.locks.shared(name)
		if ra.table, err = e.planTable(pl, name); err != nil {
			ra.stripe.RUnlock()
		}
		return ra, err
	}
	if ra.table, err = e.planTable(pl, name); err != nil {
		return ra, err
	}
	ra.table.latch.RLock()
	view, ephemeral := e.selectView(s, ra.table)
	if view != nil {
		ra.vf = e.versions.filterFor(ra.table, view)
		if ephemeral {
			ra.view = view
		}
	}
	return ra, nil
}

func (ra *readAccess) release(e *Engine) {
	if ra.stripe != nil {
		ra.stripe.RUnlock()
		return
	}
	if ra.view != nil {
		e.versions.release(ra.view)
	}
	ra.table.latch.RUnlock()
}

// execSelect is the one SELECT driver: resolve the table and acquire
// read access, consult the query cache, fetch (or build) the physical
// template, run it, and package the result. The access path, predicate
// evaluation, sorting, aggregation, projection, and LIMIT all live in
// the operators (internal/engine/exec); the planning lives in
// logical.go/physical.go. The query cache holds current reads, so it is
// consulted and filled only when no version filter is in play — and
// never for EXPLAIN ANALYZE (noCache), which wants genuine counters and
// whose rendered tree is useless to cache. EXPLAIN ANALYZE also passes
// pl == nil, which plans fresh.
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
	t := ra.table
	useCache := ra.vf == nil && !noCache
	if useCache {
		if cached, ok := e.qcache.Get(query); ok {
			return &Result{Columns: selectColumns(t, st), Rows: cached, FromCache: true}, nil
		}
	}
	pp := e.physSelect(pl, t, st)
	res, err := e.runScan(s, pp, ra.vf)
	if err != nil {
		return nil, err
	}
	res.Columns = selectColumns(t, st)
	res.AccessPath = pp.path
	if useCache {
		e.qcache.Put(query, t.Name, res.Rows)
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
func (e *Engine) runScan(s *Session, pp *physicalPlan, vf *versionFilter) (*Result, error) {
	if pp.whereErr != nil {
		return nil, pp.whereErr
	}
	pi := pp.instantiate(e.fc)
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

// pkBounds extracts [lo, hi] bounds on the primary key from the WHERE
// clause if every needed bound is present.
func pkBounds(t *Table, where sqlparse.Where) (lo, hi sqlparse.Value, ok bool) {
	pkName := t.Columns[t.PKIndex].Name
	var haveLo, haveHi bool
	for _, p := range where {
		if p.Column != pkName {
			continue
		}
		switch p.Op {
		case sqlparse.OpEq:
			return p.Arg, p.Arg, true
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
	return lo, hi, haveLo && haveHi
}

func selectColumns(t *Table, st *sqlparse.Select) []string {
	out := make([]string, 0, len(st.Exprs))
	for _, ex := range st.Exprs {
		switch {
		case ex.Agg != sqlparse.AggNone:
			out = append(out, ex.SQL())
		case ex.Column == "*":
			for _, c := range t.Columns {
				out = append(out, c.Name)
			}
		default:
			out = append(out, ex.Column)
		}
	}
	return out
}

// projection maps select expressions to schema column indices,
// expanding *.
func projection(t *Table, exprs []sqlparse.SelectExpr) ([]int, error) {
	out := make([]int, 0, len(exprs))
	for _, ex := range exprs {
		if ex.Agg != sqlparse.AggNone {
			return nil, fmt.Errorf("engine: cannot mix aggregates and columns")
		}
		if ex.Column == "*" {
			for i := range t.Columns {
				out = append(out, i)
			}
			continue
		}
		idx := t.ColumnIndex(ex.Column)
		if idx < 0 {
			return nil, fmt.Errorf("engine: unknown column %q", ex.Column)
		}
		out = append(out, idx)
	}
	return out, nil
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
	pp := e.physUpdate(pl, t, st)
	res, err := e.runScan(s, pp, nil)
	if err != nil {
		return nil, err
	}
	return d.run(res, query, ts, func(old storage.Record) error {
		if err := e.updateRow(t, old, pp.sets, d.txn); err != nil {
			return err
		}
		pk := old[t.PKIndex : t.PKIndex+1]
		for _, op := range pp.sets {
			if err := d.logged(e.wal.TxUpdate(d.txn, t.ID, pk, uint8(op.idx),
				old[op.idx:op.idx+1], storage.Record{op.val})); err != nil {
				return err
			}
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
	res, err := e.runScan(s, e.physDelete(pl, d.t, st), nil)
	if err != nil {
		return nil, err
	}
	return d.run(res, query, ts, func(old storage.Record) error {
		if err := e.deleteRow(d.t, old, d.txn); err != nil {
			return err
		}
		return d.logged(e.wal.TxDelete(d.txn, d.t.ID, old))
	})
}

package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"snapdb/internal/storage"
)

func TestPlanCacheHitsOnRepeat(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 10)

	const q = "SELECT name FROM customers WHERE id = 3"
	mustExec(t, s, q)
	h0, m0, _ := e.PlanCacheStats()
	for i := 0; i < 5; i++ {
		res := mustExec(t, s, q)
		if len(res.Rows) != 1 || res.Rows[0][0].Str != "name3" {
			t.Fatalf("iteration %d: rows = %v", i, res.Rows)
		}
	}
	h1, m1, entries := e.PlanCacheStats()
	if h1-h0 != 5 {
		t.Errorf("hits = %d, want 5 (stats %d/%d -> %d/%d)", h1-h0, h0, m0, h1, m1)
	}
	if m1 != m0 {
		t.Errorf("repeat executions missed the cache: misses %d -> %d", m0, m1)
	}
	if entries == 0 {
		t.Error("cache reports no entries")
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	cfg := Defaults()
	cfg.DisablePlanCache = true
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 10)

	for i := 0; i < 3; i++ {
		mustExec(t, s, "SELECT name FROM customers WHERE id = 3")
	}
	if h, m, entries := e.PlanCacheStats(); h != 0 || m != 0 || entries != 0 {
		t.Errorf("disabled cache has activity: hits=%d misses=%d entries=%d", h, m, entries)
	}
}

// TestPlanCacheDDLInvalidation checks that DDL bumps the catalog epoch
// and that a statement planned before the DDL is re-planned after it —
// observable through the access path: a SELECT cached as a full scan
// must pick up an index created later.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	cfg := Defaults()
	cfg.EnableQueryCache = false // observe real access paths, not cached results
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 50)

	const q = "SELECT name FROM customers WHERE age = 25"
	if res := mustExec(t, s, q); res.AccessPath != "full-scan" {
		t.Fatalf("pre-index access path = %q", res.AccessPath)
	}
	mustExec(t, s, q) // cached now

	epochBefore := e.CatalogEpoch()
	mustExec(t, s, "CREATE INDEX idx_age ON customers (age)")
	if got := e.CatalogEpoch(); got != epochBefore+1 {
		t.Errorf("CREATE INDEX moved epoch %d -> %d, want +1", epochBefore, got)
	}
	if res := mustExec(t, s, q); res.AccessPath != "index:idx_age" {
		t.Errorf("post-index access path = %q, want index:idx_age (stale plan reused?)", res.AccessPath)
	}

	epochBefore = e.CatalogEpoch()
	mustExec(t, s, "CREATE TABLE fresh (id INT PRIMARY KEY)")
	if got := e.CatalogEpoch(); got != epochBefore+1 {
		t.Errorf("CREATE TABLE moved epoch %d -> %d, want +1", epochBefore, got)
	}
}

// TestPlanDoesNotOutliveItsTable lands DROP TABLE + CREATE TABLE between
// a statement's planning and its execution — the window a second
// session has before the statement takes its lock. The statement must
// run against the table the catalog now names, not the orphaned tree
// its plan was bound to: an acknowledged write into the orphan is lost,
// and the binlog, which replays it after the CREATE, says otherwise.
func TestPlanDoesNotOutliveItsTable(t *testing.T) {
	const schema = "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"
	ids := func(res *Result) string {
		var got []int64
		for _, r := range res.Rows {
			got = append(got, r[0].Int)
		}
		return fmt.Sprint(got)
	}
	for _, arm := range []struct {
		name string
		cfg  func(*Config)
	}{
		{"mvcc", func(*Config) {}},
		{"locking", func(c *Config) { c.DisableMVCC = true }},
		{"no-plan-cache", func(c *Config) { c.DisablePlanCache = true }},
	} {
		for _, tc := range []struct {
			stmt     string
			affected int
			after    string // ids in the re-created table once stmt has run
		}{
			{"INSERT INTO t (id, v) VALUES (2, 'b')", 1, "[2 7]"},
			{"UPDATE t SET v = 'x' WHERE id = 7", 1, "[7]"},
			{"DELETE FROM t WHERE id = 7", 1, "[]"},
			{"SELECT id FROM t", 0, "[7]"},
		} {
			t.Run(arm.name+"/"+tc.stmt[:6], func(t *testing.T) {
				cfg := Defaults()
				arm.cfg(&cfg)
				e, _ := newEngine(t, cfg)
				s, ddl := e.Connect("app"), e.Connect("ddl")
				defer s.Close()
				defer ddl.Close()
				mustExec(t, s, schema)
				mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'a')")

				res, err := s.executeWith(tc.stmt, func(e *Engine, s *Session, q string, pl *plan, parseErr error, ts int64) (*Result, error) {
					mustExec(t, ddl, "DROP TABLE t")
					mustExec(t, ddl, schema)
					mustExec(t, ddl, "INSERT INTO t (id, v) VALUES (7, 'new')")
					return e.execute(s, q, pl, parseErr, ts)
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.RowsAffected != tc.affected {
					t.Errorf("RowsAffected = %d, want %d", res.RowsAffected, tc.affected)
				}
				if tc.affected == 0 && ids(res) != tc.after {
					t.Errorf("SELECT returned ids %s, want %s (the orphaned tree's rows?)", ids(res), tc.after)
				}
				if got := ids(mustExec(t, ddl, "SELECT id FROM t")); got != tc.after {
					t.Errorf("ids in t afterwards = %s, want %s", got, tc.after)
				}
				if tc.stmt[0] == 'U' {
					if res := mustExec(t, ddl, "SELECT v FROM t WHERE id = 7"); len(res.Rows) != 1 || res.Rows[0][0].Str != "x" {
						t.Errorf("updated row reads back %v, want x", res.Rows)
					}
				}
			})
		}
	}
}

// TestPlanCacheUnknownTableThenCreate pins the miss-path equivalence:
// a statement that failed to resolve ("unknown table") must succeed
// after the table appears, not replay its cached failure.
func TestPlanCacheUnknownTableThenCreate(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()

	const q = "SELECT id FROM later"
	if _, err := s.Execute(q); err == nil {
		t.Fatal("SELECT from missing table succeeded")
	}
	mustExec(t, s, "CREATE TABLE later (id INT PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO later (id) VALUES (1)")
	if res := mustExec(t, s, q); len(res.Rows) != 1 {
		t.Errorf("post-create SELECT rows = %v", res.Rows)
	}
}

// TestPlanCacheConcurrentHitInvalidate races cached SELECT traffic
// against DDL-driven invalidation; run under -race this checks the
// epoch/LRU synchronization, and the access-path assertion checks no
// goroutine keeps a plan from before its table's index existed forever.
func TestPlanCacheConcurrentHitInvalidate(t *testing.T) {
	cfg := Defaults()
	cfg.EnableQueryCache = false // observe real access paths, not cached results
	e, _ := newEngine(t, cfg)
	setup := e.Connect("setup")
	setupCustomers(t, setup, 50)
	for i := 0; i < 4; i++ {
		mustExec(t, setup, fmt.Sprintf("CREATE TABLE side%d (id INT PRIMARY KEY, v INT)", i))
	}
	setup.Close()

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := e.Connect(fmt.Sprintf("reader%d", r))
			defer s.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := fmt.Sprintf("SELECT name FROM customers WHERE age = %d", 20+i%50)
				if _, err := s.Execute(q); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	ddlDone := make(chan struct{})
	go func() {
		defer close(ddlDone)
		s := e.Connect("ddl")
		defer s.Close()
		for i := 0; i < 4; i++ {
			if _, err := s.Execute(fmt.Sprintf("CREATE INDEX idx_side%d ON side%d (v)", i, i)); err != nil {
				errs <- fmt.Errorf("ddl %d: %w", i, err)
				return
			}
		}
		if _, err := s.Execute("CREATE INDEX idx_cage ON customers (age)"); err != nil {
			errs <- fmt.Errorf("ddl customers: %w", err)
		}
	}()
	<-ddlDone
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// After the dust settles the cached full-scan plan must be gone.
	check := e.Connect("check")
	defer check.Close()
	if res := mustExec(t, check, "SELECT name FROM customers WHERE age = 25"); res.AccessPath != "index:idx_cage" {
		t.Errorf("post-race access path = %q, want index:idx_cage", res.AccessPath)
	}
}

// forensicState captures every statement-visible artifact surface the
// leakage-equivalence property covers.
type forensicState struct {
	general    []string
	binlog     []string
	digests    []string
	history    []string
	current    []string
	stages     []string
	arena      []byte
	statements uint64
}

func captureForensics(e *Engine) forensicState {
	var fs forensicState
	for _, ev := range e.PerfSchema().StagesHistory() {
		fs.stages = append(fs.stages, fmt.Sprintf("%d|%d|%s|%d|%d|%s|%d|%d|%d",
			ev.Thread, ev.Timestamp, ev.Digest, ev.Seq, ev.Depth, ev.Operator,
			ev.RowsExamined, ev.RowsReturned, ev.PoolFetches))
	}
	for _, en := range e.GeneralLog().Entries() {
		fs.general = append(fs.general, fmt.Sprintf("%d|%d|%s", en.Timestamp, en.Session, en.Statement))
	}
	for _, ev := range e.Binlog().Events() {
		fs.binlog = append(fs.binlog, fmt.Sprintf("%d|%d|%s", ev.Timestamp, ev.LSN, ev.Statement))
	}
	for _, row := range e.PerfSchema().DigestSummary() {
		fs.digests = append(fs.digests, fmt.Sprintf("%s|%s|%d|%d|%d|%d|%d",
			row.Digest, row.DigestText, row.Count, row.SumRowsExamined, row.SumRowsReturned,
			row.FirstSeen, row.LastSeen))
	}
	for _, ev := range e.PerfSchema().History() {
		fs.history = append(fs.history, fmt.Sprintf("%d|%d|%s|%s|%s|%d|%d",
			ev.Thread, ev.Timestamp, ev.Statement, ev.Digest, ev.DigestText,
			ev.RowsExamined, ev.RowsReturned))
	}
	for _, ev := range e.PerfSchema().Current() {
		fs.current = append(fs.current, fmt.Sprintf("%d|%d|%s|%s|%s",
			ev.Thread, ev.Timestamp, ev.Statement, ev.Digest, ev.DigestText))
	}
	fs.arena = e.Arena().Dump()
	fs.statements = e.Statements()
	return fs
}

// surface names one group of observable state a differential compares.
// A differential passes diffRuns the surfaces its arms are allowed to
// move; everything else must match byte for byte.
type surface uint

const (
	surfOutcomes surface = 1 << iota // per-statement results and errors
	surfFetches                      // buffer-pool fetch sequence, hit/miss counts, LRU order, hot pages
	surfLogs                         // general log, binlog
	surfPerf                         // digest summary, statement history/current, statement counter
	surfStages                       // events_stages_history
	surfArena                        // heap arena image
)

// runState is everything one arm of a differential leaves behind.
type runState struct {
	outcomes     []string
	trace        []storage.PageID
	lru          []storage.PageID
	hot          string
	hits, misses uint64
	fs           forensicState
	// operators is every operator description any statement's stage
	// events carried — the history ring in fs.stages keeps only the
	// last few statements.
	operators map[string]bool
}

// captureRun replays workload on a fresh engine built from cfg, with a
// deterministic clock ticking once per statement, and snapshots every
// surface. An entry prefixed "N|" runs on session N (default 0); fn
// substitutes the execution back half (nil = production). Statement
// errors are outcomes, not failures.
func captureRun(t *testing.T, cfg Config, workload []string, fn execFn) runState {
	t.Helper()
	if fn == nil {
		fn = (*Engine).execute
	}
	e, now := newEngine(t, cfg)
	rs := runState{operators: make(map[string]bool)}
	e.BufferPool().SetTraceFunc(func(id storage.PageID) { rs.trace = append(rs.trace, id) })
	var sessions []*Session
	for _, q := range workload {
		n := 0
		if len(q) > 1 && q[1] == '|' && q[0] >= '0' && q[0] <= '9' {
			n, q = int(q[0]-'0'), q[2:]
		}
		for len(sessions) <= n {
			s := e.Connect("diff")
			defer s.Close()
			sessions = append(sessions, s)
		}
		*now++
		res, err := sessions[n].executeWith(q, fn)
		rs.outcomes = append(rs.outcomes, renderResult(res, err))
		if res != nil {
			for _, ev := range res.stages {
				rs.operators[ev.Operator] = true
			}
		}
	}
	rs.fs = captureForensics(e)
	rs.lru = e.BufferPool().LRUOrder()
	rs.hot = fmt.Sprint(e.BufferPool().HotPages())
	rs.hits, rs.misses, _ = e.BufferPool().Stats()
	return rs
}

// diffRuns fails t for every surface outside moved on which the two
// arms (named for the messages) differ.
func diffRuns(t *testing.T, workload []string, aName, bName string, a, b runState, moved surface) {
	t.Helper()
	if moved&surfOutcomes == 0 {
		if len(a.outcomes) != len(b.outcomes) {
			t.Fatalf("outcome count mismatch: %s %d vs %s %d", aName, len(a.outcomes), bName, len(b.outcomes))
		}
		for i := range a.outcomes {
			if a.outcomes[i] != b.outcomes[i] {
				t.Errorf("statement %d %q:\n%s: %s\n%s: %s", i, workload[i], aName, a.outcomes[i], bName, b.outcomes[i])
			}
		}
	}
	if moved&surfFetches == 0 {
		if !reflect.DeepEqual(a.trace, b.trace) {
			at := 0
			for at < len(a.trace) && at < len(b.trace) && a.trace[at] == b.trace[at] {
				at++
			}
			t.Errorf("buffer-pool fetch sequence diverges at fetch %d (%s %d fetches, %s %d)",
				at, aName, len(a.trace), bName, len(b.trace))
		}
		if a.hits != b.hits || a.misses != b.misses {
			t.Errorf("buffer-pool stats differ: %s hits=%d misses=%d, %s hits=%d misses=%d",
				aName, a.hits, a.misses, bName, b.hits, b.misses)
		}
		if !reflect.DeepEqual(a.lru, b.lru) {
			t.Errorf("buffer-pool LRU order differs between %s and %s", aName, bName)
		}
		if a.hot != b.hot {
			t.Errorf("buffer-pool hot-page profile differs:\n%s: %s\n%s: %s", aName, a.hot, bName, b.hot)
		}
	}
	lists := []struct {
		name string
		in   surface
		a, b []string
	}{
		{"general log", surfLogs, a.fs.general, b.fs.general},
		{"binlog", surfLogs, a.fs.binlog, b.fs.binlog},
		{"digest summary", surfPerf, a.fs.digests, b.fs.digests},
		{"statement history", surfPerf, a.fs.history, b.fs.history},
		{"statements current", surfPerf, a.fs.current, b.fs.current},
		{"stages history", surfStages, a.fs.stages, b.fs.stages},
	}
	for _, l := range lists {
		if moved&l.in == 0 && !reflect.DeepEqual(l.a, l.b) {
			t.Errorf("%s differs between %s and %s (%d vs %d entries)", l.name, aName, bName, len(l.a), len(l.b))
		}
	}
	if moved&surfPerf == 0 && a.fs.statements != b.fs.statements {
		t.Errorf("statement counters differ: %s %d vs %s %d", aName, a.fs.statements, bName, b.fs.statements)
	}
	if moved&surfArena == 0 && !bytes.Equal(a.fs.arena, b.fs.arena) {
		t.Errorf("heap arena images differ: %s %d bytes vs %s %d", aName, len(a.fs.arena), bName, len(b.fs.arena))
	}
}

// TestPlanCacheLeakageEquivalence is the tested property the plan
// cache is built around: a cache hit skips parsing, but every forensic
// artifact — general log, binlog, perfschema statement events and
// digest histogram, and the heap arena's byte image — must be
// identical to an engine executing the same workload with the cache
// off. If the cache ever short-circuits an artifact write, the paper's
// experiments would silently under-report leakage.
func TestPlanCacheLeakageEquivalence(t *testing.T) {
	workload := []string{
		"CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)",
		"INSERT INTO accounts (id, owner, balance) VALUES (1, 'alice', 100)",
		"INSERT INTO accounts (id, owner, balance) VALUES (2, 'bob', 250)",
		"SELECT owner FROM accounts WHERE id = 1",
		"SELECT owner FROM accounts WHERE id = 1", // cache hit
		"SELECT owner FROM accounts WHERE id = 2", // same digest, different literal
		"SELECT * FROM missing",                   // resolution error, repeated
		"SELECT * FROM missing",
		"THIS IS NOT SQL", // parse error, repeated
		"THIS IS NOT SQL",
		"UPDATE accounts SET balance = 175 WHERE id = 1",
		"UPDATE accounts SET balance = 175 WHERE id = 1", // hit on DML
		"BEGIN",
		"INSERT INTO accounts (id, owner, balance) VALUES (3, 'carol', 50)",
		"ROLLBACK",
		"CREATE INDEX idx_owner ON accounts (owner)", // DDL: invalidates
		"SELECT id FROM accounts WHERE owner = 'bob'",
		"SELECT id FROM accounts WHERE owner = 'bob'",
		"DELETE FROM accounts WHERE id = 2",
		"SELECT COUNT(*) FROM accounts",
		"ANALYZE TABLE accounts",                      // statistics rebuild: bumps the plan epoch
		"SELECT id FROM accounts WHERE owner = 'bob'", // re-planned against fresh statistics
		"SELECT id FROM accounts WHERE owner = 'bob'", // hit on the re-costed plan
		"ANALYZE TABLE missing",                       // error path, repeated
		"ANALYZE TABLE missing",
		"SELECT owner FROM accounts ORDER BY balance DESC LIMIT 1",
		"SELECT owner FROM accounts ORDER BY balance DESC LIMIT 1", // hit on ORDER BY/LIMIT
		"SELECT SUM(balance) FROM accounts WHERE id >= 1 AND id <= 3",
		"SELECT owner FROM accounts ORDER BY balance LIMIT 0", // LIMIT 0: real, empty limit
		"SELECT owner FROM accounts ORDER BY balance LIMIT 0",
		"SELECT id FROM accounts WHERE owner >= 'a' AND owner <= 'z' ORDER BY owner DESC", // index-order DESC
		"SELECT id FROM accounts WHERE owner >= 'a' AND owner <= 'z' ORDER BY owner DESC",
		"EXPLAIN SELECT id FROM accounts WHERE owner = 'alice'",
		"EXPLAIN SELECT id FROM accounts WHERE owner = 'alice'", // hit on EXPLAIN
		"EXPLAIN ANALYZE SELECT owner FROM accounts ORDER BY balance DESC LIMIT 1",
		"EXPLAIN ANALYZE SELECT owner FROM accounts ORDER BY balance DESC LIMIT 1", // hit on EXPLAIN ANALYZE
	}

	cfg := Defaults()
	cfg.EnableGeneralLog = true
	withCache := captureRun(t, cfg, workload, nil)
	cfg.DisablePlanCache = true
	without := captureRun(t, cfg, workload, nil)
	diffRuns(t, workload, "plancache-on", "plancache-off", withCache, without, 0)
}

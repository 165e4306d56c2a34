package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
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
	mustExec(t, s, q) // first sighting: the doorkeeper records it
	h0, m0, n0 := e.PlanCacheStats()
	mustExec(t, s, q) // second sighting: the admitting miss
	h1, m1, n1 := e.PlanCacheStats()
	if h1 != h0 || m1 != m0+1 || n1 != n0+1 {
		t.Errorf("first repeat: hits %d -> %d, misses %d -> %d, entries %d -> %d; want a miss that caches",
			h0, h1, m0, m1, n0, n1)
	}
	for i := 0; i < 5; i++ {
		res := mustExec(t, s, q)
		if len(res.Rows) != 1 || res.Rows[0][0].Str != "name3" {
			t.Fatalf("iteration %d: rows = %v", i, res.Rows)
		}
	}
	h2, m2, entries := e.PlanCacheStats()
	if h2-h1 != 5 {
		t.Errorf("hits = %d, want 5 (stats %d/%d -> %d/%d)", h2-h1, h1, m1, h2, m2)
	}
	if m2 != m1 {
		t.Errorf("repeat executions missed the cache: misses %d -> %d", m1, m2)
	}
	if entries == 0 {
		t.Error("cache reports no entries")
	}
}

// doorCollision returns a statement of the form format (one %d) whose
// text is not base but lands in base's doorkeeper slot.
func doorCollision(t *testing.T, base, format string) string {
	t.Helper()
	want := planHash(base) % (planShards * doorSlots)
	for i := 0; i < 1<<20; i++ {
		q := fmt.Sprintf(format, i)
		if q != base && planHash(q)%(planShards*doorSlots) == want {
			return q
		}
	}
	t.Fatalf("no text of the form %q shares a doorkeeper slot with %q", format, base)
	return ""
}

// TestPlanCacheAdmitsOnSecondSighting: a text's first execution misses
// and caches nothing, its second misses and caches, and the third and
// later hit. A text whose doorkeeper slot another text took between
// its sightings starts over.
func TestPlanCacheAdmitsOnSecondSighting(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 10)

	const q = "SELECT name FROM customers WHERE id = 4"
	other := doorCollision(t, q, "SELECT name FROM customers WHERE id = %d")
	sighting := func(stmt, what string, hit, cached bool) {
		t.Helper()
		h0, m0, n0 := e.PlanCacheStats()
		mustExec(t, s, stmt)
		h1, m1, n1 := e.PlanCacheStats()
		wantH, wantM, wantN := h0, m0+1, n0
		if hit {
			wantH, wantM = h0+1, m0
		} else if cached {
			wantN++
		}
		if h1 != wantH || m1 != wantM || n1 != wantN {
			t.Errorf("%s %q: hits %d -> %d, misses %d -> %d, entries %d -> %d; want hits %d, misses %d, entries %d",
				what, stmt, h0, h1, m0, m1, n0, n1, wantH, wantM, wantN)
		}
	}
	sighting(q, "1st sighting of", false, false)
	sighting(q, "2nd sighting of", false, true)
	sighting(q, "3rd sighting of", true, false)
	sighting(q, "4th sighting of", true, false)

	e.plans.clear()
	sighting(q, "1st sighting of", false, false)
	sighting(other, "a text in the same slot,", false, false)
	sighting(q, "2nd sighting, slot taken, of", false, false)
	sighting(q, "3rd sighting of", false, true)
	sighting(q, "4th sighting of", true, false)
}

// TestLoadInsertsAreNotCached: a bulk load is one distinct multi-row
// INSERT after another, none seen twice, so the cache holds none of
// them (it used to keep every one, AST and text, until evicted).
func TestLoadInsertsAreNotCached(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("loader")
	defer s.Close()
	mustExec(t, s, "CREATE TABLE s0 (id INT PRIMARY KEY, k INT, v TEXT)")
	texts := loadInserts()
	for _, q := range texts {
		mustExec(t, s, q)
	}
	if _, _, entries := e.PlanCacheStats(); entries != 0 {
		t.Errorf("plan cache holds %d entries after %d distinct load INSERTs, want 0", entries, len(texts))
	}
}

// loadInserts is 1 600 distinct 50-row load INSERTs into s0.
func loadInserts() []string {
	const statements, rows = 1600, 50
	var sb strings.Builder
	var out []string
	for n := 0; n < statements; n++ {
		sb.Reset()
		sb.WriteString("INSERT INTO s0 (id, k, v) VALUES ")
		for id := n * rows; id < (n+1)*rows; id++ {
			if id > n*rows {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, 'row-%06d')", id, id%10, id)
		}
		out = append(out, sb.String())
	}
	return out
}

// TestPlanHashSpreadsLoadInserts: texts that differ only in their
// digits spread over every shard, none holding twice its share. Plain
// FNV-1a put the 1 600 load INSERTs in 4 of the 16 shards.
func TestPlanHashSpreadsLoadInserts(t *testing.T) {
	texts := loadInserts()
	var perShard [planShards]int
	for _, q := range texts {
		perShard[planHash(q)%planShards]++
	}
	for i, n := range perShard {
		if n == 0 || n > 2*len(texts)/planShards {
			t.Fatalf("shard %d holds %d of %d texts; per shard: %v", i, n, len(texts), perShard)
		}
	}
}

// TestOneOffsKeepRepeatersCached: 10 000 distinct writes interleaved
// with one hot SELECT leave the cache holding the SELECT alone, and the
// SELECT hits on every execution once admitted.
func TestOneOffsKeepRepeatersCached(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 10)

	const hot = "SELECT name FROM customers WHERE id = 7"
	mustExec(t, s, hot)
	mustExec(t, s, hot)
	for i := 0; i < 10000; i++ {
		mustExec(t, s, fmt.Sprintf("UPDATE customers SET age = %d WHERE id = %d", 20+i, i%10))
		h0, _, _ := e.PlanCacheStats()
		if res := mustExec(t, s, hot); len(res.Rows) != 1 || res.Rows[0][0].Str != "name7" {
			t.Fatalf("hot SELECT %d: rows = %v", i, res.Rows)
		}
		if h1, _, _ := e.PlanCacheStats(); h1 != h0+1 {
			t.Fatalf("hot SELECT %d missed the cache", i)
		}
	}
	if n := e.plans.Len(); n != 1 {
		t.Errorf("plan cache holds %d entries, want 1 (the hot SELECT)", n)
	}
}

// TestPlanCacheConcurrentSessions: four sessions share some texts,
// repeat texts of their own and run one-offs, so doorkeeper slots are
// read and overwritten concurrently; every result must be right. Run
// under -race it checks the doorkeeper is shard state like the rest.
func TestPlanCacheConcurrentSessions(t *testing.T) {
	cfg := Defaults()
	cfg.EnableQueryCache = false // every read goes through its plan
	e, _ := newEngine(t, cfg)
	setup := e.Connect("setup")
	mustExec(t, setup, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for id := 0; id < 20; id++ {
		mustExec(t, setup, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", id, id*10))
	}
	setup.Close()

	const sessions, rounds = 4, 300
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for n := 0; n < sessions; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			s := e.Connect(fmt.Sprintf("s%d", n))
			defer s.Close()
			own := 16 + n // a row no other session writes
			read := func(q string, want int64) error {
				res, err := s.Execute(q)
				if err != nil {
					return fmt.Errorf("session %d: %q: %w", n, q, err)
				}
				if len(res.Rows) != 1 || res.Rows[0][0].Int != want {
					return fmt.Errorf("session %d: %q = %v, want %d", n, q, res.Rows, want)
				}
				return nil
			}
			for i := 0; i < rounds; i++ {
				shared := i % 16 // rows nobody writes, read by every session
				if err := read(fmt.Sprintf("SELECT v FROM t WHERE id = %d", shared), int64(shared*10)); err != nil {
					errs <- err
					return
				}
				v := int64(1000*n + i)
				if _, err := s.Execute(fmt.Sprintf("UPDATE t SET v = %d WHERE id = %d", v, own)); err != nil {
					errs <- fmt.Errorf("session %d: %w", n, err)
					return
				}
				if err := read(fmt.Sprintf("SELECT v FROM t WHERE id = %d", own), v); err != nil {
					errs <- err
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if h, _, _ := e.PlanCacheStats(); h == 0 {
		t.Error("no statement hit the plan cache")
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
		t.Run("mvcc/"+tc.stmt[:6], func(t *testing.T) {
			e, _ := newEngine(t, Defaults())
			s, ddl := e.Connect("app"), e.Connect("ddl")
			defer s.Close()
			defer ddl.Close()
			mustExec(t, s, schema)
			mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'a')")

			// Plan the statement, land the DDL, then run the plan.
			pl, _, parseErr := e.planFor(tc.stmt)
			mustExec(t, ddl, "DROP TABLE t")
			mustExec(t, ddl, schema)
			mustExec(t, ddl, "INSERT INTO t (id, v) VALUES (7, 'new')")
			res, err := e.execute(s, tc.stmt, pl, parseErr, e.Clock())
			if err == nil {
				err = s.sync() // what Execute does after execute
			}
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

// TestMalformedStatementDigests pins what events_statements_history
// records for statements that fail before execution: the digest of a
// parse error comes from the same lex pass as the parse, and input that
// fails to lex keeps the collapsed-whitespace text. The values were
// computed when the failed statement was still lexed a second time for
// its digest.
func TestMalformedStatementDigests(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	cases := []struct{ query, digest, text string }{
		{"SELECT  *  FROM t WHERE junk # $ %", "a1b4d7ce2d58693458251001a44d432c", "SELECT * FROM t WHERE junk # $ %"},
		{"SELECT * FROM t WHERE a ==", "d6d730dc6f95711b783b89e94a6cacbd", "SELECT * FROM t WHERE a = ="},
		{"SELECT * FROM t extra garbage", "c3c984a30cd2943946dfeaa52acf3eba", "SELECT * FROM t extra garbage"},
	}
	for _, c := range cases {
		if _, err := s.Execute(c.query); err == nil {
			t.Fatalf("Execute(%q) succeeded", c.query)
		}
	}
	hist := e.perf.History()
	if len(hist) != len(cases) {
		t.Fatalf("history holds %d statements, want %d", len(hist), len(cases))
	}
	for i, c := range cases {
		if ev := hist[i]; ev.Statement != c.query || ev.Digest != c.digest || ev.DigestText != c.text {
			t.Errorf("history[%d] = %q digest %s %q, want %q digest %s %q",
				i, ev.Statement, ev.Digest, ev.DigestText, c.query, c.digest, c.text)
		}
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

func captureForensics(t testing.TB, e *Engine) forensicState {
	var fs forensicState
	for _, ev := range e.PerfSchema().StagesHistory() {
		fs.stages = append(fs.stages, fmt.Sprintf("%d|%d|%s|%d|%d|%s|%d|%d|%d",
			ev.Thread, ev.Timestamp, ev.Digest, ev.Seq, ev.Depth, ev.Operator,
			ev.RowsExamined, ev.RowsReturned, ev.PoolFetches))
	}
	for _, en := range e.GeneralLog().Entries() {
		fs.general = append(fs.general, fmt.Sprintf("%d|%d|%s", en.Timestamp, en.Session, en.Statement))
	}
	_, _, evs := durableLogs(t, e)
	for _, ev := range evs {
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
	planHits     uint64
	fs           forensicState
	// operators is every operator description any statement's stage
	// events carried — the history ring in fs.stages keeps only the
	// last few statements.
	operators map[string]bool
}

// runOpt selects how captureRun drives one arm.
type runOpt uint

const (
	// coldPlans empties the plan cache after every statement, so the
	// next one parses and binds afresh: what a cache hit must be
	// indistinguishable from.
	coldPlans runOpt = 1 << iota
	// checked holds every statement to the SQL model (model_test.go) as
	// it runs, and its fetches to the trace rule.
	checked
)

// captureRun replays workload on a fresh engine built from cfg, with a
// deterministic clock ticking once per statement, and snapshots every
// surface. An entry prefixed "N|" runs on session N (default 0).
// Statement errors are outcomes, not failures.
func captureRun(t testing.TB, cfg Config, workload []string, opts runOpt) runState {
	t.Helper()
	e, now := newEngine(t, cfg)
	m := newSQLModel(cfg)
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
		var x expectation
		if opts&checked != 0 {
			x = m.expect(t, e, n, q)
		}
		*now++
		before := len(rs.trace)
		res, err := sessions[n].Execute(q)
		if opts&coldPlans != 0 {
			e.plans.clear()
		}
		if opts&checked != 0 {
			x.check(t, res, err, rs.trace[before:])
		}
		rs.outcomes = append(rs.outcomes, renderResult(res, err))
		if res != nil {
			for _, ev := range res.stages {
				rs.operators[ev.Operator] = true
			}
		}
	}
	rs.fs = captureForensics(t, e)
	rs.lru = e.BufferPool().LRUOrder()
	rs.hot = fmt.Sprint(e.BufferPool().HotPages())
	rs.hits, rs.misses, _ = e.BufferPool().Stats()
	rs.planHits, _, _ = e.PlanCacheStats()
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
// emptied before every statement. If the cache ever short-circuits an
// artifact write, the paper's experiments would silently under-report
// leakage. The workload holds every admission state: texts seen once
// (recorded by the doorkeeper only), twice (the admitting miss), three
// times and more (hits), and a text whose doorkeeper slot another text
// takes between its sightings.
func TestPlanCacheLeakageEquivalence(t *testing.T) {
	const (
		slotOwner = "SELECT balance FROM accounts WHERE id = 1"
		collider  = "SELECT balance FROM accounts WHERE id = %d"
	)
	workload := []string{
		"CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)",
		"INSERT INTO accounts (id, owner, balance) VALUES (1, 'alice', 100)",
		"INSERT INTO accounts (id, owner, balance) VALUES (2, 'bob', 250)",
		"SELECT owner FROM accounts WHERE id = 1",
		"SELECT owner FROM accounts WHERE id = 1", // admitted on its second sighting
		"SELECT owner FROM accounts WHERE id = 1", // cache hit
		"SELECT owner FROM accounts WHERE id = 2", // same digest, different literal, seen once
		slotOwner,
		doorCollision(t, slotOwner, collider), // takes slotOwner's doorkeeper slot
		slotOwner,                             // a second sighting the doorkeeper forgot: not admitted
		slotOwner,                             // admitted
		slotOwner,                             // hit
		"SELECT * FROM missing",               // resolution error, repeated
		"SELECT * FROM missing",
		"SELECT * FROM missing", // hit: an unbound plan is cached too
		"THIS IS NOT SQL",       // parse error, repeated
		"THIS IS NOT SQL",
		"THIS IS NOT SQL",
		"UPDATE accounts SET balance = 175 WHERE id = 1",
		"UPDATE accounts SET balance = 175 WHERE id = 1",
		"UPDATE accounts SET balance = 175 WHERE id = 1", // hit on DML
		"BEGIN",
		"INSERT INTO accounts (id, owner, balance) VALUES (3, 'carol', 50)",
		"ROLLBACK",
		"SELECT id FROM accounts WHERE owner = 'bob'",
		"SELECT id FROM accounts WHERE owner = 'bob'",
		"CREATE INDEX idx_owner ON accounts (owner)",  // DDL: invalidates
		"SELECT id FROM accounts WHERE owner = 'bob'", // stale entry: re-planned and re-admitted
		"SELECT id FROM accounts WHERE owner = 'bob'", // hit
		"DELETE FROM accounts WHERE id = 2",
		"SELECT COUNT(*) FROM accounts",
		"ANALYZE TABLE accounts",                      // statistics rebuild: bumps the plan epoch
		"SELECT id FROM accounts WHERE owner = 'bob'", // re-planned against fresh statistics
		"SELECT id FROM accounts WHERE owner = 'bob'", // hit on the re-costed plan
		"ANALYZE TABLE missing",                       // error path, repeated
		"ANALYZE TABLE missing",
		"SELECT owner FROM accounts ORDER BY balance DESC LIMIT 1",
		"SELECT owner FROM accounts ORDER BY balance DESC LIMIT 1",
		"SELECT owner FROM accounts ORDER BY balance DESC LIMIT 1", // hit on ORDER BY/LIMIT
		"SELECT SUM(balance) FROM accounts WHERE id >= 1 AND id <= 3",
		"SELECT owner FROM accounts ORDER BY balance LIMIT 0", // LIMIT 0: real, empty limit
		"SELECT owner FROM accounts ORDER BY balance LIMIT 0",
		"SELECT owner FROM accounts ORDER BY balance LIMIT 0",                             // hit
		"SELECT id FROM accounts WHERE owner >= 'a' AND owner <= 'z' ORDER BY owner DESC", // index-order DESC
		"SELECT id FROM accounts WHERE owner >= 'a' AND owner <= 'z' ORDER BY owner DESC",
		"SELECT id FROM accounts WHERE owner >= 'a' AND owner <= 'z' ORDER BY owner DESC", // hit
		"EXPLAIN SELECT id FROM accounts WHERE owner = 'alice'",
		"EXPLAIN SELECT id FROM accounts WHERE owner = 'alice'",
		"EXPLAIN SELECT id FROM accounts WHERE owner = 'alice'", // hit on EXPLAIN
		"EXPLAIN ANALYZE SELECT owner FROM accounts ORDER BY balance DESC LIMIT 1",
		"EXPLAIN ANALYZE SELECT owner FROM accounts ORDER BY balance DESC LIMIT 1",
		"EXPLAIN ANALYZE SELECT owner FROM accounts ORDER BY balance DESC LIMIT 1", // hit on EXPLAIN ANALYZE
	}

	cfg := Defaults()
	cfg.EnableGeneralLog = true
	withCache := captureRun(t, cfg, workload, 0)
	cold := captureRun(t, cfg, workload, coldPlans)
	diffRuns(t, workload, "plancache-on", "plancache-cold", withCache, cold, 0)
	// The warm arm hits on exactly the statements marked "hit".
	if withCache.planHits != 11 || cold.planHits != 0 {
		t.Errorf("plan-cache hits: warm %d, cold %d; want 11 and 0", withCache.planHits, cold.planHits)
	}
}

// clear empties the cache and its doorkeepers.
func (c *planCache) clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		clear(sh.m)
		sh.ll.Init()
		sh.door = [doorSlots]uint64{}
		sh.mu.Unlock()
	}
}

// BenchmarkPlanFor measures the statement pipeline's front half on
// three statement shapes: a write_crypt-shaped UPDATE with a fresh
// literal every time (a one-off), a 50-row load INSERT (also one-off),
// and a point SELECT that repeats (a hit). The one-off arms write the
// iteration number into their text, which costs each of them the one
// allocation a statement read off the wire makes anyway.
func BenchmarkPlanFor(b *testing.B) {
	var load strings.Builder
	load.WriteString("INSERT INTO w0 (id, k, v) VALUES ")
	for id := 0; id < 50; id++ {
		if id > 0 {
			load.WriteString(", ")
		}
		fmt.Fprintf(&load, "(%08d, %d, '%08x-row-00-%06d-0123456789abcdef01')", id, id%10, id*2654435761, id)
	}
	for _, arm := range []struct {
		name, text string
		oneOff     bool // the text's first "00000000" takes the iteration number
	}{
		{"oneoff-update", "UPDATE w2 SET v = 'upd-1-00000000-02-001234-xxxxxxxxxxxxxxxxxxxxxxxx' WHERE id = 1234", true},
		{"load-insert", load.String(), true},
		{"repeat-point", "SELECT v FROM w0 WHERE id = 42", false},
	} {
		b.Run(arm.name, func(b *testing.B) {
			e, _ := newEngine(b, Defaults())
			s := e.Connect("bench")
			defer s.Close()
			for _, w := range []string{"w0", "w2"} {
				mustExec(b, s, "CREATE TABLE "+w+" (id INT PRIMARY KEY, k INT, v TEXT)")
			}
			text := []byte(arm.text)
			at := strings.Index(arm.text, "00000000")
			q := arm.text
			if !arm.oneOff { // admit it, so every timed call hits
				e.planFor(q)
				e.planFor(q)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if arm.oneOff {
					for j, n := at+7, i; j >= at; j, n = j-1, n/10 {
						text[j] = byte('0' + n%10)
					}
					q = string(text)
				}
				if _, _, err := e.planFor(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

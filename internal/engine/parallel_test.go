package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"snapdb/internal/btree"
	"snapdb/internal/perfschema"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// parallelConfig returns Defaults with the parallel scan armed
// aggressively enough to fire on test-sized tables.
func parallelConfig() Config {
	cfg := Defaults()
	cfg.MaxScanWorkers = 4
	cfg.ParallelScanMinRows = 1
	cfg.EnableQueryCache = false
	return cfg
}

// setupWide populates a table with n rows at stride-3 primary keys, so
// partition boundaries fall between keys as often as on them.
func setupWide(t testing.TB, s *Session, n int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE wide (id INT PRIMARY KEY, grp INT, score INT, name TEXT)")
	for i := 0; i < n; i++ {
		mustExec(t, s, fmt.Sprintf(
			"INSERT INTO wide (id, grp, score, name) VALUES (%d, %d, %d, 'w%d')",
			i*3, i%7, (i*37)%100, i))
	}
}

// TestParallelScanMatchesSerial: the merged parallel result must be
// byte-identical to the serial scan's — same rows, same order, same
// examined counts, same access path — across full scans, pk ranges,
// filters, sorts, and aggregates.
func TestParallelScanMatchesSerial(t *testing.T) {
	queries := []string{
		"SELECT * FROM wide",
		"SELECT name FROM wide WHERE grp = 3",
		"SELECT * FROM wide WHERE score > 40",
		"SELECT * FROM wide WHERE id >= 30 AND id <= 1200",
		"SELECT name, score FROM wide WHERE id >= 100 AND id <= 700 ORDER BY score DESC LIMIT 5",
		"SELECT id FROM wide ORDER BY score LIMIT 7",
		"SELECT COUNT(*) FROM wide WHERE grp = 2",
		"SELECT SUM(score) FROM wide WHERE id >= 0 AND id <= 600",
	}
	type outcome struct {
		rows     string
		examined int
		path     string
	}
	run := func(cfg Config) []outcome {
		e, _ := newEngine(t, cfg)
		s := e.Connect("app")
		defer s.Close()
		setupWide(t, s, 500)
		mustExec(t, s, "ANALYZE TABLE wide")
		var out []outcome
		for _, q := range queries {
			res := mustExec(t, s, q)
			out = append(out, outcome{renderResult(res, nil), res.RowsExamined, res.AccessPath})
		}
		return out
	}

	par := run(parallelConfig())
	cfgSerial := parallelConfig()
	cfgSerial.MaxScanWorkers = 0
	ser := run(cfgSerial)

	for i := range queries {
		if par[i] != ser[i] {
			t.Errorf("%s:\nparallel: %+v\nserial:   %+v", queries[i], par[i], ser[i])
		}
	}
}

// TestParallelExplainShowsPartitions: the plan renders the ParallelScan
// leaf with one child line per partition, and EXPLAIN ANALYZE carries
// per-partition examined counts that sum to the serial total.
func TestParallelExplainShowsPartitions(t *testing.T) {
	e, _ := newEngine(t, parallelConfig())
	s := e.Connect("app")
	defer s.Close()
	setupWide(t, s, 500)
	mustExec(t, s, "ANALYZE TABLE wide")

	lines, res := explainLines(t, s, "EXPLAIN SELECT * FROM wide WHERE score > 40")
	joined := strings.Join(lines, "\n")
	if res.AccessPath != "full-scan" {
		t.Fatalf("access path = %q, want full-scan", res.AccessPath)
	}
	if !strings.Contains(joined, "Parallel scan on wide (workers=4)") {
		t.Fatalf("EXPLAIN missing parallel leaf:\n%s", joined)
	}
	nParts := 0
	for _, l := range lines {
		if strings.Contains(l, "Partition ") {
			nParts++
		}
	}
	if nParts != 4 {
		t.Fatalf("EXPLAIN shows %d partitions, want 4:\n%s", nParts, joined)
	}

	lines, _ = explainLines(t, s, "EXPLAIN ANALYZE SELECT * FROM wide WHERE score > 40")
	joined = strings.Join(lines, "\n")
	if !strings.Contains(joined, "Parallel scan on wide (workers=4)") ||
		!strings.Contains(joined, "est_rows=") {
		t.Fatalf("EXPLAIN ANALYZE missing annotated parallel leaf:\n%s", joined)
	}
	// The partition lines carry the per-worker examined counts; they
	// must sum to the whole table.
	sum := 0
	for _, l := range lines {
		if !strings.Contains(l, "Partition ") {
			continue
		}
		var ex int
		if _, err := fmt.Sscanf(l[strings.Index(l, "(examined="):], "(examined=%d", &ex); err != nil {
			t.Fatalf("unparseable partition line %q: %v", l, err)
		}
		sum += ex
	}
	if sum != 500 {
		t.Fatalf("partition examined counts sum to %d, want 500:\n%s", sum, joined)
	}

	// A serial engine never shows the parallel operators.
	cfgSerial := parallelConfig()
	cfgSerial.MaxScanWorkers = 0
	e2, _ := newEngine(t, cfgSerial)
	s2 := e2.Connect("app")
	defer s2.Close()
	setupWide(t, s2, 500)
	mustExec(t, s2, "ANALYZE TABLE wide")
	lines, _ = explainLines(t, s2, "EXPLAIN SELECT * FROM wide WHERE score > 40")
	joined = strings.Join(lines, "\n")
	if strings.Contains(joined, "Parallel") || strings.Contains(joined, "Partition") {
		t.Fatalf("MaxScanWorkers = 0 plan still parallel:\n%s", joined)
	}
}

// parallelWorkload is the randomized differential mix with ANALYZE
// statements spliced in, so full-scan fan-out (which requires key-space
// statistics) participates alongside pk-range fan-out.
func parallelWorkload() []string {
	base := randomWorkload(rand.New(rand.NewSource(0xC0FFEE)))
	w := make([]string, 0, len(base)+3)
	for i, q := range base {
		switch i {
		case 80, 150, 230:
			w = append(w, "ANALYZE TABLE items")
		}
		w = append(w, q)
	}
	return w
}

// TestDifferentialParallelVsSerial pushes the same randomized workload
// through a parallel-scanning engine and a MaxScanWorkers = 0 engine:
// every statement outcome and every durable artifact surface — general
// log, binlog, digest summary, statement history, heap arena — must be
// byte-identical. The buffer-pool fetch trace and LRU state are
// deliberately NOT compared: concurrent partition workers scramble
// them, which is the leakage-profile change experiment E15 measures.
// Stage events name the leaf that ran, so they differ by design.
func TestDifferentialParallelVsSerial(t *testing.T) {
	workload := parallelWorkload()
	cfg := parallelConfig()
	cfg.EnableGeneralLog = true
	par := captureRun(t, cfg, workload, 0)
	cfg.MaxScanWorkers = 0
	ser := captureRun(t, cfg, workload, 0)
	diffRuns(t, workload, "parallel", "serial", par, ser, surfFetches|surfStages)
}

// TestPlanCacheLeakageEquivalenceParallel is the plan-cache leakage
// property under parallel scans: a cached template must fan out exactly
// as a freshly built plan does (the partition split happens at
// instantiate time from live state), so every forensic surface except
// the concurrency-scrambled fetch trace matches with the plan cache
// warm vs emptied before every statement.
func TestPlanCacheLeakageEquivalenceParallel(t *testing.T) {
	var workload []string
	workload = append(workload, "CREATE TABLE wide (id INT PRIMARY KEY, grp INT, score INT, name TEXT)")
	for i := 0; i < 300; i++ {
		workload = append(workload, fmt.Sprintf(
			"INSERT INTO wide (id, grp, score, name) VALUES (%d, %d, %d, 'w%d')",
			i*3, i%7, (i*37)%100, i))
	}
	workload = append(workload,
		"ANALYZE TABLE wide",
		"SELECT * FROM wide WHERE score > 40",
		"SELECT * FROM wide WHERE score > 40", // second sighting: the plan cache admits it
		"SELECT name FROM wide WHERE id >= 30 AND id <= 600",
		"SELECT name FROM wide WHERE id >= 30 AND id <= 600",
		"SELECT name FROM wide WHERE id >= 30 AND id <= 600",                   // plan-cache hit → cached template fans out
		"INSERT INTO wide (id, grp, score, name) VALUES (10000, 1, 1, 'tail')", // widens pk bounds
		"SELECT * FROM wide WHERE score > 40",                                  // a hit, re-partitioned against the widened bounds
		"SELECT COUNT(*) FROM wide",
	)
	cfg := parallelConfig()
	cfg.EnableGeneralLog = true
	withCache := captureRun(t, cfg, workload, 0)
	cold := captureRun(t, cfg, workload, coldPlans)
	diffRuns(t, workload, "plancache-on", "plancache-cold", withCache, cold, surfFetches)
}

// TestParallelScanUnderMVCC: visibility is a decorator on any leaf, the
// parallel one included. Session A holds an open transaction that has
// updated, deleted and inserted rows across several partitions; session
// B's scans must fan out (not silently serialise, as they did when the
// hooks lived only in the serial leaves) and return exactly what the
// serial leaf returns — the pre-transaction snapshot.
func TestParallelScanUnderMVCC(t *testing.T) {
	queries := []string{
		"SELECT * FROM wide",
		"SELECT id, score FROM wide WHERE id >= 300 AND id <= 13000",
		"SELECT COUNT(*) FROM wide",
		"SELECT name FROM wide WHERE score = 77",
		"SELECT SUM(score) FROM wide WHERE id >= 0 AND id <= 9000",
	}
	run := func(workers int) []string {
		cfg := Defaults()
		cfg.MaxScanWorkers = workers
		cfg.EnableQueryCache = false
		e, _ := newEngine(t, cfg)
		a, b := e.Connect("writer"), e.Connect("reader")
		defer a.Close()
		defer b.Close()
		n := int(cfg.normalized().ParallelScanMinRows) + 200
		mustExec(t, a, "CREATE TABLE wide (id INT PRIMARY KEY, grp INT, score INT, name TEXT)")
		for lo := 0; lo < n; lo += 100 {
			var vals []string
			for i := lo; i < lo+100 && i < n; i++ {
				vals = append(vals, fmt.Sprintf("(%d, %d, %d, 'w%d')", i*3, i%7, (i*37)%100, i))
			}
			mustExec(t, a, "INSERT INTO wide (id, grp, score, name) VALUES "+strings.Join(vals, ", "))
		}
		mustExec(t, a, "ANALYZE TABLE wide")

		// A's open transaction touches every partition of a 4-way split:
		// substituted rows, tombstoned rows (ghosts for B) and inserted
		// rows (suppressed for B), in the key range and past its end.
		mustExec(t, a, "BEGIN")
		for _, k := range []int{0, 1, n / 4, n / 2, 3 * n / 4, n - 1} {
			mustExec(t, a, fmt.Sprintf("UPDATE wide SET score = 77 WHERE id = %d", k*3))
			mustExec(t, a, fmt.Sprintf("DELETE FROM wide WHERE id = %d", (k+5)*3))
			mustExec(t, a, fmt.Sprintf("INSERT INTO wide (id, grp, score, name) VALUES (%d, 0, 77, 'new')", k*3+1))
		}

		var out []string
		for _, q := range queries {
			out = append(out, renderResult(b.Execute(q)))
		}
		lines, _ := explainLines(t, b, "EXPLAIN ANALYZE "+queries[0])
		if got := strings.Contains(strings.Join(lines, "\n"), "Parallel scan on wide"); got != (workers >= 2) {
			t.Errorf("workers=%d: filtered scan parallel=%v:\n%s", workers, got, strings.Join(lines, "\n"))
		}
		// B saw the snapshot: none of A's uncommitted work.
		if res := mustExec(t, b, "SELECT COUNT(*) FROM wide"); res.Rows[0][0].Int != int64(n) {
			t.Errorf("workers=%d: reader counts %d rows, want the pre-transaction %d", workers, res.Rows[0][0].Int, n)
		}
		mustExec(t, a, "ROLLBACK")
		return out
	}
	par, ser := run(4), run(0)
	for i, q := range queries {
		if par[i] != ser[i] {
			t.Errorf("%s differs under a live read view:\nparallel: %.300s\nserial:   %.300s", q, par[i], ser[i])
		}
	}
}

// TestParallelScanDeadline: a statement deadline fires inside the
// partition workers — the fan-out cancels promptly, the statement
// returns the typed timeout error, and the session keeps working.
func TestParallelScanDeadline(t *testing.T) {
	cfg := parallelConfig()
	cfg.StatementTimeout = 50 * time.Millisecond
	e, _ := newEngine(t, cfg)
	// Concurrency-safe stepped clock: every ExecClock call advances an
	// atomic tick counter by the current step, so partition workers can
	// consult the deadline simultaneously without racing the test.
	base := time.Unix(0, 0)
	var ticks, step atomic.Int64
	e.ExecClock = func() time.Time {
		return base.Add(time.Duration(ticks.Add(step.Load())))
	}
	s := e.Connect("app")
	defer s.Close()
	setupWide(t, s, 600)
	mustExec(t, s, "ANALYZE TABLE wide")

	step.Store(int64(time.Second))
	_, err := s.Execute("SELECT * FROM wide WHERE score > 40")
	if !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("want ErrStatementTimeout from parallel scan, got %v", err)
	}

	step.Store(0)
	res := mustExec(t, s, "SELECT * FROM wide WHERE id = 30")
	if len(res.Rows) != 1 {
		t.Fatalf("post-timeout select rows = %d, want 1", len(res.Rows))
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM wide")
	if res.Rows[0][0].Int != 600 {
		t.Fatalf("post-timeout count = %d, want 600", res.Rows[0][0].Int)
	}
}

// lastStages is the stage group of s's latest statement in the
// events_stages history, root first.
func lastStages(e *Engine, s *Session) []perfschema.StageEvent {
	var group []perfschema.StageEvent
	for _, ev := range e.PerfSchema().StagesHistory() {
		if ev.Thread != s.ID {
			continue
		}
		if ev.Seq == 0 {
			group = nil
		}
		group = append(group, ev)
	}
	return group
}

// partitionBounds parses the key range out of a partition's operator
// description.
var partitionBounds = regexp.MustCompile(`between (-?\d+) and (-?\d+)\)$`)

// cursorFetches is how many pages a serial cursor over [lo, hi] of tree
// fetches.
func cursorFetches(t *testing.T, tree *btree.Tree, lo, hi int64) uint64 {
	t.Helper()
	var c btree.Cursor
	c.Init(tree, true, sqlparse.IntValue(lo), sqlparse.IntValue(hi), nil)
	for {
		_, ok, err := c.Skip()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return c.Fetches()
		}
	}
}

// TestStageFetchesAreOwn: every operator's stage row counts the page
// fetches its own work made, whatever another session fetches beside
// it. While a second session scans in a loop, a Key lookup stage reads
// one clustered descent per entry it resolved, a parallel leaf reads
// the sum of its partitions, and each partition reads what a serial
// cursor over its bounds fetches.
func TestStageFetchesAreOwn(t *testing.T) {
	cfg := parallelConfig()
	cfg.BufferPoolPages = 32 // the scanner beside keeps missing and evicting
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	defer s.Close()
	setupWide(t, s, 2000)
	mustExec(t, s, "CREATE INDEX idx_score ON wide (score)")
	mustExec(t, s, "ANALYZE TABLE wide")
	tbl, _ := e.Table("wide")
	height, err := tbl.Tree.Height()
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		other := e.Connect("scanner")
		defer other.Close()
		for !stop.Load() {
			if _, err := other.Execute("SELECT COUNT(*) FROM wide WHERE name = 'x'"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	defer func() {
		stop.Store(true)
		if err := <-done; err != nil {
			t.Errorf("scanner session: %v", err)
		}
	}()

	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("SELECT name FROM wide WHERE score = %d", i%100))
		var lookup *perfschema.StageEvent
		for _, ev := range lastStages(e, s) {
			if strings.Contains(ev.Operator, "Key lookup") {
				lookup = &ev
			}
		}
		if lookup == nil {
			t.Fatalf("score = %d: no Key lookup stage", i%100)
		}
		if want := uint64(lookup.RowsExamined * height); lookup.PoolFetches != want {
			t.Fatalf("score = %d: Key lookup resolved %d entries at height %d but reads fetches=%d, want %d",
				i%100, lookup.RowsExamined, height, lookup.PoolFetches, want)
		}
	}

	for i := 0; i < 50; i++ {
		q := "SELECT * FROM wide WHERE score > 40"
		if i%2 == 1 {
			q = fmt.Sprintf("SELECT id FROM wide WHERE id >= %d AND id <= %d", i*30, i*30+3000)
		}
		mustExec(t, s, q)
		var par *perfschema.StageEvent
		var sum uint64
		parts := 0
		for _, ev := range lastStages(e, s) {
			switch {
			case strings.Contains(ev.Operator, "Parallel scan"):
				par = &ev
			case strings.Contains(ev.Operator, "Partition "):
				m := partitionBounds.FindStringSubmatch(ev.Operator)
				if m == nil {
					t.Fatalf("%s: unparseable partition %q", q, ev.Operator)
				}
				lo, _ := strconv.ParseInt(m[1], 10, 64)
				hi, _ := strconv.ParseInt(m[2], 10, 64)
				if want := cursorFetches(t, tbl.Tree, lo, hi); ev.PoolFetches != want {
					t.Fatalf("%s: %s reads fetches=%d, a serial cursor over its bounds fetches %d",
						q, ev.Operator, ev.PoolFetches, want)
				}
				sum += ev.PoolFetches
				parts++
			}
		}
		if par == nil || parts != 4 {
			t.Fatalf("%s: want a parallel leaf over 4 partitions, got leaf %v and %d partitions", q, par != nil, parts)
		}
		if par.PoolFetches != sum {
			t.Fatalf("%s: parallel leaf reads fetches=%d, its partitions sum to %d", q, par.PoolFetches, sum)
		}
	}
}

// TestParallelScanCorruptSlot: a record with a forged field tag inside
// one partition's range fails the parallel statement with the
// *storage.SlotError the serial leaf fails with — same page, same slot,
// same text. The sibling partitions stop, no worker outlives the
// statement, and the session goes on working.
func TestParallelScanCorruptSlot(t *testing.T) {
	queries := []string{
		"SELECT * FROM wide WHERE score > 40",
		"SELECT name FROM wide WHERE id >= 0 AND id <= 3600",
		"SELECT COUNT(*) FROM wide",
	}
	run := func(workers int) ([]error, *Session) {
		cfg := parallelConfig()
		cfg.MaxScanWorkers = workers
		e, _ := newEngine(t, cfg)
		s := e.Connect("app")
		setupWide(t, s, 1200)
		mustExec(t, s, "ANALYZE TABLE wide")
		for _, q := range queries {
			lines, _ := explainLines(t, s, "EXPLAIN "+q)
			if got := strings.Contains(strings.Join(lines, "\n"), "Parallel scan"); got != (workers >= 2) {
				t.Fatalf("workers=%d: %s parallel=%v", workers, q, got)
			}
		}
		// The third field's tag of the middle record of the leaf that
		// holds key 3570, in the last partition of every query, so that
		// partitions before it in key order can be stopped by it: the
		// key stays readable.
		tbl, _ := e.Table("wide")
		path, err := tbl.Tree.TraversalPath(sqlparse.IntValue(3570))
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.ts.Get(path[len(path)-1])
		if err != nil {
			t.Fatal(err)
		}
		ix, err := p.Keys()
		if err != nil || len(ix) < 8 {
			t.Fatalf("leaf of key 3570: %d keys, %v", len(ix), err)
		}
		p.SlotBytes(int(ix[len(ix)/2]))[2+9+9] = 0x7f
		baseline := runtime.NumGoroutine()
		var errs []error
		for _, q := range queries {
			_, err := s.Execute(q)
			errs = append(errs, err)
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("workers=%d: %s: %d goroutines after the statement, %d before", workers, q, runtime.NumGoroutine(), baseline)
				}
			}
		}
		return errs, s
	}
	parErrs, s := run(4)
	defer s.Close()
	serErrs, s2 := run(0)
	defer s2.Close()
	for i, q := range queries {
		var pse, sse *storage.SlotError
		if !errors.As(parErrs[i], &pse) || !errors.As(serErrs[i], &sse) {
			t.Fatalf("%s: parallel err %v; serial %v; want *storage.SlotError from both", q, parErrs[i], serErrs[i])
		}
		if pse.Page != sse.Page || pse.Slot != sse.Slot || parErrs[i].Error() != serErrs[i].Error() {
			t.Fatalf("%s: parallel %v; serial %v", q, parErrs[i], serErrs[i])
		}
	}
	// A statement that reads no corrupt record still runs.
	res := mustExec(t, s, "SELECT name FROM wide WHERE id = 30")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "w10" {
		t.Fatalf("after the failed scans: %v", res.Rows)
	}
}

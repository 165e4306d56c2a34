package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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
		"SELECT * FROM wide WHERE score > 40", // plan-cache hit → cached template fans out
		"SELECT name FROM wide WHERE id >= 30 AND id <= 600",
		"SELECT name FROM wide WHERE id >= 30 AND id <= 600",
		"INSERT INTO wide (id, grp, score, name) VALUES (10000, 1, 1, 'tail')", // widens pk bounds
		"SELECT * FROM wide WHERE score > 40",                                  // re-partitioned against the widened bounds
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

package engine

import (
	"fmt"
	"strings"
	"testing"

	"snapdb/internal/vfs"
)

// setupSkewed creates a table whose two indexed columns have wildly
// different selectivity: grp holds only two distinct values while ref
// is unique. The index names are chosen so first-match (alphabetical)
// picks the BAD one — idx_grp sorts before idx_ref — which is exactly
// the situation cost-based selection exists to fix.
func setupSkewed(t testing.TB, s *Session, n int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE events (id INT PRIMARY KEY, grp INT, ref INT, note TEXT)")
	mustExec(t, s, "CREATE INDEX idx_grp ON events (grp)")
	mustExec(t, s, "CREATE INDEX idx_ref ON events (ref)")
	for i := 0; i < n; i++ {
		mustExec(t, s, fmt.Sprintf(
			"INSERT INTO events (id, grp, ref, note) VALUES (%d, %d, %d, 'n%d')",
			i, i%2, i, i))
	}
}

// TestCostBasedIndexChoice is the acceptance demonstration for the
// cost-based planner: with statistics on record it picks the cheaper
// index where the first-match rule picked the more expensive one.
func TestCostBasedIndexChoice(t *testing.T) {
	// The query cache would serve the repeated SELECT from its result
	// store (with no access path to observe); this test is about the
	// planner, so switch it off.
	cfg := Defaults()
	cfg.EnableQueryCache = false
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	defer s.Close()
	setupSkewed(t, s, 100)

	const q = "SELECT note FROM events WHERE grp = 1 AND ref = 73"

	// Without statistics both candidates carry the same default
	// estimate, so the tie-break (lowest name) reproduces first-match.
	res := mustExec(t, s, q)
	if res.AccessPath != "index:idx_grp" {
		t.Fatalf("pre-ANALYZE access path = %q, want index:idx_grp (first-match tie)", res.AccessPath)
	}

	mustExec(t, s, "ANALYZE TABLE events")

	// Now idx_ref estimates 100/100 = 1 row vs idx_grp's 100/2 = 50:
	// the planner must switch, and the result must not change.
	res = mustExec(t, s, q)
	if res.AccessPath != "index:idx_ref" {
		t.Fatalf("post-ANALYZE access path = %q, want index:idx_ref", res.AccessPath)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "n73" {
		t.Fatalf("rows = %v, want [n73]", res.Rows)
	}

	// EXPLAIN shows the choice and the estimates behind it.
	lines, expRes := explainLines(t, s, "EXPLAIN "+q)
	if expRes.AccessPath != "index:idx_ref" {
		t.Errorf("EXPLAIN access path = %q, want index:idx_ref", expRes.AccessPath)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "idx_ref") || !strings.Contains(joined, "est_rows=1") {
		t.Errorf("EXPLAIN missing cost annotation:\n%s", joined)
	}

	// EXPLAIN ANALYZE pairs the estimate with the actual count.
	lines, _ = explainLines(t, s, "EXPLAIN ANALYZE "+q)
	joined = strings.Join(lines, "\n")
	if !strings.Contains(joined, "est_rows=1") || !strings.Contains(joined, "actual_rows=1") {
		t.Errorf("EXPLAIN ANALYZE missing est/actual annotation:\n%s", joined)
	}
}

// TestCostBasedFullScanOverIndex: when statistics say an index matches
// most of the table, the extra key-lookup cost makes the full scan
// cheaper and the planner must take it.
func TestCostBasedFullScanOverIndex(t *testing.T) {
	cfg := Defaults()
	cfg.EnableQueryCache = false
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	defer s.Close()
	mustExec(t, s, "CREATE TABLE flags (id INT PRIMARY KEY, flag INT)")
	mustExec(t, s, "CREATE INDEX idx_flag ON flags (flag)")
	for i := 0; i < 128; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO flags (id, flag) VALUES (%d, %d)", i, i%2))
	}

	const q = "SELECT * FROM flags WHERE flag = 0"
	// Unanalyzed: the default equality selectivity (10%) keeps the
	// index looking cheap.
	res := mustExec(t, s, q)
	if res.AccessPath != "index:idx_flag" {
		t.Fatalf("pre-ANALYZE access path = %q, want index:idx_flag", res.AccessPath)
	}
	mustExec(t, s, "ANALYZE TABLE flags")
	// Analyzed: 128/2 = 64 estimated matches; 64*(0.9+1.0) = 121.6
	// index cost against 128 sequential rows... still cheaper. Push the
	// skew: delete nothing, re-check with the real decision threshold by
	// using a table where the index estimate covers ~everything.
	res = mustExec(t, s, q)
	if res.AccessPath != "index:idx_flag" {
		t.Fatalf("post-ANALYZE access path = %q, want index:idx_flag (64 est rows is still cheap)", res.AccessPath)
	}

	// One distinct value: the index would resolve every row through a
	// key lookup — strictly worse than reading the table in order.
	mustExec(t, s, "CREATE TABLE ones (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "CREATE INDEX idx_v ON ones (v)")
	for i := 0; i < 80; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ones (id, v) VALUES (%d, 7)", i))
	}
	mustExec(t, s, "ANALYZE TABLE ones")
	res = mustExec(t, s, "SELECT * FROM ones WHERE v = 7")
	if res.AccessPath != "full-scan" {
		t.Fatalf("access path = %q, want full-scan (index est 80 rows costs 152 vs 80)", res.AccessPath)
	}
	if len(res.Rows) != 80 {
		t.Fatalf("rows = %d, want 80", len(res.Rows))
	}
}

// TestAnalyzeStatisticsSurfaces checks the ANALYZE result row and the
// information_schema statistics tables.
func TestAnalyzeStatisticsSurfaces(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 40)
	mustExec(t, s, "CREATE INDEX idx_age ON customers (age)")

	// Before ANALYZE the statistics tables are empty.
	res := mustExec(t, s, "SELECT * FROM information_schema.table_statistics")
	if len(res.Rows) != 0 {
		t.Fatalf("table_statistics before ANALYZE = %v, want empty", res.Rows)
	}

	res = mustExec(t, s, "ANALYZE TABLE customers")
	if len(res.Rows) != 1 || !strings.HasPrefix(res.Rows[0][2].Str, "OK rows=40") {
		t.Fatalf("ANALYZE result = %v", res.Rows)
	}

	res = mustExec(t, s, "SELECT * FROM information_schema.table_statistics")
	if len(res.Rows) != 1 {
		t.Fatalf("table_statistics rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row[0].Str != "customers" || row[2].Int != 40 || row[3].Int != 40 {
		t.Fatalf("table_statistics row = %v", row)
	}

	res = mustExec(t, s, "SELECT * FROM information_schema.index_statistics")
	// Two summarized columns: the pk (id) and the indexed age column,
	// ordered by column index — id first.
	if len(res.Rows) != 2 {
		t.Fatalf("index_statistics rows = %d, want 2", len(res.Rows))
	}
	id, age := res.Rows[0], res.Rows[1]
	if id[1].Str != "id" || id[2].Int != 40 || id[4].Int != 0 || id[5].Int != 39 {
		t.Fatalf("id stats = %v", id)
	}
	// setupCustomers ages: 20+i%50 for i in [0,40) → 20..59, all distinct.
	if age[1].Str != "age" || age[2].Int != 40 || age[4].Int != 20 || age[5].Int != 59 {
		t.Fatalf("age stats = %v", age)
	}

	// DML widens the bounds without re-running ANALYZE.
	mustExec(t, s, "INSERT INTO customers (id, name, state, age) VALUES (500, 'x', 'TX', 99)")
	res = mustExec(t, s, "SELECT * FROM information_schema.index_statistics")
	if res.Rows[0][5].Int != 500 || res.Rows[1][5].Int != 99 {
		t.Fatalf("bounds after insert = %v", res.Rows)
	}

	mustExec(t, s, "UPDATE customers SET age = 7 WHERE id = 500")
	res = mustExec(t, s, "SELECT * FROM information_schema.index_statistics")
	if res.Rows[1][4].Int != 7 {
		t.Fatalf("age min after update = %v, want 7", res.Rows[1])
	}
}

func TestAnalyzeUnknownTable(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	if _, err := s.Execute("ANALYZE TABLE nosuch"); err == nil {
		t.Fatal("ANALYZE of unknown table did not error")
	}
}

// TestStatsDriftBumpsPlanEpoch: once a table's live row count doubles
// past the ANALYZE baseline the plan-cache epoch must move, so cached
// access paths get re-costed.
func TestStatsDriftBumpsPlanEpoch(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	mustExec(t, s, "CREATE TABLE ticks (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ticks (id, v) VALUES (%d, %d)", i, i))
	}
	mustExec(t, s, "ANALYZE TABLE ticks")
	epoch := e.CatalogEpoch()

	// Up to 2x the baseline: no drift, no invalidation.
	for i := 10; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ticks (id, v) VALUES (%d, %d)", i, i))
	}
	if got := e.CatalogEpoch(); got != epoch {
		t.Fatalf("epoch moved to %d before drift threshold (baseline 10, live 20)", got)
	}
	// The next insert crosses live > 2*baseline.
	mustExec(t, s, "INSERT INTO ticks (id, v) VALUES (21, 21)")
	if got := e.CatalogEpoch(); got != epoch+1 {
		t.Fatalf("epoch = %d after 2x growth, want %d", got, epoch+1)
	}
	// The baseline reset to the live count: further inserts below the
	// new threshold do not re-bump.
	mustExec(t, s, "INSERT INTO ticks (id, v) VALUES (22, 22)")
	if got := e.CatalogEpoch(); got != epoch+1 {
		t.Fatalf("epoch = %d re-bumped without reaching the new threshold", got)
	}

	// Never-analyzed tables never drift.
	mustExec(t, s, "CREATE TABLE quiet (id INT PRIMARY KEY, v INT)")
	epoch = e.CatalogEpoch()
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO quiet (id, v) VALUES (%d, %d)", i, i))
	}
	if got := e.CatalogEpoch(); got != epoch {
		t.Fatalf("epoch moved to %d on DML against a never-analyzed table", got)
	}
}

// TestStatsSurviveRecovery: an analyzed table must still be analyzed —
// same summaries, same access-path decisions — after a checkpoint,
// crash, and recovery.
func TestStatsSurviveRecovery(t *testing.T) {
	mem := vfs.NewMemFS()
	e := durableEngine(t, mem)
	s := e.Connect("app")
	setupSkewed(t, s, 100)
	mustExec(t, s, "ANALYZE TABLE events")
	wantStats := mustExec(t, s, "SELECT * FROM information_schema.index_statistics")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	mem.Crash()

	r, _, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	s2 := r.Connect("app")
	defer s2.Close()

	gotStats := mustExec(t, s2, "SELECT * FROM information_schema.index_statistics")
	if fmt.Sprint(wantStats.Rows) != fmt.Sprint(gotStats.Rows) {
		t.Errorf("index_statistics changed across recovery:\nbefore: %v\nafter:  %v",
			wantStats.Rows, gotStats.Rows)
	}
	res := mustExec(t, s2, "SELECT note FROM events WHERE grp = 1 AND ref = 73")
	if res.AccessPath != "index:idx_ref" {
		t.Errorf("post-recovery access path = %q, want index:idx_ref (statistics lost?)", res.AccessPath)
	}
}

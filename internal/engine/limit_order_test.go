package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"snapdb/internal/sqlparse"
)

// LIMIT semantics at the statement surface: LIMIT 0 is a real, empty
// limit (MySQL semantics), LIMIT 1 truncates, and a limit larger than
// the result set is a no-op — with and without ORDER BY, and on the
// single aggregate row.
func TestLimitBounds(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 10)

	cases := []struct {
		query string
		want  int
	}{
		{"SELECT id FROM customers LIMIT 0", 0},
		{"SELECT id FROM customers LIMIT 1", 1},
		{"SELECT id FROM customers LIMIT 99", 10},
		{"SELECT id FROM customers ORDER BY age LIMIT 0", 0},
		{"SELECT id FROM customers ORDER BY age LIMIT 1", 1},
		{"SELECT id FROM customers ORDER BY age LIMIT 99", 10},
		{"SELECT id FROM customers ORDER BY id DESC LIMIT 0", 0},
		{"SELECT COUNT(*) FROM customers LIMIT 0", 0},
		{"SELECT COUNT(*) FROM customers LIMIT 1", 1},
		{"SELECT SUM(age) FROM customers LIMIT 5", 1},
		{"SELECT id FROM customers WHERE id >= 2 AND id <= 5 ORDER BY id LIMIT 0", 0},
	}
	for _, tc := range cases {
		res := mustExec(t, s, tc.query)
		if len(res.Rows) != tc.want {
			t.Errorf("%s: %d rows, want %d", tc.query, len(res.Rows), tc.want)
		}
		// LIMIT never changes what the executor examines, only what it
		// returns: the zero-limit variants still scan.
		if strings.Contains(tc.query, "LIMIT 0") && !strings.Contains(tc.query, "WHERE") && res.RowsExamined != 10 {
			t.Errorf("%s: examined %d rows, want 10", tc.query, res.RowsExamined)
		}
	}
}

// ORDER BY over a rejected aggregate surfaces the typed parser error
// through the statement surface.
func TestAggregateOrderByRejected(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 5)
	_, err := s.Execute("SELECT COUNT(*) FROM customers ORDER BY age")
	if err == nil {
		t.Fatal("ORDER BY over aggregate accepted")
	}
	if !errors.Is(err, sqlparse.ErrAggregateOrderBy) {
		t.Errorf("error %v is not ErrAggregateOrderBy", err)
	}
}

// DESC over the secondary-index access path must produce exactly what a
// stable descending sort would: equal-key groups in reverse key order,
// ascending primary key within each group — with no sort operator in
// the plan.
func TestOrderByIndexDescStable(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, grp INT, tag TEXT)")
	// Insert in shuffled pk order so index order != insertion order.
	for _, row := range [][2]int64{{5, 2}, {1, 3}, {4, 2}, {2, 3}, {3, 1}, {6, 1}, {0, 2}} {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, grp, tag) VALUES (%d, %d, 'x')", row[0], row[1]))
	}
	mustExec(t, s, "CREATE INDEX idx_grp ON t (grp)")

	res := mustExec(t, s, "SELECT id FROM t WHERE grp >= 1 AND grp <= 3 ORDER BY grp DESC")
	if res.AccessPath != "index:idx_grp" {
		t.Fatalf("access path = %q, want index:idx_grp", res.AccessPath)
	}
	// grp=3: ids 1,2; grp=2: ids 0,4,5; grp=1: ids 3,6.
	want := []int64{1, 2, 0, 4, 5, 3, 6}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %v, want %d ids", res.Rows, len(want))
	}
	for i, w := range want {
		if res.Rows[i][0].Int != w {
			t.Fatalf("row %d id = %d, want %d (full order %v)", i, res.Rows[i][0].Int, w, res.Rows)
		}
	}

	// The plan must carry no sort node: the lookup absorbed the order.
	lines, _ := explainLines(t, s, "EXPLAIN SELECT id FROM t WHERE grp >= 1 AND grp <= 3 ORDER BY grp DESC")
	joined := strings.Join(lines, "\n")
	if strings.Contains(joined, "Sort") {
		t.Errorf("plan still sorts:\n%s", joined)
	}
	if !strings.Contains(joined, "order=grp DESC") {
		t.Errorf("plan does not absorb the ordering:\n%s", joined)
	}
}

// EXPLAIN ANALYZE really executes: the rendered tree carries the
// runtime counters, pages are fetched, and the query cache is bypassed
// in both directions.
func TestExplainAnalyzeSelect(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 20)

	lines, res := explainLines(t, s, "EXPLAIN ANALYZE SELECT name FROM customers WHERE age >= 30 ORDER BY age LIMIT 4")
	if len(lines) != 4 {
		t.Fatalf("rendered %d operators, want 4:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	wantOps := []string{"Project:", "Top-N sort:", "Filter:", "Table scan"}
	for i, l := range lines {
		if !strings.Contains(l, wantOps[i]) {
			t.Errorf("line %d = %q, want operator %q", i, l, wantOps[i])
		}
		if !strings.Contains(l, "examined=") || !strings.Contains(l, "returned=") || !strings.Contains(l, "fetches=") {
			t.Errorf("line %d lacks counters: %q", i, l)
		}
	}
	if !strings.Contains(lines[3], "examined=20") {
		t.Errorf("scan line counters wrong: %q", lines[3])
	}
	if !strings.Contains(lines[1], "returned=4") {
		t.Errorf("top-n line counters wrong: %q", lines[1])
	}
	if res.RowsExamined != 20 {
		t.Errorf("RowsExamined = %d, want 20", res.RowsExamined)
	}
	if res.AccessPath != "full-scan" {
		t.Errorf("AccessPath = %q", res.AccessPath)
	}

	// Unlike plain EXPLAIN, the statement really fetched pages.
	before := e.BufferPool().FetchCount()
	explainLines(t, s, "EXPLAIN ANALYZE SELECT name FROM customers WHERE state = 'CA'")
	if after := e.BufferPool().FetchCount(); after == before {
		t.Error("EXPLAIN ANALYZE fetched no pages")
	}

	// Cache bypass, direction 1: a cached bare result must not satisfy
	// EXPLAIN ANALYZE (it would have no counters).
	const q = "SELECT name FROM customers WHERE state = 'NY'"
	mustExec(t, s, q)
	if !mustExec(t, s, q).FromCache {
		t.Fatal("bare statement did not cache")
	}
	lines, res = explainLines(t, s, "EXPLAIN ANALYZE "+q)
	if res.FromCache {
		t.Error("EXPLAIN ANALYZE served from the query cache")
	}
	if len(lines) == 0 || !strings.Contains(lines[len(lines)-1], "examined=20") {
		t.Errorf("EXPLAIN ANALYZE after cache hit rendered no real counters: %v", lines)
	}
	// Direction 2: EXPLAIN ANALYZE must not populate the cache either.
	if mustExec(t, s, "EXPLAIN ANALYZE "+q).FromCache {
		t.Error("repeated EXPLAIN ANALYZE hit the query cache")
	}
}

// EXPLAIN ANALYZE on mutations applies them for real, renders the
// affected count in the header, and binlogs the inner statement (so a
// replica replaying the log applies the same change).
func TestExplainAnalyzeMutations(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 10)

	lines, res := explainLines(t, s, "EXPLAIN ANALYZE UPDATE customers SET age = 99 WHERE id = 4")
	if len(lines) == 0 || !strings.Contains(lines[0], "-> Update: customers (affected=1)") {
		t.Errorf("UPDATE header = %v", lines)
	}
	if res.RowsAffected != 1 {
		t.Errorf("RowsAffected = %d", res.RowsAffected)
	}
	if got := mustExec(t, s, "SELECT age FROM customers WHERE id = 4"); got.Rows[0][0].Int != 99 {
		t.Errorf("EXPLAIN ANALYZE UPDATE did not apply: age = %d", got.Rows[0][0].Int)
	}

	lines, res = explainLines(t, s, "EXPLAIN ANALYZE DELETE FROM customers WHERE id >= 8")
	if len(lines) == 0 || !strings.Contains(lines[0], "-> Delete: customers (affected=2)") {
		t.Errorf("DELETE header = %v", lines)
	}
	if len(lines) < 2 || !strings.Contains(strings.Join(lines, "\n"), "examined=") {
		t.Errorf("DELETE rendered no operator counters: %v", lines)
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM customers"); got.Rows[0][0].Int != 8 {
		t.Errorf("count after EXPLAIN ANALYZE DELETE = %d, want 8", got.Rows[0][0].Int)
	}

	// The binlog records the inner statements, replayable as-is.
	var sawUpdate, sawDelete, sawExplain bool
	for _, ev := range e.Binlog().Events() {
		if strings.HasPrefix(ev.Statement, "UPDATE customers SET age = 99") {
			sawUpdate = true
		}
		if strings.HasPrefix(ev.Statement, "DELETE FROM customers") {
			sawDelete = true
		}
		if strings.Contains(ev.Statement, "EXPLAIN") {
			sawExplain = true
		}
	}
	if !sawUpdate || !sawDelete {
		t.Errorf("binlog missing inner statements (update=%v delete=%v)", sawUpdate, sawDelete)
	}
	if sawExplain {
		t.Error("binlog recorded the EXPLAIN ANALYZE wrapper text")
	}
}

func TestExplainAnalyzeErrors(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 5)

	for _, tc := range []struct{ query, wantErr string }{
		{"EXPLAIN ANALYZE SELECT * FROM information_schema.processlist", "cannot EXPLAIN ANALYZE system table"},
		{"EXPLAIN ANALYZE SELECT * FROM nope", "unknown table"},
		{"EXPLAIN ANALYZE SELECT nosuch FROM customers", `unknown column "nosuch"`},
		{"EXPLAIN ANALYZE INSERT INTO customers (id, name, state, age) VALUES (9, 'x', 'IN', 1)", "EXPLAIN ANALYZE supports SELECT, UPDATE, and DELETE"},
	} {
		_, err := s.Execute(tc.query)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.query, err, tc.wantErr)
		}
	}
}

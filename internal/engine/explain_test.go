package engine

import (
	"strings"
	"testing"
)

func explainLines(t *testing.T, s *Session, q string) ([]string, *Result) {
	t.Helper()
	res := mustExec(t, s, q)
	if len(res.Columns) != 1 || res.Columns[0] != "EXPLAIN" {
		t.Fatalf("columns = %v, want [EXPLAIN]", res.Columns)
	}
	lines := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		lines = append(lines, r[0].Str)
	}
	return lines, res
}

func TestExplainAccessPaths(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 20)
	mustExec(t, s, "CREATE INDEX idx_age ON customers (age)")

	cases := []struct {
		query    string
		path     string
		contains []string
	}{
		{
			"EXPLAIN SELECT * FROM customers WHERE id = 3",
			"pk-range",
			[]string{"-> Point scan on customers using PRIMARY (id = 3)"},
		},
		{
			"EXPLAIN SELECT name FROM customers WHERE id >= 2 AND id <= 8",
			"pk-range",
			[]string{"-> Project: name", "-> Range scan on customers using PRIMARY"},
		},
		{
			"EXPLAIN SELECT name FROM customers WHERE age = 41",
			"index:idx_age",
			[]string{"-> Key lookup on customers via idx_age", "-> Index range scan on customers using idx_age"},
		},
		{
			"EXPLAIN SELECT * FROM customers WHERE state = 'AZ'",
			"full-scan",
			[]string{"-> Filter: state = 'AZ'", "-> Table scan on customers (access=full-scan)"},
		},
		{
			// LIMIT over ORDER BY on an unindexed-by-access-path column:
			// Sort+Limit folds into one Top-N operator.
			"EXPLAIN SELECT name FROM customers ORDER BY age DESC LIMIT 3",
			"full-scan",
			[]string{"-> Project: name", "-> Top-N sort: age DESC (limit 3)", "-> Table scan on customers"},
		},
		{
			// ORDER BY without LIMIT still gets the full Sort.
			"EXPLAIN SELECT name FROM customers ORDER BY age DESC",
			"full-scan",
			[]string{"-> Project: name", "-> Sort: age DESC", "-> Table scan on customers"},
		},
		{
			// ORDER BY on the primary key of a PK-ordered access path:
			// the scan leaf absorbs the ordering; no sort node at all.
			"EXPLAIN SELECT name FROM customers ORDER BY id DESC LIMIT 3",
			"full-scan",
			[]string{"-> Limit: 3", "-> Project: name", "-> Table scan on customers (access=full-scan, order=id DESC)"},
		},
		{
			// ORDER BY on the secondary index's key column when that
			// index is the access path: the index leaf absorbs it.
			"EXPLAIN SELECT name FROM customers WHERE age >= 30 AND age <= 40 ORDER BY age",
			"index:idx_age",
			[]string{"-> Key lookup on customers via idx_age", "order=age ASC)"},
		},
		{
			"EXPLAIN SELECT COUNT(*) FROM customers WHERE state = 'NY'",
			"full-scan",
			[]string{"-> Aggregate: COUNT(*)", "-> Filter: state = 'NY'"},
		},
		{
			// LIMIT applies to the single aggregate row.
			"EXPLAIN SELECT COUNT(*) FROM customers LIMIT 0",
			"full-scan",
			[]string{"-> Limit: 0", "-> Aggregate: COUNT(*)"},
		},
	}
	for _, tc := range cases {
		lines, res := explainLines(t, s, tc.query)
		if res.AccessPath != tc.path {
			t.Errorf("%s: access path %q, want %q", tc.query, res.AccessPath, tc.path)
		}
		joined := strings.Join(lines, "\n")
		for _, want := range tc.contains {
			found := false
			for _, l := range lines {
				if strings.Contains(l, want) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: plan missing %q:\n%s", tc.query, want, joined)
			}
		}
	}

	// Operator order must read root-first with children indented below.
	lines, _ := explainLines(t, s, "EXPLAIN SELECT name FROM customers ORDER BY age DESC LIMIT 3")
	order := []string{"Project:", "Top-N sort:", "Table scan"}
	depth := -1
	for i, l := range lines {
		if !strings.Contains(l, order[i]) {
			t.Fatalf("line %d = %q, want operator %q", i, l, order[i])
		}
		ind := len(l) - len(strings.TrimLeft(l, " "))
		if ind <= depth {
			t.Errorf("line %d %q not indented deeper than its parent", i, l)
		}
		depth = ind
	}
}

func TestExplainMutationsAndErrors(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 10)

	lines, _ := explainLines(t, s, "EXPLAIN UPDATE customers SET age = 1 WHERE id = 2")
	if len(lines) == 0 || lines[0] != "-> Update: customers" {
		t.Errorf("EXPLAIN UPDATE header = %v", lines)
	}
	lines, _ = explainLines(t, s, "EXPLAIN DELETE FROM customers WHERE age >= 30")
	if len(lines) == 0 || lines[0] != "-> Delete: customers" {
		t.Errorf("EXPLAIN DELETE header = %v", lines)
	}

	for _, tc := range []struct{ query, wantErr string }{
		{"EXPLAIN SELECT * FROM nope", "unknown table"},
		{"EXPLAIN SELECT * FROM customers WHERE nosuch = 1", `unknown column "nosuch" in WHERE`},
		{"EXPLAIN SELECT nosuch FROM customers", `unknown column "nosuch"`},
		{"EXPLAIN SELECT SUM(name) FROM customers", "SUM over non-INT"},
		{"EXPLAIN SELECT * FROM information_schema.processlist", "cannot EXPLAIN system table"},
		{"EXPLAIN INSERT INTO customers (id, name, state, age) VALUES (99, 'x', 'IN', 1)", "EXPLAIN supports SELECT, UPDATE, and DELETE"},
		{"EXPLAIN UPDATE customers SET nosuch = 1", `unknown column "nosuch" in SET`},
		{"EXPLAIN UPDATE customers SET id = 5 WHERE age = 30", "updating the primary key is not supported"},
		{"EXPLAIN UPDATE customers SET age = 'old'", `column "age" is INT, got string "old"`},
		{"EXPLAIN DELETE FROM customers WHERE nosuch = 1", `unknown column "nosuch" in WHERE`},
		{"EXPLAIN UPDATE nope SET age = 1", `unknown table "nope"`},
	} {
		_, err := s.Execute(tc.query)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.query, err, tc.wantErr)
		}
	}
}

// EXPLAIN is planning-only: it must never fetch a buffer-pool page,
// never hit or populate the query cache, and never appear in the
// stage-event history (it runs no operators).
func TestExplainFetchesNoPages(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 50)

	before := e.BufferPool().FetchCount()
	mustExec(t, s, "EXPLAIN SELECT * FROM customers WHERE state = 'CA'")
	mustExec(t, s, "EXPLAIN SELECT COUNT(*) FROM customers")
	if after := e.BufferPool().FetchCount(); after != before {
		t.Errorf("EXPLAIN fetched %d pages", after-before)
	}
	if n := len(e.PerfSchema().StagesHistory()); n != 0 {
		t.Errorf("EXPLAIN recorded %d stage events, want 0", n)
	}
	res := mustExec(t, s, "SELECT * FROM customers WHERE state = 'CA'")
	if res.FromCache {
		t.Error("EXPLAIN populated the query cache for the wrapped statement")
	}
}

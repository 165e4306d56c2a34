package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"snapdb/internal/perfschema"
	"snapdb/internal/storage"
)

// The streaming scan leaf's contract, held at the statement surface:
// what a statement fetches, in what order, and how many rows it
// examines depend on its access path alone — a LIMIT above the leaf
// changes only what comes back — and the column mask the planner
// derives never hides a column something reads.

// limitRun is what one statement leaves behind on a fresh engine.
type limitRun struct {
	rows     string
	examined int
	trace    []storage.PageID
	lru      []storage.PageID
	hot      string
	stages   []perfschema.StageEvent
}

// runOnFreshEngine loads the customers fixture (with idx_age), then
// runs q with the pool's fetch trace recording, held to the SQL model
// and the trace rule.
func runOnFreshEngine(t *testing.T, q string) limitRun {
	t.Helper()
	cfg := Defaults()
	cfg.BufferPoolPages = 8 // small enough that a scan's LRU order shows its tail
	e, _ := newEngine(t, cfg)
	m := newSQLModel(cfg)
	s := e.Connect("app")
	defer s.Close()
	for _, fq := range append(customersFixture(400), "CREATE INDEX idx_age ON customers (age)") {
		m.step(t, e, 0, s, fq)
	}
	var run limitRun
	e.BufferPool().SetTraceFunc(func(id storage.PageID) { run.trace = append(run.trace, id) })
	x := m.expect(t, e, 0, q)
	res, err := s.Execute(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	e.BufferPool().SetTraceFunc(nil)
	x.check(t, res, err, run.trace)
	run.rows = renderResult(&Result{Rows: res.Rows}, nil)
	run.examined = res.RowsExamined
	run.lru = e.BufferPool().LRUOrder()
	run.hot = fmt.Sprint(e.BufferPool().HotPages())
	run.stages = res.stages
	return run
}

// TestLimitNeverMovesTheLeaf: for LIMIT 0, 1 and n, with and without
// ORDER BY, over every access path, the buffer-pool fetch trace, LRU
// order, access counters, RowsExamined and the leaf's events_stages row
// (examined, fetches) equal the un-LIMITed statement's, and every run's
// rows, examined count and fetches are the SQL model's and the trace
// rule's, which walk the access path to its end. The one shape left out
// is a bare LIMIT over an index path: its KeyLookup resolves entries on
// demand, so the clustered searches it no longer needs are not made
// (the trace rule stops its lookups at the row that fills the LIMIT);
// the index leaf below it still completes, which the last case pins.
func TestLimitNeverMovesTheLeaf(t *testing.T) {
	bases := []string{
		"SELECT name FROM customers",
		"SELECT name FROM customers WHERE state = 'CA'",
		"SELECT id, name FROM customers WHERE id >= 20 AND id <= 310",
		"SELECT name FROM customers ORDER BY id",
		"SELECT name FROM customers WHERE id >= 20 AND id <= 310 ORDER BY id DESC",
		"SELECT name FROM customers ORDER BY age",
		"SELECT name FROM customers WHERE age >= 30 AND age <= 34 ORDER BY name DESC",
		"SELECT name FROM customers WHERE age >= 30 AND age <= 34 ORDER BY age DESC",
		"SELECT COUNT(*) FROM customers WHERE state = 'NY'",
	}
	for _, base := range bases {
		full := runOnFreshEngine(t, base)
		if len(full.trace) < 4 {
			t.Fatalf("%s fetched only %d pages; the fixture is meant to span several leaves", base, len(full.trace))
		}
		for _, limit := range []int{0, 1, 7} {
			q := fmt.Sprintf("%s LIMIT %d", base, limit)
			got := runOnFreshEngine(t, q)
			if !reflect.DeepEqual(got.trace, full.trace) {
				t.Errorf("%s: fetch trace differs from the un-LIMITed statement's: %v vs %v", q, got.trace, full.trace)
			}
			if !reflect.DeepEqual(got.lru, full.lru) || got.hot != full.hot {
				t.Errorf("%s: LRU order or access counters differ from the un-LIMITed statement's", q)
			}
			if got.examined != full.examined {
				t.Errorf("%s: examined %d rows, the un-LIMITed statement %d", q, got.examined, full.examined)
			}
			leaf, fullLeaf := got.stages[len(got.stages)-1], full.stages[len(full.stages)-1]
			if leaf.Operator != fullLeaf.Operator || leaf.RowsExamined != fullLeaf.RowsExamined || leaf.PoolFetches != fullLeaf.PoolFetches {
				t.Errorf("%s: leaf stage %+v, un-LIMITed %+v", q, leaf, fullLeaf)
			}
		}
	}

	base := "SELECT name FROM customers WHERE age >= 30 AND age <= 34"
	full := runOnFreshEngine(t, base)
	got := runOnFreshEngine(t, base+" LIMIT 2")
	leaf, fullLeaf := got.stages[len(got.stages)-1], full.stages[len(full.stages)-1]
	if !strings.HasPrefix(leaf.Operator, "Index range scan") ||
		leaf.RowsExamined != fullLeaf.RowsExamined || leaf.PoolFetches != fullLeaf.PoolFetches || leaf.RowsReturned != 2 {
		t.Errorf("bare LIMIT over an index path: leaf stage %+v, un-LIMITed %+v", leaf, fullLeaf)
	}
	if got.examined != full.examined {
		t.Errorf("bare LIMIT over an index path examined %d entries, un-LIMITed %d", got.examined, full.examined)
	}
}

// maskWorkload exercises the column mask: every statement reads, above
// the scan, a column its WHERE clause does not mention — an aggregate
// argument, a sort key, the whole row — or filters on TEXT; the writes
// reuse WHERE clauses whose pruned SELECT templates are already cached,
// and the reads after them would show a row image written back from a
// pruned scan.
func maskWorkload(rng *rand.Rand) []string {
	w := []string{"CREATE TABLE t (id INT PRIMARY KEY, name TEXT, state TEXT, age INT, score INT)"}
	states := []string{"IN", "AZ", "NY", "CA"}
	for i := 0; i < 120; i++ {
		w = append(w, fmt.Sprintf("INSERT INTO t (id, name, state, age, score) VALUES (%d, 'name%d', '%s', %d, %d)",
			i, rng.Intn(1000), states[rng.Intn(4)], 20+rng.Intn(30), rng.Intn(100)))
	}
	reads := []string{
		"SELECT SUM(score) FROM t WHERE age >= 30",
		"SELECT SUM(age) FROM t",
		"SELECT id FROM t WHERE state = 'CA' ORDER BY name",
		"SELECT id FROM t ORDER BY score DESC LIMIT 5",
		"SELECT state FROM t WHERE id >= 10 AND id <= 40 ORDER BY score",
		"SELECT * FROM t WHERE age = 25",
		"SELECT * FROM t WHERE id = 17",
		"SELECT * FROM t",
		"SELECT name FROM t WHERE name >= 'name5'",
		"SELECT age FROM t WHERE name = 'name7' AND state = 'NY'",
		"SELECT COUNT(*) FROM t WHERE state = 'NY'",
		"SELECT COUNT(*) FROM t WHERE id >= 50 AND id <= 70",
		"SELECT score FROM t WHERE id >= 5 AND id <= 60 ORDER BY id DESC LIMIT 3",
	}
	writes := []string{
		"UPDATE t SET score = 7 WHERE state = 'NY'",
		"UPDATE t SET name = 'renamed' WHERE id >= 50 AND id <= 70",
		"DELETE FROM t WHERE age = 25",
		"DELETE FROM t WHERE id = 17",
	}
	for round := 0; round < 3; round++ {
		w = append(w, reads...) // first pass fills the plan cache, later ones hit it
		w = append(w, writes[round], writes[(round+1)%len(writes)])
	}
	return append(w, reads...)
}

// TestColumnMaskIsComplete holds maskWorkload to the SQL model, which
// always reads whole rows: results, examined counts and fetches must be
// the model's and the trace rule's with the plan cache warm and cold,
// and the two runs must agree on every surface.
func TestColumnMaskIsComplete(t *testing.T) {
	workload := maskWorkload(rand.New(rand.NewSource(0x5EED)))
	cfg := Defaults()
	cfg.EnableGeneralLog = true
	warm := captureRun(t, cfg, workload, checked)
	cold := captureRun(t, cfg, workload, checked|coldPlans)
	diffRuns(t, workload, "plancache-on", "plancache-off", warm, cold, 0)
}

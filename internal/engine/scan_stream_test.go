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
// runs q through fn with the pool's fetch trace recording.
func runOnFreshEngine(t *testing.T, q string, fn execFn) limitRun {
	t.Helper()
	if fn == nil {
		fn = (*Engine).execute
	}
	cfg := Defaults()
	cfg.BufferPoolPages = 8 // small enough that a scan's LRU order shows its tail
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 400)
	mustExec(t, s, "CREATE INDEX idx_age ON customers (age)")
	var run limitRun
	e.BufferPool().SetTraceFunc(func(id storage.PageID) { run.trace = append(run.trace, id) })
	res, err := s.executeWith(q, fn)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	e.BufferPool().SetTraceFunc(nil)
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
// (examined, fetches) equal the un-LIMITed statement's — and the frozen
// legacy executor's, which always scanned to the end. The one shape
// left out is a bare LIMIT over an index path: its KeyLookup resolves
// entries on demand, so (as before this leaf streamed) the clustered
// searches it no longer needs are not made; the index leaf below it
// still completes, which the last case pins.
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
		full := runOnFreshEngine(t, base, nil)
		if len(full.trace) < 4 {
			t.Fatalf("%s fetched only %d pages; the fixture is meant to span several leaves", base, len(full.trace))
		}
		for _, limit := range []int{0, 1, 7} {
			q := fmt.Sprintf("%s LIMIT %d", base, limit)
			got := runOnFreshEngine(t, q, nil)
			legacy := runOnFreshEngine(t, q, legacyExecute)
			if got.rows != legacy.rows {
				t.Errorf("%s: rows differ from the legacy executor's:\n%s\nlegacy:\n%s", q, got.rows, legacy.rows)
			}
			for _, ref := range []struct {
				name string
				run  limitRun
			}{{"the un-LIMITed statement", full}, {"the legacy executor", legacy}} {
				if !reflect.DeepEqual(got.trace, ref.run.trace) {
					t.Errorf("%s: fetch trace differs from %s: %v vs %v", q, ref.name, got.trace, ref.run.trace)
				}
				if !reflect.DeepEqual(got.lru, ref.run.lru) || got.hot != ref.run.hot {
					t.Errorf("%s: LRU order or access counters differ from %s", q, ref.name)
				}
				if got.examined != ref.run.examined {
					t.Errorf("%s: examined %d rows, %s %d", q, got.examined, ref.name, ref.run.examined)
				}
			}
			leaf, fullLeaf := got.stages[len(got.stages)-1], full.stages[len(full.stages)-1]
			if leaf.Operator != fullLeaf.Operator || leaf.RowsExamined != fullLeaf.RowsExamined || leaf.PoolFetches != fullLeaf.PoolFetches {
				t.Errorf("%s: leaf stage %+v, un-LIMITed %+v", q, leaf, fullLeaf)
			}
		}
	}

	base := "SELECT name FROM customers WHERE age >= 30 AND age <= 34"
	full := runOnFreshEngine(t, base, nil)
	got := runOnFreshEngine(t, base+" LIMIT 2", nil)
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

// TestColumnMaskIsComplete diffs maskWorkload against the frozen legacy
// executor, which always decoded whole rows: results, examined counts,
// fetch trace and logs must match with the plan cache on and off.
func TestColumnMaskIsComplete(t *testing.T) {
	workload := maskWorkload(rand.New(rand.NewSource(0x5EED)))
	for _, disable := range []bool{false, true} {
		cfg := Defaults()
		cfg.DisablePlanCache = disable
		cfg.EnableGeneralLog = true
		legacy := captureRun(t, cfg, workload, legacyExecute)
		oper := captureRun(t, cfg, workload, nil)
		diffRuns(t, workload, "legacy", "operator", legacy, oper, surfStages)
	}
}

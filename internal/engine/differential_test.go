package engine

// Model-checked randomized SQL: every statement of a generated
// workload is held to the SQL model and its page fetches to the trace
// rule, and two arms of the same workload (plan cache warm and cold)
// must leave every observable surface identical — results, the
// complete forensic artifact state (general log, binlog, perfschema
// digests and histories, heap arena) and, most importantly for the
// paper's threat model, the exact buffer-pool page-fetch sequence.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// renderResult flattens a Result into a canonical string so nil and
// empty row slices compare equal (the two executors legitimately
// differ there) while every value difference is still caught.
func renderResult(res *Result, err error) string {
	if err != nil {
		return "ERR " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cols=%v affected=%d examined=%d path=%q cache=%v rows=%d",
		res.Columns, res.RowsAffected, res.RowsExamined, res.AccessPath, res.FromCache, len(res.Rows))
	for _, r := range res.Rows {
		b.WriteByte('\n')
		for i, v := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.SQL())
		}
	}
	return b.String()
}

// randomWorkload generates a deterministic statement mix covering
// every access path and error branch the planner distinguishes:
// point/range/secondary-index/full scans, projections, ORDER BY,
// LIMIT, COUNT/SUM aggregates, mutations, transactions, mid-workload
// DDL, and the full family of planning errors — and three statement
// shapes that once broke: a multi-row INSERT whose later tuple
// duplicates a key, DML (bare and under EXPLAIN ANALYZE) in a READ
// ONLY transaction, and EXPLAIN ANALYZE UPDATE/DELETE, which mutates
// as the bare statement does.
func randomWorkload(rng *rand.Rand) []string {
	w := []string{
		"CREATE TABLE items (id INT PRIMARY KEY, name TEXT, cat INT, score INT)",
		"CREATE TABLE logs (id INT PRIMARY KEY, msg TEXT)",
	}
	for i := 0; i < 60; i++ {
		w = append(w, fmt.Sprintf(
			"INSERT INTO items (id, name, cat, score) VALUES (%d, 'n%d', %d, %d)",
			i, i, rng.Intn(8), rng.Intn(100)))
	}
	kinds := []func() string{
		func() string { return fmt.Sprintf("SELECT * FROM items WHERE id = %d", rng.Intn(70)) },
		func() string {
			a := rng.Intn(55)
			return fmt.Sprintf("SELECT name, score FROM items WHERE id >= %d AND id <= %d", a, a+rng.Intn(12))
		},
		func() string { return fmt.Sprintf("SELECT name FROM items WHERE cat = %d", rng.Intn(9)) },
		func() string {
			// Primary-key bounds beat a bounded index column.
			a := rng.Intn(55)
			return fmt.Sprintf("SELECT id, cat FROM items WHERE cat = %d AND id >= %d AND id <= %d", rng.Intn(9), a, a+15)
		},
		func() string { return fmt.Sprintf("SELECT * FROM items WHERE score > %d", rng.Intn(100)) },
		func() string {
			a := rng.Intn(6)
			return fmt.Sprintf(
				"SELECT name FROM items WHERE cat >= %d AND cat <= %d ORDER BY score DESC LIMIT %d",
				a, a+2, 1+rng.Intn(5))
		},
		func() string {
			return fmt.Sprintf("SELECT id, name FROM items ORDER BY name LIMIT %d", 1+rng.Intn(8))
		},
		func() string {
			// LIMIT 0 is a real, empty limit — not "no limit".
			return "SELECT name FROM items ORDER BY score LIMIT 0"
		},
		func() string { return "SELECT * FROM items LIMIT 0" },
		func() string {
			// Duplicate sort keys: Top-N must keep the stable order.
			return fmt.Sprintf("SELECT id, name FROM items ORDER BY cat LIMIT %d", 1+rng.Intn(10))
		},
		func() string {
			// Index-order DESC: after idx_cat exists this runs the
			// group-reversing key lookup instead of a sort.
			a := rng.Intn(6)
			return fmt.Sprintf(
				"SELECT name FROM items WHERE cat >= %d AND cat <= %d ORDER BY cat DESC LIMIT %d",
				a, a+2, 1+rng.Intn(6))
		},
		func() string {
			a := rng.Intn(6)
			return fmt.Sprintf(
				"SELECT name FROM items WHERE cat >= %d AND cat <= %d ORDER BY cat",
				a, a+2)
		},
		func() string {
			// PK ordering absorbed by the scan leaf (exact reversal).
			return fmt.Sprintf("SELECT name FROM items ORDER BY id DESC LIMIT %d", 1+rng.Intn(8))
		},
		func() string { return "SELECT COUNT(*) FROM items LIMIT 0" },
		func() string { return "SELECT COUNT(*) FROM items ORDER BY cat" }, // parse error: aggregate ORDER BY
		func() string { return fmt.Sprintf("SELECT COUNT(*) FROM items WHERE cat = %d", rng.Intn(9)) },
		func() string {
			a := rng.Intn(55)
			return fmt.Sprintf("SELECT SUM(score) FROM items WHERE id >= %d AND id <= %d", a, a+10)
		},
		func() string { return "SELECT nosuch FROM items" },
		func() string { return "SELECT * FROM items WHERE nosuch = 1" },
		func() string { return "SELECT SUM(name) FROM items" },
		func() string { return "SELECT SUM(nosuch) FROM items WHERE id = 3" },
		func() string { return "SELECT name FROM items ORDER BY nosuch" },
		func() string { return "SELECT * FROM missing_table" },
		func() string { return "SELECT COUNT(nosuch) FROM items" }, // COUNT ignores its argument
		func() string {
			return fmt.Sprintf("UPDATE items SET score = %d WHERE id = %d", rng.Intn(100), rng.Intn(70))
		},
		func() string {
			return fmt.Sprintf("UPDATE items SET name = 'u%d' WHERE cat = %d", rng.Intn(100), rng.Intn(9))
		},
		func() string { return "UPDATE items SET nosuch = 1 WHERE id = 1" },
		func() string { return "UPDATE items SET id = 999 WHERE id = 1" },
		func() string { return "UPDATE items SET score = 'oops' WHERE id = 1" },
		func() string { return fmt.Sprintf("DELETE FROM items WHERE id = %d", 40+rng.Intn(40)) },
		func() string { return "DELETE FROM items WHERE nosuch = 1" },
		func() string {
			return fmt.Sprintf("INSERT INTO logs (id, msg) VALUES (%d, 'm%d')", 1000+rng.Intn(100000), rng.Intn(10))
		},
		func() string { return "SELECT broken FROM" }, // parse error
		func() string {
			// A later tuple duplicates an earlier one: no row survives.
			id := 2000 + rng.Intn(1000)
			return fmt.Sprintf("INSERT INTO logs (id, msg) VALUES (%d, 'a'), (%d, 'b'), (%d, 'c')", id, id+1, id)
		},
		func() string {
			// A later tuple may duplicate a stored row.
			return fmt.Sprintf("INSERT INTO items (id, name, cat, score) VALUES (%d, 'x', 1, 1), (%d, 'y', 2, 2)",
				100+rng.Intn(50), rng.Intn(70))
		},
		func() string {
			// Must mutate exactly as the bare statement does.
			return fmt.Sprintf("EXPLAIN ANALYZE UPDATE items SET score = %d WHERE cat = %d", rng.Intn(100), rng.Intn(9))
		},
		func() string { return fmt.Sprintf("EXPLAIN ANALYZE DELETE FROM items WHERE id = %d", 40+rng.Intn(40)) },
	}
	for i := 0; i < 220; i++ {
		switch i {
		case 70:
			w = append(w, "CREATE INDEX idx_cat ON items (cat)")
		case 120:
			w = append(w,
				"BEGIN",
				"INSERT INTO items (id, name, cat, score) VALUES (900, 'txn', 1, 1)",
				"UPDATE items SET score = 0 WHERE id = 900",
				"ROLLBACK")
		case 160:
			w = append(w,
				"BEGIN",
				"INSERT INTO items (id, name, cat, score) VALUES (901, 'txn2', 2, 2)",
				"COMMIT")
		case 190:
			// DML, bare and under EXPLAIN ANALYZE, is refused in a READ
			// ONLY transaction, and the table is unchanged.
			w = append(w,
				"SET TRANSACTION READ ONLY",
				"BEGIN",
				"SELECT COUNT(*) FROM items",
				"UPDATE items SET score = 1 WHERE id = 3",
				"EXPLAIN ANALYZE UPDATE items SET score = 1 WHERE cat = 2",
				"EXPLAIN ANALYZE DELETE FROM items WHERE id = 4",
				"DELETE FROM items WHERE cat = 5",
				"INSERT INTO logs (id, msg) VALUES (7, 'ro')",
				"SELECT COUNT(*) FROM items",
				"COMMIT",
				"SELECT * FROM items WHERE id >= 0 AND id <= 10")
		}
		w = append(w, kinds[rng.Intn(len(kinds))]())
	}
	return w
}

// TestDifferentialLegacyVsOperator holds the operator-tree executor to
// the SQL model (model_test.go), statement by statement — rows in
// order, columns, affected and examined counts, access path, cache
// provenance, error text — and every SELECT, UPDATE and DELETE's
// buffer-pool fetches to the trace rule, so Top-N folding, index-order
// absorption and cost-based index choice (on these never-analyzed
// fixtures) change the CPU and memory profile, never the page-access
// profile. Two workload seeds, each run with the plan cache warm and
// emptied after every statement; the two runs must also agree on every
// surface.
func TestDifferentialLegacyVsOperator(t *testing.T) {
	warm := map[int64]runState{} // the plancache-on runs, for plancache-off to diff against
	for _, cold := range []bool{false, true} {
		name, opts := "plancache-on", checked
		if cold {
			name, opts = "plancache-off", checked|coldPlans
		}
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{0xC0FFEE, 0xBEEF} {
				t.Run(fmt.Sprintf("seed-%X", seed), func(t *testing.T) {
					workload := randomWorkload(rand.New(rand.NewSource(seed)))
					cfg := Defaults()
					cfg.EnableGeneralLog = true
					run := captureRun(t, cfg, workload, opts)
					if cold {
						on, ok := warm[seed]
						if !ok {
							on = captureRun(t, cfg, workload, checked)
						}
						diffRuns(t, workload, "plancache-on", "plancache-off", on, run, 0)
						return
					}
					warm[seed] = run
					// Sanity: the workload drove the executor through both
					// sort shapes.
					sawTopN, sawSort := false, false
					for op := range run.operators {
						sawTopN = sawTopN || strings.HasPrefix(op, "Top-N sort:")
						sawSort = sawSort || strings.HasPrefix(op, "Sort:")
					}
					if !sawTopN || !sawSort {
						t.Errorf("workload did not exercise both sort shapes (topn=%v sort=%v)", sawTopN, sawSort)
					}
				})
			}
		})
	}
}

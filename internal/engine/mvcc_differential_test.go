package engine

// Differential property test for the MVCC read path: for workloads
// with no cross-session read/write overlap — where snapshot reads and
// locking reads must agree — an engine with MVCC on and one with
// DisableMVCC set must produce byte-identical observable surfaces:
// per-statement results and errors, the binlog (including commit-time
// LSNs under the WAL-first commit ordering), and the general log. The
// divergent cases (reads during another session's open transaction)
// are asserted directly in mvcc_test.go; this test proves the MVCC
// bookkeeping — version chains, read views, inline purge, the commit
// resequencing — never perturbs what a conflict-free client observes.

import (
	"fmt"
	"math/rand"
	"testing"
)

// mvccDiffWorkload routes each statement to one of two sessions
// ("0|SQL" / "1|SQL"). Transactions never overlap a foreign read: the
// sessions hand the tables off between transaction boundaries.
func mvccDiffWorkload(rng *rand.Rand) []string {
	w := []string{
		"0|CREATE TABLE items (id INT PRIMARY KEY, name TEXT, cat INT, score INT)",
		"0|CREATE TABLE logs (id INT PRIMARY KEY, msg TEXT)",
	}
	for i := 0; i < 50; i++ {
		w = append(w, fmt.Sprintf(
			"0|INSERT INTO items (id, name, cat, score) VALUES (%d, 'n%d', %d, %d)",
			i, i, rng.Intn(8), rng.Intn(100)))
	}
	w = append(w, "0|CREATE INDEX idx_cat ON items (cat)")
	reads := []func(s int) string{
		func(s int) string { return fmt.Sprintf("%d|SELECT * FROM items WHERE id = %d", s, rng.Intn(60)) },
		func(s int) string {
			a := rng.Intn(40)
			return fmt.Sprintf("%d|SELECT name, score FROM items WHERE id >= %d AND id <= %d", s, a, a+rng.Intn(12))
		},
		func(s int) string { return fmt.Sprintf("%d|SELECT name FROM items WHERE cat = %d", s, rng.Intn(9)) },
		func(s int) string {
			return fmt.Sprintf("%d|SELECT id FROM items ORDER BY score DESC LIMIT %d", s, 1+rng.Intn(6))
		},
		func(s int) string { return fmt.Sprintf("%d|SELECT COUNT(*) FROM items", s) },
		func(s int) string {
			return fmt.Sprintf("%d|SELECT SUM(score) FROM items WHERE cat = %d", s, rng.Intn(9))
		},
		func(s int) string { return fmt.Sprintf("%d|SELECT nosuch FROM items", s) },
	}
	writes := []func(s int) string{
		func(s int) string {
			return fmt.Sprintf("%d|UPDATE items SET score = %d WHERE id = %d", s, rng.Intn(100), rng.Intn(60))
		},
		func(s int) string {
			return fmt.Sprintf("%d|UPDATE items SET cat = %d WHERE id = %d", s, rng.Intn(8), rng.Intn(60))
		},
		func(s int) string { return fmt.Sprintf("%d|DELETE FROM items WHERE id = %d", s, 40+rng.Intn(20)) },
		func(s int) string {
			return fmt.Sprintf("%d|INSERT INTO logs (id, msg) VALUES (%d, 'm%d')", s, 1000+rng.Intn(100000), rng.Intn(10))
		},
	}
	for round := 0; round < 30; round++ {
		// Autocommit mix from both sessions (no transaction open).
		for i := 0; i < 4; i++ {
			s := rng.Intn(2)
			if rng.Intn(3) == 0 {
				w = append(w, writes[rng.Intn(len(writes))](s))
			} else {
				w = append(w, reads[rng.Intn(len(reads))](s))
			}
		}
		// One session runs an explicit transaction — including its own
		// in-transaction reads (visible in both modes: own writes) —
		// while the other stays silent until it resolves.
		owner := rng.Intn(2)
		w = append(w, fmt.Sprintf("%d|BEGIN", owner))
		for i := 0; i < 2+rng.Intn(3); i++ {
			if rng.Intn(2) == 0 {
				w = append(w, writes[rng.Intn(len(writes))](owner))
			} else {
				w = append(w, reads[rng.Intn(len(reads))](owner))
			}
		}
		if rng.Intn(3) == 0 {
			w = append(w, fmt.Sprintf("%d|ROLLBACK", owner))
		} else {
			w = append(w, fmt.Sprintf("%d|COMMIT", owner))
		}
	}
	return w
}

// TestDifferentialMVCCVsLocking: on conflict-free workloads snapshot
// reads and stripe locking must be byte-identical on every surface,
// fetch trace included. It earns its keep under -race (scripts/ci.sh's
// race run), where the detector watches the version store, read views
// and inline purge under real session concurrency.
func TestDifferentialMVCCVsLocking(t *testing.T) {
	workload := mvccDiffWorkload(rand.New(rand.NewSource(0xBEEF)))
	cfg := Defaults()
	cfg.EnableGeneralLog = true
	cfg.PurgeEvery = 16 // exercise inline purge on the MVCC arm
	mvcc := captureRun(t, cfg, workload, nil)
	cfg.DisableMVCC = true
	locking := captureRun(t, cfg, workload, nil)
	diffRuns(t, workload, "mvcc", "locking", mvcc, locking, 0)
}

// TestStreamingGhostMerge holds the scan leaf's on-the-fly merge of
// ghost rows to a reference that involves no second executor: a
// transaction's pinned view must repeat, row for row and in order, what
// the very same statements returned before another session changed the
// table. The writer leaves ghosts (rows it deleted, which the view still
// sees) before the first surviving tree row, after the last, between
// rows, filling a range the tree now holds nothing of, and on either
// side of a row it inserted (which the view's resolver suppresses); the
// statements read them forward, reversed, through LIMITs that stop on a
// ghost, through aggregates and through the secondary index.
func TestStreamingGhostMerge(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	reader, writer := e.Connect("reader"), e.Connect("writer")
	defer reader.Close()
	defer writer.Close()
	mustExec(t, writer, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, grp INT)")
	for id := 0; id < 300; id++ {
		if id == 61 {
			continue // the writer fills this gap later
		}
		mustExec(t, writer, fmt.Sprintf("INSERT INTO t (id, name, grp) VALUES (%d, 'n%d', %d)", id, id, id%7))
	}
	mustExec(t, writer, "CREATE INDEX idx_grp ON t (grp)")

	queries := []string{
		"SELECT id, name FROM t",
		"SELECT id, name FROM t ORDER BY id DESC",
		"SELECT id FROM t LIMIT 1",
		"SELECT id FROM t LIMIT 4",
		"SELECT id FROM t ORDER BY id DESC LIMIT 2",
		"SELECT id, name FROM t WHERE id >= 0 AND id <= 6",
		"SELECT id, name FROM t WHERE id >= 290 AND id <= 400",
		"SELECT id, name FROM t WHERE id >= 70 AND id <= 79",
		"SELECT id FROM t WHERE id >= 70 AND id <= 79 ORDER BY id DESC",
		"SELECT id, name FROM t WHERE id >= 55 AND id <= 65",
		"SELECT id FROM t WHERE id >= 55 AND id <= 65 ORDER BY id DESC LIMIT 3",
		"SELECT name FROM t WHERE id = 60",
		"SELECT name FROM t WHERE id = 61",
		"SELECT name FROM t WHERE id = 150",
		"SELECT COUNT(*) FROM t",
		"SELECT SUM(grp) FROM t WHERE id >= 50 AND id <= 130",
		"SELECT id, name FROM t WHERE grp = 3",
		"SELECT id FROM t WHERE grp >= 2 AND grp <= 4 ORDER BY grp DESC LIMIT 5",
		"SELECT id FROM t WHERE grp = 5 ORDER BY name LIMIT 6",
	}
	run := func(s *Session) []string {
		out := make([]string, len(queries))
		for i, q := range queries {
			res, err := s.Execute(q)
			if res != nil {
				res.RowsExamined, res.FromCache = 0, false // tree rows visited, not view rows: allowed to move
			}
			out[i] = renderResult(res, err)
		}
		return out
	}

	mustExec(t, reader, "BEGIN")
	before := run(reader) // pins the view

	for _, id := range []int{0, 1, 2, 299, 298, 100, 101, 150, 60, 62} {
		mustExec(t, writer, fmt.Sprintf("DELETE FROM t WHERE id = %d", id))
	}
	mustExec(t, writer, "DELETE FROM t WHERE id >= 70 AND id <= 79")
	mustExec(t, writer, "INSERT INTO t (id, name, grp) VALUES (61, 'late', 3)")
	mustExec(t, writer, "INSERT INTO t (id, name, grp) VALUES (400, 'later', 3)")
	mustExec(t, writer, "UPDATE t SET name = 'moved', grp = 5 WHERE id = 59")
	mustExec(t, writer, "UPDATE t SET grp = 3 WHERE id = 63")

	after := run(reader)
	for i, q := range queries {
		if after[i] != before[i] {
			t.Errorf("pinned view changed under %q:\nbefore the writes: %s\nafter: %s", q, before[i], after[i])
		}
	}
	mustExec(t, reader, "COMMIT")

	// And the other direction: a fresh view sees exactly what an engine
	// that was simply loaded with the final rows returns.
	final := mustExec(t, reader, "SELECT * FROM t")
	quiet, _ := newEngine(t, Defaults())
	qs := quiet.Connect("quiet")
	defer qs.Close()
	mustExec(t, qs, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, grp INT)")
	for _, r := range final.Rows {
		mustExec(t, qs, fmt.Sprintf("INSERT INTO t (id, name, grp) VALUES (%d, %s, %d)", r[0].Int, r[1].SQL(), r[2].Int))
	}
	mustExec(t, qs, "CREATE INDEX idx_grp ON t (grp)")
	fresh, want := run(reader), run(qs)
	for i, q := range queries {
		if fresh[i] != want[i] {
			t.Errorf("fresh view differs from a quiet engine under %q:\nfresh: %s\nquiet: %s", q, fresh[i], want[i])
		}
	}
}

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

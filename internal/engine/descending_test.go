package engine

import (
	"fmt"
	"strings"
	"testing"

	"snapdb/internal/vfs"
)

// Keys that arrive in descending order keep landing in the leftmost
// leaf, below every key the tree held when its root first split. Every
// row must stay reachable: through COUNT(*), through a point SELECT,
// through a secondary index, and after a crash and Recover.

// insertDescending inserts rows n-1 down to 0 into t (id INT PRIMARY
// KEY, v TEXT), each with a 200-byte v.
func insertDescending(t *testing.T, s *Session, n int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	for id := n - 1; id >= 0; id-- {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, '%s')", id, descPayload(id)))
	}
}

func descPayload(id int) string {
	return fmt.Sprintf("%-200s", fmt.Sprintf("row-%d-", id)+strings.Repeat("v", id%50))
}

// checkDescending requires every row 0..n-1 of t to be counted and
// found by its primary key.
func checkDescending(t *testing.T, s *Session, n int) {
	t.Helper()
	if res := mustExec(t, s, "SELECT COUNT(*) FROM t"); res.Rows[0][0].Int != int64(n) {
		t.Fatalf("COUNT(*) = %d, want %d", res.Rows[0][0].Int, n)
	}
	missing := 0
	for id := 0; id < n; id++ {
		res := mustExec(t, s, fmt.Sprintf("SELECT v FROM t WHERE id = %d", id))
		if len(res.Rows) != 1 || res.Rows[0][0].Str != descPayload(id) {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d point SELECTs miss their row", missing, n)
	}
}

func TestDescendingInsertsLoseNothing(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	insertDescending(t, s, 2000)
	checkDescending(t, s, 2000)
}

func TestDescendingInsertsSurviveRecover(t *testing.T) {
	mem := vfs.NewMemFS()
	e := durableEngine(t, mem)
	s := e.Connect("app")
	insertDescending(t, s, 2000)
	mem.Crash()

	// Replay files every row through the tree's insert path again.
	r, _, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	rs := r.Connect("app")
	defer rs.Close()
	checkDescending(t, rs, 2000)
}

func TestDescendingIndexValuesLoseNothing(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	const n = 5000
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, k INT)")
	mustExec(t, s, "CREATE INDEX ik ON t (k)")
	for id := 0; id < n; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, k) VALUES (%d, %d)", id, n-id))
	}
	missing := 0
	for id := 0; id < n; id++ {
		res := mustExec(t, s, fmt.Sprintf("SELECT id FROM t WHERE k = %d", n-id))
		if res.AccessPath != "index:ik" {
			t.Fatalf("WHERE k = %d ran as %q, not through the index", n-id, res.AccessPath)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int != int64(id) {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d index lookups miss their row", missing, n)
	}
	if res := mustExec(t, s, "DELETE FROM t"); res.RowsAffected != n {
		t.Fatalf("DELETE FROM t affected %d rows, want %d", res.RowsAffected, n)
	}
}

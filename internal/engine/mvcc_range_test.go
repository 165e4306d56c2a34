package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// A SELECT resolves only the version chains in its own primary-key
// range. These tests hold that narrowing to the SQL model at the bound
// edges, where a range one key too short drops a ghost or keeps a
// newer row and one key too long leaks a ghost from outside, and to
// snapshot consistency while purge runs beside the readers.

// TestRangeFilterResolvesOnlyItsRange: point, primary-key range,
// parallel and index SELECTs run beside an open writer whose chains sit
// just inside and just outside each bound, lo and hi inclusive: a
// tombstone on one inside bound and a newer row on the other, a
// tombstone just outside each, and rows the reader's view predates on
// the bounds of a third range. Every answer, the query cache's
// included, is the SQL model's and every read's fetches the trace
// rule's (a parallel read's in any order), from a reader in autocommit
// and from one whose view predates the writer, before and after the
// writer commits.
func TestRangeFilterResolvesOnlyItsRange(t *testing.T) {
	reads := []string{
		"SELECT * FROM t WHERE id >= 100 AND id <= 200",
		"SELECT id, v FROM t WHERE id >= 300 AND id <= 400",
		"SELECT * FROM t WHERE id >= 1000 AND id <= 1010",
		"SELECT * FROM t WHERE id >= 202 AND id <= 298", // clean, between two outside tombstones
		"SELECT id FROM t WHERE id > 100 AND id < 200",  // strict: the bound rows are residual
		"SELECT COUNT(*) FROM t WHERE id >= 100 AND id <= 200",
		"SELECT SUM(k) FROM t WHERE id >= 300 AND id <= 400",
		"SELECT SUM(id) FROM t WHERE id >= 202 AND id <= 298 AND k != 2",
		"SELECT * FROM t WHERE id >= 100 AND id <= 200 ORDER BY id DESC LIMIT 3",
		"SELECT id, k FROM t WHERE k = 3",
		"SELECT id FROM t WHERE k >= 2 AND k <= 3",
		"SELECT COUNT(*) FROM t",
	}
	for _, id := range []int{99, 100, 101, 149, 150, 151, 199, 200, 201, 300, 400, 401, 999, 1000, 1010, 1011} {
		reads = append(reads, fmt.Sprintf("SELECT * FROM t WHERE id = %d", id))
	}
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Defaults()
			cfg.MaxScanWorkers = workers
			cfg.ParallelScanMinRows = 1
			e, _ := newEngine(t, cfg)
			m := newSQLModel(cfg)
			s, writer, pinned := e.Connect("app"), e.Connect("writer"), e.Connect("pinned")
			defer s.Close()
			defer writer.Close()
			defer pinned.Close()
			setup := []string{"CREATE TABLE t (id INT PRIMARY KEY, k INT, v TEXT)"}
			for lo := 0; lo < 600; lo += 100 {
				var vals []string
				for id := lo; id < lo+100; id++ {
					vals = append(vals, fmt.Sprintf("(%d, %d, 'v%d')", id, id%7, id))
				}
				setup = append(setup, "INSERT INTO t (id, k, v) VALUES "+strings.Join(vals, ", "))
			}
			setup = append(setup, "CREATE INDEX idx_k ON t (k)")
			for _, q := range setup {
				m.step(t, e, 0, s, q)
			}
			parallel := 0
			read := func(n int, sess *Session, q string) {
				t.Helper()
				res := m.step(t, e, n, sess, q)
				if res != nil && len(res.stages) > 0 && strings.HasPrefix(res.stages[len(res.stages)-1].Operator, "Partition") {
					parallel++
				}
			}
			m.step(t, e, 2, pinned, "BEGIN")
			read(2, pinned, "SELECT COUNT(*) FROM t") // pins a view older than the writer
			for _, q := range []string{
				"BEGIN",
				"DELETE FROM t WHERE id = 99", // just outside [100, 200]
				"DELETE FROM t WHERE id = 100",
				"UPDATE t SET k = 3 WHERE id = 200",
				"DELETE FROM t WHERE id = 201",
				"DELETE FROM t WHERE id = 149", // around the point 150
				"UPDATE t SET v = 'new' WHERE id = 150",
				"DELETE FROM t WHERE id = 151",
				"DELETE FROM t WHERE id = 299", // just outside [300, 400]
				"UPDATE t SET k = 2 WHERE id = 300",
				"DELETE FROM t WHERE id = 400",
				"DELETE FROM t WHERE id = 401",
				"INSERT INTO t (id, k, v) VALUES (999, 3, 'late')", // just outside [1000, 1010]
				"INSERT INTO t (id, k, v) VALUES (1000, 3, 'late')",
				"INSERT INTO t (id, k, v) VALUES (1010, 2, 'late')",
				"INSERT INTO t (id, k, v) VALUES (1011, 3, 'late')",
			} {
				m.step(t, e, 1, writer, q)
			}
			for round := 0; round < 2; round++ { // the second round would hit a wrongly filled cache
				for _, q := range reads {
					read(0, s, q)
					read(2, pinned, q)
				}
			}
			m.step(t, e, 1, writer, "COMMIT")
			for round := 0; round < 2; round++ {
				for _, q := range reads {
					read(0, s, q)
					read(2, pinned, q)
				}
			}
			m.step(t, e, 2, pinned, "COMMIT")
			if workers >= 2 && parallel == 0 {
				t.Errorf("no range read fanned out over %d workers", workers)
			}
		})
	}
}

// TestRangeViewsUnderPurge: range and point readers, each on a session
// of its own, read while a writer stamps groups of four rows with its
// transaction number — rolling every eighth transaction back — and
// inline purge runs every few statements. Every read must be a
// snapshot: no rolled-back stamp, one stamp per group in a range, and a
// repeatable-read transaction's two reads of one range alike.
func TestRangeViewsUnderPurge(t *testing.T) {
	const (
		rows, group, txns = 400, 4, 120
		rollbackEvery     = 8
	)
	cfg := Defaults()
	cfg.PurgeEvery = 5
	cfg.MaxScanWorkers = 4
	cfg.ParallelScanMinRows = 1
	e, _ := newEngine(t, cfg)
	setup := e.Connect("setup")
	mustExec(t, setup, "CREATE TABLE t (id INT PRIMARY KEY, tag INT)")
	for lo := 0; lo < rows; lo += 100 {
		var vals []string
		for id := lo; id < lo+100; id++ {
			vals = append(vals, fmt.Sprintf("(%d, 0)", id))
		}
		mustExec(t, setup, "INSERT INTO t (id, tag) VALUES "+strings.Join(vals, ", "))
	}
	setup.Close()
	rolledBack := func(tag int64) bool { return tag%rollbackEvery == rollbackEvery-1 }

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		w := e.Connect("writer")
		defer w.Close()
		for tag := 1; tag <= txns; tag++ {
			g := (tag * 37) % (rows / group)
			stmts := []string{"BEGIN"}
			for i := 0; i < group; i++ {
				stmts = append(stmts, fmt.Sprintf("UPDATE t SET tag = %d WHERE id = %d", tag, g*group+i))
			}
			if rolledBack(int64(tag)) {
				stmts = append(stmts, "ROLLBACK")
			} else {
				stmts = append(stmts, "COMMIT")
			}
			for _, q := range stmts {
				if _, err := w.Execute(q); err != nil {
					t.Errorf("writer: %s: %v", q, err)
					return
				}
			}
		}
	}()

	// checkRange holds one read of ids [lo, lo+n) to the snapshot rules.
	checkRange := func(res *Result, lo, n int) bool {
		if len(res.Rows) != n {
			t.Errorf("range from %d: %d rows, want %d", lo, len(res.Rows), n)
			return false
		}
		for i, r := range res.Rows {
			id, tag := int(r[0].Int), r[1].Int
			if id != lo+i || rolledBack(tag) {
				t.Errorf("range from %d: row %d is (%d, %d)", lo, i, id, tag)
				return false
			}
			if id%group != 0 && i > 0 && res.Rows[i-1][1].Int != tag {
				t.Errorf("range from %d: group of id %d holds stamps %d and %d", lo, id, res.Rows[i-1][1].Int, tag)
				return false
			}
		}
		return true
	}
	reader := func(name string, read func(s *Session, i int) bool) {
		defer wg.Done()
		s := e.Connect(name)
		defer s.Close()
		for i := 0; ; i++ {
			if i >= 50 { // at least 50 reads, then until the writer is done
				select {
				case <-done:
					return
				default:
				}
			}
			if !read(s, i) {
				return
			}
		}
	}
	wg.Add(2)
	go reader("point", func(s *Session, i int) bool {
		id := (i * 13) % rows
		res, err := s.Execute(fmt.Sprintf("SELECT tag FROM t WHERE id = %d", id))
		if err != nil || len(res.Rows) != 1 || rolledBack(res.Rows[0][0].Int) {
			t.Errorf("point read of %d: %v %v", id, res, err)
			return false
		}
		return true
	})
	go reader("range", func(s *Session, i int) bool {
		lo, n := (i*52)%(rows-40), 40
		q := fmt.Sprintf("SELECT id, tag FROM t WHERE id >= %d AND id <= %d", lo, lo+n-1)
		if i%2 == 0 {
			res, err := s.Execute(q)
			if err != nil {
				t.Errorf("%s: %v", q, err)
				return false
			}
			return checkRange(res, lo, n)
		}
		var got [2]string
		for j, stmt := range []string{"BEGIN", q, q, "COMMIT"} {
			res, err := s.Execute(stmt)
			if err != nil {
				t.Errorf("%s: %v", stmt, err)
				return false
			}
			if stmt == q {
				if !checkRange(res, lo, n) {
					return false
				}
				got[j-1] = renderResult(&Result{Rows: res.Rows}, nil)
			}
		}
		if got[0] != got[1] {
			t.Errorf("%s read twice in one transaction:\n%s\n%s", q, got[0], got[1])
			return false
		}
		return true
	})
	wg.Wait()
	if st := e.versions.status(); st.purgeRuns == 0 {
		t.Error("inline purge never ran")
	}
}

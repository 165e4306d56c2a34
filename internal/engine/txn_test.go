package engine

import (
	"strings"
	"testing"

	"snapdb/internal/wal"
)

func TestTxnCommitMakesWritesVisible(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, s, "BEGIN")
	if !s.InTransaction() {
		t.Fatal("not in transaction after BEGIN")
	}
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'committed')")
	mustExec(t, s, "COMMIT")
	if s.InTransaction() {
		t.Fatal("still in transaction after COMMIT")
	}
	res := mustExec(t, s, "SELECT v FROM t WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "committed" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestTxnRollbackInsert(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'doomed')")
	mustExec(t, s, "ROLLBACK")
	res := mustExec(t, s, "SELECT * FROM t")
	if len(res.Rows) != 0 {
		t.Errorf("rolled-back insert visible: %v", res.Rows)
	}
}

func TestTxnRollbackUpdateRestoresOldValue(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT, n INT)")
	mustExec(t, s, "INSERT INTO t (id, v, n) VALUES (1, 'original', 10)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t SET v = 'changed', n = 99 WHERE id = 1")
	mustExec(t, s, "ROLLBACK")
	res := mustExec(t, s, "SELECT v, n FROM t WHERE id = 1")
	if res.Rows[0][0].Str != "original" || res.Rows[0][1].Int != 10 {
		t.Errorf("row after rollback = %v", res.Rows[0])
	}
}

func TestTxnRollbackDeleteReinserts(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'precious')")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "DELETE FROM t WHERE id = 1")
	mustExec(t, s, "ROLLBACK")
	res := mustExec(t, s, "SELECT v FROM t WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "precious" {
		t.Errorf("deleted row not restored: %v", res.Rows)
	}
}

func TestTxnRollbackMixedReverseOrder(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 100)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t SET v = 200 WHERE id = 1")
	mustExec(t, s, "UPDATE t SET v = 300 WHERE id = 1")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (2, 2)")
	mustExec(t, s, "DELETE FROM t WHERE id = 1")
	mustExec(t, s, "ROLLBACK")
	res := mustExec(t, s, "SELECT v FROM t WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 100 {
		t.Errorf("id=1 after rollback = %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT * FROM t WHERE id = 2")
	if len(res.Rows) != 0 {
		t.Errorf("id=2 still present after rollback")
	}
}

func TestTxnBinlogOnlyOnCommit(t *testing.T) {
	e, now := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	before := len(durableBinlog(t, e))

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'aborted-write')")
	if len(durableBinlog(t, e)) != before {
		t.Error("uncommitted statement reached the binlog")
	}
	mustExec(t, s, "ROLLBACK")
	if len(durableBinlog(t, e)) != before {
		t.Error("rolled-back statement reached the binlog")
	}

	*now = 5_000_000
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (2, 'committed-write')")
	*now = 5_000_100
	mustExec(t, s, "COMMIT")
	_, _, evs := durableLogs(t, e)
	if len(evs) != before+1 {
		t.Fatalf("binlog events = %d, want %d", len(evs), before+1)
	}
	last := evs[len(evs)-1]
	if !strings.Contains(last.Statement, "committed-write") {
		t.Errorf("binlog statement = %q", last.Statement)
	}
	if last.Timestamp != 5_000_100 {
		t.Errorf("binlog timestamp = %d, want commit time", last.Timestamp)
	}
}

// TestTxnAbortedWritesPersistInWAL is the paper's §3 point: rollback
// requires undo data on disk, so even aborted transactions leave a
// byte-level transcript — original changes plus compensations.
func TestTxnAbortedWritesPersistInWAL(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	redo, _, _ := durableLogs(t, e)
	walBefore := len(redo)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'secret-aborted-value')")
	mustExec(t, s, "ROLLBACK")
	redo, _, _ = durableLogs(t, e)
	recs := redo[walBefore:]
	if len(recs) != 3 { // the insert + the compensating delete + the abort marker
		t.Fatalf("aborted txn left %d WAL records, want 3", len(recs))
	}
	if recs[0].Op != wal.OpInsert || recs[0].Image[1].Str != "secret-aborted-value" {
		t.Errorf("original change not in WAL: %+v", recs[0])
	}
	if recs[1].Op != wal.OpDelete {
		t.Errorf("compensation not in WAL: %+v", recs[1])
	}
	if recs[2].Op != wal.OpAbort {
		t.Errorf("abort marker not in WAL: %+v", recs[2])
	}
}

func TestTxnControlErrors(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	if _, err := s.Execute("COMMIT"); err == nil {
		t.Error("COMMIT without BEGIN accepted")
	}
	if _, err := s.Execute("ROLLBACK"); err == nil {
		t.Error("ROLLBACK without BEGIN accepted")
	}
	mustExec(t, s, "BEGIN")
	if _, err := s.Execute("BEGIN"); err == nil {
		t.Error("nested BEGIN accepted")
	}
}

func TestTxnIsolatedPerSession(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	a := e.Connect("a")
	b := e.Connect("b")
	mustExec(t, a, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, a, "BEGIN")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (1, 1)")
	// Session b is in autocommit; its write must hit the binlog
	// immediately despite a's open transaction.
	before := len(durableBinlog(t, e))
	mustExec(t, b, "INSERT INTO t (id, v) VALUES (2, 2)")
	if len(durableBinlog(t, e)) != before+1 {
		t.Error("autocommit write from another session was buffered")
	}
	mustExec(t, a, "ROLLBACK")
	res := mustExec(t, b, "SELECT * FROM t WHERE id = 2")
	if len(res.Rows) != 1 {
		t.Error("rollback of session a affected session b's row")
	}
}

func TestTxnRollbackInvalidatesQueryCache(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 10)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t SET v = 99 WHERE id = 1")
	q := "SELECT v FROM t WHERE id = 1"
	res := mustExec(t, s, q)
	if res.Rows[0][0].Int != 99 {
		t.Fatalf("in-txn read = %v", res.Rows)
	}
	mustExec(t, s, "ROLLBACK")
	res = mustExec(t, s, q)
	if res.FromCache {
		t.Error("stale cache entry survived rollback")
	}
	if res.Rows[0][0].Int != 10 {
		t.Errorf("post-rollback read = %v", res.Rows)
	}
}

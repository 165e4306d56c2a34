package engine

// Transaction edge cases: ROLLBACK's affected-row count, the
// WAL-before-binlog commit ordering (with a crash in the gap), what a
// failed durable write leaves of an autocommit statement, COMMIT
// with buffered binlog events but no undo, rollback racing DROP TABLE,
// and interleaved transactions across sessions.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"snapdb/internal/binlog"
	"snapdb/internal/failpoint"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// TestRollbackReportsZeroRowsAffected is the MySQL-compatibility
// regression: ROLLBACK used to report len(undo), which double-counts
// multi-column updates (one undo record per column).
func TestRollbackReportsZeroRowsAffected(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT)")
	mustExec(t, s, "INSERT INTO t (id, a, b) VALUES (1, 1, 1)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t SET a = 2, b = 2 WHERE id = 1") // 2 undo records
	mustExec(t, s, "INSERT INTO t (id, a, b) VALUES (2, 0, 0)")
	res := mustExec(t, s, "ROLLBACK")
	if res.RowsAffected != 0 {
		t.Errorf("ROLLBACK RowsAffected = %d, want 0", res.RowsAffected)
	}
}

// TestCommitCrashBetweenWALAndBinlog arms a crash on the binlog append
// of a commit — COMMIT's, and an autocommit INSERT's, which commits
// through the same path. The WAL commit marker lands first, so the
// recovered data must contain the committed rows while the binlog lacks
// their statements: recovered data may carry statements the binlog
// lacks, never the reverse.
func TestCommitCrashBetweenWALAndBinlog(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stmts []string // binlog write 1 is CREATE TABLE's; the crash is on write 2
	}{
		{"COMMIT", []string{
			"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
			"BEGIN",
			"INSERT INTO t (id, v) VALUES (1, 'a')",
			"INSERT INTO t (id, v) VALUES (2, 'b')",
			"COMMIT",
		}},
		{"autocommit", []string{
			"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
			"INSERT INTO t (id, v) VALUES (1, 'a')",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := vfs.NewMemFS()
			reg := failpoint.New(1)
			reg.Arm("write:"+FileBinlog, failpoint.KindCrash, 2)
			acked := runUntilError(vfs.NewFaultFS(mem, reg), tc.stmts)
			if !reg.Crashed() {
				t.Fatalf("kill point never fired (acked %d statements)", acked)
			}
			if acked != len(tc.stmts)-1 { // the committing statement itself must be the one that dies
				t.Fatalf("acked %d statements, want %d", acked, len(tc.stmts)-1)
			}
			mem.Crash()

			r, _, err := Recover(mem, Defaults())
			if err != nil {
				t.Fatal(err)
			}
			res := mustExec(t, r.Connect("app"), "SELECT v FROM t")
			if want := strings.Count(strings.Join(tc.stmts, "\n"), "INSERT"); len(res.Rows) != want {
				t.Errorf("recovered rows = %v, want the %d committed (WAL commit preceded the crash)", res.Rows, want)
			}
			// Only CREATE TABLE's event made it: the binlog file lacks the
			// torn commit's statements and holds the one before them.
			if got := durableBinlog(t, r); !reflect.DeepEqual(got, tc.stmts[:1]) {
				t.Errorf("binlog file holds %q, want only %q", got, tc.stmts[:1])
			}
		})
	}
}

// TestStatementDurabilityFailures injects one I/O error into each step
// of an autocommit INSERT's one flush — the redo write that carries its
// data record and its commit marker, the undo write, the redo sync, the
// binlog write — and into the redo write of a two-column UPDATE, and
// holds the statement to one rule: an error means it had no effect
// anywhere, so a second session reads the table as before it and
// recovery rebuilds the same. The exception is a binlog failure after
// the marker is durable: as with COMMIT, the statement is committed,
// the error names the binlog, and the binlog lacks it.
func TestStatementDurabilityFailures(t *testing.T) {
	const (
		insert = "INSERT INTO t (id, v, n) VALUES (2, 'b', 2)"
		update = "UPDATE t SET v = 'z', n = 9 WHERE id = 1"
	)
	for _, tc := range []struct {
		name, stmt, point string
		hit               uint64 // the point's n-th write after the setup
		committed         bool
	}{
		{"INSERT data redo write", insert, "write:" + FileRedo, 1, false},
		{"INSERT undo write", insert, "write:" + FileUndo, 1, false},
		{"INSERT redo sync", insert, "sync:" + FileRedo, 1, false},
		{"INSERT binlog write", insert, "write:" + FileBinlog, 1, true},
		{"UPDATE first column redo write", update, "write:" + FileRedo, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := vfs.NewMemFS()
			reg := failpoint.New(1)
			cfg := Defaults()
			cfg.FS = vfs.NewFaultFS(mem, reg)
			cfg.EnableQueryCache = false // the second session must read the tree, not a result cached before the statement
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			app, other := e.Connect("app"), e.Connect("other")
			setup := []string{
				"CREATE TABLE t (id INT PRIMARY KEY, v TEXT, n INT)",
				"INSERT INTO t (id, v, n) VALUES (1, 'a', 1)",
			}
			for _, q := range setup {
				mustExec(t, app, q)
			}
			state := func(s *Session) string { return fmt.Sprint(mustExec(t, s, "SELECT id, v, n FROM t").Rows) }
			before := state(other)

			reg.Arm(tc.point, failpoint.KindErr, tc.hit)
			_, err = app.Execute(tc.stmt)
			if err == nil {
				t.Fatal("the injected write error was not reported")
			}
			if got := strings.Contains(err.Error(), "binlog"); got != tc.committed {
				t.Errorf("error %q names the binlog: %v, want %v", err, got, tc.committed)
			}
			live := state(other)
			mem.Crash()
			r, _, err := Recover(mem, Defaults())
			if err != nil {
				t.Fatal(err)
			}
			if recovered := state(r.Connect("app")); recovered != live || (live != before) != tc.committed {
				t.Errorf("before %s, a second session reads %s, recovery rebuilds %s; want the statement applied in both: %v",
					before, live, recovered, tc.committed)
			}
			// The binlog file holds the setup's events and not the failed
			// statement's, committed or not.
			if got := durableBinlog(t, r); !reflect.DeepEqual(got, setup) {
				t.Errorf("binlog file holds %q, want only the setup %q", got, setup)
			}
		})
	}
}

// TestCommitEmptyUndoFlushesBufferedBinlog pins the COMMIT branch
// where no undo exists (so no WAL commit marker is written) but
// binlog events are buffered: they must still flush, with the commit
// timestamp.
func TestCommitEmptyUndoFlushesBufferedBinlog(t *testing.T) {
	e, now := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	redo, _, evs := durableLogs(t, e)
	walBefore, binlogBefore := len(redo), len(evs)

	mustExec(t, s, "BEGIN")
	// No DML ran, but an event sits in the transaction's binlog cache
	// (statement classes that binlog without undo records).
	s.txn.binlogBuf = append(s.txn.binlogBuf, binlog.Event{Statement: "SYNTHETIC"})
	*now = 2_000_000
	mustExec(t, s, "COMMIT")

	redo, _, evs = durableLogs(t, e)
	if len(evs) != binlogBefore+1 {
		t.Fatalf("binlog events = %d, want %d", len(evs), binlogBefore+1)
	}
	last := evs[len(evs)-1]
	if last.Statement != "SYNTHETIC" || last.Timestamp != 2_000_000 {
		t.Errorf("flushed event = %+v", last)
	}
	// An undo-less transaction writes no commit marker.
	for _, rec := range redo[walBefore:] {
		if rec.Op == wal.OpCommit {
			t.Errorf("empty transaction wrote a WAL commit marker")
		}
	}
}

// TestRollbackAfterDropTable: a transaction's undo could reference a
// table another session drops mid-flight, so the DROP is refused while
// the transaction is open; the rollback then restores the row into the
// table, and the DROP goes through once nothing is open.
func TestRollbackAfterDropTable(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	a := e.Connect("txn")
	b := e.Connect("ddl")
	mustExec(t, a, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (1, 'x')")
	mustExec(t, a, "BEGIN")
	mustExec(t, a, "UPDATE t SET v = 'y' WHERE id = 1")
	if _, err := b.Execute("DROP TABLE t"); err == nil || !strings.Contains(err.Error(), "DDL refused: 1 open transaction(s)") {
		t.Fatalf("DROP beside an open transaction: err = %v, want the refusal", err)
	}
	mustExec(t, a, "ROLLBACK")
	if res := mustExec(t, b, "SELECT v FROM t WHERE id = 1"); len(res.Rows) != 1 || res.Rows[0][0].Str != "x" {
		t.Errorf("row after ROLLBACK = %v, want x", res.Rows)
	}
	mustExec(t, b, "DROP TABLE t")
}

// TestTxnInterleavedAcrossSessions: two transactions on the same
// table, one committing and one rolling back, interleaved — each
// resolves independently.
func TestTxnInterleavedAcrossSessions(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	a := e.Connect("a")
	b := e.Connect("b")
	mustExec(t, a, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (1, 10)")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (2, 20)")

	mustExec(t, a, "BEGIN")
	mustExec(t, b, "BEGIN")
	mustExec(t, a, "UPDATE t SET v = 11 WHERE id = 1")
	mustExec(t, b, "UPDATE t SET v = 22 WHERE id = 2")
	mustExec(t, a, "ROLLBACK")
	mustExec(t, b, "COMMIT")

	res := mustExec(t, a, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Int != 10 {
		t.Errorf("rolled-back row = %v, want 10", res.Rows)
	}
	res = mustExec(t, a, "SELECT v FROM t WHERE id = 2")
	if res.Rows[0][0].Int != 22 {
		t.Errorf("committed row = %v, want 22", res.Rows)
	}
}

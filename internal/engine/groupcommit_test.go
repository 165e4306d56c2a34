package engine

// Group commit: a run of autocommit writes submitted through
// Session.Submit shares one durable step, Execute is a group of one,
// and what reaches disk is the same either way.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"snapdb/internal/failpoint"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// submitAll submits qs as one pipelined group and flushes it, failing
// the test on any statement's error.
func submitAll(t testing.TB, s *Session, qs []string) {
	t.Helper()
	for _, q := range qs {
		s.Submit(q, func(_ *Result, err error) {
			if err != nil {
				t.Errorf("Submit(%q): %v", q, err)
			}
		})
	}
	s.Flush()
}

// TestDurableOpsPerStatement pins the durable-op cost of every kind of
// statement — writes, syncs and every other mutating file operation,
// counted as failpoint evaluations below a FaultFS — so that a change
// to the commit pipeline's cadence shows as an exact count, not as a
// timing. An autocommit write is one flush however many rows it
// changes (redo, undo and binlog each written and synced), a pipelined
// group of them is one flush too, a statement inside a transaction
// writes and syncs its redo and undo at its ack, COMMIT writes and
// syncs its marker and its binlog events, ROLLBACK its compensations and
// abort marker in one step, and a SELECT touches nothing.
func TestDurableOpsPerStatement(t *testing.T) {
	reg := failpoint.New(1)
	cfg := Defaults()
	cfg.FS = vfs.NewFaultFS(vfs.NewMemFS(), reg)
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")

	rows := func(lo, n int) string {
		var tuples []string
		for i := lo; i < lo+n; i++ {
			tuples = append(tuples, fmt.Sprintf("(%d, 'v%d')", i, i))
		}
		return "INSERT INTO t (id, v) VALUES " + strings.Join(tuples, ", ")
	}
	var group []string
	for i := 0; i < 16; i++ {
		group = append(group, rows(200+i, 1))
	}
	exec := func(q string) func() { return func() { mustExec(t, s, q) } }
	for _, tc := range []struct {
		name string
		run  func()
		want uint64
	}{
		{"autocommit INSERT, 1 row", exec(rows(1, 1)), 6},
		{"autocommit INSERT, 50 rows", exec(rows(100, 50)), 6},
		{"group of 16 single-row INSERTs", func() { submitAll(t, s, group) }, 6},
		{"autocommit UPDATE, 1 row", exec("UPDATE t SET v = 'u' WHERE id = 1"), 6},
		{"autocommit UPDATE, 50 rows", exec("UPDATE t SET v = 'u' WHERE id >= 100 AND id <= 149"), 6},
		{"autocommit DELETE, 1 row", exec("DELETE FROM t WHERE id = 1"), 6},
		{"autocommit DELETE, 50 rows", exec("DELETE FROM t WHERE id >= 100 AND id <= 149"), 6},
		{"SELECT", exec("SELECT v FROM t WHERE id = 200"), 0},
		{"BEGIN", exec("BEGIN"), 0},
		{"UPDATE in a transaction", exec("UPDATE t SET v = 'x' WHERE id = 200"), 4},
		{"INSERT in a transaction, 3 rows", exec(rows(300, 3)), 4},
		{"COMMIT", exec("COMMIT"), 4},
		{"BEGIN", exec("BEGIN"), 0},
		{"DELETE in a transaction, 2 rows", exec("DELETE FROM t WHERE id >= 201 AND id <= 202"), 4},
		{"UPDATE in a transaction, 2 rows", exec("UPDATE t SET v = 'y' WHERE id >= 203 AND id <= 204"), 4},
		{"ROLLBACK", exec("ROLLBACK"), 4},
	} {
		before := reg.TotalHits()
		tc.run()
		if got := reg.TotalHits() - before; got != tc.want {
			t.Errorf("%s: %d durable ops, want %d", tc.name, got, tc.want)
		}
	}
}

// TestGroupedFlushWritesSameBytes: the same statements run once as one
// pipelined group and once as single Execute calls leave byte-identical
// redo, undo and binlog files, on plain storage and on deterministic
// CryptFS — grouping changes when the bytes reach disk, not which bytes
// (the on-disk surface E17 and an append-cadence attacker read). Each
// binlog event keeps its own statement's commit LSN, not the group's
// last.
func TestGroupedFlushWritesSameBytes(t *testing.T) {
	stmts := []string{
		"INSERT INTO t (id, v, n) VALUES (1, 'a', 1), (2, 'b', 2), (3, 'c', 3)",
		"INSERT INTO t (id, v, n) VALUES (4, 'd', 4)",
		"UPDATE t SET v = 'bb', n = 20 WHERE id = 2",
		"DELETE FROM t WHERE id = 3",
		"INSERT INTO t (id, v, n) VALUES (2, 'dup', 0)", // fails on the duplicate key
		"UPDATE t SET n = 0 WHERE id >= 1 AND id <= 4",
		"DELETE FROM t WHERE id = 99", // matches nothing
		"INSERT INTO t (id, v, n) VALUES (5, 'e', 5)",
	}
	for _, arm := range []struct {
		name string
		cfg  Config
	}{{"plain", Defaults()}, {"cryptfs", cryptCfg(true)}} {
		t.Run(arm.name, func(t *testing.T) {
			run := func(grouped bool) (files [][]byte, markers []wal.Record, e *Engine) {
				mem := vfs.NewMemFS()
				cfg := arm.cfg
				cfg.FS = mem
				e, _ = newEngine(t, cfg)
				s := e.Connect("app")
				mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT, n INT)")
				for _, q := range stmts {
					if grouped {
						s.Submit(q, func(*Result, error) {})
					} else {
						_, _ = s.Execute(q)
					}
				}
				s.Flush()
				for _, name := range []string{FileRedo, FileUndo, FileBinlog} {
					img, err := mem.ReadFile(name)
					if err != nil {
						t.Fatal(err)
					}
					files = append(files, img)
				}
				redo, _, _ := durableLogs(t, e)
				for _, r := range redo {
					if r.Op == wal.OpCommit {
						markers = append(markers, r)
					}
				}
				return files, markers, e
			}
			single, _, _ := run(false)
			grouped, markers, e := run(true)
			for i, name := range []string{FileRedo, FileUndo, FileBinlog} {
				if len(single[i]) == 0 || !bytes.Equal(single[i], grouped[i]) {
					t.Errorf("%s: %d bytes as single statements, %d as one group, equal %v; want the same non-empty bytes",
						name, len(single[i]), len(grouped[i]), bytes.Equal(single[i], grouped[i]))
				}
			}
			_, _, evs := durableLogs(t, e)
			evs = evs[1:] // CREATE TABLE's, which has no marker
			if len(evs) != len(markers) || len(evs) != 6 {
				t.Fatalf("%d binlog events and %d commit markers, want 6 of each", len(evs), len(markers))
			}
			for i, ev := range evs {
				if ev.LSN != markers[i].LSN {
					t.Errorf("event %d (%q) carries LSN %d, its commit marker %d", i, ev.Statement, ev.LSN, markers[i].LSN)
				}
			}
		})
	}
}

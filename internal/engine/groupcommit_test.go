package engine

// Group commit: a run of autocommit writes submitted through
// Session.Submit shares one durable step, Execute is a group of one,
// and what reaches disk is the same either way.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"snapdb/internal/failpoint"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// submitAll submits qs as one pipelined group and flushes it, failing
// the test on any statement's error, and returns the rows the group
// examined.
func submitAll(t testing.TB, s *Session, qs []string) (examined int) {
	t.Helper()
	for _, q := range qs {
		s.Submit(q, func(res *Result, err error) {
			if err != nil {
				t.Errorf("Submit(%q): %v", q, err)
				return
			}
			examined += res.RowsExamined
		})
	}
	s.Flush()
	return examined
}

var updateCost = flag.Bool("update", false, "rewrite testdata/cost.golden from this run")

// TestCostCensus is the cost census: per statement class, on a plain
// and a deterministic-CryptFS engine, the durable ops it costs —
// writes, syncs and every other mutating file operation, counted as
// failpoint evaluations below a FaultFS — the buffer-pool fetches it
// makes (hits and misses alike), the rows it examines, and the bytes it
// appends to the redo, undo and binlog files, read against
// testdata/cost.golden. A change to the commit pipeline's cadence, to a
// log's encoding or to a plan's page walk shows as a diff of that file,
// not as a timing. An autocommit write is one flush however many rows it
// changes (redo, undo and binlog each written and synced), a pipelined
// group of them is one flush too, a statement inside a transaction
// writes and syncs its redo and undo at its ack, COMMIT writes and syncs
// its marker and its binlog events, ROLLBACK its compensations and abort
// marker in one step, and a SELECT touches no file.
//
// The read rows run on a second table, r, with a secondary index on k:
// a point SELECT on its first, second and third sighting (the plan cache
// admits a text on its second, so the third is a plan-cache hit), a
// pk range, a COUNT folded at the leaf, a top-N, an index lookup, and a
// range read by a transaction whose view predates an UPDATE of it, so
// every row it returns resolves a version chain. The query cache is off:
// a repeated SELECT pays its plan and its pages, not a cached result.
//
// The last two columns read the version store: the live version chains
// after the statement and the versions purge reclaimed during it. The
// inline sweep runs every 14 statements, so one falls due on the group's
// third INSERT and the next on the UPDATE after the group: a due sweep
// waits for its group's flush, so the group's own chains are reclaimed
// in its row.
func TestCostCensus(t *testing.T) {
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
	const point = "SELECT v FROM r WHERE id = 77"
	census := []struct {
		name   string
		stmt   string // "" runs group
		reader bool   // run on the second session
	}{
		{"autocommit INSERT, 1 row", rows(1, 1), false},
		{"autocommit INSERT, 50 rows", rows(100, 50), false},
		{"group of 16 single-row INSERTs", "", false},
		{"autocommit UPDATE, 1 row", "UPDATE t SET v = 'u' WHERE id = 1", false},
		{"autocommit UPDATE, 50 rows", "UPDATE t SET v = 'u' WHERE id >= 100 AND id <= 149", false},
		{"autocommit DELETE, 1 row", "DELETE FROM t WHERE id = 1", false},
		{"autocommit DELETE, 50 rows", "DELETE FROM t WHERE id >= 100 AND id <= 149", false},
		{"SELECT", "SELECT v FROM t WHERE id = 200", false},
		{"BEGIN", "BEGIN", false},
		{"UPDATE in a transaction", "UPDATE t SET v = 'x' WHERE id = 200", false},
		{"INSERT in a transaction, 3 rows", rows(300, 3), false},
		{"COMMIT", "COMMIT", false},
		{"BEGIN", "BEGIN", false},
		{"DELETE in a transaction, 2 rows", "DELETE FROM t WHERE id >= 201 AND id <= 202", false},
		{"UPDATE in a transaction, 2 rows", "UPDATE t SET v = 'y' WHERE id >= 203 AND id <= 204", false},
		{"ROLLBACK", "ROLLBACK", false},
		{"point SELECT, cold", point, false},
		{"point SELECT, second sighting", point, false},
		{"point SELECT, plan-cached", point, false},
		{"pk-range SELECT, 100 rows", "SELECT id, v FROM r WHERE id >= 50 AND id < 150", false},
		{"folded COUNT, 100 rows", "SELECT COUNT(*) FROM r WHERE id >= 50 AND id < 150", false},
		{"ORDER BY v LIMIT 10", "SELECT id FROM r ORDER BY v LIMIT 10", false},
		{"index lookup, 6 rows", "SELECT id, v FROM r WHERE k = 7", false},
		{"BEGIN, reader", "BEGIN", true},
		{"point SELECT, reader's view", "SELECT v FROM r WHERE id = 60", true},
		{"autocommit UPDATE, 100 rows", "UPDATE r SET v = 'new' WHERE id >= 50 AND id < 150", false},
		{"range SELECT over chains", "SELECT id, v FROM r WHERE id >= 50 AND id < 150", true},
		{"COMMIT, reader", "COMMIT", true},
	}
	logs := []string{FileRedo, FileUndo, FileBinlog}
	var got strings.Builder
	fmt.Fprintf(&got, "%-8s %-32s %4s %7s %8s %7s %7s %8s %6s %6s\n", "engine", "statement", "ops", "fetches", "examined", "redo_B", "undo_B", "binlog_B", "chains", "purged")
	for _, arm := range []struct {
		name string
		cfg  Config
	}{{"plain", Defaults()}, {"cryptfs", cryptCfg(true)}} {
		reg := failpoint.New(1)
		mem := vfs.NewMemFS()
		cfg := arm.cfg
		cfg.FS = vfs.NewFaultFS(mem, reg)
		cfg.EnableQueryCache = false
		cfg.PurgeEvery = 14
		e, _ := newEngine(t, cfg)
		s, reader := e.Connect("app"), e.Connect("reader")
		mustExec(t, s, "CREATE TABLE r (id INT PRIMARY KEY, k INT, v TEXT)")
		mustExec(t, s, "CREATE INDEX ik ON r (k)")
		mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
		for lo := 0; lo < 300; lo += 50 {
			var tuples []string
			for i := lo; i < lo+50; i++ {
				tuples = append(tuples, fmt.Sprintf("(%d, %d, 'r%d-%s')", i, i%50, i, strings.Repeat("x", 40)))
			}
			mustExec(t, s, "INSERT INTO r (id, k, v) VALUES "+strings.Join(tuples, ", "))
		}
		// sizes reads the log files' lengths on the disk below every
		// wrapper, which counts no durable op.
		sizes := func() (out [3]int64) {
			for i, name := range logs {
				f, err := mem.Open(name)
				if err != nil {
					t.Fatal(err)
				}
				if out[i], err = f.Size(); err != nil {
					t.Fatal(err)
				}
				_ = f.Close()
			}
			return out
		}
		for _, c := range census {
			ops, fetches, before := reg.TotalHits(), e.pool.FetchCount(), sizes()
			purged := e.versions.status().purgedVersions
			examined := 0
			switch {
			case c.stmt == "":
				examined = submitAll(t, s, group)
			case c.reader:
				res := mustExec(t, reader, c.stmt)
				examined = res.RowsExamined
				for _, row := range res.Rows {
					if row[len(row)-1].Str == "new" {
						t.Fatalf("%s: the reader's view sees the later UPDATE: %v", c.name, row)
					}
				}
			default:
				examined = mustExec(t, s, c.stmt).RowsExamined
			}
			after, mv := sizes(), e.versions.status()
			fmt.Fprintf(&got, "%-8s %-32s %4d %7d %8d %7d %7d %8d %6d %6d\n", arm.name, c.name, reg.TotalHits()-ops,
				e.pool.FetchCount()-fetches, examined,
				after[0]-before[0], after[1]-before[1], after[2]-before[2], mv.chains, mv.purgedVersions-purged)
		}
	}
	const golden = "testdata/cost.golden"
	if *updateCost {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got.String() {
		t.Errorf("cost census differs from %s (rerun with -update if the change is meant):\n--- want\n%s--- got\n%s", golden, want, got.String())
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

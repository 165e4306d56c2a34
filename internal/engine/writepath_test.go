package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"snapdb/internal/binlog"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
)

// physicalState renders everything the write path maintains for the
// engine's tables — rows (the state digest), every secondary index's
// entries, the advisory row hint — and fails the test if they disagree
// with each other: each index must hold exactly the entries re-derived
// from the clustered rows, and the hint must equal the tree's length.
func physicalState(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "digest %s\n", digestOf(t, e))
	for _, tb := range e.Tables() {
		var rows []storage.Record
		if err := tb.Tree.Scan(func(r storage.Record) bool { rows = append(rows, r.Clone()); return true }); err != nil {
			t.Fatal(err)
		}
		if n, err := tb.Tree.Len(); err != nil || tb.RowHint() != int64(n) || n != len(rows) {
			t.Errorf("%s: RowHint %d, Tree.Len %d (%v), scanned %d", tb.Name, tb.RowHint(), n, err, len(rows))
		}
		fmt.Fprintf(&b, "table %s rows %d\n", tb.Name, len(rows))
		for _, ix := range tb.Indexes {
			want := make(map[string]bool, len(rows))
			for _, r := range rows {
				want[indexKey(r[ix.colIdx], r[tb.PKIndex]).Str] = true
			}
			n := 0
			if err := ix.Tree.Scan(func(en storage.Record) bool {
				n++
				if !want[en[0].Str] {
					t.Errorf("%s.%s: stray entry %q", tb.Name, ix.Name, en[0].Str)
				}
				fmt.Fprintf(&b, "  %s %q\n", ix.Name, en[0].Str)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != len(rows) {
				t.Errorf("%s.%s: %d entries for %d rows", tb.Name, ix.Name, n, len(rows))
			}
		}
	}
	return b.String()
}

// recoveredState crashes the file system (dropping whatever was not
// synced) and returns the physical state Recover rebuilds from it.
func recoveredState(t *testing.T, mem *vfs.MemFS) (string, *RecoveryReport) {
	t.Helper()
	mem.Crash()
	r, rep, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return physicalState(t, r), rep
}

// TestStatementAtomicity: a multi-row INSERT whose second tuple hits a
// duplicate key must leave nothing of its first tuple behind — in
// autocommit and inside an open transaction, which stays open. The live
// tree, the secondary index, the row hint, the state Recover rebuilds
// and the state a binlog replay rebuilds must all agree. (Before the
// DML driver owned the statement's undo list, tuple 1 stayed live while
// the binlog lacked the statement and recovery rolled it back.)
func TestStatementAtomicity(t *testing.T) {
	for _, inTxn := range []bool{false, true} {
		name := map[bool]string{false: "autocommit", true: "in-transaction"}[inTxn]
		t.Run(name, func(t *testing.T) {
			mem := vfs.NewMemFS()
			e := durableEngine(t, mem)
			s := e.Connect("app")
			mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
			mustExec(t, s, "CREATE INDEX idx_v ON t (v)")
			mustExec(t, s, "INSERT INTO t (id, v) VALUES (2, 20)")
			if inTxn {
				mustExec(t, s, "BEGIN")
				mustExec(t, s, "INSERT INTO t (id, v) VALUES (5, 50)")
			}
			walBefore := e.WAL().Redo.Len()
			if _, err := s.Execute("INSERT INTO t (id, v) VALUES (1, 10), (2, 99), (3, 30)"); err == nil {
				t.Fatal("duplicate-key INSERT succeeded")
			}
			if inTxn {
				if !s.InTransaction() {
					t.Fatal("failed statement closed the transaction")
				}
				if n := len(s.txn.undo); n != 1 { // the INSERT of 5 only
					t.Errorf("transaction undo buffer holds %d records after the failed statement, want 1", n)
				}
				mustExec(t, s, "UPDATE t SET v = 51 WHERE id = 5")
				mustExec(t, s, "COMMIT")
			} else if got := e.WAL().Redo.Len() - walBefore; got != 3 {
				// insert(1) + its compensation + the abort marker
				t.Errorf("failed statement logged %d redo records, want 3", got)
			}
			// A statement that fails on its first tuple writes nothing —
			// no WAL record, and no commit sequence spent on it either.
			walBefore, seqBefore := e.WAL().Redo.Len(), e.versions.status().seq
			if _, err := s.Execute("INSERT INTO t (id, v) VALUES (2, 99), (4, 40)"); err == nil {
				t.Fatal("duplicate-key INSERT succeeded")
			}
			if got := e.WAL().Redo.Len() - walBefore; got != 0 {
				t.Errorf("statement failing before its first mutation logged %d redo records", got)
			}
			if got := e.versions.status().seq; got != seqBefore {
				t.Errorf("statement failing before its first mutation moved the commit sequence %d -> %d", seqBefore, got)
			}

			live := physicalState(t, e)
			res := mustExec(t, s, "SELECT id FROM t")
			want := "2"
			if inTxn {
				want = "2 5"
			}
			var ids []string
			for _, r := range res.Rows {
				ids = append(ids, r[0].String())
			}
			if got := strings.Join(ids, " "); got != want {
				t.Errorf("live ids = %s, want %s", got, want)
			}

			events, err := binlog.Parse(e.Binlog().Serialize())
			if err != nil {
				t.Fatal(err)
			}
			replayed, _ := newEngine(t, Defaults())
			if _, err := replayed.ReplayBinlog(events, 0); err != nil {
				t.Fatal(err)
			}
			if got := physicalState(t, replayed); got != live {
				t.Errorf("binlog replay diverges from live state:\n%s\nlive:\n%s", got, live)
			}
			rec, rep := recoveredState(t, mem)
			if rec != live {
				t.Errorf("recovered state diverges from live state:\n%s\nlive:\n%s", rec, live)
			}
			if rep.TxnsRolledBack != 0 {
				t.Errorf("recovery rolled back %d transactions; the failed statement should already be aborted", rep.TxnsRolledBack)
			}
		})
	}
}

// roundTripTxn generates the statements of one transaction over items:
// multi-row INSERTs, multi-column UPDATEs and DELETEs over key ranges,
// every secondary-indexed column among the modified ones.
func roundTripTxn(rng *rand.Rand, nextID *int) []string {
	var w []string
	for i := 0; i < 30; i++ {
		a := rng.Intn(*nextID)
		switch rng.Intn(3) {
		case 0:
			var tuples []string
			for j := 0; j <= rng.Intn(4); j++ {
				tuples = append(tuples, fmt.Sprintf("(%d, 'n%d', %d, %d)", *nextID, *nextID, rng.Intn(8), rng.Intn(100)))
				*nextID++
			}
			w = append(w, "INSERT INTO items (id, name, cat, score) VALUES "+strings.Join(tuples, ", "))
		case 1:
			w = append(w, fmt.Sprintf("UPDATE items SET cat = %d, score = %d, name = 'u%d' WHERE id >= %d AND id <= %d",
				rng.Intn(8), rng.Intn(100), i, a, a+rng.Intn(6)))
		case 2:
			w = append(w, fmt.Sprintf("DELETE FROM items WHERE id >= %d AND id <= %d", a, a+rng.Intn(4)))
		}
	}
	return w
}

// The write path exists once — one DML driver, one row mutator under
// forward/undo/redo, one commit queue under WAL and binlog — so
// TestWritePathRoundTrip, TestStatementAtomicity and commitq's tests
// are what hold all of its callers to each other; scripts/ci.sh runs
// them under -race.
//
// TestWritePathRoundTrip checks the three callers of the row mutators
// against each other on one randomized transaction: forward ∘ undo is
// the identity (ROLLBACK restores the pre-BEGIN state; so does recovery
// of a crash mid-transaction, through redo then synthesized undo), and
// redo equals forward (recovery after COMMIT rebuilds the live state) —
// rows, both secondary indexes and the row hint.
func TestWritePathRoundTrip(t *testing.T) {
	for _, arm := range []struct {
		name string
		end  string // how the transaction ends; "" = crash while it is open
	}{
		{"rollback", "ROLLBACK"},
		{"commit-recover", "COMMIT"},
		{"crash-recover", ""},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", arm.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				mem := vfs.NewMemFS()
				e := durableEngine(t, mem)
				s := e.Connect("app")
				mustExec(t, s, "CREATE TABLE items (id INT PRIMARY KEY, name TEXT, cat INT, score INT)")
				mustExec(t, s, "CREATE INDEX idx_cat ON items (cat)")
				mustExec(t, s, "CREATE INDEX idx_score ON items (score)")
				nextID := 0
				for nextID < 40 {
					mustExec(t, s, fmt.Sprintf("INSERT INTO items (id, name, cat, score) VALUES (%d, 'a', %d, %d), (%d, 'b', %d, %d)",
						nextID, rng.Intn(8), rng.Intn(100), nextID+1, rng.Intn(8), rng.Intn(100)))
					nextID += 2
				}
				before := physicalState(t, e)

				mustExec(t, s, "BEGIN")
				for _, q := range roundTripTxn(rng, &nextID) {
					mustExec(t, s, q)
				}
				if physicalState(t, e) == before {
					t.Fatal("the transaction changed nothing; the generator is broken")
				}
				switch arm.end {
				case "ROLLBACK":
					mustExec(t, s, "ROLLBACK")
					if got := physicalState(t, e); got != before {
						t.Errorf("ROLLBACK did not restore the pre-BEGIN state:\n%s\nwant:\n%s", got, before)
					}
				case "COMMIT":
					mustExec(t, s, "COMMIT")
					live := physicalState(t, e)
					if got, _ := recoveredState(t, mem); got != live {
						t.Errorf("recovery after COMMIT diverges from the live state:\n%s\nwant:\n%s", got, live)
					}
				default:
					got, rep := recoveredState(t, mem)
					if got != before {
						t.Errorf("recovery of a crash mid-transaction did not restore the pre-BEGIN state:\n%s\nwant:\n%s", got, before)
					}
					if rep.TxnsRolledBack != 1 {
						t.Errorf("TxnsRolledBack = %d, want 1", rep.TxnsRolledBack)
					}
				}
			})
		}
	}
}

// closeCountingFS counts Close calls per file name.
type closeCountingFS struct {
	vfs.FS
	closes map[string]int
}

type closeCountingFile struct {
	vfs.File
	fs   *closeCountingFS
	name string
}

func (f *closeCountingFile) Close() error {
	f.fs.closes[f.name]++
	return f.File.Close()
}

func (c *closeCountingFS) wrap(name string, f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &closeCountingFile{File: f, fs: c, name: name}, nil
}

func (c *closeCountingFS) Create(name string) (vfs.File, error) {
	f, err := c.FS.Create(name)
	return c.wrap(name, f, err)
}

func (c *closeCountingFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	return c.wrap(name, f, err)
}

// TestCloseReleasesLogHandles: Close closes the persistor's three log
// handles exactly once, a second Close is a no-op, and the engine still
// serves reads afterwards (bench reads StateDigest after close).
func TestCloseReleasesLogHandles(t *testing.T) {
	fs := &closeCountingFS{FS: vfs.NewMemFS(), closes: make(map[string]int)}
	e := seedDurable(t, fs)
	s := e.Connect("app")
	want := digestOf(t, e)
	for name, n := range fs.closes {
		if name == FileRedo || name == FileUndo || name == FileBinlog {
			t.Errorf("%s closed %d times before Close", name, n)
		}
	}
	e.Close()
	e.Close()
	for _, name := range []string{FileRedo, FileUndo, FileBinlog} {
		if n := fs.closes[name]; n != 1 {
			t.Errorf("%s closed %d times after Close, want 1", name, n)
		}
	}
	if got := digestOf(t, e); got != want {
		t.Error("StateDigest changed across Close")
	}
	if res := mustExec(t, s, "SELECT owner FROM accounts WHERE id = 2"); len(res.Rows) != 1 || res.Rows[0][0].Str != "bob" {
		t.Errorf("SELECT after Close = %v", res.Rows)
	}
	if _, err := s.Execute("UPDATE accounts SET balance = 1 WHERE id = 1"); err == nil {
		t.Error("a write after Close succeeded although its log records cannot be made durable")
	}
}

package engine

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// keyLookupFetches runs q under EXPLAIN ANALYZE and returns the fetch
// count its Key lookup line renders and the pool_fetches of its Key
// lookup stage in events_stages_history.
func keyLookupFetches(t *testing.T, e *Engine, q string) (rendered string, staged uint64) {
	t.Helper()
	e.PerfSchema().Reset()
	lines, _ := explainLines(t, e.Connect("app"), "EXPLAIN ANALYZE "+q)
	for _, l := range lines {
		if strings.Contains(l, "Key lookup") {
			rendered = regexp.MustCompile(`fetches=\d+`).FindString(l)
		}
	}
	found := false
	for _, ev := range e.PerfSchema().StagesHistory() {
		if strings.Contains(ev.Operator, "Key lookup") {
			staged, found = ev.PoolFetches, true
		}
	}
	if rendered == "" || !found {
		t.Fatalf("no Key lookup in the plan or the stage history:\n%s", strings.Join(lines, "\n"))
	}
	return rendered, staged
}

// TestRecoveredFetchCounterIsLive: a recovered engine attributes buffer
// pool fetches to its plan operators as the engine it recovers did: a
// Key lookup over the recovered trees reads the same fetches, in
// EXPLAIN ANALYZE and in the stage history, as it did before the crash.
func TestRecoveredFetchCounterIsLive(t *testing.T) {
	mem := vfs.NewMemFS()
	e := durableEngine(t, mem)
	s := e.Connect("app")
	setupCustomers(t, s, 300)
	mustExec(t, s, "CREATE INDEX idx_age ON customers (age)")
	const q = "SELECT name FROM customers WHERE age >= 30 AND age <= 31"
	wantRendered, wantStaged := keyLookupFetches(t, e, q)
	if wantRendered == "fetches=0" || wantStaged == 0 {
		t.Fatalf("before the crash the Key lookup fetched nothing: %s, pool_fetches=%d", wantRendered, wantStaged)
	}
	mem.Crash()

	r, _, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	gotRendered, gotStaged := keyLookupFetches(t, r, q)
	if gotRendered != wantRendered || gotStaged != wantStaged {
		t.Fatalf("after Recover the Key lookup reads %s, pool_fetches=%d; before the crash %s, pool_fetches=%d",
			gotRendered, gotStaged, wantRendered, wantStaged)
	}
}

// TestRecoveredConfigFS: an engine opened on an FS reports that FS as
// its Config().FS, whether Recover or New opened it, encrypted or not:
// the FS it was handed, not the encryption layer over it.
func TestRecoveredConfigFS(t *testing.T) {
	for _, encrypt := range []bool{false, true} {
		cfg := Defaults()
		cfg.EncryptAtRest = encrypt
		mem := vfs.NewMemFS()
		cfg.FS = mem
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e.Config().FS != mem {
			t.Errorf("encrypt=%v: New: Config().FS = %v, want the FS it was opened on", encrypt, e.Config().FS)
		}
		mustExec(t, e.Connect("app"), "CREATE TABLE t (id INT PRIMARY KEY)")
		mem.Crash()
		cfg.FS = nil
		r, _, err := Recover(mem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Config().FS != mem {
			t.Errorf("encrypt=%v: Recover: Config().FS = %v, want the FS it was opened on", encrypt, r.Config().FS)
		}
	}
}

// TestNewOpensDataDirectory: New on a directory an engine left behind
// serves what is there. It used to cut the three logs to zero while
// keeping the old checkpoint, so the next recovery lost every
// acknowledged write since that checkpoint.
func TestNewOpensDataDirectory(t *testing.T) {
	mem := vfs.NewMemFS()
	e := durableEngine(t, mem)
	mustExec(t, e.Connect("app"), "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, e.Connect("app"), "INSERT INTO t (id, v) VALUES (1, 'acked')")
	e.Close()

	check := func(what string, e *Engine) {
		t.Helper()
		res, err := e.Connect("app").Execute("SELECT v FROM t WHERE id = 1")
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str != "acked" {
			t.Fatalf("%s: rows = %v, want [[acked]]", what, res.Rows)
		}
	}
	check("New on the directory", durableEngine(t, mem))
	mem.Crash()
	r, _, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	check("Recover after New and a crash", r)
}

// TestDDLAdmission: every DDL statement meets one admission rule. It is
// refused inside the session's own open transaction, and while another
// session's transaction is open, on every engine: each is durable, and
// the checkpoint DDL writes would truncate that transaction's undo.
func TestDDLAdmission(t *testing.T) {
	ddl := []struct{ stmt, again string }{
		{"CREATE TABLE other (id INT PRIMARY KEY)", "already exists"},
		{"CREATE INDEX idx_v ON t (v)", "already exists"},
		{"DROP TABLE t", "unknown table"},
	}
	for _, d := range ddl {
		t.Run("durable=true/"+strings.Join(strings.Fields(d.stmt)[:2], "_"), func(t *testing.T) {
			e, _ := newEngine(t, Defaults())
			own, other := e.Connect("own"), e.Connect("other")
			mustExec(t, own, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
			mustExec(t, own, "BEGIN")
			mustExec(t, own, "INSERT INTO t (id, v) VALUES (1, 1)")

			_, err := own.Execute(d.stmt)
			if err == nil || !strings.Contains(err.Error(), "DDL inside an open transaction is not supported") {
				t.Fatalf("%s inside the session's own transaction: err = %v", d.stmt, err)
			}
			_, err = other.Execute(d.stmt)
			if err == nil || !strings.Contains(err.Error(), "DDL refused: 1 open transaction(s)") {
				t.Fatalf("%s beside another session's transaction: err = %v", d.stmt, err)
			}
			mustExec(t, own, "COMMIT")
			// Refused, the statement changed nothing; admitted, it runs
			// once.
			mustExec(t, other, d.stmt)
			if _, err := other.Execute(d.stmt); err == nil || !strings.Contains(err.Error(), d.again) {
				t.Fatalf("%s again: err = %v, want %q", d.stmt, err, d.again)
			}
		})
	}
}

// TestRecoverInterleavedLosers holds recovery's one-pass loser rule —
// a transaction's pre-images are kept until its marker passes, and
// whatever is open at the end of the walk is rolled back, the
// later-ending first — to a log where two sessions' open transactions
// interleave with each other, with autocommit writes, and with a
// committed and a rolled-back transaction.
func TestRecoverInterleavedLosers(t *testing.T) {
	type step struct{ sess, stmt string }
	script := []step{
		{"auto", "INSERT INTO t (id, v) VALUES (1, 1), (2, 2), (3, 3), (4, 4), (11, 11), (50, 50)"},
		{"a", "BEGIN"},
		{"b", "BEGIN"},
		{"a", "INSERT INTO t (id, v) VALUES (10, 10)"},
		{"won", "BEGIN"},
		{"b", "INSERT INTO t (id, v) VALUES (20, 20)"},
		{"auto", "UPDATE t SET v = 100 WHERE id = 1"},
		{"lost", "BEGIN"},
		{"a", "UPDATE t SET v = 200 WHERE id = 2"},
		{"won", "INSERT INTO t (id, v) VALUES (40, 40)"},
		{"b", "DELETE FROM t WHERE id = 3"},
		{"lost", "INSERT INTO t (id, v) VALUES (60, 60)"},
		{"lost", "UPDATE t SET v = 500 WHERE id = 50"},
		{"auto", "INSERT INTO t (id, v) VALUES (30, 30)"},
		{"won", "UPDATE t SET v = 400 WHERE id = 40"},
		{"lost", "ROLLBACK"},
		{"b", "INSERT INTO t (id, v) VALUES (21, 21)"},
		{"won", "COMMIT"},
		{"a", "DELETE FROM t WHERE id = 11"},
		{"auto", "DELETE FROM t WHERE id = 4"},
		{"a", "INSERT INTO t (id, v) VALUES (12, 12)"}, // a's last write is the log's last
	}
	const schema = "CREATE TABLE t (id INT PRIMARY KEY, v INT)"

	// The committed-only model: the script without the two open
	// transactions' and the rolled-back one's statements.
	model, _ := newEngine(t, Defaults())
	ms := model.Connect("model")
	mustExec(t, ms, schema)
	for _, st := range script {
		if st.sess == "auto" || st.sess == "won" {
			mustExec(t, ms, st.stmt)
		}
	}
	want := digestOf(t, model)

	mem := vfs.NewMemFS()
	e := durableEngine(t, mem)
	sessions := map[string]*Session{}
	mustExec(t, e.Connect("ddl"), schema) // checkpoints: the redo log holds only the script
	for _, st := range script {
		if sessions[st.sess] == nil {
			sessions[st.sess] = e.Connect(st.sess)
		}
		mustExec(t, sessions[st.sess], st.stmt)
	}
	txnA, txnB := sessions["a"].txn.walTxn, sessions["b"].txn.walTxn
	mem.Crash()

	logged, _, _ := durableLogs(t, e)
	committed, aborted := map[uint64]bool{}, map[uint64]bool{}
	writes := map[uint64]int{}
	for _, r := range logged {
		switch r.Op {
		case wal.OpCommit:
			committed[r.Txn] = true
		case wal.OpAbort:
			aborted[r.Txn] = true
		default:
			writes[r.Txn]++
		}
	}
	if len(aborted) != 1 || writes[txnA] != 4 || writes[txnB] != 3 {
		t.Fatalf("logged %d aborted transactions, %d writes of a and %d of b; want 1, 4, 3", len(aborted), writes[txnA], writes[txnB])
	}

	r, rep, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if got := digestOf(t, r); got != want {
		t.Error("recovered state differs from the committed-only model")
	}
	if rep.TxnsRolledBack != 2 || rep.TxnsCommitted != len(committed) || rep.TxnsAborted != len(aborted) {
		t.Errorf("rolled back %d, committed %d, aborted %d; want 2, %d, %d",
			rep.TxnsRolledBack, rep.TxnsCommitted, rep.TxnsAborted, len(committed), len(aborted))
	}

	// Recovery appended a's compensations and abort marker, then b's:
	// a began first, but its last write came after b's.
	var tail []string
	redo, _, _ := durableLogs(t, r)
	for _, r := range redo[len(logged):] {
		who := map[uint64]string{txnA: "a", txnB: "b"}[r.Txn]
		if r.Op == wal.OpAbort {
			who += " abort"
		}
		tail = append(tail, who)
	}
	wantTail := "a a a a a abort b b b b abort"
	if got := strings.Join(tail, " "); got != wantTail {
		t.Errorf("recovery appended %q, want %q", got, wantTail)
	}

	mem.Crash()
	r2, rep2, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TxnsRolledBack != 0 {
		t.Errorf("second recovery rolled back %d transactions, want 0", rep2.TxnsRolledBack)
	}
	if got := digestOf(t, r2); got != want {
		t.Error("second recovery diverged from the committed-only model")
	}
}

// TestFailedReplayLeavesDirectory: a recovery that fails while
// replaying leaves every file as it lay, the torn redo tail included.
// Recovery used to cut the torn tails before it replayed a record. The
// replay fails on a forged checkpoint: t's root names itself as the
// child for its highest keys, so loading (which walks the leftmost
// descent and the leaf chain) succeeds, and the first logged insert
// above every separator descends into the loop.
func TestFailedReplayLeavesDirectory(t *testing.T) {
	mem := loopedDir(t)
	redo, err := mem.ReadFile(FileRedo)
	if err != nil {
		t.Fatal(err)
	}
	tearFile(t, mem, FileRedo, redo[:len(redo)-3])
	before := dirBytes(t, mem)

	if _, _, err := Recover(mem, Defaults()); err == nil || !strings.Contains(err.Error(), "engine: redo LSN") || !strings.Contains(err.Error(), "loop") {
		t.Fatalf("Recover err = %v, want the replay's descent to fail on the loop", err)
	}
	for _, name := range mem.Names() {
		if after, _ := mem.ReadFile(name); !bytes.Equal(after, before[name]) {
			t.Errorf("%s went from %d to %d bytes", name, len(before[name]), len(after))
		}
	}
	if len(mem.Names()) != len(before) {
		t.Errorf("files %v, before the recovery %d", mem.Names(), len(before))
	}
}

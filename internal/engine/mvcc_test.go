package engine

// MVCC snapshot-isolation tests: visibility semantics across sessions,
// the no-blocking property (SELECT takes no table stripe), purge
// behavior under pinned read views, and version chains surviving
// checkpoint + recovery — the §4 residue channel E16 quantifies.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
)

func TestMVCCReaderSeesPreImageDuringOpenTxn(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	a := e.Connect("writer")
	b := e.Connect("reader")
	mustExec(t, a, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (1, 'before')")

	mustExec(t, a, "BEGIN")
	mustExec(t, a, "UPDATE t SET v = 'after' WHERE id = 1")

	// The writer sees its own uncommitted write...
	res := mustExec(t, a, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Str != "after" {
		t.Errorf("writer's own read = %v, want 'after'", res.Rows)
	}
	// ...while a concurrent reader still sees the pre-image, on both
	// the point-lookup and full-scan paths.
	for _, q := range []string{
		"SELECT v FROM t WHERE id = 1",
		"SELECT v FROM t",
	} {
		res = mustExec(t, b, q)
		if len(res.Rows) != 1 || res.Rows[0][0].Str != "before" {
			t.Errorf("%s during open txn = %v, want 'before'", q, res.Rows)
		}
	}

	mustExec(t, a, "COMMIT")
	res = mustExec(t, b, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Str != "after" {
		t.Errorf("post-commit read = %v, want 'after'", res.Rows)
	}
}

func TestMVCCRepeatableRead(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	a := e.Connect("writer")
	b := e.Connect("reader")
	mustExec(t, a, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (1, 10)")

	mustExec(t, b, "BEGIN")
	res := mustExec(t, b, "SELECT v FROM t WHERE id = 1") // pins the view
	if res.Rows[0][0].Int != 10 {
		t.Fatalf("first read = %v", res.Rows)
	}
	mustExec(t, a, "UPDATE t SET v = 20 WHERE id = 1") // autocommit, committed

	// The transaction's view was pinned before the update committed:
	// every subsequent read repeats the first.
	res = mustExec(t, b, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Int != 10 {
		t.Errorf("repeatable read = %v, want 10", res.Rows)
	}
	mustExec(t, b, "COMMIT")
	res = mustExec(t, b, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Int != 20 {
		t.Errorf("post-txn read = %v, want 20", res.Rows)
	}
}

func TestMVCCUncommittedInsertInvisible(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	a := e.Connect("writer")
	b := e.Connect("reader")
	mustExec(t, a, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (1, 'seed')")

	mustExec(t, a, "BEGIN")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (2, 'phantom')")

	for _, q := range []string{
		"SELECT v FROM t WHERE id = 2",
		"SELECT v FROM t",
		"SELECT COUNT(*) FROM t",
	} {
		res := mustExec(t, b, q)
		switch q {
		case "SELECT COUNT(*) FROM t":
			if res.Rows[0][0].Int != 1 {
				t.Errorf("%s = %v, want 1", q, res.Rows)
			}
		case "SELECT v FROM t":
			if len(res.Rows) != 1 {
				t.Errorf("%s = %v, want only the seed row", q, res.Rows)
			}
		default:
			if len(res.Rows) != 0 {
				t.Errorf("%s = %v, want no rows", q, res.Rows)
			}
		}
	}
	mustExec(t, a, "COMMIT")
	res := mustExec(t, b, "SELECT v FROM t WHERE id = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "phantom" {
		t.Errorf("post-commit read = %v", res.Rows)
	}
}

func TestMVCCUncommittedDeleteStillVisible(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	a := e.Connect("writer")
	b := e.Connect("reader")
	mustExec(t, a, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (1, 'alive')")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (2, 'doomed')")

	mustExec(t, a, "BEGIN")
	mustExec(t, a, "DELETE FROM t WHERE id = 2")

	// The reader's snapshot predates the delete: the ghost row must
	// come back on the point, range, and full-scan paths, in pk order.
	res := mustExec(t, b, "SELECT v FROM t WHERE id = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "doomed" {
		t.Errorf("point read of deleted row = %v", res.Rows)
	}
	res = mustExec(t, b, "SELECT v FROM t")
	if len(res.Rows) != 2 || res.Rows[1][0].Str != "doomed" {
		t.Errorf("full scan with ghost = %v", res.Rows)
	}
	res = mustExec(t, b, "SELECT v FROM t WHERE id >= 1 AND id <= 5")
	if len(res.Rows) != 2 {
		t.Errorf("range scan with ghost = %v", res.Rows)
	}
	// The writer no longer sees it.
	res = mustExec(t, a, "SELECT v FROM t WHERE id = 2")
	if len(res.Rows) != 0 {
		t.Errorf("writer sees its own deleted row: %v", res.Rows)
	}

	mustExec(t, a, "COMMIT")
	res = mustExec(t, b, "SELECT v FROM t WHERE id = 2")
	if len(res.Rows) != 0 {
		t.Errorf("committed delete still visible: %v", res.Rows)
	}
}

func TestMVCCSecondaryIndexVisibility(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	a := e.Connect("writer")
	b := e.Connect("reader")
	mustExec(t, a, "CREATE TABLE t (id INT PRIMARY KEY, cat INT, v TEXT)")
	mustExec(t, a, "CREATE INDEX idx_cat ON t (cat)")
	mustExec(t, a, "INSERT INTO t (id, cat, v) VALUES (1, 7, 'one')")
	mustExec(t, a, "INSERT INTO t (id, cat, v) VALUES (2, 7, 'two')")

	mustExec(t, a, "BEGIN")
	mustExec(t, a, "UPDATE t SET cat = 9 WHERE id = 1")
	mustExec(t, a, "DELETE FROM t WHERE id = 2")

	// Index scan on the OLD key: both rows still qualify in the
	// reader's snapshot even though the index tree has moved/member
	// entries deleted.
	res := mustExec(t, b, "SELECT v FROM t WHERE cat = 7")
	if len(res.Rows) != 2 {
		t.Fatalf("index read of pre-image keys = %v, want both rows (path %s)", res.Rows, res.AccessPath)
	}
	// Index scan on the NEW key: the uncommitted move is invisible.
	res = mustExec(t, b, "SELECT v FROM t WHERE cat = 9")
	if len(res.Rows) != 0 {
		t.Errorf("uncommitted index move visible = %v", res.Rows)
	}
	// The writer sees the opposite split.
	res = mustExec(t, a, "SELECT v FROM t WHERE cat = 7")
	if len(res.Rows) != 0 {
		t.Errorf("writer still sees old index keys = %v", res.Rows)
	}
	res = mustExec(t, a, "SELECT v FROM t WHERE cat = 9")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "one" {
		t.Errorf("writer misses own index move = %v", res.Rows)
	}

	mustExec(t, a, "ROLLBACK")
	// After rollback everything is back where it started, for everyone.
	for _, s := range []*Session{a, b} {
		res = mustExec(t, s, "SELECT v FROM t WHERE cat = 7")
		if len(res.Rows) != 2 {
			t.Errorf("post-rollback index read = %v", res.Rows)
		}
	}
}

// TestMVCCSelectNotBlockedByTableLock is the acceptance criterion:
// a SELECT completes even while the table's exclusive stripe — which
// a stripe-locked reader would queue behind — is held.
func TestMVCCSelectNotBlockedByTableLock(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'x')")

	// Hold the stripe exclusively, as a writer statement would
	// mid-execution.
	mu := e.locks.exclusive("t")
	defer mu.Unlock()

	done := make(chan *Result, 1)
	go func() {
		b := e.Connect("reader")
		defer b.Close()
		done <- mustExec(t, b, "SELECT v FROM t WHERE id = 1")
	}()
	select {
	case res := <-done:
		if len(res.Rows) != 1 || res.Rows[0][0].Str != "x" {
			t.Errorf("rows = %v", res.Rows)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MVCC SELECT blocked behind the exclusive table stripe")
	}
}

func TestMVCCPurgeRespectsOldestView(t *testing.T) {
	cfg := Defaults()
	cfg.DisablePurge = true // purge only when the test says so
	e, _ := newEngine(t, cfg)
	a := e.Connect("writer")
	b := e.Connect("reader")
	mustExec(t, a, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (1, 10)")

	mustExec(t, b, "BEGIN")
	mustExec(t, b, "SELECT v FROM t WHERE id = 1") // pins the view
	mustExec(t, a, "UPDATE t SET v = 20 WHERE id = 1")

	// The pinned view still needs v=10: purge may trim versions below
	// it (the pre-insert "absent" marker) but must keep the pre-image.
	e.PurgeVersions(0)
	kept := false
	for _, rv := range e.VersionResidue() {
		if len(rv.Row) == 2 && rv.Row[1].Int == 10 {
			kept = true
		}
	}
	if !kept {
		t.Error("purge dropped the version the open view still needs")
	}
	res := mustExec(t, b, "SELECT v FROM t WHERE id = 1")
	if res.Rows[0][0].Int != 10 {
		t.Errorf("read after failed purge = %v, want 10", res.Rows)
	}

	mustExec(t, b, "COMMIT")
	if n := e.PurgeVersions(0); n == 0 {
		t.Error("purge reclaimed nothing after the pinning view closed")
	}
	if res := e.VersionResidue(); len(res) != 0 {
		t.Errorf("residue after full purge = %v", res)
	}
}

// purgeFixture is an engine with purge off whose tables, created in
// the order given (so their ids follow it), each hold one chain per id:
// every row is inserted and then updated, in the order ids lists them.
func purgeFixture(t *testing.T, tables []string, ids []int) *Engine {
	t.Helper()
	cfg := Defaults()
	cfg.DisablePurge = true
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	defer s.Close()
	for _, name := range tables {
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (id INT PRIMARY KEY, v INT)", name))
	}
	for _, id := range ids {
		for _, name := range tables {
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s (id, v) VALUES (%d, 0)", name, id))
			mustExec(t, s, fmt.Sprintf("UPDATE %s SET v = 1 WHERE id = %d", name, id))
		}
	}
	return e
}

// TestMVCCBoundedPurgeSweep: a bounded sweep examines the first chains
// in (table id, pk) order, whatever order the keys were written in, so
// two engines fed the same history are left holding the same residue;
// an unbounded sweep drains the rest. With two tables the lower id goes
// first, though the other table's name sorts first.
func TestMVCCBoundedPurgeSweep(t *testing.T) {
	ids := []int{4, 1, 5, 0, 3, 2}
	for _, c := range []struct {
		tables []string
		batch  int
		left   []string // chainedKeys after the bounded sweep
	}{
		{[]string{"t"}, 2, []string{"t/2", "t/3", "t/4", "t/5"}},
		{[]string{"zeta", "alpha"}, 8, []string{"alpha/2", "alpha/3", "alpha/4", "alpha/5"}},
	} {
		e := purgeFixture(t, c.tables, ids)
		before := len(e.VersionResidue())
		if before < len(ids)*len(c.tables) {
			t.Fatalf("%v: expected at least one retained version per row, got %d", c.tables, before)
		}
		// Every chain here is dead, so the sweep drops each one it
		// examines whole: two versions, the insert's and the update's.
		if n := e.PurgeVersions(c.batch); n != 2*c.batch {
			t.Errorf("%v: PurgeVersions(%d) reclaimed %d versions, want %d", c.tables, c.batch, n, 2*c.batch)
		}
		if got := chainedKeys(e); !reflect.DeepEqual(got, c.left) {
			t.Errorf("%v: chains left after PurgeVersions(%d): %v, want %v", c.tables, c.batch, got, c.left)
		}
		twin := purgeFixture(t, c.tables, ids)
		twin.PurgeVersions(c.batch)
		if got, want := twin.VersionResidue(), e.VersionResidue(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: two engines with one history differ after PurgeVersions(%d):\n%+v\n%+v", c.tables, c.batch, got, want)
		}
		// Unbounded sweep drains the rest.
		e.PurgeVersions(0)
		if left := len(e.VersionResidue()); left != 0 {
			t.Errorf("%v: %d versions left after full purge", c.tables, left)
		}
	}
}

// TestLoadCheckpointChainsInAnyOrder: loadCkpt files a checkpoint's
// chains by key, so a directory whose chains are shuffled and name one
// key twice (the later entry wins) restores the same store as the
// sorted checkpoint: the same residue, the same checkpoint bytes, and
// each table's chain count counts the key once.
func TestLoadCheckpointChainsInAnyOrder(t *testing.T) {
	tables := []string{"zeta", "alpha"}
	e := purgeFixture(t, tables, []int{7, 2, 9, 4, 0, 5, 8, 1})
	sorted := e.versions.ckptSnapshot()
	shuffled := *sorted
	shuffled.Chains = slices.Clone(sorted.Chains)
	rand.New(rand.NewSource(46)).Shuffle(len(shuffled.Chains), func(i, j int) {
		shuffled.Chains[i], shuffled.Chains[j] = shuffled.Chains[j], shuffled.Chains[i]
	})
	// A stale entry for the first chain, ahead of the real one: the
	// real one comes later and must win.
	stale := shuffled.Chains[0]
	stale.LatestTxn, stale.Deleted, stale.Olds = 999, true, []ckptVersion{{Row: storage.Record{stale.PK, sqlparse.IntValue(-1)}}}
	shuffled.Chains = slices.Insert(shuffled.Chains, 0, stale)

	restore := func(cv *ckptVersions) (*Engine, []byte) {
		r := purgeFixture(t, tables, nil)
		r.versions.loadCkpt(cv, r.tablesByID)
		b, err := json.Marshal(r.versions.ckptSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		return r, b
	}
	want, wantBytes := restore(sorted)
	got, gotBytes := restore(&shuffled)
	if !reflect.DeepEqual(want.VersionResidue(), e.VersionResidue()) {
		t.Fatalf("the sorted checkpoint does not restore the residue it was taken from")
	}
	if !reflect.DeepEqual(got.VersionResidue(), want.VersionResidue()) {
		t.Errorf("shuffled checkpoint restores residue\n%+v\nwant\n%+v", got.VersionResidue(), want.VersionResidue())
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("shuffled checkpoint re-serializes as\n%s\nwant\n%s", gotBytes, wantBytes)
	}
	for _, name := range tables {
		gt, _ := got.Table(name)
		if n := gt.mvccChains.Load(); n != 8 {
			t.Errorf("%s: %d chains counted, want 8", name, n)
		}
	}
}

func TestMVCCInlinePurgeRuns(t *testing.T) {
	cfg := Defaults()
	cfg.PurgeEvery = 8 // purge every 8 statements
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 0)")
	for i := 0; i < 20; i++ {
		mustExec(t, s, "UPDATE t SET v = 1 WHERE id = 1")
		mustExec(t, s, "SELECT v FROM t WHERE id = 1")
	}
	// With no open views, the every-8-statements sweep keeps the store
	// near-empty; without it 20 updates would retain 20 versions.
	if left := len(e.VersionResidue()); left > 2 {
		t.Errorf("inline purge left %d versions", left)
	}
}

func TestMVCCVersionsSurviveCheckpointRecovery(t *testing.T) {
	cfg := Defaults()
	cfg.DisablePurge = true
	mem := vfs.NewMemFS()
	cfg.FS = mem
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Clock = func() int64 { return 1_000_000 }
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE vault (id INT PRIMARY KEY, secret TEXT)")
	mustExec(t, s, "INSERT INTO vault (id, secret) VALUES (1, 'hunter2')")
	mustExec(t, s, "DELETE FROM vault WHERE id = 1")

	// The checkpoint truncates the redo and undo logs — the E13 channel
	// — but serializes the version store alongside the trees.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mem.Crash()

	rcfg := Defaults()
	rcfg.DisablePurge = true
	r, rep, err := Recover(mem, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CheckpointFound {
		t.Fatal("checkpoint not found")
	}
	// The row is gone from SQL...
	rs := r.Connect("app")
	if res := mustExec(t, rs, "SELECT * FROM vault"); len(res.Rows) != 0 {
		t.Errorf("deleted row visible via SQL: %v", res.Rows)
	}
	// ...but its bytes survived the crash inside the version store.
	residue := r.VersionResidue()
	found := false
	for _, rv := range residue {
		if rv.Table == "vault" && rv.Deleted && len(rv.Row) == 2 && rv.Row[1].Str == "hunter2" {
			found = true
		}
	}
	if !found {
		t.Errorf("deleted secret not recoverable from version store: %+v", residue)
	}
}

// TestVersionResidueChainOrder: within a key, residue comes out in chain
// order — newest superseded version first — on every call, however the
// store's maps happen to iterate. Each key's row is inserted with v = 0
// and updated to 1, 2, 3, so its residue must read v = 2, 1, 0.
func TestVersionResidueChainOrder(t *testing.T) {
	cfg := Defaults()
	cfg.DisablePurge = true
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	defer s.Close()
	const keys, updates = 300, 3
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for id := 0; id < keys; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 0)", id))
	}
	for v := 1; v <= updates; v++ {
		mustExec(t, s, fmt.Sprintf("UPDATE t SET v = %d", v))
	}
	var want []string
	for id := 0; id < keys; id++ {
		for v := updates - 1; v >= 0; v-- {
			want = append(want, fmt.Sprintf("t|%d|%d", id, v))
		}
	}
	for call := 0; call < 5; call++ {
		var got []string
		for _, rv := range e.VersionResidue() {
			got = append(got, fmt.Sprintf("%s|%s|%d", rv.Table, rv.PK.SQL(), rv.Row[1].Int))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: residue out of (table, pk, chain) order; first entries %v, want %v", call, got[:min(6, len(got))], want[:6])
		}
	}
}

func TestMVCCSystemViews(t *testing.T) {
	cfg := Defaults()
	cfg.DisablePurge = true
	e, _ := newEngine(t, cfg)
	a := e.Connect("writer")
	b := e.Connect("monitor")
	mustExec(t, a, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (1, 'x')")
	mustExec(t, a, "BEGIN")
	mustExec(t, a, "UPDATE t SET v = 'y' WHERE id = 1")
	mustExec(t, a, "DELETE FROM t WHERE id = 1")

	res := mustExec(t, b, "SELECT * FROM information_schema.active_transactions")
	if len(res.Rows) != 1 {
		t.Fatalf("active_transactions rows = %v", res.Rows)
	}
	// One undo record per updated column plus one per deleted row.
	if undo := res.Rows[0][3].Int; undo != 2 {
		t.Errorf("undo_records = %d, want 2", undo)
	}
	res = mustExec(t, b, "SELECT * FROM information_schema.mvcc_version_store")
	if len(res.Rows) != 1 {
		t.Fatalf("mvcc_version_store rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "t" || res.Rows[0][3].Int != 1 {
		t.Errorf("chain row = %v, want table t deleted=1", res.Rows[0])
	}
	res = mustExec(t, b, "SELECT * FROM information_schema.mvcc_status")
	if len(res.Rows) != 1 || res.Rows[0][1].Int != 1 {
		t.Errorf("mvcc_status = %v, want 1 chain", res.Rows)
	}
	mustExec(t, a, "ROLLBACK")
	res = mustExec(t, b, "SELECT * FROM information_schema.active_transactions")
	if len(res.Rows) != 0 {
		t.Errorf("active_transactions after rollback = %v", res.Rows)
	}
}

func TestSetTransactionReadOnly(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'x')")

	mustExec(t, s, "SET TRANSACTION READ ONLY")
	mustExec(t, s, "BEGIN")
	for _, q := range []string{
		"INSERT INTO t (id, v) VALUES (2, 'y')",
		"UPDATE t SET v = 'z' WHERE id = 1",
		"DELETE FROM t WHERE id = 1",
		// EXPLAIN ANALYZE really runs the statement, so it gets the guard.
		"EXPLAIN ANALYZE UPDATE t SET v = 'z' WHERE id = 1",
		"EXPLAIN ANALYZE DELETE FROM t WHERE id = 1",
	} {
		if _, err := s.Execute(q); err == nil || !strings.Contains(err.Error(), "READ ONLY") {
			t.Errorf("%s in read-only txn: err = %v", q, err)
		}
	}
	res := mustExec(t, s, "SELECT v FROM t WHERE id = 1")
	if len(res.Rows) != 1 {
		t.Errorf("read in read-only txn = %v", res.Rows)
	}
	mustExec(t, s, "COMMIT")
	if res := mustExec(t, s, "SELECT v FROM t WHERE id = 1"); len(res.Rows) != 1 || res.Rows[0][0].Str != "x" {
		t.Errorf("row after the read-only txn = %v, want it untouched", res.Rows)
	}

	// The access mode is one-shot: the next transaction is read-write.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (2, 'y')")
	mustExec(t, s, "COMMIT")

	// SET TRANSACTION READ WRITE parses and resets nothing harmful.
	mustExec(t, s, "SET TRANSACTION READ WRITE")
	// Refused with a transaction open.
	mustExec(t, s, "BEGIN")
	if _, err := s.Execute("SET TRANSACTION READ ONLY"); err == nil {
		t.Error("SET TRANSACTION accepted inside an open transaction")
	}
	mustExec(t, s, "ROLLBACK")
}

func TestDropTable(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'x')")
	mustExec(t, s, "DROP TABLE t")
	if _, err := s.Execute("SELECT * FROM t"); err == nil {
		t.Error("SELECT from dropped table succeeded")
	}
	if _, err := s.Execute("DROP TABLE t"); err == nil {
		t.Error("double DROP succeeded")
	}
	// The name is free again.
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	mustExec(t, s, "INSERT INTO t (id, n) VALUES (1, 42)")
	res := mustExec(t, s, "SELECT n FROM t WHERE id = 1")
	if res.Rows[0][0].Int != 42 {
		t.Errorf("recreated table read = %v", res.Rows)
	}

	mustExec(t, s, "BEGIN")
	if _, err := s.Execute("DROP TABLE t"); err == nil {
		t.Error("DROP TABLE inside a transaction succeeded")
	}
	mustExec(t, s, "ROLLBACK")
}

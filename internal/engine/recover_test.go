package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"

	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// durableEngine starts a fresh engine persisting into fs.
func durableEngine(t testing.TB, fs vfs.FS) *Engine {
	t.Helper()
	cfg := Defaults()
	cfg.FS = fs
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(1_000_000)
	e.Clock = func() int64 { return now }
	return e
}

func seedDurable(t testing.TB, fs vfs.FS) *Engine {
	t.Helper()
	e := durableEngine(t, fs)
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)")
	mustExec(t, s, "INSERT INTO accounts (id, owner, balance) VALUES (1, 'alice', 100)")
	mustExec(t, s, "INSERT INTO accounts (id, owner, balance) VALUES (2, 'bob', 250)")
	mustExec(t, s, "UPDATE accounts SET balance = 175 WHERE id = 2")
	return e
}

func digestOf(t testing.TB, e *Engine) string {
	t.Helper()
	d, err := e.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRecoverCleanShutdown(t *testing.T) {
	mem := vfs.NewMemFS()
	e := seedDurable(t, mem)
	want := digestOf(t, e)
	mem.Crash() // everything above was synced; nothing should be lost

	r, rep, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if got := digestOf(t, r); got != want {
		t.Errorf("recovered digest differs from pre-crash digest")
	}
	if !rep.CheckpointFound {
		t.Error("DDL checkpoint not found")
	}
	if rep.Tables != 1 {
		t.Errorf("Tables = %d, want 1", rep.Tables)
	}
	if rep.RedoTruncated != nil || rep.UndoTruncated != nil || rep.BinlogTruncated != nil {
		t.Errorf("clean files reported truncated: %+v", rep)
	}
	if rep.TxnsRolledBack != 0 {
		t.Errorf("clean shutdown rolled back %d txns", rep.TxnsRolledBack)
	}
	if rep.RedoRecords == 0 || rep.RecordsApplied == 0 {
		t.Errorf("nothing replayed: %+v", rep)
	}
	// The recovered engine keeps serving writes.
	s := r.Connect("app")
	mustExec(t, s, "INSERT INTO accounts (id, owner, balance) VALUES (3, 'carol', 50)")
	res := mustExec(t, s, "SELECT owner FROM accounts WHERE id = 3")
	if len(res.Rows) != 1 {
		t.Error("post-recovery insert not visible")
	}
}

func TestRecoverEmptyDirectory(t *testing.T) {
	mem := vfs.NewMemFS()
	r, rep, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointFound || rep.RedoRecords != 0 {
		t.Errorf("empty dir report: %+v", rep)
	}
	s := r.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'x')")
}

func TestRecoverRollsBackOpenTxn(t *testing.T) {
	mem := vfs.NewMemFS()
	e := seedDurable(t, mem)
	want := digestOf(t, e)

	s := e.Connect("app")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO accounts (id, owner, balance) VALUES (9, 'mallory', 1)")
	mustExec(t, s, "UPDATE accounts SET balance = 0 WHERE id = 1")
	// No COMMIT: the crash interrupts the transaction.
	mem.Crash()

	r, rep, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TxnsRolledBack != 1 {
		t.Errorf("TxnsRolledBack = %d, want 1", rep.TxnsRolledBack)
	}
	if got := digestOf(t, r); got != want {
		t.Error("recovered digest includes uncommitted changes")
	}
	// Convergence: the rollback logged compensations and an abort
	// marker, so a second crash-recover finds no losers.
	mem.Crash()
	r2, rep2, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TxnsRolledBack != 0 {
		t.Errorf("second recovery rolled back %d txns, want 0", rep2.TxnsRolledBack)
	}
	if got := digestOf(t, r2); got != want {
		t.Error("second recovery diverged")
	}
}

func TestRecoverCommittedTxnKept(t *testing.T) {
	mem := vfs.NewMemFS()
	e := seedDurable(t, mem)
	s := e.Connect("app")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO accounts (id, owner, balance) VALUES (7, 'grace', 10)")
	mustExec(t, s, "COMMIT")
	want := digestOf(t, e)
	mem.Crash()

	r, rep, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TxnsCommitted == 0 {
		t.Error("commit marker not counted")
	}
	if got := digestOf(t, r); got != want {
		t.Error("committed transaction lost")
	}
}

func TestRecoverTornRedoTail(t *testing.T) {
	mem := vfs.NewMemFS()
	e := seedDurable(t, mem)
	before := digestOf(t, e)
	s := e.Connect("app")
	mustExec(t, s, "INSERT INTO accounts (id, owner, balance) VALUES (4, 'dave', 60)")
	mem.Crash()

	// Tear the last few bytes off the redo file: the final
	// insert+commit frames become unparseable.
	img, err := mem.ReadFile(FileRedo)
	if err != nil {
		t.Fatal(err)
	}
	tearFile(t, mem, FileRedo, img[:len(img)-3])

	r, rep, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoTruncated == nil {
		t.Fatal("torn tail not reported")
	}
	if rep.RedoTruncated.Reason != "torn frame" {
		t.Errorf("Reason = %q, want torn frame", rep.RedoTruncated.Reason)
	}
	got := digestOf(t, r)
	if got != before {
		// The torn tail held both the insert and its commit marker; with
		// the marker gone the insert must not survive. (If only part of
		// the marker tore, the insert is a loser and is rolled back —
		// either way the digest is the pre-insert one.)
		t.Error("recovered digest includes the torn-off insert")
	}
	// The truncated tail is gone from disk too: a second recovery sees a
	// clean file.
	mem.Crash()
	_, rep2, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.RedoTruncated != nil {
		t.Error("tail not truncated off the file by the first recovery")
	}
}

func TestRecoverBitFlipRedo(t *testing.T) {
	mem := vfs.NewMemFS()
	e := seedDurable(t, mem)
	s := e.Connect("app")
	mustExec(t, s, "INSERT INTO accounts (id, owner, balance) VALUES (5, 'erin', 70)")
	mem.Crash()

	img, err := mem.ReadFile(FileRedo)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), img...)
	bad[len(bad)/2] ^= 0x10
	tearFile(t, mem, FileRedo, bad)

	r, rep, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoTruncated == nil {
		t.Fatal("corruption not reported")
	}
	if !strings.Contains(rep.RedoTruncated.Reason, "checksum") {
		t.Errorf("Reason = %q, want checksum mismatch", rep.RedoTruncated.Reason)
	}
	// The engine recovered the valid prefix and still serves.
	sess := r.Connect("app")
	mustExec(t, sess, "SELECT owner FROM accounts WHERE id = 1")
}

func TestRecoverCorruptCheckpointIsCleanError(t *testing.T) {
	mem := vfs.NewMemFS()
	seedDurable(t, mem)
	mem.Crash()

	img, err := mem.ReadFile(FileCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), img...)
	bad[len(bad)/3] ^= 0x04
	tearFile(t, mem, FileCheckpoint, bad)

	_, _, err = Recover(mem, Defaults())
	if err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// unreadableFS fails every read of one existing file with EIO, whole
// or through a handle — a log that is there but cannot be read, as
// opposed to a missing one.
type unreadableFS struct {
	vfs.FS
	name string
}

func (fs unreadableFS) ReadFile(name string) ([]byte, error) {
	if name == fs.name {
		return nil, &os.PathError{Op: "read", Path: name, Err: syscall.EIO}
	}
	return fs.FS.ReadFile(name)
}

func (fs unreadableFS) Open(name string) (vfs.File, error) {
	f, err := fs.FS.Open(name)
	if err == nil && name == fs.name {
		f = unreadableFile{f}
	}
	return f, err
}

type unreadableFile struct{ vfs.File }

func (f unreadableFile) ReadAt(p []byte, off int64) (int, error) {
	return 0, &os.PathError{Op: "read", Path: "unreadable", Err: syscall.EIO}
}

// TestRecoverUnreadableLogFailsCleanly: recovery used to parse an
// unreadable redo, undo or binlog file as empty and then cut it to zero
// bytes, losing every record written since the checkpoint. It must
// fail with the read error naming the file, leave every file as it
// lies, and leave no goroutine of its own running.
func TestRecoverUnreadableLogFailsCleanly(t *testing.T) {
	for _, name := range []string{FileRedo, FileUndo, FileBinlog} {
		t.Run(name, func(t *testing.T) {
			mem := vfs.NewMemFS()
			seedDurable(t, mem)
			mem.Crash()
			before := dirBytes(t, mem)
			if len(before[name]) == 0 {
				t.Fatalf("seeded %s is empty; want records", name)
			}
			base := runtime.NumGoroutine()
			if _, _, err := Recover(unreadableFS{mem, name}, Defaults()); !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), name) {
				t.Fatalf("Recover err = %v, want the EIO reading %s", err, name)
			}
			settle(t, base, name)
			for file, was := range before {
				if after, _ := mem.ReadFile(file); !bytes.Equal(after, was) {
					t.Errorf("%s went from %d to %d bytes", file, len(was), len(after))
				}
			}
		})
	}
}

// TestNonASCIIIdentifierSurvivesRecovery creates and fills a table whose
// name is not ASCII, crashes, and reads the acknowledged row back. A
// lexer that read "tà" byte by byte named the table "t\xc3", which the
// JSON checkpoint cannot hold: recovery rewrote it to "t�" and the
// rows became unreachable.
func TestNonASCIIIdentifierSurvivesRecovery(t *testing.T) {
	mem := vfs.NewMemFS()
	s := durableEngine(t, mem).Connect("app")
	mustExec(t, s, "CREATE TABLE tà (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, s, "INSERT INTO tà (id, v) VALUES (1, 'kept')")
	mem.Crash()

	r, _, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, r.Connect("app"), "SELECT v FROM tà WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "kept" {
		t.Fatalf("recovered rows = %v, want [[kept]]", res.Rows)
	}
}

func TestRecoverDDLWithOpenTxnRefused(t *testing.T) {
	mem := vfs.NewMemFS()
	e := seedDurable(t, mem)
	s1 := e.Connect("a")
	s2 := e.Connect("b")
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "INSERT INTO accounts (id, owner, balance) VALUES (8, 'x', 1)")
	if _, err := s2.Execute("CREATE TABLE other (id INT PRIMARY KEY, v TEXT)"); err == nil {
		t.Error("DDL accepted while a transaction is open on a durable engine")
	}
	mustExec(t, s1, "COMMIT")
	mustExec(t, s2, "CREATE TABLE other (id INT PRIMARY KEY, v TEXT)")
}

func TestRecoverSecondaryIndexes(t *testing.T) {
	mem := vfs.NewMemFS()
	e := seedDurable(t, mem)
	s := e.Connect("app")
	mustExec(t, s, "CREATE INDEX idx_balance ON accounts (balance)")
	mustExec(t, s, "INSERT INTO accounts (id, owner, balance) VALUES (6, 'frank', 300)")
	wantRows := mustExec(t, s, "SELECT owner FROM accounts WHERE balance >= 100 AND balance <= 400")
	want := digestOf(t, e)
	mem.Crash()

	r, _, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if got := digestOf(t, r); got != want {
		t.Error("recovered digest differs with secondary index")
	}
	sess := r.Connect("app")
	gotRows := mustExec(t, sess, "SELECT owner FROM accounts WHERE balance >= 100 AND balance <= 400")
	if len(gotRows.Rows) != len(wantRows.Rows) {
		t.Errorf("index range scan: %d rows, want %d", len(gotRows.Rows), len(wantRows.Rows))
	}
}

// TestRecoverReportForensicSurface asserts what E13 measures: the redo
// tail of a crashed directory still carries the uncommitted
// transaction's row images, and the recovery report inventories them.
func TestRecoverReportForensicSurface(t *testing.T) {
	mem := vfs.NewMemFS()
	e := seedDurable(t, mem)
	s := e.Connect("app")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO accounts (id, owner, balance) VALUES (66, 'secret-payee', 999)")
	mem.Crash()

	img, err := mem.ReadFile(FileRedo)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := wal.ParseLogReport(img)
	found := false
	for _, r := range recs {
		for _, v := range r.Image {
			if v.Str == "secret-payee" {
				found = true
			}
		}
	}
	if !found {
		t.Error("uncommitted row image missing from the persisted redo log")
	}
}

// tearFile replaces name's content in fs with data, bypassing the
// engine — the test's stand-in for disk damage.
func tearFile(t testing.TB, fs vfs.FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
}

// mvccStatusOf reads information_schema.mvcc_status as name → value.
func mvccStatusOf(t testing.TB, e *Engine) map[string]int64 {
	t.Helper()
	res := mustExec(t, e.Connect("monitor"), "SELECT * FROM information_schema.mvcc_status")
	out := make(map[string]int64)
	for i, col := range res.Columns {
		out[col] = res.Rows[0][i].Int
	}
	return out
}

// chainedKeys lists the store's chains as "table/pk", sorted.
func chainedKeys(e *Engine) []string {
	var out []string
	for _, ce := range e.sortedChains() {
		out = append(out, ce.table+"/"+ce.pk.String())
	}
	return out
}

// residueOf is VersionResidue restricted to the given primary keys.
func residueOf(e *Engine, pks ...int64) []ResidueVersion {
	var out []ResidueVersion
	for _, v := range e.VersionResidue() {
		if slices.Contains(pks, v.PK.Int) {
			out = append(out, v)
		}
	}
	return out
}

// TestRecoveredStoreHoldsNoReplayedHistory: replaying a log over a
// checkpoint with no chains files no version. The recovered store holds
// only what loser rollback wrote after the walk — chains on the loser's
// compensated keys, a commit entry for the loser — while every marker
// still advances the commit sequence to what it was before replay
// stopped filing versions.
func TestRecoveredStoreHoldsNoReplayedHistory(t *testing.T) {
	mem := vfs.NewMemFS()
	e := seedDurable(t, mem)
	s := e.Connect("app")
	mustExec(t, s, "INSERT INTO accounts (id, owner, balance) VALUES (3, 'carol', 50)")
	mustExec(t, s, "DELETE FROM accounts WHERE id = 3")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO accounts (id, owner, balance) VALUES (4, 'dave', 5)")
	mustExec(t, s, "COMMIT")
	want := digestOf(t, e)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET balance = 0 WHERE id = 1")
	mustExec(t, s, "INSERT INTO accounts (id, owner, balance) VALUES (9, 'mallory', 1)")
	mem.Crash()

	r, rep, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TxnsRolledBack != 1 {
		t.Fatalf("TxnsRolledBack = %d, want 1", rep.TxnsRolledBack)
	}
	if got := digestOf(t, r); got != want {
		t.Error("recovered digest differs from the pre-crash committed state")
	}
	if got, want := chainedKeys(r), []string{"accounts/1", "accounts/9"}; !slices.Equal(got, want) {
		t.Errorf("recovered chains %v, want only the loser's keys %v", got, want)
	}
	// Five autocommit writes, one committed transaction and the loser's
	// abort marker: the sequence the store reached before this change.
	st := mvccStatusOf(t, r)
	if st["seq"] != 7 {
		t.Errorf("mvcc_status.seq = %d, want 7", st["seq"])
	}
	named := make(map[uint64]bool)
	for _, ce := range r.sortedChains() {
		named[ce.latestTxn] = true
		for _, old := range ce.olds {
			named[old.txn] = true
		}
	}
	r.versions.mu.Lock()
	for txn := range r.versions.commits {
		if !named[txn] {
			t.Errorf("commit entry for txn %d, which no chain names", txn)
		}
	}
	r.versions.mu.Unlock()
	if st["commits_tracked"] != 1 {
		t.Errorf("commits_tracked = %d, want 1 (the loser)", st["commits_tracked"])
	}
}

// checkpointedVault builds a vault with purge off whose checkpoint
// holds chains on keys 1 and 2 and none on key 5, then changes all
// three after the checkpoint: UPDATE 1 and 5, DELETE and re-INSERT 2.
// It returns the directory after a crash and the running engine.
func checkpointedVault(t *testing.T) (*vfs.MemFS, *Engine) {
	t.Helper()
	mem := vfs.NewMemFS()
	cfg := Defaults()
	cfg.FS = mem
	cfg.DisablePurge = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE vault (id INT PRIMARY KEY, card TEXT)")
	mustExec(t, s, "INSERT INTO vault (id, card) VALUES (5, 'cc-5')")
	e.PurgeVersions(0)
	mustExec(t, s, "INSERT INTO vault (id, card) VALUES (1, 'cc-1')")
	mustExec(t, s, "INSERT INTO vault (id, card) VALUES (2, 'cc-2')")
	mustExec(t, s, "UPDATE vault SET card = 'cc-1b' WHERE id = 1")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "UPDATE vault SET card = 'redacted-1' WHERE id = 1")
	mustExec(t, s, "UPDATE vault SET card = 'redacted-5' WHERE id = 5")
	mustExec(t, s, "DELETE FROM vault WHERE id = 2")
	mustExec(t, s, "INSERT INTO vault (id, card) VALUES (2, 'new-2')")
	mem.Crash()
	return mem, e
}

// TestReplayExtendsCheckpointChains: with purge off, replay grows the
// chains the checkpoint restored exactly as the running engine grew
// them — same versions, newest first, same writers, Deleted following
// the tree — and starts none on a key the checkpoint left unchained.
// With purge on, the first purge drops every chain whole, so replay
// leaves the checkpoint's chains as it wrote them.
func TestReplayExtendsCheckpointChains(t *testing.T) {
	mem, e := checkpointedVault(t)
	want := residueOf(e, 1, 2)
	if len(want) != 3 {
		t.Fatalf("running engine holds %d versions on keys 1 and 2, want 3", len(want))
	}
	cfg := Defaults()
	cfg.DisablePurge = true
	r, _, err := Recover(cloneFS(t, mem), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := residueOf(r, 1, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered residue on chained keys\n got %+v\nwant %+v", got, want)
	}
	if got := chainedKeys(r); !slices.Equal(got, []string{"vault/1", "vault/2"}) {
		t.Errorf("recovered chains %v, want vault/1 and vault/2 only", got)
	}
	if got, want := digestOf(t, r), digestOf(t, e); got != want {
		t.Error("recovered digest differs from the running engine's")
	}

	p, _, err := Recover(cloneFS(t, mem), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if got := chainedKeys(p); !slices.Equal(got, []string{"vault/1", "vault/2"}) {
		t.Errorf("purge on: recovered chains %v, want the checkpoint's", got)
	}
	if got := residueOf(p, 1, 2); len(got) != 1 || got[0].Row[1].Str != "cc-1" {
		t.Errorf("purge on: residue %+v, want the checkpoint's one row image", got)
	}
}

// TestRecoveredRepeatableRead: after Recover, a REPEATABLE READ
// transaction keeps reading its snapshot across a concurrent UPDATE,
// both on a key whose chain the checkpoint restored and on one replay
// left unchained, with purge off and on.
func TestRecoveredRepeatableRead(t *testing.T) {
	mem, _ := checkpointedVault(t)
	for _, disablePurge := range []bool{true, false} {
		cfg := Defaults()
		cfg.DisablePurge = disablePurge
		r, _, err := Recover(cloneFS(t, mem), cfg)
		if err != nil {
			t.Fatal(err)
		}
		reader, writer := r.Connect("reader"), r.Connect("writer")
		const q = "SELECT id, card FROM vault"
		mustExec(t, reader, "BEGIN")
		before := fmt.Sprint(mustExec(t, reader, q).Rows)
		if before != "[[1 redacted-1] [2 new-2] [5 redacted-5]]" {
			t.Fatalf("DisablePurge=%v: recovered rows %s", disablePurge, before)
		}
		mustExec(t, writer, "UPDATE vault SET card = 'later-1' WHERE id = 1")
		mustExec(t, writer, "UPDATE vault SET card = 'later-5' WHERE id = 5")
		if got := fmt.Sprint(mustExec(t, reader, q).Rows); got != before {
			t.Errorf("DisablePurge=%v: snapshot read %s, want %s", disablePurge, got, before)
		}
		mustExec(t, reader, "COMMIT")
		if got := fmt.Sprint(mustExec(t, reader, q).Rows); got != "[[1 later-1] [2 new-2] [5 later-5]]" {
			t.Errorf("DisablePurge=%v: after COMMIT read %s", disablePurge, got)
		}
	}
}

// BenchmarkRecoverReplay times Recover replaying a log of 22 501
// records — autocommit INSERTs, UPDATEs and DELETEs over a checkpoint
// with no chains, plus one open transaction it rolls back — plain and
// under deterministic encryption at rest (what snapdbd -encrypt runs),
// where the reader goroutine also decrypts. Each directory is built
// once and copied per iteration, both outside the timer. versions/op is
// what the recovered version store holds: replay files nothing, so only
// the loser's compensations put versions there.
func BenchmarkRecoverReplay(b *testing.B) {
	for _, arm := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Defaults()},
		{"crypt", cryptCfg(true)},
	} {
		mem := vfs.NewMemFS()
		cfg := arm.cfg
		cfg.FS = syncFreeFS{mem} // every statement's writes land whole: the directory is what a crash leaves
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := e.Connect("app")
		mustExec(b, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
		const rows = 5000
		for i := 0; i < rows; i++ {
			mustExec(b, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'row-%d')", i, i))
		}
		for i := 0; i < rows; i++ {
			mustExec(b, s, fmt.Sprintf("UPDATE t SET v = 'upd-%d' WHERE id = %d", i, (i*7)%rows))
		}
		for i := 0; i < rows/4; i++ {
			mustExec(b, s, fmt.Sprintf("DELETE FROM t WHERE id = %d", i*4))
		}
		mustExec(b, s, "BEGIN")
		mustExec(b, s, "UPDATE t SET v = 'loser' WHERE id = 1")
		e.Close()

		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			versions := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs := cloneFS(b, mem)
				b.StartTimer()
				r, rep, err := Recover(fs, arm.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if rep.RedoRecords != 22501 {
					b.Fatalf("replayed a log of %d records, want 22 501", rep.RedoRecords)
				}
				versions += r.versions.status().versions
			}
			b.ReportMetric(float64(versions)/float64(b.N), "versions/op")
		})
	}
}

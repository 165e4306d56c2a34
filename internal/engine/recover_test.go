package engine

import (
	"bytes"
	"errors"
	"os"
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

// unreadableFS fails ReadFile of one existing file with EIO — a log
// that is there but cannot be read, as opposed to a missing one.
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

// TestRecoverUnreadableLogFailsCleanly: recovery used to parse an
// unreadable redo, undo or binlog file as empty and then cut it to zero
// bytes, losing every record written since the checkpoint. It must
// fail with the read error and leave the file as it lies.
func TestRecoverUnreadableLogFailsCleanly(t *testing.T) {
	for _, name := range []string{FileRedo, FileUndo, FileBinlog} {
		t.Run(name, func(t *testing.T) {
			mem := vfs.NewMemFS()
			seedDurable(t, mem)
			mem.Crash()
			before, err := mem.ReadFile(name)
			if err != nil || len(before) == 0 {
				t.Fatalf("seeded %s: %d bytes, %v; want records", name, len(before), err)
			}
			if _, _, err := Recover(unreadableFS{mem, name}, Defaults()); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Recover err = %v, want the EIO reading %s", err, name)
			}
			if after, _ := mem.ReadFile(name); !bytes.Equal(after, before) {
				t.Fatalf("%s went from %d to %d bytes", name, len(before), len(after))
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

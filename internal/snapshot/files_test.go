package snapshot_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"snapdb/internal/core"
	"snapdb/internal/crypto/prim"
	"snapdb/internal/engine"
	"snapdb/internal/failpoint"
	"snapdb/internal/snapshot"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
)

// The tests here hold the two ends of the one on-disk layout to each
// other: what snapshot.WriteDirFS writes must boot under
// engine.Recover, and what a durable engine leaves behind must read
// under snapshot.ReadDirFS — plaintext, and under both CryptFS modes.

// diskMode is one way a data directory lies on the disk.
type diskMode struct {
	name           string
	encrypted, det bool
}

var diskModes = []diskMode{
	{name: "plain"},
	{name: "cryptfs-det", encrypted: true, det: true},
	{name: "cryptfs-fresh-iv", encrypted: true},
}

var modeKey = prim.TestKey("snapdir")

// config is the engine configuration that opens raw in this mode.
func (m diskMode) config(raw vfs.FS) engine.Config {
	cfg := engine.Defaults()
	cfg.FS = raw
	cfg.EncryptAtRest, cfg.EncryptionKey, cfg.DeterministicPages = m.encrypted, modeKey, m.det
	return cfg
}

// view is the key-holder's FS over raw: what the engine itself reads
// and writes through in this mode.
func (m diskMode) view(t *testing.T, raw vfs.FS) vfs.FS {
	t.Helper()
	if !m.encrypted {
		return raw
	}
	cfs, err := vfs.NewCryptFS(raw, modeKey, m.det)
	if err != nil {
		t.Fatal(err)
	}
	return cfs
}

func exec(t *testing.T, s *engine.Session, stmts ...string) {
	t.Helper()
	for _, q := range stmts {
		if _, err := s.Execute(q); err != nil {
			t.Fatalf("Execute(%q): %v", q, err)
		}
	}
}

var accountsWorkload = []string{
	"CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)",
	"INSERT INTO accounts (id, owner, balance) VALUES (1, 'alice', 100)",
	"INSERT INTO accounts (id, owner, balance) VALUES (2, 'bob', 250)",
	"UPDATE accounts SET balance = 175 WHERE id = 2",
	"SELECT owner FROM accounts WHERE id = 1",
}

// loadedEngine is a memory-only engine that has run accountsWorkload
// and flushed a buffer-pool dump, so every file of a dump has content.
func loadedEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	e.Clock = func() int64 { return 1_700_000_000 }
	exec(t, e.Connect("app"), accountsWorkload...)
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCaptureReadsTheDirectory: Capture's disk is the engine's data
// directory — for the same statements, its redo, undo, binlog and
// buffer-pool dump are byte for byte what ReadDirFS reads there, on a
// plain engine and, through the key-holder's view, on a
// deterministic-CryptFS one.
func TestCaptureReadsTheDirectory(t *testing.T) {
	for _, m := range diskModes[:2] {
		t.Run(m.name, func(t *testing.T) {
			raw := vfs.NewMemFS()
			e, err := engine.New(m.config(raw))
			if err != nil {
				t.Fatal(err)
			}
			e.Clock = func() int64 { return 1_700_000_000 }
			exec(t, e.Connect("app"), accountsWorkload...)
			exec(t, e.Connect("app"), "BEGIN", "DELETE FROM accounts WHERE id = 1", "ROLLBACK")
			if err := e.Shutdown(); err != nil {
				t.Fatal(err)
			}
			captured := snapshot.Capture(e, snapshot.DiskTheft).Disk
			read, err := snapshot.ReadDirFS(m.view(t, raw))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				name          string
				capture, read []byte
			}{
				{engine.FileRedo, captured.RedoLog, read.Disk.RedoLog},
				{engine.FileUndo, captured.UndoLog, read.Disk.UndoLog},
				{engine.FileBinlog, captured.Binlog, read.Disk.Binlog},
				{engine.FileBufferPool, captured.BufferPoolDump, read.Disk.BufferPoolDump},
			} {
				if len(f.capture) == 0 || !bytes.Equal(f.capture, f.read) {
					t.Errorf("%s: Capture holds %d B, ReadDirFS %d B, equal %v; want the same non-empty bytes",
						f.name, len(f.capture), len(f.read), bytes.Equal(f.capture, f.read))
				}
				onDisk, err := raw.ReadFile(f.name)
				if err != nil {
					t.Fatal(err)
				}
				if ciphertext := !bytes.Equal(onDisk, f.capture); ciphertext != m.encrypted {
					t.Errorf("%s: the disk differs from the captured bytes: %v, want %v", f.name, ciphertext, m.encrypted)
				}
			}
		})
	}
}

// dirBytes copies every file of a MemFS, for before/after comparison.
func dirBytes(t *testing.T, mem *vfs.MemFS) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, name := range mem.Names() {
		b, err := mem.ReadFile(name)
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		out[name] = b
	}
	return out
}

// TestWriteReadDirRoundTrip is "a dump boots": the directory WriteDirFS
// writes for a captured engine reads back as the very DiskState that
// was captured, and engine.Recover boots it to the same logical state
// without replaying a record — the dump's layout is the daemon's.
func TestWriteReadDirRoundTrip(t *testing.T) {
	for _, m := range diskModes {
		t.Run(m.name, func(t *testing.T) {
			e := loadedEngine(t)
			want, err := e.StateDigest()
			if err != nil {
				t.Fatal(err)
			}
			snap := snapshot.Capture(e, snapshot.DiskTheft)
			if !bytes.Equal(snap.Disk.Tablespace, e.Tablespace().Serialize()) {
				t.Error("DiskState.Tablespace is not Tablespace().Serialize()")
			}
			mem := vfs.NewMemFS()
			if err := snap.WriteDirFS(m.view(t, mem)); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{engine.FileCheckpoint, engine.FileRedo, engine.FileUndo, engine.FileBinlog, engine.FileBufferPool} {
				if b, err := mem.ReadFile(name); err != nil || len(b) == 0 {
					t.Errorf("%s: %d bytes, err %v — not a daemon's data directory", name, len(b), err)
				}
			}

			got, err := snapshot.ReadDirFS(m.view(t, mem))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Disk, snap.Disk) {
				t.Errorf("read back a different disk:\n got %+v\nwant %+v", got.Disk, snap.Disk)
			}
			if len(got.Disk.Catalog) != 1 || got.Disk.Catalog[1].Name != "accounts" ||
				!reflect.DeepEqual(got.Disk.Catalog[1].Columns, []string{"id", "owner", "balance"}) {
				t.Errorf("catalog = %+v", got.Disk.Catalog)
			}

			r, rep, err := engine.Recover(mem, m.config(nil))
			if err != nil {
				t.Fatalf("a dump does not boot: %v", err)
			}
			defer r.Close()
			if !rep.CheckpointFound || rep.Tables != 1 || rep.RecordsApplied != 0 ||
				rep.RedoTruncated != nil || rep.UndoTruncated != nil || rep.BinlogTruncated != nil {
				t.Errorf("recovery report %+v: want the checkpoint, one table, nothing to replay or cut", rep)
			}
			if !rep.BufferPoolWarmed {
				t.Error("the dump's ib_buffer_pool did not warm the pool")
			}
			if digest, err := r.StateDigest(); err != nil || digest != want {
				t.Errorf("booted digest %s (err %v), want %s", digest, err, want)
			}
			exec(t, r.Connect("app"), "INSERT INTO accounts (id, owner, balance) VALUES (3, 'carol', 42)")
		})
	}
}

// TestForensicReadsDaemonDisk is the other direction: a durable engine
// crashes mid-transaction with a torn redo tail, and the passive reader
// hands core.Analyze everything the directory holds — the write that
// never committed included — without changing a byte of it.
func TestForensicReadsDaemonDisk(t *testing.T) {
	const secret = "uncommitted-wire-0091"
	for _, m := range diskModes {
		t.Run(m.name, func(t *testing.T) {
			mem := vfs.NewMemFS()
			e, err := engine.New(m.config(mem))
			if err != nil {
				t.Fatal(err)
			}
			now := int64(1_700_000_000)
			e.Clock = func() int64 { now++; return now }
			exec(t, e.Connect("app"), accountsWorkload...)
			exec(t, e.Connect("teller"), "BEGIN",
				"INSERT INTO accounts (id, owner, balance) VALUES (90, '"+secret+"', 999999)")
			mem.Crash()

			// The crash caught one more record half-written.
			redo, err := m.view(t, mem).Open(engine.FileRedo)
			if err != nil {
				t.Fatal(err)
			}
			validEnd, err := redo.Size()
			if err != nil || validEnd == 0 {
				t.Fatalf("redo log: %d bytes, err %v", validEnd, err)
			}
			frame := storage.AppendFrame(nil, []byte("the record the crash interrupted"))
			if _, err := redo.WriteAt(frame[:len(frame)-3], validEnd); err != nil {
				t.Fatal(err)
			}
			if err := redo.Sync(); err != nil {
				t.Fatal(err)
			}
			redo.Close()

			before := dirBytes(t, mem)
			snap, err := snapshot.ReadDirFS(m.view(t, mem))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.Analyze(snap)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dirBytes(t, mem), before) {
				t.Error("reading the directory changed it")
			}

			if rep.PastWrites != 4 {
				t.Errorf("PastWrites = %d, want 4 (two INSERTs, the UPDATE, and the INSERT that never committed)", rep.PastWrites)
			}
			f, _ := rep.Finding("wal")
			if !strings.Contains(strings.Join(f.Samples, "\n"), "INSERT INTO accounts (id, owner, balance) VALUES (90, '"+secret+"', 999999)") {
				t.Errorf("uncommitted INSERT not reconstructed with the catalog's names: %q", f.Samples)
			}
			if !rep.Has("binlog") {
				t.Error("no binlog finding")
			}
			torn, ok := snap.Disk.Truncated[engine.FileRedo]
			if !ok || int64(torn.TruncatedAt) != validEnd || len(snap.Disk.Truncated) != 1 {
				t.Errorf("Truncated = %+v, want only the redo log cut at %d", snap.Disk.Truncated, validEnd)
			}
			if int64(len(snap.Disk.RedoLog)) <= validEnd {
				t.Error("the torn tail was cut off the redo image")
			}

			// Recovery, by contrast, does change it: it rolls the teller back.
			r, rrep, err := engine.Recover(mem, m.config(nil))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if rrep.TxnsRolledBack != 1 || rrep.RedoTruncated == nil || rrep.RedoTruncated.Offset != torn.TruncatedAt {
				t.Errorf("recovery report %+v disagrees with the passive reader", rrep)
			}
		})
	}
}

// TestReadDirFreshDirectoryIsEmptyDisk: no checkpoint yet and no log
// bytes — an empty directory, or a daemon that has booted and done
// nothing — is an empty disk, not an error.
func TestReadDirFreshDirectoryIsEmptyDisk(t *testing.T) {
	for _, m := range diskModes {
		t.Run(m.name, func(t *testing.T) {
			mem := vfs.NewMemFS()
			for _, booted := range []bool{false, true} {
				if booted {
					e, err := engine.New(m.config(mem))
					if err != nil {
						t.Fatal(err)
					}
					e.Close()
				}
				snap, err := snapshot.ReadDirFS(m.view(t, mem))
				if err != nil {
					t.Fatalf("booted=%v: %v", booted, err)
				}
				if !reflect.DeepEqual(snap.Disk, &snapshot.DiskState{}) {
					t.Errorf("booted=%v: disk = %+v, want empty", booted, snap.Disk)
				}
				if rep, err := core.Analyze(snap); err != nil || len(rep.Findings) != 0 {
					t.Errorf("booted=%v: findings %+v, err %v", booted, rep, err)
				}
			}
		})
	}
}

func TestWriteDirWithoutDiskState(t *testing.T) {
	s := &snapshot.Snapshot{Attack: snapshot.VMSnapshotLeak}
	if err := s.WriteDirFS(vfs.NewMemFS()); err == nil {
		t.Error("nil disk state accepted")
	}
}

// TestReadDirToleratesMissingOptionalFiles: every file is optional —
// an attacker reads whatever subset of the directory was stolen.
func TestReadDirToleratesMissingOptionalFiles(t *testing.T) {
	snap := snapshot.Capture(loadedEngine(t), snapshot.DiskTheft)
	mem := vfs.NewMemFS()
	if err := snap.WriteDirFS(mem); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{snapshot.FileGeneralLog, snapshot.FileSlowLog, engine.FileBufferPool, engine.FileBinlog, engine.FileCheckpoint} {
		if err := mem.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	got, err := snapshot.ReadDirFS(mem)
	if err != nil {
		t.Fatalf("missing files not tolerated: %v", err)
	}
	if !bytes.Equal(got.Disk.RedoLog, snap.Disk.RedoLog) || got.Disk.Catalog != nil || got.Disk.Tablespace != nil {
		t.Error("the WAL alone did not read as the WAL alone")
	}
	rep, err := core.Analyze(got)
	if err != nil || rep.PastWrites != 3 {
		t.Errorf("PastWrites = %v, err %v: a WAL without its catalog still reconstructs", rep, err)
	}
}

// TestReadDirRejectsCorruptCheckpoint: the one fatal thing is a
// checkpoint that does not decode. The frame CRC catches bit rot; the
// decoder's own checks catch an image built to pass the CRC.
func TestReadDirRejectsCorruptCheckpoint(t *testing.T) {
	snap := snapshot.Capture(loadedEngine(t), snapshot.DiskTheft)
	flipped := append([]byte(nil), snap.Disk.Checkpoint...)
	flipped[len(flipped)/2] ^= 1
	crafted := storage.AppendFrame(storage.AppendFrame(nil, []byte("{not json")), snap.Disk.Tablespace)
	for name, img := range map[string][]byte{"bit flip": flipped, "bad meta": crafted, "torn": flipped[:40]} {
		mem := vfs.NewMemFS()
		if err := snap.WriteDirFS(mem); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFileAtomic(mem, engine.FileCheckpoint, img); err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.ReadDirFS(mem); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", name)
		}
	}
}

// TestWriteDirFSCrashAtomic crashes the file layer mid-way through a
// second WriteDirFS and checks every file holds either its old or its
// new content — never a torn hybrid.
func TestWriteDirFSCrashAtomic(t *testing.T) {
	e := loadedEngine(t)
	snapV1 := snapshot.Capture(e, snapshot.DiskTheft)
	mem := vfs.NewMemFS()
	if err := snapV1.WriteDirFS(mem); err != nil {
		t.Fatal(err)
	}

	exec(t, e.Connect("app"), "INSERT INTO accounts (id, owner, balance) VALUES (3, 'carol', 42)")
	snapV2 := snapshot.Capture(e, snapshot.DiskTheft)
	if bytes.Equal(snapV1.Disk.RedoLog, snapV2.Disk.RedoLog) {
		t.Fatal("second snapshot did not change the redo log")
	}

	// Crash while the second write is replacing the redo log file.
	reg := failpoint.New(7)
	reg.Arm("write:"+engine.FileRedo+".tmp", failpoint.KindCrash, 1)
	if err := snapV2.WriteDirFS(vfs.NewFaultFS(mem, reg)); err == nil {
		t.Fatal("crashed write reported success")
	}
	mem.Crash()

	for _, tc := range []struct {
		name     string
		old, new []byte
	}{
		{engine.FileRedo, snapV1.Disk.RedoLog, snapV2.Disk.RedoLog},
		{engine.FileBinlog, snapV1.Disk.Binlog, snapV2.Disk.Binlog},
		{engine.FileCheckpoint, snapV1.Disk.Checkpoint, snapV2.Disk.Checkpoint},
	} {
		got, err := mem.ReadFile(tc.name)
		if err != nil {
			t.Fatalf("reading %s after crash: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.old) && !bytes.Equal(got, tc.new) {
			t.Errorf("%s is neither the old nor the new version after crash", tc.name)
		}
	}
	// Files are replaced in name order: the binlog and checkpoint are
	// already the second snapshot's, the redo log still the first's —
	// a mixed directory, and still one that reads.
	if _, err := snapshot.ReadDirFS(mem); err != nil {
		t.Errorf("half-replaced directory does not read: %v", err)
	}
}

// TestEncryptedSnapshotDirRoundTrip writes a snapshot directory through
// a CryptFS and reads it back three ways: the key-holder (ReadDirFS over
// a CryptFS with the key) recovers the full snapshot; the inner FS —
// the ciphertext-only analyst's view — holds the same file names and
// sizes but none of the plaintext, exactly the split E17 exploits; and
// a wrong key is as good as none.
func TestEncryptedSnapshotDirRoundTrip(t *testing.T) {
	snap := snapshot.Capture(loadedEngine(t), snapshot.DiskTheft)
	mem := vfs.NewMemFS()
	det := diskModes[1]
	if err := snap.WriteDirFS(det.view(t, mem)); err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.ReadDirFS(det.view(t, mem))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Disk.Tablespace, snap.Disk.Tablespace) ||
		!bytes.Equal(got.Disk.Binlog, snap.Disk.Binlog) {
		t.Error("key-holder read back different bytes")
	}
	// The analyst's view: same names and sizes, no plaintext.
	raw, err := mem.ReadFile(engine.FileBinlog)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(snap.Disk.Binlog) {
		t.Errorf("ciphertext binlog %d bytes, plaintext %d — size leaks anyway, but must match", len(raw), len(snap.Disk.Binlog))
	}
	if bytes.Contains(raw, []byte("INSERT")) {
		t.Error("statement text visible in encrypted snapshot dir")
	}
	if _, err := snapshot.ReadDirFS(mem); err == nil {
		t.Error("ciphertext-only ReadDirFS succeeded — snapshot readable without the key")
	}
	wrong, err := vfs.NewCryptFS(mem, prim.TestKey("not the key"), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.ReadDirFS(wrong); err == nil {
		t.Error("ReadDirFS succeeded under the wrong key")
	}
}

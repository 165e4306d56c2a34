package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
)

// syncFreeFS drops every file sync. A directory built through it holds,
// in its MemFS's volatile view, exactly what a run whose every
// statement was synced leaves behind, without MemFS copying a growing
// log at each of thousands of syncs; cloneFS copies that view into an
// ordinary durable directory.
type syncFreeFS struct{ vfs.FS }

func (fs syncFreeFS) Create(name string) (vfs.File, error) { return syncFree(fs.FS.Create(name)) }
func (fs syncFreeFS) Open(name string) (vfs.File, error)   { return syncFree(fs.FS.Open(name)) }

func syncFree(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return syncFreeFile{f}, nil
}

type syncFreeFile struct{ vfs.File }

func (syncFreeFile) Sync() error { return nil }

// longLog builds, under cfg, a directory whose redo log runs past
// several replay batches: rows autocommit INSERTs into t, an UPDATE
// after every third and a DELETE after every fifth, while a transaction
// that inserts, updates and deletes rows of its own every few
// statements is still open at the end — a loser.
func longLog(t testing.TB, cfg Config, rows int) *vfs.MemFS {
	t.Helper()
	mem := vfs.NewMemFS()
	cfg.FS = syncFreeFS{mem}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Clock = func() int64 { return 1_000_000 }
	s, loser := e.Connect("app"), e.Connect("loser")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, loser, "BEGIN")
	for i := 0; i < rows; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'row-%d')", i, i))
		if i%3 == 2 {
			mustExec(t, s, fmt.Sprintf("UPDATE t SET v = 'upd-%d' WHERE id = %d", i, i-1))
		}
		if i%5 == 4 {
			mustExec(t, s, fmt.Sprintf("DELETE FROM t WHERE id = %d", i-4))
		}
		switch i % 40 {
		case 0:
			mustExec(t, loser, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'loser')", -1-i))
		case 20:
			mustExec(t, loser, fmt.Sprintf("UPDATE t SET v = 'loser-upd' WHERE id = %d", -1-(i-20)))
		case 39:
			if i%80 == 39 {
				mustExec(t, loser, fmt.Sprintf("DELETE FROM t WHERE id = %d", -1-(i-39)))
			}
		}
	}
	e.Close()
	return mem
}

// settle waits for the goroutine count to fall back to base, and fails
// t if it has not within a few seconds: a goroutine outlived Recover.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines running after Recover returned, %d before it", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// dirBytes is every file of mem by name.
func dirBytes(t testing.TB, mem *vfs.MemFS) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range mem.Names() {
		b, err := mem.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// TestPipelinedRecoveryIsDeterministic recovers two clones of one
// directory — a log several replay batches long with a loser open —
// plain, under deterministic encryption and under fresh-IV encryption.
// However the reader, the side walks and the replay interleave, both
// clones must come back the same: the report, the state digest, the
// tablespace bytes, the buffer pool's LRU order, and every file after
// recovery, the loser's compensations included. Under fresh-IV the
// pages recovery rewrites take fresh random tweaks, so there the files
// are compared as plaintext (plain and deterministic arms: as raw bytes
// too).
func TestPipelinedRecoveryIsDeterministic(t *testing.T) {
	for _, arm := range []struct {
		name    string
		cfg     Config
		encrypt bool
	}{
		{"plain", Defaults(), false},
		{"deterministic", cryptCfg(true), true},
		{"fresh-IV", cryptCfg(false), true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			src := longLog(t, arm.cfg, 800)
			type outcome struct {
				rep       *RecoveryReport
				digest    string
				ts        []byte
				lru       []storage.PageID
				raw, text map[string][]byte
			}
			recoverClone := func() outcome {
				dir := cloneFS(t, src)
				base := runtime.NumGoroutine()
				r, rep, err := Recover(dir, arm.cfg)
				if err != nil {
					t.Fatal(err)
				}
				settle(t, base, arm.name)
				o := outcome{rep: rep, digest: digestOf(t, r), ts: r.ts.Serialize(), lru: r.BufferPool().LRUOrder(), raw: dirBytes(t, dir), text: map[string][]byte{}}
				r.Close()
				view := vfs.FS(dir)
				if arm.encrypt {
					if view, err = vfs.NewCryptFS(dir, arm.cfg.EncryptionKey, arm.cfg.DeterministicPages); err != nil {
						t.Fatal(err)
					}
				}
				for name := range o.raw {
					if !strings.HasSuffix(name, vfs.SidecarSuffix) {
						if o.text[name], err = view.ReadFile(name); err != nil {
							t.Fatal(err)
						}
					}
				}
				return o
			}
			a, b := recoverClone(), recoverClone()
			if a.rep.RedoRecords <= 2*redoBatchLen || a.rep.TxnsRolledBack != 1 {
				t.Fatalf("the log holds %d records and %d losers; want three batches or more and one loser", a.rep.RedoRecords, a.rep.TxnsRolledBack)
			}
			if !reflect.DeepEqual(a.rep, b.rep) {
				t.Errorf("reports differ:\n%+v\n%+v", a.rep, b.rep)
			}
			if a.digest != b.digest {
				t.Error("state digests differ")
			}
			if !bytes.Equal(a.ts, b.ts) {
				t.Error("tablespace bytes differ")
			}
			if !slices.Equal(a.lru, b.lru) {
				t.Errorf("LRU orders differ:\n%v\n%v", a.lru, b.lru)
			}
			if !reflect.DeepEqual(a.text, b.text) {
				t.Error("the files after recovery differ in plaintext")
			}
			if arm.cfg.DeterministicPages || !arm.encrypt {
				if !reflect.DeepEqual(a.raw, b.raw) {
					t.Error("the files after recovery differ in their bytes")
				}
			} else if len(a.raw) != len(b.raw) {
				t.Errorf("recovery left %d files, then %d", len(a.raw), len(b.raw))
			}
		})
	}
}

// TestLosersAcrossBatches holds the skipped pre-images to the rule that
// only a transaction that ends later in the same batch skips them. One
// transaction writes — inserts, updates, deletes — across more than two
// batches, interleaved with autocommits, and is still open at the
// crash; another commits two batches after its first write; a third
// rolls back midway. After Recover every read answers as the SQL model
// does: the acknowledged statements minus the loser.
func TestLosersAcrossBatches(t *testing.T) {
	mem := vfs.NewMemFS()
	e := durableEngine(t, mem)
	m := newSQLModel(e.Config())
	const auto, loser, won, lost = 0, 1, 2, 3
	sessions := []*Session{e.Connect("auto"), e.Connect("loser"), e.Connect("won"), e.Connect("lost")}
	step := func(n int, q string) { m.step(t, e, n, sessions[n], q) }
	step(auto, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	// Each session writes keys of its own: the loser 0–99, won 100–199,
	// lost 200–299, autocommit 1000 and up.
	for id := 0; id < 300; id++ {
		step(auto, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'base')", id))
	}
	for _, n := range []int{loser, won, lost} {
		step(n, "BEGIN")
	}
	var txnWon uint64
	for i := 0; i < 1200; i++ {
		switch {
		case i%3 == 2:
			step(auto, fmt.Sprintf("UPDATE t SET v = 'auto-%d' WHERE id = %d", i, 1000+i-1))
		case i%7 == 6:
			step(auto, fmt.Sprintf("DELETE FROM t WHERE id = %d", 1000+i-3))
		default:
			step(auto, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'auto')", 1000+i))
		}
		if i%12 == 0 {
			k := i / 12
			switch k % 3 {
			case 0:
				step(loser, fmt.Sprintf("UPDATE t SET v = 'loser-%d' WHERE id = %d", i, k))
			case 1:
				step(loser, fmt.Sprintf("DELETE FROM t WHERE id = %d", k))
			default:
				step(loser, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'loser')", -1-k))
			}
		}
		if i < 1000 && i%50 == 0 {
			step(won, fmt.Sprintf("UPDATE t SET v = 'won-%d' WHERE id = %d", i, 100+i/50))
			step(won, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'won')", 500+i/50))
		}
		if i == 1000 {
			txnWon = sessions[won].txn.walTxn
			step(won, "COMMIT")
		}
		if i < 400 && i%40 == 0 {
			step(lost, fmt.Sprintf("UPDATE t SET v = 'lost' WHERE id = %d", 200+i/40))
			step(lost, fmt.Sprintf("DELETE FROM t WHERE id = %d", 250+i/40))
		}
		if i == 400 {
			step(lost, "ROLLBACK")
		}
	}
	txnLoser := sessions[loser].txn.walTxn
	logged, _, _ := durableLogs(t, e)
	first, last := map[uint64]int{}, map[uint64]int{}
	for i, r := range logged {
		if _, ok := first[r.Txn]; !ok {
			first[r.Txn] = i
		}
		last[r.Txn] = i
	}
	if b0, b1 := first[txnLoser]/redoBatchLen, last[txnLoser]/redoBatchLen; b1-b0 < 2 {
		t.Fatalf("the loser writes in batches %d to %d; want more than two", b0, b1)
	}
	if b0, b1 := first[txnWon]/redoBatchLen, last[txnWon]/redoBatchLen; b1-b0 != 2 {
		t.Fatalf("the committed transaction starts in batch %d and commits in batch %d; want two batches later", b0, b1)
	}
	mem.Crash()
	m.restart()

	r, rep, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TxnsRolledBack != 1 || rep.TxnsAborted != 1 {
		t.Errorf("rolled back %d, aborted %d; want 1 and 1", rep.TxnsRolledBack, rep.TxnsAborted)
	}
	rs := r.Connect("auto")
	defer rs.Close()
	for _, q := range []string{
		"SELECT COUNT(*) FROM t",
		"SELECT id, v FROM t",
		"SELECT id, v FROM t WHERE id >= -200 AND id <= 300",
	} {
		m.step(t, r, auto, rs, q)
	}
}

// forgeLoop rewrites mem's checkpoint so that t's root names itself as
// the child for its highest keys: loading (which walks the leftmost
// descent and the leaf chain) succeeds, and a logged insert above every
// separator descends into the loop. t must be at least two levels deep.
func forgeLoop(t *testing.T, mem *vfs.MemFS) {
	t.Helper()
	img, err := mem.ReadFile(FileCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	meta, ts, err := DecodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	root := meta.Tables[0].Root
	page := ts[8+int(root)*storage.PageSize : 8+int(root+1)*storage.PageSize]
	p, err := storage.LoadPage(page)
	if err != nil || p.Type() != storage.PageBTreeInternal {
		t.Fatalf("t's root page %d: %v, want an internal node", root, err)
	}
	var entries []storage.Record
	for i := 0; i < p.SlotCount(); i++ {
		if b := p.SlotBytes(i); b != nil {
			rec, _, err := storage.DecodeRecord(b)
			if err != nil {
				t.Fatal(err)
			}
			entries = append(entries, rec)
		}
	}
	slices.SortFunc(entries, func(a, b storage.Record) int { return a[0].Compare(b[0]) })
	entries[len(entries)-1][1] = sqlparse.IntValue(int64(root))
	p.Format(root, storage.PageBTreeInternal)
	for _, rec := range entries {
		if _, err := p.InsertBytes(storage.EncodeRecord(rec)); err != nil {
			t.Fatal(err)
		}
	}
	copy(page, p.Bytes())
	if img, err = EncodeCheckpoint(meta, ts); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFileAtomic(mem, FileCheckpoint, img); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedRecoveryFailures: recovery's errors keep their order —
// checkpoint, reading redo, replaying it, undo, binlog — and what each
// leaves is what the one-walk recovery left: a failed recovery changes
// no byte of the directory, and a missing undo file is an empty one.
// On every path no goroutine outlives Recover. (An unreadable log alone
// is TestRecoverUnreadableLogFailsCleanly's.)
func TestPipelinedRecoveryFailures(t *testing.T) {
	flipLast := func(t *testing.T, mem *vfs.MemFS, name string) {
		img, err := mem.ReadFile(name)
		if err != nil || len(img) == 0 {
			t.Fatalf("%s: %d bytes, %v", name, len(img), err)
		}
		img[len(img)-1] ^= 0x40
		tearFile(t, mem, name, img)
	}
	failing := []struct {
		name  string
		dir   func(t *testing.T) *vfs.MemFS
		fs    func(mem *vfs.MemFS) vfs.FS
		check func(err error) bool
	}{
		{
			// A replay error with a corrupt undo tail behind it: the
			// replay's error wins, as it did when undo was walked after.
			name: "replay error before a corrupt undo tail",
			dir: func(t *testing.T) *vfs.MemFS {
				mem := loopedDir(t)
				flipLast(t, mem, FileUndo)
				return mem
			},
			check: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "engine: redo LSN") && strings.Contains(err.Error(), "loop")
			},
		},
		{
			// The same replay error with the undo file unreadable: the
			// replay still comes first.
			name: "replay error before an unreadable undo file",
			dir:  loopedDir,
			fs:   func(mem *vfs.MemFS) vfs.FS { return unreadableFS{mem, FileUndo} },
			check: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "engine: redo LSN") && !errors.Is(err, syscall.EIO)
			},
		},
		{
			// The checkpoint fails under a log longer than the batches
			// the reader may decode ahead: the walks are stopped, the
			// batches drained, and the checkpoint's error is the one
			// returned.
			name: "corrupt checkpoint before a long log",
			dir: func(t *testing.T) *vfs.MemFS {
				mem := cloneFS(t, longLog(t, Defaults(), 2*redoBatches*redoBatchLen/3))
				flipLast(t, mem, FileCheckpoint)
				return mem
			},
			check: func(err error) bool { return err != nil && strings.Contains(err.Error(), "checkpoint") },
		},
	}
	for _, tc := range failing {
		t.Run(tc.name, func(t *testing.T) {
			mem := tc.dir(t)
			before := dirBytes(t, mem)
			fs := vfs.FS(mem)
			if tc.fs != nil {
				fs = tc.fs(mem)
			}
			base := runtime.NumGoroutine()
			if _, _, err := Recover(fs, Defaults()); !tc.check(err) {
				t.Fatalf("Recover err = %v", err)
			}
			settle(t, base, tc.name)
			if after := dirBytes(t, mem); !reflect.DeepEqual(after, before) {
				t.Errorf("the directory changed: %d files before, %d after", len(before), len(after))
			}
		})
	}

	// A missing undo file is an empty log: recovery succeeds, creates
	// it, and appends the loser's compensations to it; everything else
	// comes back as from the intact directory.
	t.Run("missing undo file", func(t *testing.T) {
		src := seededDir(t)
		intact, missing := cloneFS(t, src), cloneFS(t, src)
		if err := missing.Remove(FileUndo); err != nil {
			t.Fatal(err)
		}
		if err := missing.SyncDir(); err != nil {
			t.Fatal(err)
		}
		undoBefore, _ := intact.ReadFile(FileUndo)
		base := runtime.NumGoroutine()
		ri, repI, err := Recover(intact, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		rm, repM, err := Recover(missing, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		settle(t, base, "missing undo file")
		if digestOf(t, rm) != digestOf(t, ri) {
			t.Error("state digests differ")
		}
		if repM.UndoRecords != 0 || repM.UndoTruncated != nil || repI.UndoRecords == 0 {
			t.Errorf("undo records %d (truncated %v) with the file missing, %d intact", repM.UndoRecords, repM.UndoTruncated, repI.UndoRecords)
		}
		want := *repI
		want.UndoRecords = 0
		if !reflect.DeepEqual(*repM, want) {
			t.Errorf("reports differ beyond the undo file:\n%+v\n%+v", *repM, *repI)
		}
		ri.Close()
		rm.Close()
		a, b := dirBytes(t, intact), dirBytes(t, missing)
		if !bytes.Equal(b[FileUndo], a[FileUndo][len(undoBefore):]) || len(b[FileUndo]) == 0 {
			t.Errorf("the recreated undo file holds %d bytes; want the %d of compensations", len(b[FileUndo]), len(a[FileUndo])-len(undoBefore))
		}
		delete(a, FileUndo)
		delete(b, FileUndo)
		if !reflect.DeepEqual(a, b) {
			t.Error("the other files differ from the intact directory's recovery")
		}
	})
}

// seededDir is a crashed directory with every log holding records and a
// loser open.
func seededDir(t *testing.T) *vfs.MemFS {
	mem := vfs.NewMemFS()
	s := seedDurable(t, mem).Connect("open")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET balance = 1 WHERE id = 1")
	mem.Crash()
	return mem
}

// loopedDir is a crashed directory whose checkpoint forgeLoop forged, so
// that replaying its redo log fails on the loop.
func loopedDir(t *testing.T) *vfs.MemFS {
	mem := vfs.NewMemFS()
	s := durableEngine(t, mem).Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	for id := 0; id < 60; id++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, '%0200d')", id, id))
	}
	mustExec(t, s, "CREATE TABLE pad (id INT PRIMARY KEY)") // checkpoints t as a two-level tree
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1000, 'x')")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1001, 'y')")
	mem.Crash()
	forgeLoop(t, mem)
	return mem
}

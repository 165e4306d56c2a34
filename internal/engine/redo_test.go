package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"snapdb/internal/failpoint"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// refApplyRedo is applyRedo as it stood before it replayed each record
// in one descent: a Search for the row first, then the row mutator,
// which descends again. Frozen here as the reference
// TestRedoOneDescentMatchesReference holds applyRedo to.
func refApplyRedo(e *Engine, r wal.Record) (undo wal.Record, applied bool, err error) {
	t, ok := e.TableByID(r.Table)
	if !ok || len(r.Image) == 0 {
		return wal.Record{}, false, nil
	}
	key := r.Image[:1]
	cur, found, err := t.Tree.Search(key[0])
	if err != nil {
		return wal.Record{}, false, err
	}
	switch r.Op {
	case wal.OpInsert:
		if found {
			return wal.Record{}, false, nil
		}
		var redo wal.Record
		redo, undo = wal.InsertRecords(r.Txn, r.Table, r.Image)
		err = e.insertRow(t, redo.Image, r.Txn)
	case wal.OpUpdate:
		col := int(r.Column)
		if !found || len(r.Image) < 2 || col >= len(cur) {
			return wal.Record{}, false, nil
		}
		_, undo = wal.UpdateRecords(r.Txn, r.Table, key, r.Column, cur[col:col+1], r.Image[1:2])
		err = e.updateRow(t, cur, []setOp{{idx: col, val: r.Image[1]}}, r.Txn)
	case wal.OpDelete:
		if !found {
			return wal.Record{}, false, nil
		}
		_, undo = wal.DeleteRecords(r.Txn, r.Table, cur)
		err = e.deleteRow(t, cur, r.Txn)
	default:
		return wal.Record{}, false, nil
	}
	return undo, err == nil, err
}

// redoStep is what one redo step returned, and the buffer pool as it
// left it: LRU order, misses and evictions. Hits are not compared — the
// one-descent replay exists to drop the second descent's.
type redoStep struct {
	undo              wal.Record
	applied           bool
	err               string
	lru               []storage.PageID
	misses, evictions uint64
}

// recording wraps a redo step so that every call is appended to steps.
func recording(apply redoFunc, steps *[]redoStep) redoFunc {
	return func(e *Engine, r wal.Record) (wal.Record, bool, error) {
		undo, applied, err := apply(e, r)
		_, misses, evictions := e.pool.Stats()
		s := redoStep{undo: undo, applied: applied, lru: e.pool.LRUOrder(), misses: misses, evictions: evictions}
		if err != nil {
			s.err = err.Error()
		}
		*steps = append(*steps, s)
		return undo, applied, err
	}
}

// cloneFS copies every file of src into a fresh MemFS.
func cloneFS(t testing.TB, src *vfs.MemFS) *vfs.MemFS {
	t.Helper()
	dst := vfs.NewMemFS()
	for _, name := range src.Names() {
		data, err := src.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFileAtomic(dst, name, data); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// twinRecover recovers two copies of dir, one through applyRedo and one
// through refApplyRedo, and requires everything recovery produces to be
// equal: the report, every redo step's undo record (the loser
// pre-images recovery synthesizes among them), verdict and pool state
// after it, the recovered state digest, the checkpoint image the
// recovered engine would write, its pool's misses, evictions and dump,
// and every file recovery left behind. It returns the report.
func twinRecover(t *testing.T, what string, dir *vfs.MemFS, cfg Config) *RecoveryReport {
	t.Helper()
	fsGot, fsRef := cloneFS(t, dir), cloneFS(t, dir)
	var gotSteps, refSteps []redoStep
	got, gotRep, gotErr := recoverWith(fsGot, cfg, recording((*Engine).applyRedo, &gotSteps))
	ref, refRep, refErr := recoverWith(fsRef, cfg, recording(refApplyRedo, &refSteps))
	if gotErr != nil || refErr != nil {
		t.Fatalf("%s: Recover = %v, reference %v", what, gotErr, refErr)
	}
	if !reflect.DeepEqual(gotRep, refRep) {
		t.Fatalf("%s: report %+v, reference %+v", what, gotRep, refRep)
	}
	if len(gotSteps) != len(refSteps) {
		t.Fatalf("%s: %d redo steps, reference %d", what, len(gotSteps), len(refSteps))
	}
	for i := range gotSteps {
		if !reflect.DeepEqual(gotSteps[i], refSteps[i]) {
			t.Fatalf("%s: redo step %d: %+v, reference %+v", what, i, gotSteps[i], refSteps[i])
		}
	}
	if g, r := digestOf(t, got), digestOf(t, ref); g != r {
		t.Fatalf("%s: state digest %s, reference %s", what, g, r)
	}
	gotImg, err := got.CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	refImg, err := ref.CheckpointImage()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotImg, refImg) {
		t.Fatalf("%s: checkpoint images differ", what)
	}
	_, gotMiss, gotEvict := got.pool.Stats()
	_, refMiss, refEvict := ref.pool.Stats()
	if gotMiss != refMiss || gotEvict != refEvict || !bytes.Equal(got.pool.DumpFile(), ref.pool.DumpFile()) {
		t.Fatalf("%s: pool misses/evictions %d/%d, reference %d/%d, or dumps differ", what, gotMiss, gotEvict, refMiss, refEvict)
	}
	names, refNames := fsGot.Names(), fsRef.Names()
	slices.Sort(names)
	slices.Sort(refNames)
	if !slices.Equal(names, refNames) {
		t.Fatalf("%s: files %v, reference %v", what, names, refNames)
	}
	for _, name := range names {
		g, _ := fsGot.ReadFile(name)
		r, _ := fsRef.ReadFile(name)
		if !bytes.Equal(g, r) {
			t.Fatalf("%s: %s differs from the reference's", what, name)
		}
	}
	return gotRep
}

// replayScript writes rows big enough that a leaf holds two or three,
// arriving out of key order so leaves keep key indexes, then updates an
// indexed column, grows rows past what their page has free (the tree
// deletes and re-inserts them), deletes, and leaves a transaction open
// that does both kinds of update again — a loser recovery rolls back.
func replayScript() []string {
	body := func(c byte, n int) string { return strings.Repeat(string(c), n) }
	stmts := []string{
		"CREATE TABLE docs (id INT PRIMARY KEY, tag INT, body TEXT)",
		"CREATE INDEX idx_tag ON docs (tag)",
	}
	for _, i := range rand.New(rand.NewSource(3)).Perm(16) {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO docs (id, tag, body) VALUES (%d, %d, '%s')", i, i%3, body('a', 1200)))
	}
	return append(stmts,
		"UPDATE docs SET tag = 7 WHERE id = 3",
		fmt.Sprintf("UPDATE docs SET body = '%s' WHERE id = 5", body('b', 2000)),
		fmt.Sprintf("UPDATE docs SET body = '%s' WHERE id = 11", body('c', 1900)),
		"DELETE FROM docs WHERE id = 2",
		"INSERT INTO docs (id, tag, body) VALUES (2, 1, 'back')",
		"BEGIN",
		"UPDATE docs SET tag = 9 WHERE id = 4",
		fmt.Sprintf("UPDATE docs SET body = '%s' WHERE id = 6", body('d', 1950)),
		"DELETE FROM docs WHERE id = 7",
	)
}

// TestRedoOneDescentMatchesReference holds the one-descent replay to
// the two-descent one it replaced (refApplyRedo), through twinRecover,
// on every kind of log recovery meets: the crash torture's kill-point
// directories (losers in flight, torn tails), a log with indexed-column
// updates and updates that outgrow their slot, and a log replayed over
// a checkpoint that already holds its effects, where every record is
// skipped. A small pool makes every replay evict.
func TestRedoOneDescentMatchesReference(t *testing.T) {
	cfg := Defaults()
	cfg.BufferPoolPages = 4

	t.Run("kill-points", func(t *testing.T) {
		stmts := tortureStmts()
		dry := failpoint.New(1)
		if got := runUntilError(vfs.NewFaultFS(vfs.NewMemFS(), dry), stmts); got != len(stmts) {
			t.Fatalf("dry run failed at statement %d", got)
		}
		total := int(dry.TotalHits())
		losers, torn := 0, 0
		for k := 1; k <= total; k += 3 {
			mem := vfs.NewMemFS()
			reg := failpoint.New(1)
			reg.Arm("*", failpoint.KindCrash, uint64(k))
			runUntilError(vfs.NewFaultFS(mem, reg), stmts)
			mem.Crash()
			rep := twinRecover(t, fmt.Sprintf("kill-point %d", k), mem, cfg)
			losers += rep.TxnsRolledBack
			// And the same directory with its redo log's last frame torn:
			// the transaction it ended becomes a loser.
			if redo, _ := mem.ReadFile(FileRedo); len(redo) > 5 {
				tearFile(t, mem, FileRedo, redo[:len(redo)-5])
				rep := twinRecover(t, fmt.Sprintf("kill-point %d, torn", k), mem, cfg)
				losers += rep.TxnsRolledBack
				if rep.RedoTruncated != nil {
					torn++
				}
			}
		}
		if losers == 0 || torn == 0 {
			t.Fatalf("kill-points rolled back %d losers and cut %d torn redo tails; want some of each", losers, torn)
		}
	})

	t.Run("indexed and outgrown updates", func(t *testing.T) {
		mem := vfs.NewMemFS()
		if acked := runUntilError(mem, replayScript()); acked != len(replayScript()) {
			t.Fatalf("script stopped at statement %d", acked)
		}
		mem.Crash()
		if rep := twinRecover(t, "replay script", mem, cfg); rep.TxnsRolledBack != 1 {
			t.Fatalf("rolled back %d transactions, want the open one", rep.TxnsRolledBack)
		}
	})

	t.Run("replayed twice", func(t *testing.T) {
		// Inserts of new keys and deletes of old ones only: redoing either
		// over its own result is a no-op, where an update is simply
		// written again.
		mem := vfs.NewMemFS()
		e := durableEngine(t, mem)
		s := e.Connect("app")
		mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
		for _, i := range rand.New(rand.NewSource(4)).Perm(100) {
			mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'row %d')", i, i))
		}
		mustExec(t, s, "CREATE TABLE pad (id INT PRIMARY KEY)") // checkpoints, emptying the logs
		for i := 0; i < 100; i += 3 {
			mustExec(t, s, fmt.Sprintf("DELETE FROM t WHERE id = %d", i))
		}
		for _, i := range rand.New(rand.NewSource(5)).Perm(100) {
			mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'row %d')", 100+i, i))
		}
		// The checkpoint the last DDL wrote, replaced by the current state
		// stamped with that DDL's LSN: every logged record is then
		// replayed over a tree that already holds its effect.
		old, err := mem.ReadFile(FileCheckpoint)
		if err != nil {
			t.Fatal(err)
		}
		oldMeta, _, err := DecodeCheckpoint(old)
		if err != nil {
			t.Fatal(err)
		}
		img, err := e.CheckpointImage()
		if err != nil {
			t.Fatal(err)
		}
		meta, ts, err := DecodeCheckpoint(img)
		if err != nil {
			t.Fatal(err)
		}
		meta.LSN = oldMeta.LSN
		if img, err = EncodeCheckpoint(meta, ts); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFileAtomic(mem, FileCheckpoint, img); err != nil {
			t.Fatal(err)
		}
		rep := twinRecover(t, "replayed twice", mem, cfg)
		if rep.RecordsApplied != 0 || rep.FramesSkipped != 34+100 {
			t.Fatalf("applied %d, skipped %d of %d redo records; want every data record skipped", rep.RecordsApplied, rep.FramesSkipped, rep.RedoRecords)
		}
	})
}

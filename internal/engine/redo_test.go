package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"snapdb/internal/btree"
	"snapdb/internal/bufpool"
	"snapdb/internal/failpoint"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// Recovery is held to properties, not to a copy of older code: the
// recovered state is what an in-memory engine reaches running the
// acknowledged statements minus the losers, and each redo record's
// replay fetches what the per-record trace rule says and returns the
// undo record that restores the row as replay found it.

// replayTraced replays dir's redo log over its checkpoint one record at
// a time, as Recover's walk does, and holds each record's fetches to the
// per-record trace rule: one descent of the clustered tree to the
// record's key, then the index entries a change re-keys — an insert's
// and a delete's in every index of the table, an update's old and new
// entry in the index on its column when the value changes — and for an
// update one more clustered descent when it re-keyed an index (it read
// the row first) and another when the new row outgrew its slot and was
// re-inserted. A record replay skips (a key already present or already
// gone) costs its one descent. It returns how many updates re-keyed an
// index and how many outgrew their slot.
func replayTraced(t *testing.T, what string, dir vfs.FS) (rekeyed, outgrown int) {
	t.Helper()
	img, err := dir.ReadFile(FileCheckpoint)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	meta, tsImage, err := DecodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := storage.LoadTablespace(tsImage)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults()
	cfg.BufferPoolPages = 4 // every replay evicts
	e, err := build(cfg, ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.loadCatalog(meta); err != nil {
		t.Fatal(err)
	}
	side, err := bufpool.New(ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	// path is the descent to key in tree, read through side so that the
	// engine's pool sees nothing.
	path := func(tree *btree.Tree, key sqlparse.Value) []storage.PageID {
		p, err := btree.Open(ts, side, tree.Root()).TraversalPath(key)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var fetched []storage.PageID
	e.pool.SetTraceFunc(func(id storage.PageID) { fetched = append(fetched, id) })
	redo, _ := dir.ReadFile(FileRedo)
	e.versions.beginReplay(false)
	defer e.versions.endReplay()
	wal.WalkLog(redo, func(r wal.Record) {
		if t.Failed() || r.Op.IsMarker() || r.LSN <= meta.LSN {
			return
		}
		tab, ok := e.TableByID(r.Table)
		if !ok || len(r.Image) == 0 {
			t.Fatalf("%s: LSN %d names no table", what, r.LSN)
		}
		key := r.Image[0]
		pk := path(tab.Tree, key)
		cur, found, err := btree.Open(ts, side, tab.Tree.Root()).Search(key)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(pk)
		var undo wal.Record
		indexes := func(row storage.Record) {
			for _, ix := range tab.Indexes {
				want = append(want, path(ix.Tree, indexKey(row[ix.colIdx], key))...)
			}
		}
		switch {
		case r.Op == wal.OpInsert && !found:
			undo = wal.Record{Op: wal.OpInsert, Column: wal.WholeRow, Image: storage.Record{key}}
			indexes(r.Image)
		case r.Op == wal.OpUpdate && found:
			col := int(r.Column)
			undo = wal.Record{Op: wal.OpUpdate, Column: r.Column, Image: storage.Record{key, cur[col]}}
			if tab.indexed(col) {
				if !cur[col].Equal(r.Image[1]) {
					for _, ix := range tab.Indexes {
						if ix.colIdx == col {
							want = append(want, path(ix.Tree, indexKey(cur[col], key))...)
							want = append(want, path(ix.Tree, indexKey(r.Image[1], key))...)
						}
					}
					rekeyed++
				}
				want = append(want, pk...)
			}
		case r.Op == wal.OpDelete && found:
			undo = wal.Record{Op: wal.OpDelete, Column: wal.WholeRow, Image: cur}
			indexes(cur)
		}
		fetched = fetched[:0]
		got, applied, err := e.applyRedo(r, true)
		if err != nil {
			t.Fatalf("%s: redo LSN %d: %v", what, r.LSN, err)
		}
		if r.Op == wal.OpUpdate && applied && slices.Equal(fetched, append(want, pk...)) {
			outgrown++ // the re-insert's descent
			want = append(want, pk...)
		}
		if !slices.Equal(fetched, want) {
			t.Fatalf("%s: %v of key %s fetched %v; the trace rule says %v", what, r.Op, key, fetched, want)
		}
		if applied != (undo.Image != nil) {
			t.Fatalf("%s: %v of key %s applied=%v; the tree held it: %v", what, r.Op, key, applied, found)
		}
		undo.Txn, undo.Table = r.Txn, r.Table
		if applied && fmt.Sprint(got) != fmt.Sprint(undo) {
			t.Fatalf("%s: %v of key %s returned undo %v, want %v", what, r.Op, key, got, undo)
		}
	})
	return rekeyed, outgrown
}

// unitStarts runs stmts on a fresh in-memory engine and returns, for
// every prefix length n, where the last unit that wrote a commit marker
// in stmts[:n] starts — an autocommit statement that changed rows, or a
// BEGIN whose COMMIT is in the prefix — or -1 if none did.
func unitStarts(t *testing.T, stmts []string) []int {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("ref")
	out, last, begin := []int{-1}, -1, -1
	for i, q := range stmts {
		res := mustExec(t, s, q)
		switch {
		case q == "BEGIN":
			begin = i
		case q == "COMMIT":
			last, begin = begin, -1
		case q == "ROLLBACK":
			begin = -1
		case begin < 0 && res.RowsAffected > 0:
			last = i
		}
		out = append(out, last)
	}
	return out
}

// lastRedoOp is the operation of the last valid record in dir's redo
// log.
func lastRedoOp(dir vfs.FS) wal.Op {
	var op wal.Op
	redo, _ := dir.ReadFile(FileRedo)
	wal.WalkLog(redo, func(r wal.Record) { op = r.Op })
	return op
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

// TestRedoOneDescentMatchesReference holds recovery to its properties
// on every kind of log recovery meets: the crash torture's kill-point
// directories (losers in flight, torn tails), a log with indexed-column
// updates and updates that outgrow their slot, and a log replayed over a
// checkpoint that already holds its effects, where every record is
// skipped. The recovered state digest must be that of an in-memory
// engine that ran the acknowledged statements with the losers rolled
// back, and every record's replay must follow the per-record trace rule
// (replayTraced).
func TestRedoOneDescentMatchesReference(t *testing.T) {
	cfg := Defaults()
	cfg.BufferPoolPages = 4

	t.Run("kill-points", func(t *testing.T) {
		stmts := tortureStmts()
		refs, units := refStates(t, stmts), unitStarts(t, stmts)
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
			acked := runUntilError(vfs.NewFaultFS(mem, reg), stmts)
			mem.Crash()
			what := fmt.Sprintf("kill-point %d", k)
			_, err := mem.ReadFile(FileCheckpoint)
			checkpointed := err == nil // else the crash came before the first DDL: no tree to replay into
			if checkpointed {
				replayTraced(t, what, mem)
			}
			r, rep, err := Recover(cloneFS(t, mem), cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			losers += rep.TxnsRolledBack
			// The acknowledged statements, or those and the one in flight.
			n, got := -1, digestOf(t, r)
			for _, i := range []int{min(acked+1, len(stmts)), acked} {
				if refs[i].digest == got {
					n = i
					break
				}
			}
			if n < 0 {
				t.Fatalf("%s: recovered state matches neither %d nor %d acknowledged statements", what, acked, acked+1)
			}
			// And the same directory with its redo log's last frame torn:
			// the transaction it ended becomes a loser, so a torn commit
			// marker takes its unit with it.
			redo, _ := mem.ReadFile(FileRedo)
			if len(redo) <= 5 {
				continue
			}
			want := refs[n].digest
			if lastRedoOp(mem) == wal.OpCommit {
				want = refs[units[n]].digest
			}
			tearFile(t, mem, FileRedo, redo[:len(redo)-5])
			what += ", torn"
			if checkpointed {
				replayTraced(t, what, mem)
			}
			r, rep, err = Recover(cloneFS(t, mem), cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			losers += rep.TxnsRolledBack
			if rep.RedoTruncated != nil {
				torn++
			}
			if digestOf(t, r) != want {
				t.Fatalf("%s: recovered state is not the acknowledged statements' minus the torn unit", what)
			}
		}
		if losers == 0 || torn == 0 {
			t.Fatalf("kill-points rolled back %d losers and cut %d torn redo tails; want some of each", losers, torn)
		}
	})

	t.Run("indexed and outgrown updates", func(t *testing.T) {
		mem := vfs.NewMemFS()
		stmts := replayScript()
		if acked := runUntilError(mem, stmts); acked != len(stmts) {
			t.Fatalf("script stopped at statement %d", acked)
		}
		mem.Crash()
		if rekeyed, outgrown := replayTraced(t, "replay script", mem); rekeyed == 0 || outgrown == 0 {
			t.Fatalf("replay re-keyed %d index entries and re-inserted %d outgrown rows; want some of each", rekeyed, outgrown)
		}
		r, rep, err := Recover(cloneFS(t, mem), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TxnsRolledBack != 1 {
			t.Fatalf("rolled back %d transactions, want the open one", rep.TxnsRolledBack)
		}
		if digestOf(t, r) != refStates(t, stmts)[len(stmts)].digest {
			t.Fatal("recovered state is not the script's with its open transaction rolled back")
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
		want := digestOf(t, e)
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
		replayTraced(t, "replayed twice", mem)
		r, rep, err := Recover(cloneFS(t, mem), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.RecordsApplied != 0 || rep.FramesSkipped != 34+100 {
			t.Fatalf("applied %d, skipped %d of %d redo records; want every data record skipped", rep.RecordsApplied, rep.FramesSkipped, rep.RedoRecords)
		}
		if digestOf(t, r) != want {
			t.Fatal("replaying every record over its own effect changed the state")
		}
	})
}

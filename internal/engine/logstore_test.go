package engine

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"snapdb/internal/binlog"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// durableLogs reads an engine's redo, undo and binlog back from its
// files — the one store an engine keeps its logs in — with recovery's
// own reader. It reads through the engine's view of its directory, so
// an encrypted engine's logs come back as plaintext. A torn or corrupt
// tail fails the test: a live engine's files hold only synced batches,
// and a recovered engine's were cut to their valid prefix.
func durableLogs(t testing.TB, e *Engine) (redo, undo []wal.Record, evs []binlog.Event) {
	t.Helper()
	fs := e.Dir()
	check := func(name string, trunc *TruncationInfo, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if trunc != nil {
			t.Fatalf("%s: bad tail at offset %d: %s", name, trunc.Offset, trunc.Reason)
		}
	}
	read := func(name string, walk func(r io.ReaderAt, size int64) (storage.ParseReport, error)) {
		l := openLog(fs, name)
		l.walk(nil, walk)
		l.close()
		check(name, l.trunc, l.err)
	}
	walLog := func(name string, recs *[]wal.Record) {
		read(name, func(r io.ReaderAt, size int64) (storage.ParseReport, error) {
			return wal.WalkLogAt(r, size, logChunk, func(r wal.Record) { *recs = append(*recs, r) })
		})
	}
	walLog(FileRedo, &redo)
	walLog(FileUndo, &undo)
	read(FileBinlog, func(r io.ReaderAt, size int64) (storage.ParseReport, error) {
		return binlog.WalkAt(r, size, logChunk, func(ev binlog.Event) { evs = append(evs, ev) })
	})
	return redo, undo, evs
}

// durableBinlog is the statements of an engine's binlog file.
func durableBinlog(t testing.TB, e *Engine) []string {
	t.Helper()
	_, _, evs := durableLogs(t, e)
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Statement
	}
	return out
}

// logStoreScript is DDL first — an engine checkpoints at DDL,
// which empties its redo and undo files — then every kind of logged
// write: autocommit DML, a rolled-back and a committed transaction, and
// a multi-row INSERT that fails on a duplicate key after its first
// tuple (logged, compensated and aborted).
var logStoreScript = []string{
	"CREATE TABLE users (id INT PRIMARY KEY, name TEXT, karma INT)",
	"CREATE TABLE orders (id INT PRIMARY KEY, uid INT, total INT)",
	"INSERT INTO users (id, name, karma) VALUES (1, 'ann', 10), (2, 'bo', 20), (3, 'cy', 30)",
	"INSERT INTO orders (id, uid, total) VALUES (100, 1, 50)",
	"UPDATE users SET karma = 99, name = 'bob' WHERE id = 2",
	"DELETE FROM users WHERE id = 3",
	"BEGIN",
	"INSERT INTO orders (id, uid, total) VALUES (101, 2, 75)",
	"UPDATE users SET karma = 0 WHERE id = 1",
	"ROLLBACK",
	"BEGIN",
	"INSERT INTO orders (id, uid, total) VALUES (102, 2, 80)",
	"DELETE FROM orders WHERE id = 100",
	"COMMIT",
	"INSERT INTO users (id, name, karma) VALUES (7, 'dee', 70), (1, 'dup', 0)",
}

// runScript runs stmts on s, requiring every statement but the
// duplicate-key INSERT (the script's last) to succeed.
func runScript(t *testing.T, s *Session, stmts []string) {
	t.Helper()
	for _, q := range stmts[:len(stmts)-1] {
		mustExec(t, s, q)
	}
	if _, err := s.Execute(stmts[len(stmts)-1]); err == nil {
		t.Fatal("duplicate-key INSERT succeeded")
	}
}

// TestDurableEngineHoldsNoLogHistory pins the memory bound of an engine
// as a count: its logs live in their files only, so the in-memory
// stores stay empty after a workload, and after recovery plus more
// writes — recovery reads the files without loading them back into
// memory.
func TestDurableEngineHoldsNoLogHistory(t *testing.T) {
	mem := vfs.NewMemFS()
	e := durableEngine(t, mem)
	runScript(t, e.Connect("app"), logStoreScript)

	requireEmpty := func(when string, e *Engine) {
		t.Helper()
		if r, u, b := e.WAL().Redo.Len(), e.WAL().Undo.Len(), e.Binlog().Len(); r != 0 || u != 0 || b != 0 {
			t.Errorf("%s: memory holds %d redo, %d undo, %d binlog entries, want 0", when, r, u, b)
		}
		if redo, undo, evs := durableLogs(t, e); len(redo) == 0 || len(undo) == 0 || len(evs) == 0 {
			t.Errorf("%s: files hold %d redo, %d undo, %d binlog entries: the workload logged nothing", when, len(redo), len(undo), len(evs))
		}
	}
	requireEmpty("after the workload", e)

	e.Close()
	mem.Crash()
	r, rep, err := Recover(mem, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RedoRecords == 0 || rep.BinlogEvents == 0 {
		t.Fatalf("recovery read no history (report %+v)", rep)
	}
	requireEmpty("after recovery", r)
	s := r.Connect("app")
	mustExec(t, s, "INSERT INTO users (id, name, karma) VALUES (8, 'eve', 80)")
	mustExec(t, s, "UPDATE orders SET total = 1 WHERE id = 102")
	requireEmpty("after recovery and more writes", r)
}

// TestCheckRecoveredSeesLeadingBinlog: the crash torture's
// binlog-never-leads check reads the recovered binlog file, so one
// well-framed event more than the recovered data carries is caught.
func TestCheckRecoveredSeesLeadingBinlog(t *testing.T) {
	stmts := tortureStmts()[:12]
	refs := refStates(t, stmts)
	mem := vfs.NewMemFS()
	acked := runUntilError(mem, stmts)
	if acked != len(stmts) {
		t.Fatalf("acked %d of %d statements", acked, len(stmts))
	}
	recoverAndCheck := func() (diverged, leads bool) {
		t.Helper()
		r, _, err := Recover(mem, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return checkRecovered(t, r, refs, acked, acked+1)
	}
	if diverged, leads := recoverAndCheck(); diverged || leads {
		t.Fatalf("clean directory: diverged %v, binlog leads %v; want neither", diverged, leads)
	}

	img, err := mem.ReadFile(FileBinlog)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := binlog.Parse(img)
	if err != nil || len(evs) == 0 {
		t.Fatalf("binlog file: %d events, err %v", len(evs), err)
	}
	last := evs[len(evs)-1]
	extra := binlog.Event{Timestamp: last.Timestamp, LSN: last.LSN, Statement: "INSERT INTO users (id, name, karma) VALUES (90, 'phantom', 0)"}
	if err := vfs.WriteFileAtomic(mem, FileBinlog, storage.AppendFrames(img, []binlog.Event{extra})); err != nil {
		t.Fatal(err)
	}
	if diverged, leads := recoverAndCheck(); diverged || !leads {
		t.Errorf("binlog with one extra event: diverged %v, binlog leads %v; want a leading binlog", diverged, leads)
	}
}

// frameStarts returns the offset of every frame in a framed log image.
func frameStarts(t *testing.T, img []byte) []int {
	t.Helper()
	var starts []int
	for pos := 0; pos < len(img); {
		_, n, err := storage.ReadFrame(img[pos:])
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, pos)
		pos += n
	}
	return starts
}

// TestRecoveryWalkMatchesParsers: recovery walks the undo file and the
// binlog without keeping their records. On each file damaged three ways
// — a torn last frame, a bad checksum in a middle frame, and a middle
// frame whose checksum holds but whose payload does not decode — it must
// report the record count and truncation wal.ParseLogReport and
// binlog.ParseWithReport give, cut the file where they stop, and stamp
// the next binlog event no earlier than the last valid one.
func TestRecoveryWalkMatchesParsers(t *testing.T) {
	mem := vfs.NewMemFS()
	e := durableEngine(t, mem)
	now := int64(1_000_000)
	e.Clock = func() int64 { now += 10; return now }
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 6; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i))
	}
	mustExec(t, s, "UPDATE t SET v = 9 WHERE id = 2")
	mustExec(t, s, "DELETE FROM t WHERE id = 4")

	damage := map[string]func(img []byte) []byte{
		"torn frame": func(img []byte) []byte { return img[:len(img)-3] },
		"bad CRC": func(img []byte) []byte {
			out := append([]byte(nil), img...)
			mid := frameStarts(t, img)[3]
			out[mid+storage.FrameHeaderSize+1] ^= 0x40
			return out
		},
		"undecodable payload": func(img []byte) []byte {
			starts := frameStarts(t, img)
			out := storage.AppendFrame(append([]byte(nil), img[:starts[3]]...), []byte{0xee, 0xee, 0xee})
			return append(out, img[starts[4]:]...)
		},
	}
	counts := func(name string, img []byte) (int, storage.ParseReport) {
		if name == FileBinlog {
			evs, rep := binlog.ParseWithReport(img)
			return len(evs), rep
		}
		recs, rep := wal.ParseLogReport(img)
		return len(recs), rep
	}
	for _, name := range []string{FileUndo, FileBinlog} {
		for how, fn := range damage {
			what := name + ", " + how
			dir := cloneFS(t, mem)
			clean, err := dir.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			damaged := fn(clean)
			tearFile(t, dir, name, damaged)
			wantN, want := counts(name, damaged)
			if !want.Truncated() {
				t.Fatalf("%s: the parser took the damaged file whole", what)
			}
			r, rep, err := Recover(dir, Defaults())
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			gotN, gotTrunc := rep.UndoRecords, rep.UndoTruncated
			otherN, otherTrunc, other := rep.BinlogEvents, rep.BinlogTruncated, FileBinlog
			if name == FileBinlog {
				gotN, gotTrunc, otherN, otherTrunc, other = otherN, otherTrunc, gotN, gotTrunc, FileUndo
			}
			wantTrunc := &TruncationInfo{Offset: want.TruncatedAt, Reason: want.Reason}
			if gotN != wantN || !reflect.DeepEqual(gotTrunc, wantTrunc) {
				t.Errorf("%s: recovery reports %d records, truncation %+v; the parser %d, %+v", what, gotN, gotTrunc, wantN, wantTrunc)
			}
			otherImg, _ := mem.ReadFile(other)
			if n, _ := counts(other, otherImg); otherN != n || otherTrunc != nil {
				t.Errorf("%s: the undamaged %s reports %d records, truncation %+v; want %d, none", what, other, otherN, otherTrunc, n)
			}
			if cut, _ := dir.ReadFile(name); !bytes.Equal(cut, damaged[:want.TruncatedAt]) {
				t.Errorf("%s: recovery left %d bytes, want the parser's valid prefix of %d", what, len(cut), want.TruncatedAt)
			}
			if name != FileBinlog {
				continue
			}
			valid, _ := binlog.ParseWithReport(damaged)
			last := valid[len(valid)-1]
			r.Clock = func() int64 { return 1 }
			mustExec(t, r.Connect("app"), "INSERT INTO t (id, v) VALUES (50, 50)")
			_, _, evs := durableLogs(t, r)
			if len(evs) != len(valid)+1 {
				t.Fatalf("%s: binlog holds %d events after one more statement, want %d", what, len(evs), len(valid)+1)
			}
			if next := evs[len(evs)-1]; next.Timestamp != last.Timestamp || next.LSN < last.LSN {
				t.Errorf("%s: next event stamped %d at LSN %d, the last valid one %d at LSN %d", what, next.Timestamp, next.LSN, last.Timestamp, last.LSN)
			}
		}
	}
}

// raceEnabled is set under -race, whose instrumentation allocates on
// its own account.
var raceEnabled bool

// TestSideLogWalkAllocations holds recovery's undo and binlog walk to
// what it keeps — where each valid prefix ends and the last event's
// timestamp and LSN — so that what it allocates does not grow with the
// logs: the walk over twenty times the statements allocates no more.
func TestSideLogWalkAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	walk := func(stmts int) float64 {
		mem := vfs.NewMemFS()
		e := durableEngine(t, mem)
		s := e.Connect("app")
		mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
		for i := 0; i < stmts; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'row %d')", i, i))
		}
		_, undoRecs, evs := durableLogs(t, e)
		e.Close()
		stop := make(chan struct{})
		var undo, blog *logScan
		var last binlog.Event
		allocs := testing.AllocsPerRun(5, func() {
			undo, blog = openLog(mem, FileUndo), openLog(mem, FileBinlog)
			last = checkSideLogs(undo, blog, stop)
			undo.close()
			blog.close()
		})
		want := evs[len(evs)-1]
		if undo.frames != len(undoRecs) || undo.err != nil || undo.trunc != nil ||
			blog.frames != len(evs) || blog.err != nil || blog.trunc != nil ||
			last != (binlog.Event{Timestamp: want.Timestamp, LSN: want.LSN}) {
			t.Fatalf("%d statements: walked %d undo records and %d events (errors %v, %v; truncations %v, %v), last %+v; the logs hold %d and %d, last %+v",
				stmts, undo.frames, blog.frames, undo.err, blog.err, undo.trunc, blog.trunc, last, len(undoRecs), len(evs), want)
		}
		return allocs
	}
	short, long := walk(20), walk(400)
	if long > short {
		t.Errorf("the walk allocates %.0f times over 20 statements' logs, %.0f over 400's", short, long)
	}
}

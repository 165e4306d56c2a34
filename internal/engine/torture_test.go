package engine

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"snapdb/internal/failpoint"
	"snapdb/internal/vfs"
)

// tortureStmts is the deterministic workload the crash-torture harness
// replays: two tables, secondary index, autocommit DML, an explicit
// committed transaction, and an explicit rolled-back one.
func tortureStmts() []string {
	stmts := []string{
		"CREATE TABLE users (id INT PRIMARY KEY, name TEXT, karma INT)",
		"CREATE TABLE orders (id INT PRIMARY KEY, uid INT, total INT)",
	}
	for i := 0; i < 6; i++ {
		stmts = append(stmts, fmt.Sprintf(
			"INSERT INTO users (id, name, karma) VALUES (%d, 'user-%02d', %d)", i, i, i*10))
	}
	stmts = append(stmts, "CREATE INDEX idx_uid ON orders (uid)")
	for i := 0; i < 6; i++ {
		stmts = append(stmts, fmt.Sprintf(
			"INSERT INTO orders (id, uid, total) VALUES (%d, %d, %d)", 100+i, i%3, 50+i))
	}
	stmts = append(stmts,
		"UPDATE users SET karma = 999 WHERE id = 2",
		"DELETE FROM orders WHERE id = 103",
		"BEGIN",
		"INSERT INTO users (id, name, karma) VALUES (50, 'txn-user', 1)",
		"UPDATE users SET karma = 2 WHERE id = 50",
		"INSERT INTO orders (id, uid, total) VALUES (200, 50, 75)",
		"COMMIT",
		"UPDATE users SET name = 'renamed' WHERE id = 0",
		"BEGIN",
		"INSERT INTO users (id, name, karma) VALUES (60, 'doomed', 0)",
		"DELETE FROM users WHERE id = 1",
		"UPDATE orders SET total = 0 WHERE id = 100",
		"ROLLBACK",
		"INSERT INTO orders (id, uid, total) VALUES (300, 2, 500)",
		"BEGIN",
		"UPDATE users SET karma = 777 WHERE id = 3",
		"DELETE FROM orders WHERE id = 104",
		"COMMIT",
		"UPDATE users SET karma = 0 WHERE id = 4",
		"DELETE FROM users WHERE id = 5",
	)
	return stmts
}

// tortureRef is what a crash-then-recover after one statement prefix
// must land on: the state digest of the prefix executed on a fresh
// in-memory engine, with any transaction still open at the cut rolled
// back (recovery rolls back losers), and that engine's binlog length.
type tortureRef struct {
	digest string
	binlog int
}

// refStates returns the tortureRef of every statement-prefix length
// 0..len(stmts).
func refStates(t testing.TB, stmts []string) []tortureRef {
	t.Helper()
	out := make([]tortureRef, 0, len(stmts)+1)
	for i := 0; i <= len(stmts); i++ {
		e, _ := newEngine(t, Defaults())
		s := e.Connect("ref")
		open := false
		for _, q := range stmts[:i] {
			mustExec(t, s, q)
			switch q {
			case "BEGIN":
				open = true
			case "COMMIT", "ROLLBACK":
				open = false
			}
		}
		if open {
			mustExec(t, s, "ROLLBACK")
		}
		_, _, evs := durableLogs(t, e)
		out = append(out, tortureRef{digest: digestOf(t, e), binlog: len(evs)})
	}
	return out
}

// checkRecovered holds an engine recovered at a kill-point to the
// statement prefixes it may land on: any length from lo (the statements
// acknowledged durable) to hi (those plus the ones in flight). diverged:
// the data matches none. binlogLeads: the binlog file holds more events
// than the prefix the data matched — a replica would apply writes the
// primary lost. (Longer prefixes are tried first: a prefix's binlog
// never shrinks as it grows.)
func checkRecovered(t testing.TB, r *Engine, refs []tortureRef, lo, hi int) (diverged, binlogLeads bool) {
	t.Helper()
	got := digestOf(t, r)
	for i := min(hi, len(refs)-1); i >= lo; i-- {
		if refs[i].digest == got {
			_, _, evs := durableLogs(t, r)
			return false, len(evs) > refs[i].binlog
		}
	}
	return true, false
}

// runUntilError executes stmts against a fresh durable engine on fs and
// returns how many statements were acknowledged before the first error
// (len(stmts) if none). Engine construction itself counts as statement
// zero: if it fails, acked is 0.
func runUntilError(fs vfs.FS, stmts []string) (acked int) {
	return runUntilErrorCfg(fs, Defaults(), stmts)
}

// runUntilErrorCfg is runUntilError under an explicit configuration —
// the encrypted torture runs pass EncryptAtRest here.
func runUntilErrorCfg(fs vfs.FS, cfg Config, stmts []string) (acked int) {
	cfg.FS = fs
	e, err := New(cfg)
	if err != nil {
		return 0
	}
	e.Clock = func() int64 { return 1_000_000 }
	s := e.Connect("app")
	for _, q := range stmts {
		if _, err := s.Execute(q); err != nil {
			return acked
		}
		acked++
	}
	return acked
}

// tortureSide is the grouped arm's second session: right after the
// main session submits the keyed statement, while that statement's
// group is still pending, the side session updates a row it wrote. The
// side statement is durable on return, so its flush carries the pending
// group's records too.
var tortureSide = map[string]string{
	"INSERT INTO users (id, name, karma) VALUES (4, 'user-04', 40)": "UPDATE users SET name = 'side-4' WHERE id = 4",
	"UPDATE users SET karma = 999 WHERE id = 2":                     "UPDATE users SET name = 'side-2' WHERE id = 2",
}

// groupedStmts is tortureStmts with the side session's writes where
// they run: the order the grouped arm's statements apply in.
func groupedStmts() []string {
	var out []string
	for _, q := range tortureStmts() {
		out = append(out, q)
		if side, ok := tortureSide[q]; ok {
			out = append(out, side)
		}
	}
	return out
}

// runGrouped replays tortureStmts as the server runs a client that
// pipelines all of them: every statement goes through Session.Submit,
// so each run of autocommit writes is one group, synced when the next
// other statement or the final Flush arrives, and the side session
// writes into two pending groups. It stops at the first failed reply
// and returns, in groupedStmts positions, how many statements were
// synced (the acknowledged prefix) and how many were executed.
func runGrouped(fs vfs.FS, cfg Config) (synced, executed int) {
	cfg.FS = fs
	e, err := New(cfg)
	if err != nil {
		return 0, 0
	}
	e.Clock = func() int64 { return 1_000_000 }
	app, side := e.Connect("app"), e.Connect("side")
	var acked []bool
	failed := false
	settle := func(i int, err error) {
		acked[i] = err == nil
		failed = failed || err != nil
	}
	for _, q := range tortureStmts() {
		if failed {
			break
		}
		i := len(acked)
		acked = append(acked, false)
		app.Submit(q, func(_ *Result, err error) { settle(i, err) })
		if sq, ok := tortureSide[q]; ok && !failed {
			acked = append(acked, false)
			_, err := side.Execute(sq)
			settle(i+1, err)
		}
	}
	app.Flush()
	for synced < len(acked) && acked[synced] {
		synced++
	}
	return synced, len(acked)
}

// tortureGrouped is the grouped arm of the kill-point torture under
// cfg: runGrouped crashed at every durable op, recovered, and held by
// checkRecovered to a prefix between the synced and the executed
// statements, with a binlog that never leads it.
func tortureGrouped(t *testing.T, cfg Config, seed int64) {
	stmts := groupedStmts()
	refs := refStates(t, stmts)
	dryReg := failpoint.New(seed)
	if synced, _ := runGrouped(vfs.NewFaultFS(vfs.NewMemFS(), dryReg), cfg); synced != len(stmts) {
		t.Fatalf("grouped dry run synced %d of %d statements", synced, len(stmts))
	}
	total := int(dryReg.TotalHits())
	leads := 0
	for k := 1; k <= total; k++ {
		mem := vfs.NewMemFS()
		reg := failpoint.New(seed)
		reg.Arm("*", failpoint.KindCrash, uint64(k))
		synced, executed := runGrouped(vfs.NewFaultFS(mem, reg), cfg)
		if !reg.Crashed() {
			t.Fatalf("kill-point %d never fired (synced %d)", k, synced)
		}
		mem.Crash()
		r, rep, err := Recover(mem, cfg)
		if err != nil {
			t.Fatalf("kill-point %d: recovery failed: %v", k, err)
		}
		diverged, binlogLeads := checkRecovered(t, r, refs, synced, executed)
		if diverged {
			t.Fatalf("kill-point %d diverged: synced %d, executed %d statements, report %+v", k, synced, executed, rep)
		}
		if binlogLeads {
			leads++
		}
	}
	if total < 100 {
		t.Errorf("only %d kill-points exercised, want >= 100", total)
	}
	if leads > 0 {
		t.Errorf("%d of %d grouped kill-points recover a binlog that leads the recovered data", leads, total)
	}
	t.Logf("grouped seed %d: %d kill-points over %d durable ops, all recovered consistently", seed, total, total)
}

func tortureSeeds(t testing.TB) []int64 {
	spec := os.Getenv("SNAPDB_TORTURE_SEEDS")
	if spec == "" {
		return []int64{1}
	}
	var seeds []int64
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("SNAPDB_TORTURE_SEEDS: %v", err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// TestCrashTortureKillPoints crashes the engine at every k-th durable
// operation (write, sync, rename, ...) across the workload, recovers
// from the surviving bytes, and asserts the recovered state digest
// matches the reference prefix of acknowledged statements — the
// in-flight statement may land either way, so digests for acked and
// acked+1 are both legal — and that the recovered binlog never leads
// the recovered data. Its grouped arm (tortureGrouped) runs the same
// workload through pending groups, as the server does.
func TestCrashTortureKillPoints(t *testing.T) {
	stmts := tortureStmts()
	refs := refStates(t, stmts)

	for _, seed := range tortureSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Dry run: count the durable operations the workload performs.
			dryReg := failpoint.New(seed)
			if got := runUntilError(vfs.NewFaultFS(vfs.NewMemFS(), dryReg), stmts); got != len(stmts) {
				t.Fatalf("dry run failed at statement %d", got)
			}
			total := int(dryReg.TotalHits())
			stride := total / 150
			if stride < 1 {
				stride = 1
			}
			points, leads := 0, 0
			for k := 1; k <= total; k += stride {
				mem := vfs.NewMemFS()
				reg := failpoint.New(seed)
				reg.Arm("*", failpoint.KindCrash, uint64(k))
				acked := runUntilError(vfs.NewFaultFS(mem, reg), stmts)
				if !reg.Crashed() {
					t.Fatalf("kill-point %d never fired (acked %d)", k, acked)
				}
				mem.Crash()

				r, rep, err := Recover(mem, Defaults())
				if err != nil {
					t.Fatalf("kill-point %d: recovery failed: %v", k, err)
				}
				diverged, binlogLeads := checkRecovered(t, r, refs, acked, acked+1)
				if diverged {
					t.Fatalf("kill-point %d diverged: acked %d statements, report %+v", k, acked, rep)
				}
				if binlogLeads {
					leads++
				}
				points++
			}
			if points < 100 {
				t.Errorf("only %d kill-points exercised, want >= 100 (total ops %d)", points, total)
			}
			if leads > 0 {
				t.Errorf("%d of %d kill-points recover a binlog that leads the recovered data", leads, points)
			}
			t.Logf("seed %d: %d kill-points over %d durable ops, all recovered consistently", seed, points, total)
		})
		t.Run(fmt.Sprintf("grouped/seed=%d", seed), func(t *testing.T) { tortureGrouped(t, Defaults(), seed) })
	}
}

// TestCrashTortureDroppedSyncs combines lying fsyncs with crashes: the
// redo file's syncs are silently dropped, so at the crash any suffix of
// acknowledged statements may be lost — but the recovered state must
// still be SOME consistent prefix, never a torn hybrid.
func TestCrashTortureDroppedSyncs(t *testing.T) {
	stmts := tortureStmts()
	refs := refStates(t, stmts)
	valid := make(map[string]int, len(refs))
	for i, ref := range refs {
		valid[ref.digest] = i
	}

	dryReg := failpoint.New(1)
	if got := runUntilError(vfs.NewFaultFS(vfs.NewMemFS(), dryReg), stmts); got != len(stmts) {
		t.Fatalf("dry run failed at statement %d", got)
	}
	total := int(dryReg.TotalHits())

	for k := total / 4; k <= total; k += total / 4 {
		mem := vfs.NewMemFS()
		reg := failpoint.New(int64(k))
		reg.Arm("sync:"+FileRedo, failpoint.KindDropSync, 0) // drop every redo fsync
		reg.Arm("*", failpoint.KindCrash, uint64(k))
		acked := runUntilError(vfs.NewFaultFS(mem, reg), stmts)
		mem.Crash()

		r, rep, err := Recover(mem, Defaults())
		if err != nil {
			t.Fatalf("kill-point %d: recovery failed: %v", k, err)
		}
		got := digestOf(t, r)
		i, ok := valid[got]
		if !ok {
			t.Fatalf("kill-point %d: recovered state matches no statement prefix (acked %d, report %+v)", k, acked, rep)
		}
		if i > acked+1 {
			t.Fatalf("kill-point %d: recovered prefix %d is ahead of acked %d", k, i, acked)
		}
	}
}

// TestCrashTortureBitFlips corrupts the k-th redo write with a silent
// single-bit flip, crashes at the end, and asserts recovery detects the
// damage via checksum, truncates, reports — and never panics.
func TestCrashTortureBitFlips(t *testing.T) {
	stmts := tortureStmts()
	// The workload's last DDL (CREATE INDEX, statement 9) checkpoints and
	// truncates the redo file, legitimately erasing the 6 writes before
	// it — so the flips must target later writes (7..29, one per
	// statement flush) to hit surviving bytes.
	// The RedoTruncated assertion below fails loudly if these indices
	// ever drift back behind the last checkpoint.
	for _, k := range []uint64{14, 18, 25, 29} {
		mem := vfs.NewMemFS()
		reg := failpoint.New(int64(k))
		reg.Arm("write:"+FileRedo, failpoint.KindBitFlip, k)
		if got := runUntilError(vfs.NewFaultFS(mem, reg), stmts); got != len(stmts) {
			t.Fatalf("bit flip %d: silent corruption turned into an error at statement %d", k, got)
		}
		mem.Crash()

		r, rep, err := Recover(mem, Defaults())
		if err != nil {
			t.Fatalf("bit flip %d: recovery failed: %v", k, err)
		}
		if rep.RedoTruncated == nil {
			t.Fatalf("bit flip %d went undetected", k)
		}
		// A flip in the payload or CRC reads as a checksum mismatch; a
		// flip in the length field reads as a torn or oversized frame.
		// All are detected truncations — what must never happen is the
		// flipped bytes being served as data.
		if r := rep.RedoTruncated.Reason; !strings.Contains(r, "checksum") &&
			!strings.Contains(r, "torn") && !strings.Contains(r, "bad") {
			t.Errorf("bit flip %d: reason %q", k, r)
		}
		// The engine is usable on the surviving prefix.
		s := r.Connect("app")
		if _, err := s.Execute("SELECT name FROM users WHERE id = 0"); err != nil {
			t.Errorf("bit flip %d: recovered engine cannot serve: %v", k, err)
		}
	}
}

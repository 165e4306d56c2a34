package engine

import (
	"testing"

	"snapdb/internal/binlog"
)

func replayWorkload(t *testing.T) (*Engine, *int64) {
	e, now := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	for i, stmt := range []string{
		"INSERT INTO t (id, v) VALUES (1, 'one')",
		"INSERT INTO t (id, v) VALUES (2, 'two')",
		"UPDATE t SET v = 'TWO' WHERE id = 2",
		"INSERT INTO t (id, v) VALUES (3, 'three')",
		"DELETE FROM t WHERE id = 1",
	} {
		*now = 1_000_000 + int64(i+1)*60
		mustExec(t, s, stmt)
	}
	return e, now
}

func TestReplayBinlogFullRecovery(t *testing.T) {
	src, _ := replayWorkload(t)
	_, _, events := durableLogs(t, src)

	dst, _ := newEngine(t, Defaults())
	applied, err := dst.ReplayBinlog(events, 0)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(events) {
		t.Errorf("applied %d of %d", applied, len(events))
	}
	check := dst.Connect("check")
	res := mustExec(t, check, "SELECT id, v FROM t")
	if len(res.Rows) != 2 {
		t.Fatalf("recovered rows = %v", res.Rows)
	}
	if res.Rows[0][0].Int != 2 || res.Rows[0][1].Str != "TWO" || res.Rows[1][0].Int != 3 {
		t.Errorf("recovered state = %v", res.Rows)
	}
}

func TestReplayBinlogPointInTime(t *testing.T) {
	src, _ := replayWorkload(t)
	_, _, events := durableLogs(t, src)

	dst, _ := newEngine(t, Defaults())
	// Stop before the DELETE (which ran at 1_000_000 + 5*60).
	if _, err := dst.ReplayBinlog(events, 1_000_000+4*60); err != nil {
		t.Fatal(err)
	}
	check := dst.Connect("check")
	res := mustExec(t, check, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int != 3 { // rows 1, 2, 3 all present pre-delete
		t.Errorf("point-in-time count = %d, want 3", res.Rows[0][0].Int)
	}
	res = mustExec(t, check, "SELECT v FROM t WHERE id = 1")
	if len(res.Rows) != 1 {
		t.Error("pre-delete row missing")
	}
}

func TestReplayRequiresFreshEngine(t *testing.T) {
	e, _ := replayWorkload(t)
	if _, err := e.ReplayBinlog(nil, 0); err == nil {
		t.Error("replay onto a populated engine accepted")
	}
}

func TestReplayStopsOnBadStatement(t *testing.T) {
	dst, _ := newEngine(t, Defaults())
	events := []binlog.Event{
		{Timestamp: 1, Statement: "CREATE TABLE t (id INT PRIMARY KEY)"},
		{Timestamp: 2, Statement: "GARBAGE"},
		{Timestamp: 3, Statement: "INSERT INTO t (id) VALUES (1)"},
	}
	applied, err := dst.ReplayBinlog(events, 0)
	if err == nil {
		t.Fatal("corrupt event accepted")
	}
	if applied != 1 {
		t.Errorf("applied = %d, want 1", applied)
	}
}

// TestAttackerRebuildsDatabaseFromStolenBinlog is the §3 punchline:
// the stolen binlog alone reconstructs the full database plaintext
// (here: the engine's view of it — ciphertexts for an EDB, everything
// for a plain deployment).
func TestAttackerRebuildsDatabaseFromStolenBinlog(t *testing.T) {
	victim, _ := replayWorkload(t)
	stolen, err := victim.Dir().ReadFile(FileBinlog) // bytes from the stolen disk
	if err != nil {
		t.Fatal(err)
	}

	events, err := binlog.Parse(stolen)
	if err != nil {
		t.Fatal(err)
	}
	attacker, _ := newEngine(t, Defaults())
	if _, err := attacker.ReplayBinlog(events, 0); err != nil {
		t.Fatal(err)
	}
	vres := mustExec(t, victim.Connect("v"), "SELECT id, v FROM t")
	ares := mustExec(t, attacker.Connect("a"), "SELECT id, v FROM t")
	if len(vres.Rows) != len(ares.Rows) {
		t.Fatalf("attacker sees %d rows, victim has %d", len(ares.Rows), len(vres.Rows))
	}
	for i := range vres.Rows {
		for j := range vres.Rows[i] {
			if !vres.Rows[i][j].Equal(ares.Rows[i][j]) {
				t.Errorf("row %d differs", i)
			}
		}
	}
}

package workload

import (
	"testing"

	"snapdb/internal/binlog"
	"snapdb/internal/engine"
)

// driverRun sets up a fresh engine, runs cfg against it, and returns
// the result with the engine's binlog length.
func driverRun(t *testing.T, cfg DriverConfig) (*DriverResult, int) {
	t.Helper()
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := SetupTables(e, cfg.Tables, cfg.RowsPerTable); err != nil {
		t.Fatal(err)
	}
	res, err := RunDriver(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	img, err := e.Dir().ReadFile(engine.FileBinlog)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := binlog.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	return res, len(evs)
}

func TestDriverRunsMixedWorkload(t *testing.T) {
	cfg := DriverConfig{
		Goroutines:     4,
		WriterSessions: 1,
		Tables:         3,
		RowsPerTable:   50,
		Statements:     400,
		Seed:           1,
	}
	res, events := driverRun(t, cfg)
	if res.Statements != 400 || res.Writes != 100 || res.Reads != 300 {
		t.Errorf("statements = %d (%d reads, %d writes), want 400 (300, 100)", res.Statements, res.Reads, res.Writes)
	}
	// Every committed UPDATE must have landed in the binlog, none of the
	// SELECTs: 3 CREATEs + 150 setup INSERTs + the writer's updates.
	if want := cfg.Tables + cfg.Tables*cfg.RowsPerTable + res.Writes; events != want {
		t.Errorf("binlog events = %d, want %d", events, want)
	}
}

// TestDriverSameWorkAtAnyConcurrency: the same seeded statements do the
// same work however many sessions issue them — at 1 and at 4
// goroutines, all of them transactional writers that roll back every
// third batch, the statement counts and the committed binlog events
// agree.
func TestDriverSameWorkAtAnyConcurrency(t *testing.T) {
	var events []int
	for _, g := range []int{1, 4} {
		res, n := driverRun(t, DriverConfig{
			Goroutines:       g,
			WriterSessions:   g,
			Tables:           3,
			RowsPerTable:     50,
			Statements:       480, // 120 batches of 4, or 4 x 30: every third rolls back either way
			Seed:             1,
			TxnSize:          4,
			TxnRollbackEvery: 3,
		})
		if res.Statements != 480 || res.Writes != 480 {
			t.Errorf("%d goroutines: %d statements, %d writes, want 480 each", g, res.Statements, res.Writes)
		}
		events = append(events, n)
	}
	// 3 CREATEs + 150 setup INSERTs + the two committed batches of three.
	if want := 3 + 150 + 320; events[0] != want || events[1] != want {
		t.Errorf("binlog events at 1 and 4 goroutines = %v, want %d each", events, want)
	}
}

func TestDriverRejectsZeroStatements(t *testing.T) {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDriver(e, DriverConfig{}); err == nil {
		t.Error("want error for zero statement count")
	}
}

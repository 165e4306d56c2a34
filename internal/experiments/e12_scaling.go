package experiments

import (
	"fmt"

	"snapdb/internal/engine"
	"snapdb/internal/workload"
)

// E12Row is one concurrency level of the scaling table. The statement
// streams are seeded, so Statements, Writes and Returned repeat exactly
// and are the transcript; PerSecond, WALFlushes and Examined depend on
// how the goroutines interleave (two commits may share a group-commit
// flush, a statement that hits the query cache examines nothing) and
// are reported by Timing only.
type E12Row struct {
	Goroutines int
	Statements int
	Writes     int
	Returned   int64 // rows returned, summed over the run
	PerSecond  float64
	WALFlushes uint64 // group-commit flushes, preload included
	Examined   int64  // rows examined, summed over the run
}

// E12Result runs one seeded statement mix at rising session counts.
// Unlike E1–E11 this is a systems experiment, not a leakage
// experiment: its transcript pins that the same statements do the same
// work however many sessions issue them, and its ordering invariants
// are covered by E3 and the engine's concurrency tests. The rates in
// Timing are whatever this run saw; concurrency numbers come from
// snapbench (bench/README.md).
type E12Result struct {
	Rows       []E12Row
	Tables     int
	Statements int
}

// Name implements Result.
func (*E12Result) Name() string { return "E12" }

// Render implements Result.
func (r *E12Result) Render() string {
	t := &table{header: []string{"goroutines", "statements", "writes", "rows returned"}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%d", row.Goroutines),
			fmt.Sprintf("%d", row.Statements),
			fmt.Sprintf("%d", row.Writes),
			fmt.Sprintf("%d", row.Returned),
		)
	}
	return fmt.Sprintf(
		"E12: one seeded statement mix at rising session concurrency\n"+
			"(read-heavy mix over %d tables, %d statements/level;\n"+
			"stmts/sec, wal flushes and rows examined depend on scheduling: stderr)\n%s",
		r.Tables, r.Statements, t)
}

// Timing implements Timed.
func (r *E12Result) Timing() string {
	t := &table{header: []string{"goroutines", "stmts/sec", "wal flushes", "rows examined"}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%d", row.Goroutines),
			fmt.Sprintf("%.0f", row.PerSecond),
			fmt.Sprintf("%d", row.WALFlushes),
			fmt.Sprintf("%d", row.Examined),
		)
	}
	return "E12 timing (not in the transcript): what this run's interleaving decided\n" + t.String()
}

// E12Scaling runs the concurrent workload driver at increasing session
// counts against identically-prepared engines.
func E12Scaling(quick bool) (*E12Result, error) {
	cfg := workload.DriverConfig{
		Tables:       4,
		RowsPerTable: 100,
		Statements:   800,
		WriteEvery:   10,
		Seed:         42,
	}
	if quick {
		cfg.Statements = 200
		cfg.RowsPerTable = 40
	}
	out := &E12Result{Tables: cfg.Tables, Statements: cfg.Statements}
	for _, g := range []int{1, 4, 16} {
		e, err := engine.New(engine.Defaults())
		if err != nil {
			return nil, err
		}
		if err := workload.SetupTables(e, cfg.Tables, cfg.RowsPerTable); err != nil {
			return nil, err
		}
		run := cfg
		run.Goroutines = g
		res, err := workload.RunDriver(e, run)
		if err != nil {
			return nil, err
		}
		_, flushes := e.WAL().GroupCommitStats()
		out.Rows = append(out.Rows, E12Row{
			Goroutines: g,
			Statements: res.Statements,
			Writes:     res.Writes,
			Returned:   res.RowsReturned,
			PerSecond:  res.PerSecond,
			WALFlushes: flushes,
			Examined:   res.RowsExamined,
		})
	}
	return out, nil
}

package experiments

import (
	"fmt"
	"net"
	"time"

	"snapdb/internal/engine"
	"snapdb/internal/server"
	"snapdb/internal/workload"
)

// E12Row is one concurrency level of the scaling table. The statement
// streams are seeded, so Statements, Writes, Returned and WALFlushes
// repeat exactly and are the transcript; PerSecond, Speedup and
// Examined depend on how the goroutines interleave (which statements
// hit the query cache and so examine nothing) and are reported by
// Timing only.
type E12Row struct {
	Goroutines int
	Statements int
	Writes     int
	WALFlushes uint64 // group-commit flushes, preload included
	Returned   int64  // rows returned, summed over the run
	PerSecond  float64
	Speedup    float64 // vs the 1-goroutine row
	Examined   int64   // rows examined, summed over the run
}

// E12ClientRow is one client-protocol configuration: the same workload
// driven through the TCP server, per-statement vs pipelined batches.
// Both figures are wall-clock, so the rows appear in Timing only.
type E12ClientRow struct {
	Mode      string // "per-stmt" or "batched"
	BatchSize int    // statements per pipelined batch (1 = per-statement)
	PerSecond float64
	Speedup   float64 // vs the per-stmt client row
}

// E12Result runs one seeded statement mix at rising session counts.
// Unlike E1–E11 this is a systems experiment, not a leakage
// experiment: its transcript pins that the same statements do the same
// work however many sessions issue them, and its ordering invariants
// are covered by E3 and the engine's concurrency tests. The rates in
// Timing show sessions overlapping modelled device waits and nothing
// more; real concurrency numbers come from snapbench (bench/README.md).
type E12Result struct {
	Rows       []E12Row
	Client     []E12ClientRow // TCP-client rows at the top concurrency level
	ClientGs   int            // client connections used for the Client rows
	IOWait     time.Duration
	Tables     int
	Statements int
}

// Name implements Result.
func (*E12Result) Name() string { return "E12" }

// Render implements Result.
func (r *E12Result) Render() string {
	t := &table{header: []string{"goroutines", "statements", "writes", "wal flushes", "rows returned"}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%d", row.Goroutines),
			fmt.Sprintf("%d", row.Statements),
			fmt.Sprintf("%d", row.Writes),
			fmt.Sprintf("%d", row.WALFlushes),
			fmt.Sprintf("%d", row.Returned),
		)
	}
	return fmt.Sprintf(
		"E12: one seeded statement mix at rising session concurrency\n"+
			"(read-heavy mix over %d tables, %d statements/level, %v simulated I/O per statement;\n"+
			"stmts/sec, speedup, rows examined and the TCP-client rows depend on scheduling: stderr)\n%s",
		r.Tables, r.Statements, r.IOWait, t)
}

// Timing implements Timed.
func (r *E12Result) Timing() string {
	t := &table{header: []string{"goroutines", "stmts/sec", "speedup", "rows examined"}}
	for _, row := range r.Rows {
		t.add(
			fmt.Sprintf("%d", row.Goroutines),
			fmt.Sprintf("%.0f", row.PerSecond),
			fmt.Sprintf("%.2fx", row.Speedup),
			fmt.Sprintf("%d", row.Examined),
		)
	}
	ct := &table{header: []string{"client mode", "batch", "stmts/sec", "speedup"}}
	for _, row := range r.Client {
		ct.add(
			row.Mode,
			fmt.Sprintf("%d", row.BatchSize),
			fmt.Sprintf("%.0f", row.PerSecond),
			fmt.Sprintf("%.2fx", row.Speedup),
		)
	}
	return fmt.Sprintf(
		"E12 timing (not in the transcript): sessions overlapping %v modelled device waits\n%s"+
			"\nsame statement mix through the TCP server (%d client connections,\nno simulated I/O: protocol overhead only):\n%s",
		r.IOWait, t, r.ClientGs, ct)
}

// E12Scaling runs the concurrent workload driver at increasing session
// counts against identically-prepared engines. Per-statement simulated
// I/O wait (engine.Config.SimulatedIOWait) models the device latency a
// durable DBMS hides behind concurrency. Under the default MVCC a
// SELECT takes no table stripe at all, so what scales is sessions
// sleeping through those modelled waits side by side, even on one
// core; writers still serialise per table behind the exclusive stripe.
func E12Scaling(quick bool) (*E12Result, error) {
	cfg := workload.DriverConfig{
		Tables:       4,
		RowsPerTable: 100,
		Statements:   800,
		WriteEvery:   10,
		Seed:         42,
	}
	ioWait := 200 * time.Microsecond
	if quick {
		cfg.Statements = 200
		cfg.RowsPerTable = 40
	}
	out := &E12Result{IOWait: ioWait, Tables: cfg.Tables, Statements: cfg.Statements}
	var base float64
	for _, g := range []int{1, 4, 16} {
		ecfg := engine.Defaults()
		ecfg.SimulatedIOWait = ioWait
		e, err := engine.New(ecfg)
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
		if base == 0 {
			base = res.PerSecond
		}
		_, flushes := e.WAL().GroupCommitStats()
		out.Rows = append(out.Rows, E12Row{
			Goroutines: g,
			Statements: res.Statements,
			Writes:     res.Writes,
			WALFlushes: flushes,
			Returned:   res.RowsReturned,
			PerSecond:  res.PerSecond,
			Speedup:    res.PerSecond / base,
			Examined:   res.RowsExamined,
		})
	}

	// Same workload once more, through the TCP server: per-statement
	// Execute pays one network round trip per statement, ExecuteBatch
	// pipelines them. The gap is the protocol overhead the batched mode
	// removes — so these rows run WITHOUT the simulated device wait,
	// which is a floor both modes share and would drown exactly the
	// per-statement cost being compared. More statements per connection
	// than the scaling rows, so each connection issues many full
	// batches.
	out.ClientGs = 16
	clientStatements := cfg.Statements * 8
	var clientBase float64
	for _, mode := range []struct {
		name  string
		batch int
	}{
		{"per-stmt", 1},
		{"batched", 32},
	} {
		ecfg := engine.Defaults()
		e, err := engine.New(ecfg)
		if err != nil {
			return nil, err
		}
		if err := workload.SetupTables(e, cfg.Tables, cfg.RowsPerTable); err != nil {
			return nil, err
		}
		srv := server.New(e)
		ready := make(chan net.Addr, 1)
		done := make(chan error, 1)
		go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
		addr := (<-ready).String()
		run := workload.RemoteDriverConfig{DriverConfig: cfg, Addr: addr, BatchSize: mode.batch}
		run.Goroutines = out.ClientGs
		run.Statements = clientStatements
		res, err := workload.RunDriverRemote(run)
		cerr := srv.Close()
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
		if serr := <-done; serr != nil {
			return nil, serr
		}
		if clientBase == 0 {
			clientBase = res.PerSecond
		}
		out.Client = append(out.Client, E12ClientRow{
			Mode:      mode.name,
			BatchSize: mode.batch,
			PerSecond: res.PerSecond,
			Speedup:   res.PerSecond / clientBase,
		})
	}
	return out, nil
}

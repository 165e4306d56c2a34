package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The end-to-end run: a real snapdbd process on loopback TCP, tracing
// off, two closed-loop connections from this process.

// A run boots and loads the daemon at least setupRepeats times, and up
// to setupMaxRepeats while the set-ups so far took less than setupBudget
// in all: a 0.1 s set-up needs more samples than a 2 s one for its
// median to hold still. The last instance is the one measured.
const (
	setupRepeats    = 3
	setupMaxRepeats = 7
	setupBudget     = 2 * time.Second
)

// A crash recovery is repeated up to recoveryRepeats times while the
// recoveries so far took less than recoveryBudget in all.
const (
	recoveryRepeats = 9
	recoveryBudget  = 3 * time.Second
)

// warmupShare of the timed statement count runs first, unmeasured, so
// the plan cache, the query cache, the buffer pool and the Go runtime's
// heap have reached their working state.
const warmupShare = 8 // one eighth

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value (0 = not a sampled statistic)
}

type runResult struct {
	metrics   map[string]metric
	classes   []classCost // traced pass: where each statement class's time went
	attempted int64
	failed    int64
	err       error
}

func (r *runResult) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

type runOptions struct {
	w       *workload
	seed    int64
	seconds float64
	bin     string // snapdbd binary
	root    string // datadir root
	setups  int    // boots and loads per run (0 = as many as the set-up constants say)

	probeDiv int    // divides the probes' iteration counts (the smoke test; 0 = full)
	outDir   string // where traces and results go (default bench/out)
}

func (o *runOptions) out() string {
	if o.outDir != "" {
		return o.outDir
	}
	return outDir
}

// stmtBudget is the fixed amount of timed work: rate × seconds.
func stmtBudget(rate int, seconds float64) int64 {
	n := int64(float64(rate) * seconds)
	if n < 1 {
		n = 1
	}
	return n
}

// loadOver boots nothing: it creates and fills w's tables through ex,
// DDL one statement at a time, rows as 50-row INSERTs in 32-statement
// pipelined batches. It returns the INSERT text bytes it was
// acknowledged for.
func loadOver(w *workload, ex executor) (int64, error) {
	ddl, inserts := w.loadStatements()
	for _, s := range ddl {
		r, err := ex.exec(s)
		if err == nil {
			err = r.err
		}
		if err != nil {
			return 0, fmt.Errorf("load %q: %w", s, err)
		}
	}
	var bytes int64
	out := make([]reply, loadBatch)
	for lo := 0; lo < len(inserts); lo += loadBatch {
		chunk := inserts[lo:min(lo+loadBatch, len(inserts))]
		if err := ex.execBatch(chunk, out); err != nil {
			return 0, fmt.Errorf("load: %w", err)
		}
		for i, s := range chunk {
			if out[i].err != nil {
				return 0, fmt.Errorf("load %.60q: %w", s, out[i].err)
			}
			bytes += int64(len(s))
		}
	}
	return bytes, nil
}

// bootAndLoad is one set-up: daemon start to load complete.
func bootAndLoad(o *runOptions, datadir string) (*daemon, int64, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(o.bin, datadir, o.w.encrypt)
	if err != nil {
		return nil, 0, 0, err
	}
	ex, err := dialWire(d.addr)
	if err != nil {
		d.kill()
		return nil, 0, 0, err
	}
	defer ex.close()
	bytes, err := loadOver(o.w, ex)
	if err != nil {
		d.kill()
		return nil, 0, 0, err
	}
	return d, bytes, time.Since(t0), nil
}

// e2eRun is the state one end-to-end run threads through its steps.
type e2eRun struct {
	o         *runOptions
	res       *runResult
	tmp       string // removed when the run ends
	datadir   string // the measured daemon's
	d         *daemon
	clients   []actor
	loadBytes int64 // INSERT text the load was acknowledged for
}

// runE2E measures one workload end to end: set-up, warm-up, the timed
// window, then crash, recovery and verification.
func runE2E(o *runOptions) *runResult {
	r := &e2eRun{o: o, res: &runResult{metrics: make(map[string]metric)}}
	var err error
	if r.tmp, err = os.MkdirTemp(o.root, "snapbench-"+o.w.name+"-"); err != nil {
		r.res.err = err
		return r.res
	}
	trackDir(r.tmp)
	defer removeDir(r.tmp)
	defer func() {
		if r.d != nil {
			r.d.kill()
		}
	}()
	for _, step := range []func() error{r.setUp, r.measure, r.crashAndVerify} {
		if err := step(); err != nil {
			r.res.err = err
			return r.res
		}
	}
	r.res.set("failed_ops_ratio", "ratio", float64(r.res.failed)/float64(r.res.attempted), int(r.res.attempted))
	return r.res
}

// setUp boots and loads the daemon several times; the median is
// setup_s and the last instance stays up to be measured.
func (r *e2eRun) setUp() error {
	var (
		setups []float64
		spent  time.Duration
	)
	more := func() bool {
		n := len(setups)
		if r.o.setups > 0 {
			return n < r.o.setups
		}
		return n < setupRepeats || (n < setupMaxRepeats && spent < setupBudget)
	}
	for i := 0; more(); i++ {
		if r.d != nil {
			r.d.kill()
			r.d = nil
			_ = os.RemoveAll(r.datadir)
		}
		r.datadir = filepath.Join(r.tmp, fmt.Sprintf("d%d", i))
		d, bytes, took, err := bootAndLoad(r.o, r.datadir)
		if err != nil {
			return err
		}
		r.d, r.loadBytes = d, bytes
		spent += took
		setups = append(setups, took.Seconds())
	}
	r.res.set("setup_s", "s", median(setups), len(setups))
	return nil
}

// measure runs the warm-up and the timed window over two connections
// and reports everything the window shows.
func (r *e2eRun) measure() error {
	w, res := r.o.w, r.res
	r.clients = w.newClients(w, r.o.seed)
	execs := make([]executor, len(r.clients))
	defer func() {
		for _, ex := range execs {
			if ex != nil {
				ex.close()
			}
		}
	}()
	for c := range execs {
		ex, err := dialWire(r.d.addr)
		if err != nil {
			return err
		}
		execs[c] = ex
	}
	timed := stmtBudget(w.rate, r.o.seconds)
	warm := runLoop(&loopConfig{w: w, clients: r.clients, execs: execs, requests: w.requestsFor(timed / warmupShare)})
	if warm.err != nil {
		return warm.err
	}
	cpu0, err := procCPU(r.d.pid())
	if err != nil {
		return err
	}
	run := runLoop(&loopConfig{w: w, clients: r.clients, execs: execs, requests: w.requestsFor(timed)})
	if run.err != nil {
		return run.err
	}
	cpu1, err := procCPU(r.d.pid())
	if err != nil {
		return err
	}
	hwm, err := procHWM(r.d.pid())
	if err != nil {
		return err
	}
	disk, err := dirBytes(r.datadir)
	if err != nil {
		return err
	}
	res.attempted = warm.stmts + run.stmts
	res.failed = warm.failed + run.failed

	window := run.elapsed.Seconds()
	rates := sliceRates(run.slices, sliceDur.Seconds(), window)
	if len(rates) == 0 { // a window shorter than one slice
		rates = []float64{float64(run.stmts) / window}
	}
	res.set("throughput_stmts_s", "stmts/s", median(rates), len(rates))
	res.set("window_s", "s", window, int(run.stmts)) // informational: how long the fixed work took
	n, p50, p99 := slicePercentiles(run.sliceReq, sliceDur.Seconds(), window)
	if p99 == 0 { // slices too thin to carry a p99 each: the window's own
		_, _, p99 = run.class[classReq].summary()
	}
	res.set("req_p50_us", "us", p50/1e3, n)
	res.set("req_p99_us", "us", p99/1e3, n)
	res.set("server_cpu_ms_per_kstmt", "ms", (cpu1-cpu0).Seconds()*1e3/(float64(run.stmts)/1e3), int(run.stmts))
	res.set("server_rss_mb", "MiB", hwm, 0)
	res.set("disk_bytes_per_stmt_byte", "ratio", float64(disk)/float64(r.loadBytes+warm.writeBytes+run.writeBytes), 0)

	// The class split: not defined on every workload, so not gated;
	// reported with the per-layer set.
	n, p50, p99 = run.class[classRead].summary()
	res.set("read_p50_us", "us", p50/1e3, n)
	res.set("read_p99_us", "us", p99/1e3, n)
	n, p50, p99 = run.class[classWrite].summary()
	res.set("write_p50_us", "us", p50/1e3, n)
	res.set("write_p99_us", "us", p99/1e3, n)
	n, p50, p99 = run.class[classBatch].summary()
	res.set("batch_p50_ms", "ms", p50/1e6, n)
	res.set("batch_p99_ms", "ms", p99/1e6, n)
	res.set("txn_s", "txn/s", float64(run.commits)/window, int(run.commits))
	return nil
}

// crashAndVerify kills the daemon, times its recovery, and checks what
// came back — and what the datadir shows at rest.
func (r *e2eRun) crashAndVerify() error {
	w, res := r.o.w, r.res
	// SIGKILL, restart on the same datadir, first successful statement.
	// A recovered daemon checkpoints nothing, so a second crash replays
	// the same log: cheap recoveries are repeated and the median
	// reported, a long one is steady enough alone.
	var (
		recoveries []float64
		spent      time.Duration
		ex         *wireExec
	)
	defer func() {
		if ex != nil {
			ex.close()
		}
	}()
	for len(recoveries) < recoveryRepeats && (len(recoveries) == 0 || spent < recoveryBudget) {
		if ex != nil {
			ex.close()
			ex = nil
		}
		r.d.kill()
		r.d = nil
		t0 := time.Now()
		d, err := startDaemon(r.o.bin, r.datadir, w.encrypt)
		if err != nil {
			return fmt.Errorf("restart after SIGKILL: %w", err)
		}
		r.d = d
		if ex, err = dialWire(d.addr); err != nil {
			return err
		}
		first, err := ex.exec("SELECT COUNT(*) FROM " + w.tableName(0))
		if err == nil {
			err = first.err
		}
		if err != nil {
			return fmt.Errorf("first statement after recovery: %w", err)
		}
		took := time.Since(t0)
		spent += took
		recoveries = append(recoveries, took.Seconds())
	}
	res.set("recovery_s", "s", median(recoveries), len(recoveries))

	// Every acknowledged write must have survived, and nothing else.
	_, bad, err := verifyTables(w, r.clients, ex)
	if err != nil {
		return err
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d rows differ from the model after recovery\n", w.name, bad)
		res.failed += int64(bad)
	}
	// At rest: an encrypted datadir shows no row text, a plain one does.
	hits, err := plaintextMarkers(r.datadir)
	if err != nil {
		return err
	}
	if w.encrypt == (hits > 0) {
		fmt.Fprintf(os.Stderr, "bench: %s: encrypt=%v but %d datadir files hold plaintext row markers\n", w.name, w.encrypt, hits)
		res.failed++
	}
	return nil
}

// Command bench is snapbench: the closed-loop benchmark every
// performance or simplicity change to snapdb is judged by. See
// README.md in this directory for the catalogue and the reasons.
//
//	go run ./bench                                   all workloads, end to end then traced
//	go run ./bench --workload oltp_point --trace 0   one workload, end-to-end metrics
//	go run ./bench --workload oltp_point --trace 1   one workload, per-layer metrics
//	go run ./bench -selfcheck                        repeatability of the whole set
//	go run ./bench -report                           rewrite README's cost tables from the last traced run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
)

// cleanup tracks what an interrupted run must not leave behind:
// datadirs and daemons.
var cleanup struct {
	mu      sync.Mutex
	dirs    map[string]bool
	daemons map[*daemon]bool
}

func trackDir(dir string) {
	cleanup.mu.Lock()
	defer cleanup.mu.Unlock()
	if cleanup.dirs == nil {
		cleanup.dirs = make(map[string]bool)
	}
	cleanup.dirs[dir] = true
}

func removeDir(dir string) {
	_ = os.RemoveAll(dir)
	cleanup.mu.Lock()
	defer cleanup.mu.Unlock()
	delete(cleanup.dirs, dir)
}

func trackDaemon(d *daemon, live bool) {
	cleanup.mu.Lock()
	defer cleanup.mu.Unlock()
	if cleanup.daemons == nil {
		cleanup.daemons = make(map[*daemon]bool)
	}
	if live {
		cleanup.daemons[d] = true
	} else {
		delete(cleanup.daemons, d)
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 1, "seeds every statement generator")
		seconds      = flag.Float64("seconds", defaultSeconds, "timed work, in seconds on the reference sandbox (statements = calibrated rate × seconds)")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics from a spawned snapdbd; 1: per-layer metrics from the traced pass; default both")
		root         = flag.String("datadir-root", "", "where datadirs are created (default /dev/shm when writable, else "+buildDir+")")
		selfcheck    = flag.Bool("selfcheck", false, "run the whole set twice on one seed and once on seed 2; report spreads and PASS/UNRESOLVED/FAIL")
		report       = flag.Bool("report", false, "rewrite the cost tables in bench/README.md from the last traced run")
	)
	flag.Parse()
	// The generator shares two cores with the daemon it measures. Its own
	// heap is small and short-lived (statement text, decoded replies), so
	// collecting it four times less often costs a few MiB and keeps its GC
	// workers out of the daemon's way.
	debug.SetGCPercent(400)
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup.mu.Lock() // held to the end: nothing new is tracked while we exit
		for d := range cleanup.daemons {
			_ = d.cmd.Process.Kill()
			_ = d.cmd.Wait()
		}
		for dir := range cleanup.dirs {
			_ = os.RemoveAll(dir)
		}
		os.Exit(130)
	}()

	var err error
	switch {
	case *report:
		err = rewriteReport()
	case *selfcheck:
		err = runSelfcheck(*seconds, *root)
	case *workloadName != "":
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		err = runOne(w, *seed, *seconds, *trace, *root)
	default:
		if *trace >= 0 {
			fmt.Fprintln(os.Stderr, "bench: --trace needs --workload; without it both passes run for every workload")
			os.Exit(2)
		}
		err = runAll(*seed, *seconds, *root)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// printMetrics lists metrics by name with unit and sample count.
func printMetrics(w *workload, r *runResult, names []string) {
	for _, name := range names {
		m, ok := r.metrics[name]
		if !ok {
			continue
		}
		if m.n > 0 {
			fmt.Printf("%-14s %-42s %14.4f %-8s n=%d\n", w.name, name, m.Value, m.Unit, m.n)
		} else {
			fmt.Printf("%-14s %-42s %14.4f %-8s\n", w.name, name, m.Value, m.Unit)
		}
	}
}

func sortedNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// resultLine is the driver's contract: the last line of standard
// output, one JSON object with exactly these keys.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func emitResult(r *runResult, names []string) error {
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runOne is the driver's entry: one workload, one pass, result line
// last.
func runOne(w *workload, seed int64, seconds float64, trace int, root string) error {
	env, err := prepare(root)
	if err != nil {
		return err
	}
	o := &runOptions{w: w, seed: seed, seconds: seconds, bin: env.bin, root: env.root}
	var e2e *runResult
	if trace != 1 {
		if e2e, err = endToEndPass(o); err != nil {
			return err
		}
		if trace == 0 {
			if err := emitResult(e2e, endToEndNames()); err != nil {
				return err
			}
			return exitIfWrong(e2e)
		}
	}
	r, err := tracedPass(o, e2e)
	if err != nil {
		return err
	}
	if trace == 1 {
		if err := emitResult(r, perLayerNames()); err != nil {
			return err
		}
	}
	return exitIfWrong(r)
}

// endToEndPass runs and prints one workload's untraced daemon run.
func endToEndPass(o *runOptions) (*runResult, error) {
	r := runE2E(o)
	if r.err != nil {
		return nil, r.err
	}
	printMetrics(o.w, r, sortedNames(r.metrics))
	return r, nil
}

// tracedPass runs and prints one workload's traced pass and leaves its
// results in bench/out for -report.
func tracedPass(o *runOptions, e2e *runResult) (*runResult, error) {
	r := runTraced(o, e2e)
	if r.err != nil {
		return nil, r.err
	}
	printMetrics(o.w, r, sortedNames(r.metrics))
	return r, saveLayers(o.w, o.seed, o.seconds, r)
}

// exitIfWrong turns a verification failure into a non-zero exit, after
// the result line (which says correct=false) has been printed.
func exitIfWrong(r *runResult) error {
	if r.failed > 0 {
		return fmt.Errorf("verification failed: %d of %d operations", r.failed, r.attempted)
	}
	return nil
}

// runAll is the human's entry: the four workloads end to end against
// the real daemon with tracing off, then the traced pass of each, every
// metric by name; the result set goes to bench/out/results.json.
func runAll(seed int64, seconds float64, root string) error {
	env, err := prepare(root)
	if err != nil {
		return err
	}
	results := newResults(env.root, seed, seconds)
	opts := make([]*runOptions, len(workloads))
	e2e := make([]*runResult, len(workloads))
	for i, w := range workloads {
		opts[i] = &runOptions{w: w, seed: seed, seconds: seconds, bin: env.bin, root: env.root}
		if e2e[i], err = endToEndPass(opts[i]); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := exitIfWrong(e2e[i]); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	for i, w := range workloads {
		r, err := tracedPass(opts[i], e2e[i])
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := exitIfWrong(r); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		results.add(w, e2e[i], r)
	}
	return results.save()
}

type environment struct {
	bin  string
	root string
}

// prepare builds the daemon and settles where datadirs go.
func prepare(root string) (*environment, error) {
	env := &environment{root: datadirRoot(root)}
	if err := os.MkdirAll(env.root, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	env.bin = bin
	return env, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Everything a run leaves behind goes to bench/out (ignored by git):
// the span trace and the per-layer results of each traced workload, and
// the full result set of a run of all four. -report and the baseline
// are made from these files.

var outDir = filepath.Join("bench", "out")

// classCost is where one statement class's time went in the serial
// replays: means per request, nanoseconds.
type classCost struct {
	Class     string  `json:"class"`
	Requests  int     `json:"requests"`
	RoundTrip float64 `json:"round_trip_ns"` // over the wire
	Execute   float64 `json:"execute_ns"`    // Session.Execute
	Self      float64 `json:"engine_self_ns"`
	CryptFS   float64 `json:"cryptfs_self_ns"`
	VFSWrite  float64 `json:"vfs_write_ns"`
	VFSSync   float64 `json:"vfs_sync_ns"`
	VFSOther  float64 `json:"vfs_other_ns"`
}

// parts returns the cost centres of c, largest first.
func (c classCost) parts() []costPart {
	wire := c.RoundTrip - c.Execute
	p := []costPart{
		{"wire (client, loopback TCP, server framing)", wire},
		{"engine self (parse, plan, locks, trees, logs in memory)", c.Self},
		{"CryptFS self", c.CryptFS},
		{"file writes", c.VFSWrite},
		{"fsync", c.VFSSync},
		{"other file calls", c.VFSOther},
	}
	sort.SliceStable(p, func(i, j int) bool { return p[i].ns > p[j].ns })
	return p
}

type costPart struct {
	name string
	ns   float64
}

// layersFile is bench/out/layers-<workload>.json.
type layersFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Metrics  map[string]metric `json:"metrics"`
	Classes  []classCost       `json:"classes"`
}

func saveLayers(w *workload, seed int64, seconds float64, r *runResult) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(layersFile{Workload: w.name, Seed: seed, Seconds: seconds, Metrics: r.metrics, Classes: r.classes}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "layers-"+w.name+".json"), append(b, '\n'), 0o644)
}

// machineFacts describes where the numbers were taken.
type machineFacts struct {
	NProc       int    `json:"nproc"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	DatadirRoot string `json:"datadir_root"`
	DatadirFS   string `json:"datadir_fs"`
}

func facts(root string) machineFacts {
	return machineFacts{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		DatadirRoot: root, DatadirFS: fsType(root)}
}

// resultsFile is bench/out/results.json, and bench/BASELINE.json when a
// run is kept as the baseline.
type resultsFile struct {
	Machine   machineFacts                 `json:"machine"`
	Seed      int64                        `json:"seed"`
	Seconds   float64                      `json:"seconds"`
	Rates     map[string]map[string]int    `json:"calibrated_statements_per_second"`
	Workloads map[string]map[string]metric `json:"workloads"`
	// ReportedNotGated lists the client-observed metrics that carry no
	// bound (see classSplitNames): printed and recorded, deciding nothing.
	ReportedNotGated []string `json:"reported_not_gated"`
}

func newResults(root string, seed int64, seconds float64) *resultsFile {
	rf := &resultsFile{Machine: facts(root), Seed: seed, Seconds: seconds, ReportedNotGated: classSplitNames,
		Rates: make(map[string]map[string]int), Workloads: make(map[string]map[string]metric)}
	for _, w := range workloads {
		rf.Rates[w.name] = map[string]int{"end_to_end": w.rate, "traced_serial": w.t1Rate}
	}
	return rf
}

func (rf *resultsFile) add(w *workload, rs ...*runResult) {
	m := rf.Workloads[w.name]
	if m == nil {
		m = make(map[string]metric)
		rf.Workloads[w.name] = m
	}
	for _, r := range rs {
		for k, v := range r.metrics {
			m[k] = v
		}
	}
}

func (rf *resultsFile) save() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "results.json"), append(b, '\n'), 0o644)
}

// --- -report -----------------------------------------------------------------

const (
	costsBegin = "<!-- BEGIN GENERATED COSTS (go run ./bench -report) -->"
	costsEnd   = "<!-- END GENERATED COSTS -->"
)

// rewriteReport regenerates README.md's "where does a statement's time
// go" section from the layers files of the last traced run.
func rewriteReport() error {
	readme := filepath.Join("bench", "README.md")
	doc, err := os.ReadFile(readme)
	if err != nil {
		return err
	}
	i := bytes.Index(doc, []byte(costsBegin))
	j := bytes.Index(doc, []byte(costsEnd))
	if i < 0 || j < i {
		return fmt.Errorf("%s has no generated-costs markers", readme)
	}
	var sb strings.Builder
	sb.WriteString(costsBegin + "\n")
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join(outDir, "layers-"+w.name+".json"))
		if err != nil {
			return fmt.Errorf("no traced run of %s to report (run go run ./bench --workload %s --trace 1): %w", w.name, w.name, err)
		}
		var lf layersFile
		if err := json.Unmarshal(b, &lf); err != nil {
			return err
		}
		writeCostTable(&sb, &lf)
	}
	sb.WriteString(costsEnd)
	out := append(append(append([]byte(nil), doc[:i]...), sb.String()...), doc[j+len(costsEnd):]...)
	return os.WriteFile(readme, out, 0o644)
}

func us(ns float64) string { return fmt.Sprintf("%.1f", ns/1e3) }

func writeCostTable(sb *strings.Builder, lf *layersFile) {
	fmt.Fprintf(sb, "\n**%s** (seed %d, serial replay, mean µs per request)\n\n", lf.Workload, lf.Seed)
	sb.WriteString("| class | requests | round trip | execute | wire | engine self | CryptFS | write | fsync | top cost centre |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n")
	for _, c := range lf.Classes {
		top := c.parts()[0]
		fmt.Fprintf(sb, "| %s | %d | %s | %s | %s | %s | %s | %s | %s | %s (%.0f %%) |\n",
			c.Class, c.Requests, us(c.RoundTrip), us(c.Execute), us(c.RoundTrip-c.Execute), us(c.Self), us(c.CryptFS),
			us(c.VFSWrite), us(c.VFSSync), top.name, 100*ratio(top.ns, c.RoundTrip))
	}
	// What the probes say about the inside of "engine self", priced per
	// statement: operations per statement × the probe's time per
	// operation. An estimate, to point at a suspect; the spans above
	// are the measurement.
	m := func(name string) float64 { return lf.Metrics[name].Value }
	self := m("engine.self_us_per_stmt")
	if self <= 0 {
		return
	}
	est := []costPart{
		{"parse + digest on plan-cache misses", (1 - m("engine.plancache_hit_ratio")) * (m("sqlparse.parse_ns_per_stmt") + m("sqlparse.digest_ns_per_stmt")) / 1e3},
		{"performance_schema", math.Max(m("perfschema.us_per_stmt"), 0)},
		{"buffer-pool fetches", m("bufpool.fetches_per_stmt") * m("bufpool.fetch_hit_ns") / 1e3},
	}
	sb.WriteString("\nInside engine self, priced from the probes: ")
	for i, e := range est {
		if i > 0 {
			sb.WriteString("; ")
		}
		fmt.Fprintf(sb, "%s ≈ %.1f µs (%.0f %%)", e.name, e.ns, 100*ratio(e.ns, self))
	}
	fmt.Fprintf(sb, " of %.1f µs per statement.\n", self)
}

// --- -selfcheck ----------------------------------------------------------------

// runSelfcheck runs the whole set three times — seed 1 twice, seed 2
// once — and judges the benchmark by its own bounds: a gated metric
// must not "regress" between two runs of the same code, its spread over
// the three must stay inside its bound, and every exact count of the
// serial replay must repeat bit for bit on the same seed.
func runSelfcheck(seconds float64, root string) error {
	env, err := prepare(root)
	if err != nil {
		return err
	}
	type set map[string]map[string]metric // workload → metric → value
	seeds := []int64{1, 1, 2}
	sets := make([]set, len(seeds))
	start := time.Now()
	progress := func(i int, seed int64, w *workload, pass string) {
		fmt.Fprintf(os.Stderr, "selfcheck %4.0fs: set %d/%d seed %d: %s %s\n", time.Since(start).Seconds(), i+1, len(seeds), seed, w.name, pass)
	}
	for i, seed := range seeds {
		sets[i] = make(set)
		opts := make([]*runOptions, len(workloads))
		e2e := make([]*runResult, len(workloads))
		for j, w := range workloads {
			progress(i, seed, w, "end to end")
			opts[j] = &runOptions{w: w, seed: seed, seconds: seconds, bin: env.bin, root: env.root}
			if e2e[j] = runE2E(opts[j]); e2e[j].err != nil {
				return fmt.Errorf("%s: %w", w.name, e2e[j].err)
			}
		}
		for j, w := range workloads {
			progress(i, seed, w, "traced")
			tr := runTraced(opts[j], e2e[j])
			if tr.err != nil {
				return fmt.Errorf("%s: %w", w.name, tr.err)
			}
			if tr.failed > 0 {
				return fmt.Errorf("%s: verification failed: %d of %d operations", w.name, tr.failed, tr.attempted)
			}
			all := make(map[string]metric)
			for k, v := range e2e[j].metrics {
				all[k] = v
			}
			for k, v := range tr.metrics {
				all[k] = v
			}
			sets[i][w.name] = all
		}
	}
	bad := 0
	fmt.Printf("%-14s %-28s %14s %14s %14s %8s %6s  %s\n", "workload", "metric", "seed1 run A", "seed1 run B", "seed 2", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			a, b, c := sets[0][w.name][def.name].Value, sets[1][w.name][def.name].Value, sets[2][w.name][def.name].Value
			vs := []float64{a, b, c}
			sort.Float64s(vs)
			sp := ratio(vs[2]-vs[0], math.Abs(vs[1]))
			worse := ratio(b-a, math.Abs(a))
			if def.better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			switch {
			case worse > def.bound:
				verdict = "FAIL"
				bad++
			case sp > def.bound:
				verdict = "UNRESOLVED"
			}
			fmt.Printf("%-14s %-28s %14.4f %14.4f %14.4f %7.2f%% %5.0f%%  %s\n", w.name, def.name, a, b, c, sp*100, def.bound*100, verdict)
		}
	}
	fmt.Println()
	for _, w := range workloads {
		for _, def := range perLayer {
			if !def.exact {
				continue
			}
			a, b := sets[0][w.name][def.name].Value, sets[1][w.name][def.name].Value
			if math.Float64bits(a) != math.Float64bits(b) {
				fmt.Printf("%-14s %-40s %.17g != %.17g  FAIL: a serial count did not repeat\n", w.name, def.name, a, b)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d failures", bad)
	}
	fmt.Println("selfcheck: every exact count of the serial replay repeated bit for bit on the same seed")
	return nil
}

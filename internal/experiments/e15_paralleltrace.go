package experiments

import (
	"fmt"
	"strings"

	"snapdb/internal/engine"
	"snapdb/internal/storage"
)

// E15Result extends the paper's access-pattern leakage story to
// intra-query parallelism. Splitting one clustered scan across worker
// goroutines leaves every durable, *semantic* artifact untouched — the
// merged result rows, the binlog, the general log are byte-identical
// to the serial execution — but the buffer-pool fetch sequence, the
// paper's §4 side channel, is scrambled by the concurrent partition
// traversals. An analyst fingerprinting queries by their fetch traces
// (the Lewi-Wu style attacks of E5) loses the stable per-query page
// signature the serial executor leaks; what remains is a multiset
// signature plus partition-shaped bursts. Parallelism is therefore a
// (weak, accidental) trace-obfuscation mitigation — and, symmetrically,
// a complication for defenders replaying traces to detect injected
// queries.
type E15Result struct {
	Rows    int // table rows scanned per query
	Workers int // partition workers in the parallel runs
	Queries int // scan statements compared

	ResultsIdentical bool // merged rows byte-identical to serial (must hold)
	BinlogIdentical  bool // binlog byte-identical (must hold)
	GeneralIdentical bool // general log byte-identical (must hold)

	SerialFetches   int // buffer-pool fetches across the serial scan queries
	ParallelFetches int // same, parallel: extra per-partition tree descents

	// Where the traces first differ, and whether a second parallel run
	// reproduces the first, are decided by the goroutine scheduler:
	// Timing reports them, Render only that the traces differ.
	FirstDivergence int  // fetch index where the traces first differ (-1: never)
	RerunIdentical  bool // did two parallel runs produce the same trace?
}

// Name implements Result.
func (*E15Result) Name() string { return "E15" }

// Render implements Result.
func (r *E15Result) Render() string {
	t := &table{header: []string{"metric", "value"}}
	t.add("table rows / workers / queries", fmt.Sprintf("%d / %d / %d", r.Rows, r.Workers, r.Queries))
	t.add("result rows identical (must hold)", fmt.Sprintf("%v", r.ResultsIdentical))
	t.add("binlog identical (must hold)", fmt.Sprintf("%v", r.BinlogIdentical))
	t.add("general log identical (must hold)", fmt.Sprintf("%v", r.GeneralIdentical))
	t.add("fetch trace length serial -> parallel", fmt.Sprintf("%d -> %d", r.SerialFetches, r.ParallelFetches))
	t.add("fetch trace diverges from serial (must hold)", fmt.Sprintf("%v", r.FirstDivergence >= 0))
	return "E15 (§4 extension): parallel scans scramble the fetch trace, not the artifacts\n" + t.String()
}

// Timing implements Timed.
func (r *E15Result) Timing() string {
	return fmt.Sprintf("E15 this run: first fetch-trace divergence at index %d; parallel rerun trace identical: %v\n",
		r.FirstDivergence, r.RerunIdentical)
}

// e15Queries are the scan statements whose traces are compared. All are
// read-only so the two engines' durable artifacts depend only on the
// identical setup prefix.
func e15Queries() []string {
	return []string{
		"SELECT * FROM ledger WHERE amount > 40",
		"SELECT acct FROM ledger WHERE id >= 300 AND id <= 30000",
		"SELECT COUNT(*) FROM ledger WHERE bucket = 3",
		"SELECT SUM(amount) FROM ledger",
	}
}

// e15Run executes the setup and scan workload on one engine and
// captures the per-query artifacts. The fetch trace covers only the
// scan queries (tracing starts after setup), so serial and parallel
// traces align from index zero.
func e15Run(workers, rows int) (results string, binlog, general []string, trace []storage.PageID, err error) {
	cfg := engine.Defaults()
	cfg.EnableGeneralLog = true
	cfg.EnableQueryCache = false // every run must really scan
	cfg.ParallelScanMinRows = 1
	cfg.MaxScanWorkers = workers // 0 keeps every scan serial
	e, err := engine.New(cfg)
	if err != nil {
		return "", nil, nil, nil, err
	}
	now := int64(1_700_000_000)
	e.Clock = func() int64 { now++; return now }
	s := e.Connect("e15")
	defer s.Close()

	setup := []string{"CREATE TABLE ledger (id INT PRIMARY KEY, acct INT, bucket INT, amount INT)"}
	for i := 0; i < rows; i++ {
		setup = append(setup, fmt.Sprintf(
			"INSERT INTO ledger (id, acct, bucket, amount) VALUES (%d, %d, %d, %d)",
			i*3, i%97, i%7, (i*41)%100))
	}
	setup = append(setup, "ANALYZE TABLE ledger")
	for i, q := range setup {
		if _, err := s.Execute(q); err != nil {
			return "", nil, nil, nil, fmt.Errorf("setup %d: %w", i, err)
		}
	}

	e.BufferPool().SetTraceFunc(func(id storage.PageID) { trace = append(trace, id) })
	var sb strings.Builder
	for i, q := range e15Queries() {
		res, err := s.Execute(q)
		if err != nil {
			return "", nil, nil, nil, fmt.Errorf("query %d (%q): %w", i, q, err)
		}
		fmt.Fprintf(&sb, "q%d cols=%v examined=%d\n", i, res.Columns, res.RowsExamined)
		for _, r := range res.Rows {
			for j, v := range r {
				if j > 0 {
					sb.WriteByte('|')
				}
				sb.WriteString(v.SQL())
			}
			sb.WriteByte('\n')
		}
	}
	e.BufferPool().SetTraceFunc(nil)

	for _, ev := range e.Binlog().Events() {
		binlog = append(binlog, fmt.Sprintf("%d|%d|%s", ev.Timestamp, ev.LSN, ev.Statement))
	}
	for _, en := range e.GeneralLog().Entries() {
		general = append(general, fmt.Sprintf("%d|%d|%s", en.Timestamp, en.Session, en.Statement))
	}
	return sb.String(), binlog, general, trace, nil
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// E15ParallelTrace runs the same scan workload serially and with
// partitioned parallel scans, then diffs every surface. The semantic
// artifacts must match exactly — that is the correctness contract the
// differential tests enforce — while the fetch trace must diverge:
// every partition worker opens with its own descent from the root, so
// the parallel trace is longer than the serial one however the
// scheduler interleaves the workers. A second parallel run shows
// whether the scrambled trace is even self-reproducible.
func E15ParallelTrace(quick bool) (*E15Result, error) {
	rows, workers := 12000, 4
	if quick {
		rows, workers = 6000, 2
	}

	serRes, serBlog, serGen, serTrace, err := e15Run(0, rows)
	if err != nil {
		return nil, fmt.Errorf("E15: serial run: %w", err)
	}
	parRes, parBlog, parGen, parTrace, err := e15Run(workers, rows)
	if err != nil {
		return nil, fmt.Errorf("E15: parallel run: %w", err)
	}
	_, _, _, parTrace2, err := e15Run(workers, rows)
	if err != nil {
		return nil, fmt.Errorf("E15: parallel rerun: %w", err)
	}

	res := &E15Result{
		Rows:             rows,
		Workers:          workers,
		Queries:          len(e15Queries()),
		ResultsIdentical: serRes == parRes,
		BinlogIdentical:  sameStrings(serBlog, parBlog),
		GeneralIdentical: sameStrings(serGen, parGen),
		SerialFetches:    len(serTrace),
		ParallelFetches:  len(parTrace),
		FirstDivergence:  -1,
	}
	n := len(serTrace)
	if len(parTrace) < n {
		n = len(parTrace)
	}
	for i := 0; i < n; i++ {
		if serTrace[i] != parTrace[i] {
			res.FirstDivergence = i
			break
		}
	}
	if res.FirstDivergence < 0 && len(serTrace) != len(parTrace) {
		res.FirstDivergence = n
	}
	res.RerunIdentical = len(parTrace) == len(parTrace2)
	if res.RerunIdentical {
		for i := range parTrace {
			if parTrace[i] != parTrace2[i] {
				res.RerunIdentical = false
				break
			}
		}
	}

	if !res.ResultsIdentical {
		return nil, fmt.Errorf("E15: parallel results diverged from serial")
	}
	if !res.BinlogIdentical {
		return nil, fmt.Errorf("E15: binlog diverged between serial and parallel runs")
	}
	if !res.GeneralIdentical {
		return nil, fmt.Errorf("E15: general log diverged between serial and parallel runs")
	}
	if res.FirstDivergence < 0 {
		return nil, fmt.Errorf("E15: fetch traces never diverged — the scans did not run in parallel")
	}
	return res, nil
}

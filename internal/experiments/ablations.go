package experiments

import (
	"fmt"
	"strings"

	"snapdb/internal/bufpool"
	"snapdb/internal/crypto/prim"
	"snapdb/internal/edb/seabedx"
	"snapdb/internal/engine"
	"snapdb/internal/snapshot"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
	"snapdb/internal/wal"
	"snapdb/internal/workload"
)

// AblationsResult sweeps the four design choices DESIGN.md lists for
// ablation besides the ORE block size (which is E5-ablation): how deep
// events_statements_history is, how many pages the buffer pool holds,
// which SPLASHE variant lays out the ciphertext columns, and how much
// of a row one WAL record carries. Each moves how much a snapshot
// holds, none moves whether it leaks.
type AblationsResult struct {
	HistoryIssued int // statements the victim issued before the SQLi snapshot
	History       []AblationHistoryRow
	Pool          []AblationPoolRow
	SPLASHE       []AblationSPLASHERow
	WAL           []AblationWALRow
}

// AblationHistoryRow is one events_statements_history depth.
type AblationHistoryRow struct {
	Depth     int // Config.HistoryPerThread
	Recovered int // victim statements in the attacker's snapshot
}

// AblationPoolRow is one buffer-pool capacity.
type AblationPoolRow struct {
	Pages   int // Config.BufferPoolPages
	Touched int // distinct pages the workload fetched
	Dumped  int // page ids in the shutdown dump file
}

// AblationSPLASHERow is one SPLASHE variant over the same 20-value
// domain.
type AblationSPLASHERow struct {
	Variant string
	Columns int // ciphertext columns in the table's plan
}

// AblationWALRow is one redo-record granularity.
type AblationWALRow struct {
	Mode          string
	RetainedPerMB int // update records a full 1 MB circular redo log holds
}

// Name implements Result.
func (*AblationsResult) Name() string { return "Ablations" }

// Render implements Result.
func (r *AblationsResult) Render() string {
	t := &table{header: []string{"design choice", "setting", "measured"}}
	for _, row := range r.History {
		t.add("events_statements_history depth", fmt.Sprintf("%d", row.Depth),
			fmt.Sprintf("%d of %d issued statements recovered by SQLi", row.Recovered, r.HistoryIssued))
	}
	for _, row := range r.Pool {
		t.add("buffer-pool capacity", fmt.Sprintf("%d pages", row.Pages),
			fmt.Sprintf("%d of %d touched pages in the shutdown dump", row.Dumped, row.Touched))
	}
	for _, row := range r.SPLASHE {
		t.add("SPLASHE variant (20-value domain)", row.Variant, fmt.Sprintf("%d ciphertext columns", row.Columns))
	}
	for _, row := range r.WAL {
		t.add("WAL record granularity (140-byte row)", row.Mode, fmt.Sprintf("%d writes retained per MB of redo", row.RetainedPerMB))
	}
	return "Ablations (DESIGN.md design choices; ORE block size is the E5 ablation above)\n" + t.String()
}

// Ablations runs the four sweeps. They are small at full scale, so
// quick changes nothing.
func Ablations(bool) (*AblationsResult, error) {
	res := &AblationsResult{HistoryIssued: 50}
	for _, depth := range []int{1, 10, 100} {
		n, err := ablateHistoryDepth(depth, res.HistoryIssued)
		if err != nil {
			return nil, fmt.Errorf("ablation history=%d: %w", depth, err)
		}
		res.History = append(res.History, AblationHistoryRow{Depth: depth, Recovered: n})
	}
	for _, pages := range []int{16, 64, 256} {
		row, err := ablatePoolPages(pages)
		if err != nil {
			return nil, fmt.Errorf("ablation pages=%d: %w", pages, err)
		}
		res.Pool = append(res.Pool, row)
	}
	for _, enhanced := range []bool{false, true} {
		row, err := ablateSPLASHE(enhanced)
		if err != nil {
			return nil, fmt.Errorf("ablation splashe %s: %w", row.Variant, err)
		}
		res.SPLASHE = append(res.SPLASHE, row)
	}
	for _, wholeRow := range []bool{false, true} {
		row, err := ablateWALGranularity(wholeRow)
		if err != nil {
			return nil, fmt.Errorf("ablation wal %s: %w", row.Mode, err)
		}
		res.WAL = append(res.WAL, row)
	}
	return res, nil
}

// ablateHistoryDepth has one victim issue `issued` SELECTs and counts
// how many of them a SQL-injection snapshot reads back out of
// events_statements_history.
func ablateHistoryDepth(depth, issued int) (int, error) {
	cfg := engine.Defaults()
	cfg.HistoryPerThread = depth
	e, err := engine.New(cfg)
	if err != nil {
		return 0, err
	}
	s := e.Connect("victim")
	if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		return 0, err
	}
	for q := 0; q < issued; q++ {
		if _, err := s.Execute(fmt.Sprintf("SELECT v FROM t WHERE id = %d", q)); err != nil {
			return 0, err
		}
	}
	recovered := 0
	for _, ev := range snapshot.Capture(e, snapshot.SQLInjection).Diagnostics.History {
		if strings.HasPrefix(ev.Statement, "SELECT v FROM t") {
			recovered++
		}
	}
	return recovered, nil
}

// ablatePoolPages loads 20 000 rows (more pages than the largest pool
// swept), runs 200 point SELECTs and shuts down: the dump file names
// as many of the touched pages as the pool could hold.
func ablatePoolPages(pages int) (AblationPoolRow, error) {
	row := AblationPoolRow{Pages: pages}
	cfg := engine.Defaults()
	cfg.BufferPoolPages = pages
	e, err := engine.New(cfg)
	if err != nil {
		return row, err
	}
	touched := map[storage.PageID]bool{}
	e.BufferPool().SetTraceFunc(func(id storage.PageID) { touched[id] = true })
	s := e.Connect("app")
	if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		return row, err
	}
	const rows = 20000
	for r := 0; r < rows; r++ {
		if _, err := s.Execute(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'row-payload-%05d')", r, r)); err != nil {
			return row, err
		}
	}
	for q := 0; q < 200; q++ {
		if _, err := s.Execute(fmt.Sprintf("SELECT v FROM t WHERE id = %d", (q*3701)%rows)); err != nil {
			return row, err
		}
	}
	e.BufferPool().SetTraceFunc(nil)
	if err := e.Shutdown(); err != nil {
		return row, err
	}
	dump, err := e.Dir().ReadFile(engine.FileBufferPool)
	if err != nil {
		return row, err
	}
	ids, err := bufpool.ParseDump(dump)
	if err != nil {
		return row, err
	}
	row.Touched, row.Dumped = len(touched), len(ids)
	return row, nil
}

// ablateSPLASHE builds the same Zipf-distributed fact table under basic
// SPLASHE (one ASHE column per domain value) and enhanced SPLASHE (ASHE
// columns for the five frequent values, one DET column for the tail
// that E7 then recovers per row).
func ablateSPLASHE(enhanced bool) (AblationSPLASHERow, error) {
	row := AblationSPLASHERow{Variant: "basic"}
	domain := workload.States // 20 values
	splayed := domain
	if enhanced {
		row.Variant = "enhanced (top 5 splayed)"
		splayed = domain[:5]
	}
	e, err := engine.New(engine.Defaults())
	if err != nil {
		return row, err
	}
	tbl, err := seabedx.NewTable(e, prim.TestKey("ablation"), "facts", "state", splayed, enhanced)
	if err != nil {
		return row, err
	}
	rows, err := workload.ZipfQueryStream(domain, 200, 1.3, 3)
	if err != nil {
		return row, err
	}
	for _, v := range rows {
		if err := tbl.Insert(v); err != nil {
			return row, err
		}
	}
	row.Columns = tbl.Plan().NumColumns()
	return row, nil
}

// ablateWALGranularity fills a 1 MB circular redo log with updates of
// one 20-byte column of a 140-byte row, logged either as the changed
// column (what the engine and InnoDB-style engines log) or as the whole
// row, and counts the records the full log retains: coarser records
// shorten the forensic window, and each retained one carries the full
// row.
func ablateWALGranularity(wholeRow bool) (AblationWALRow, error) {
	row := AblationWALRow{Mode: "column-diff"}
	if wholeRow {
		row.Mode = "whole-row"
	}
	wide := storage.Record{
		sqlparse.IntValue(1),
		sqlparse.StrValue(strings.Repeat("a", 20)),
		sqlparse.StrValue(strings.Repeat("b", 40)),
		sqlparse.StrValue(strings.Repeat("c", 80)),
	}
	m, err := wal.NewManager(1<<20, 1<<20)
	if err != nil {
		return row, err
	}
	for m.Redo.Evicted() < 500 {
		if wholeRow {
			m.LogUpdate(1, storage.Record{wide[0]}, wal.WholeRow, wide, wide)
		} else {
			m.LogUpdate(1, storage.Record{wide[0]}, 1, storage.Record{wide[1]}, storage.Record{wide[1]})
		}
	}
	row.RetainedPerMB = m.Redo.Len()
	return row, nil
}

package engine

import (
	"fmt"
	"strings"
	"testing"
)

// loadScanTable fills table name with n rows shaped like snapbench's —
// (id INT PRIMARY KEY, k INT, v TEXT), k = id % 10, v a 48-byte text
// naming its row — in 50-row INSERTs.
func loadScanTable(t testing.TB, s *Session, name string, n int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE "+name+" (id INT PRIMARY KEY, k INT, v TEXT)")
	var sb strings.Builder
	for lo := 0; lo < n; lo += 50 {
		sb.Reset()
		sb.WriteString("INSERT INTO " + name + " (id, k, v) VALUES ")
		for id := lo; id < lo+50 && id < n; id++ {
			if id > lo {
				sb.WriteString(", ")
			}
			// Leading digits scatter ORDER BY v away from id order.
			fmt.Fprintf(&sb, "(%d, %d, '%08x-row-%s-%d-%s')", id, id%10, uint32(id)*2654435761, name, id, strings.Repeat("x", 48))
		}
		mustExec(t, s, sb.String())
	}
}

// leafPages counts the leaves of t's clustered tree by walking it the
// way a full scan does and watching the pool's fetch trace.
func leafPages(t testing.TB, e *Engine, table string) int {
	t.Helper()
	tbl, err := e.lookupTable(table)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tbl.Tree.Height()
	if err != nil {
		t.Fatal(err)
	}
	before := e.pool.FetchCount()
	if _, err := tbl.Tree.Len(); err != nil {
		t.Fatal(err)
	}
	return int(e.pool.FetchCount()-before) - (h - 1)
}

// TestScanAllocationBudget is the scan leaf's deterministic cost gate
// (ROADMAP aim 1): allocations per statement repeat exactly, so they
// bound what a scan may cost where wall-clock on a shared box cannot.
// A COUNT(*) that returns one row costs a fixed number of objects
// however many leaf pages it walks — the leaf lends its rows from one
// slab, rejects the losers before decoding them, and a warm pool's
// fetch allocates nothing — and a range read that returns its rows
// costs less than one object per row: a string slab per leaf page and
// a projected chunk per 64 rows.
func TestScanAllocationBudget(t *testing.T) {
	cfg := Defaults()
	cfg.EnableQueryCache = false // measure the scan, not a cache hit
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	defer s.Close()
	const rows, fewRows = 22000, 200
	loadScanTable(t, s, "small", fewRows)
	loadScanTable(t, s, "t", rows)
	if small, large := leafPages(t, e, "small"), leafPages(t, e, "t"); small > 12 || large < 1000 {
		t.Fatalf("fixtures span %d and %d leaf pages, want about 10 and at least 1000", small, large)
	}

	// Everything a COUNT allocates, the scan included: parse, plan,
	// operators, the cursor's scratch growing to one leaf's size, result,
	// perfschema row (24 when this was written, 11 since COUNT folds at the leaf). Constant in the table
	// size — that is the gate.
	const perCount = 30
	// What a statement that returns rows may spend besides them.
	const perStmt = 150

	countOn := func(table string, n int) float64 {
		q := "SELECT COUNT(*) FROM " + table + " WHERE k = 3 AND id >= 0"
		if res := mustExec(t, s, q); res.Rows[0][0].Int != int64(n/10) || res.RowsExamined != n {
			t.Fatalf("%s = %v examined %d", q, res.Rows, res.RowsExamined)
		}
		return testing.AllocsPerRun(5, func() { mustExec(t, s, q) })
	}
	small, large := countOn("small", fewRows), countOn("t", rows)
	t.Logf("COUNT: %.0f allocs over %d rows, %.0f over %d", small, fewRows, large, rows)
	if large > perCount {
		t.Errorf("COUNT over %d rows: %.0f allocs, want <= %d whatever the table's size", rows, large, perCount)
	}
	// A hundred times the pages may cost what the pool's map now and then
	// regrows, nothing per page.
	const slack = 8
	if large-small > slack {
		t.Errorf("COUNT allocates %.0f over %d rows and %.0f over %d, want within %d of each other", small, fewRows, large, rows, slack)
	}

	ranged := "SELECT id, v FROM t WHERE id >= 4000 AND id <= 4499"
	if res := mustExec(t, s, ranged); len(res.Rows) != 500 {
		t.Fatalf("%s returned %d rows", ranged, len(res.Rows))
	}
	got := testing.AllocsPerRun(5, func() { mustExec(t, s, ranged) })
	if limit := float64(500 + perStmt); got > limit {
		t.Errorf("%s: %.0f allocs for 500 rows, want <= 1 per row + %d = %.0f", ranged, got, perStmt, limit)
	}
}

// BenchmarkScanClasses runs snapbench's three scan_analytic statement
// classes in-process against one 40 000-row table over the default
// 256-page pool: the 90 % COUNT scan, the 500-row range read and the
// top-10 of a 2 000-row range.
func BenchmarkScanClasses(b *testing.B) {
	cfg := Defaults()
	cfg.EnableQueryCache = false
	e, _ := newEngine(b, cfg)
	s := e.Connect("bench")
	defer s.Close()
	const rows = 40000
	loadScanTable(b, s, "t", rows)
	for _, c := range []struct {
		name string
		sql  func(i int) string
	}{
		{"count", func(i int) string {
			return fmt.Sprintf("SELECT COUNT(*) FROM t WHERE k = %d AND id >= %d", i%10, (i*7919)%rows)
		}},
		{"range500", func(i int) string {
			lo := (i * 7919) % (rows - 500)
			return fmt.Sprintf("SELECT id, v FROM t WHERE id >= %d AND id <= %d", lo, lo+499)
		}},
		{"top10of2000", func(i int) string {
			lo := (i * 7919) % (rows - 2000)
			return fmt.Sprintf("SELECT id, v FROM t WHERE id >= %d AND id <= %d ORDER BY v DESC LIMIT 10", lo, lo+1999)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(c.sql(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelScan is a smoke benchmark: partitioned clustered
// scans beside the serial executor (workers=1) on a 100k-row table.
// Nothing in the engine waits on a device, so the workers have no fetch
// latency to overlap and no speedup is expected or asserted.
func BenchmarkParallelScan(b *testing.B) {
	const tableRows = 100_000
	ranges := []struct {
		name string
		rows int
	}{
		{"range=50k", 50_000},
		{"range=100k", tableRows},
	}
	for _, workers := range []int{1, 2, 4} {
		cfg := Defaults()
		cfg.EnableQueryCache = false // every iteration must really scan
		cfg.ParallelScanMinRows = 1
		cfg.MaxScanWorkers = workers // below 2 every scan stays serial
		e, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := e.Connect("bench")
		if _, err := s.Execute("CREATE TABLE pscan (id INT PRIMARY KEY, grp INT, score INT)"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < tableRows; i++ {
			stmt := fmt.Sprintf("INSERT INTO pscan (id, grp, score) VALUES (%d, %d, %d)", i, i%7, (i*37)%100)
			if _, err := s.Execute(stmt); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Execute("ANALYZE TABLE pscan"); err != nil {
			b.Fatal(err)
		}
		for _, rng := range ranges {
			q := fmt.Sprintf("SELECT COUNT(*) FROM pscan WHERE id >= 0 AND id <= %d", rng.rows-1)
			b.Run(fmt.Sprintf("workers=%d/%s", workers, rng.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := s.Execute(q)
					if err != nil {
						b.Fatal(err)
					}
					if got := res.Rows[0][0].SQL(); got != fmt.Sprint(rng.rows) {
						b.Fatalf("count = %s, want %d", got, rng.rows)
					}
				}
				b.ReportMetric(float64(rng.rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
		s.Close()
	}
}

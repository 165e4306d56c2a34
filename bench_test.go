// Package snapdb's root benchmark harness: one benchmark per paper
// table/figure (regenerating the experiment and reporting its headline
// metric via b.ReportMetric) plus the design-choice ablations listed in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use the experiments' quick configurations so the full
// harness completes in about a minute; cmd/experiments (without -quick)
// runs the paper-scale parameters.
package snapdb

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"snapdb/internal/attacks/bitleak"
	"snapdb/internal/crypto/prim"
	"snapdb/internal/edb/seabedx"
	"snapdb/internal/engine"
	"snapdb/internal/experiments"
	"snapdb/internal/server"
	"snapdb/internal/snapshot"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
	"snapdb/internal/workload"
)

func BenchmarkE1Figure1Matrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E1Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Rows)), "attacks")
		}
	}
}

func BenchmarkE2LogRetention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E2LogRetention(true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.UpdateRedoDays, "days-retained")
		}
	}
}

func BenchmarkE3BinlogCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E3BinlogCorrelation(true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.MeanAbsErrSec, "mean-dating-err-s")
		}
	}
}

func BenchmarkE4HeapResidue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E4HeapResidue(true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.FullTextHits), "fulltext-hits")
		}
	}
}

func BenchmarkE5LewiWuLeakage(b *testing.B) {
	for _, queries := range []int{5, 25, 50} {
		b.Run(fmt.Sprintf("queries=%d", queries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bitleak.Simulate(bitleak.Config{
					DBSize: 10000, NumQueries: queries, Trials: 10, BlockBits: 1, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(100*res.FractionLeaked, "%bits-leaked")
				}
			}
		})
	}
}

func BenchmarkE6CountAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E6CountAttack(true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.RecoveryRate, "%keywords-recovered")
			b.ReportMetric(100*res.UniqueCountFrac, "%unique-counts")
		}
	}
}

func BenchmarkE7SeabedFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E7Seabed(true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.WeightedRecovery, "%weighted-recovery")
		}
	}
}

func BenchmarkE8ArxTranscript(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E8Arx(true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.ValueRecovery, "%values-recovered")
		}
	}
}

func BenchmarkE9AtRest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E9AtRest()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.DecryptedWrites), "writes-decrypted")
		}
	}
}

func BenchmarkE10DiagnosticTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E10Diagnostics(true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.HistoryRecovered), "stmts-recovered")
		}
	}
}

func BenchmarkE11Mitigations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E11Mitigations(true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.ClosedBy), "channels-closed")
			b.ReportMetric(float64(res.Inherent), "channels-inherent")
		}
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationLewiWuBlockSize sweeps the ORE block size: only
// 1-bit blocks let token comparisons determine plaintext bits outright.
func BenchmarkAblationLewiWuBlockSize(b *testing.B) {
	for _, bits := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("block=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bitleak.Simulate(bitleak.Config{
					DBSize: 2000, NumQueries: 25, Trials: 10, BlockBits: bits, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(100*res.FractionLeaked, "%bits-determined")
					b.ReportMetric(100*res.FractionTouched, "%bits-constrained")
				}
			}
		})
	}
}

// BenchmarkAblationHistorySize sweeps events_statements_history depth:
// how many of a victim's recent statements a SQLi attacker recovers.
func BenchmarkAblationHistorySize(b *testing.B) {
	for _, size := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("history=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := engine.Defaults()
				cfg.HistoryPerThread = size
				e, err := engine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s := e.Connect("victim")
				if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
					b.Fatal(err)
				}
				const issued = 50
				for q := 0; q < issued; q++ {
					if _, err := s.Execute(fmt.Sprintf("SELECT v FROM t WHERE id = %d", q)); err != nil {
						b.Fatal(err)
					}
				}
				snap := snapshot.Capture(e, snapshot.SQLInjection)
				if i == 0 {
					b.ReportMetric(float64(len(snap.Diagnostics.History)), "stmts-recovered")
				}
			}
		})
	}
}

// BenchmarkAblationBufferPoolSize sweeps pool capacity: the dump file
// covers a larger fraction of recent access paths as the pool grows.
func BenchmarkAblationBufferPoolSize(b *testing.B) {
	for _, pages := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := engine.Defaults()
				cfg.BufferPoolPages = pages
				e, err := engine.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s := e.Connect("app")
				if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
					b.Fatal(err)
				}
				for r := 0; r < 2000; r++ {
					if _, err := s.Execute(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'row-payload-%04d')", r, r)); err != nil {
						b.Fatal(err)
					}
				}
				for q := 0; q < 200; q++ {
					if _, err := s.Execute(fmt.Sprintf("SELECT v FROM t WHERE id = %d", (q*37)%2000)); err != nil {
						b.Fatal(err)
					}
				}
				dump := e.Shutdown()
				if i == 0 {
					b.ReportMetric(float64(len(dump)/4), "pages-in-dump")
				}
			}
		})
	}
}

// BenchmarkAblationSPLASHEVariant contrasts basic vs enhanced SPLASHE:
// basic needs one ASHE column per domain value; enhanced trades the
// long tail for a DET column — smaller schema, but the tail becomes
// frequency-analyzable (E7 measures the recovery).
func BenchmarkAblationSPLASHEVariant(b *testing.B) {
	domain := workload.States // 20 values
	frequent := workload.States[:5]
	for _, enhanced := range []bool{false, true} {
		name := "basic"
		vals := domain
		if enhanced {
			name = "enhanced"
			vals = frequent
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := engine.New(engine.Defaults())
				if err != nil {
					b.Fatal(err)
				}
				tbl, err := seabedx.NewTable(e, prim.TestKey("ablation"), "facts", "state", vals, enhanced)
				if err != nil {
					b.Fatal(err)
				}
				rows, err := workload.ZipfQueryStream(domain, 200, 1.3, 3)
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range rows {
					if err := tbl.Insert(v); err != nil {
						b.Fatal(err)
					}
				}
				if i == 0 {
					b.ReportMetric(float64(tbl.Plan().NumColumns()), "ciphertext-columns")
				}
			}
		})
	}
}

// BenchmarkAblationWALGranularity contrasts column-level change records
// (what the engine logs, and what InnoDB-style engines log) against
// whole-row logging: coarser records burn log capacity faster, so the
// forensic retention window shrinks — but every retained record then
// carries the full row.
func BenchmarkAblationWALGranularity(b *testing.B) {
	wideRow := storage.Record{
		sqlparse.IntValue(1),
		sqlparse.StrValue(strings.Repeat("a", 20)),
		sqlparse.StrValue(strings.Repeat("b", 40)),
		sqlparse.StrValue(strings.Repeat("c", 80)),
	}
	for _, mode := range []string{"column-diff", "whole-row"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := wal.NewManager(1<<20, 1<<20)
				if err != nil {
					b.Fatal(err)
				}
				for m.Redo.Evicted() < 500 {
					if mode == "column-diff" {
						// One changed 20-byte column.
						m.LogUpdate(1, storage.Record{wideRow[0]}, 1,
							storage.Record{wideRow[1]}, storage.Record{wideRow[1]})
					} else {
						// Whole-row image per update.
						m.LogUpdate(1, storage.Record{wideRow[0]}, wal.WholeRow,
							wideRow, wideRow)
					}
				}
				if i == 0 {
					b.ReportMetric(float64(m.Redo.Len()), "writes-retained-per-MB")
				}
			}
		})
	}
}

// BenchmarkEncryptAtRest prices the CryptFS layer on the durable
// write path: the same insert stream against a plaintext filesystem,
// deterministic page encryption (positional keystream XOR, the
// deployable default), and fresh-IV mode (per-write re-randomization,
// the E17 mitigation, which turns every page write into a
// read-modify-write plus a sidecar update). The spread between the
// last two is the price of closing the snapshot page-diff channel.
func BenchmarkEncryptAtRest(b *testing.B) {
	for _, mode := range []struct {
		name    string
		encrypt bool
		det     bool
	}{
		{"off", false, false},
		{"det", true, true},
		{"fresh-iv", true, false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := engine.Defaults()
			cfg.FS = vfs.NewMemFS()
			cfg.EncryptAtRest = mode.encrypt
			cfg.EncryptionKey = prim.TestKey("bench-crypt")
			cfg.DeterministicPages = mode.det
			e, err := engine.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := e.Connect("bench-crypt")
			defer s.Close()
			if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'payload-%06d')", i, i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "stmts/s")
		})
	}
}

// BenchmarkWorkloadThroughput is the substrate sanity benchmark: raw
// engine statement throughput with all artifacts enabled.
func BenchmarkWorkloadThroughput(b *testing.B) {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	s := e.Connect("bench")
	if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'payload')", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentThroughput measures statement throughput as
// session concurrency rises: the striped lock manager lets SELECTs on
// one table share a lock and statements on different tables proceed
// independently, while group commit coalesces the writers' log appends.
// Config.SimulatedIOWait models per-statement device latency (the cost
// a durable DBMS hides behind concurrency) so that overlap — not CPU
// parallelism — is what the benchmark rewards; on a single-core runner
// the scaling comes entirely from readers overlapping those waits.
// E12 (cmd/experiments -run E12) prints the same sweep as a table.
func BenchmarkConcurrentThroughput(b *testing.B) {
	const tables, rows = 4, 100
	for _, g := range []int{1, 4, 16} {
		cfg := engine.Defaults()
		cfg.SimulatedIOWait = 100 * time.Microsecond
		e, err := engine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := workload.SetupTables(e, tables, rows); err != nil {
			b.Fatal(err)
		}
		// RunParallel spawns SetParallelism(g) × GOMAXPROCS goroutines.
		goroutines := g * runtime.GOMAXPROCS(0)
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			var nextID atomic.Int64
			b.SetParallelism(g)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				id := nextID.Add(1)
				s := e.Connect(fmt.Sprintf("bench-conc-%d", id))
				defer s.Close()
				rng := rand.New(rand.NewSource(id * 7919))
				i := 0
				for pb.Next() {
					i++
					table := workload.DriverTableName(rng.Intn(tables))
					var q string
					if i%10 == 0 {
						q = fmt.Sprintf("UPDATE %s SET v = 'upd-%d-%d' WHERE id = %d", table, id, i, rng.Intn(rows))
					} else {
						q = fmt.Sprintf("SELECT v FROM %s WHERE id = %d", table, rng.Intn(rows))
					}
					if _, err := s.Execute(q); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "stmts/s")
		})
	}
}

// BenchmarkSortedRead measures ORDER BY execution through the whole
// statement pipeline over a 2000-row table (query cache off so every
// iteration really executes). The three cases are the planner's three
// ORDER BY shapes: Top-N folding (ORDER BY non-key LIMIT 10), the full
// Sort (no LIMIT to fold), and index-order absorption (ORDER BY pk
// DESC, no sort operator at all). All three fetch the same pages in
// the same order — the differential tests pin that — so the spread
// here is pure post-fetch CPU and allocation.
func BenchmarkSortedRead(b *testing.B) {
	const rows = 2000
	cfg := engine.Defaults()
	cfg.EnableQueryCache = false
	e, err := engine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := e.Connect("bench-sorted")
	if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, score INT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := s.Execute(fmt.Sprintf("INSERT INTO t (id, score) VALUES (%d, %d)", i, (i*7919)%rows)); err != nil {
			b.Fatal(err)
		}
	}
	for _, tc := range []struct{ name, query string }{
		{"topn", "SELECT id FROM t ORDER BY score LIMIT 10"},
		{"full-sort", "SELECT id FROM t ORDER BY score"},
		{"index-order", "SELECT score FROM t ORDER BY id DESC LIMIT 10"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(tc.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanCache measures the statement pipeline with the plan
// cache on vs off over a repeating statement mix: a hit skips the
// lexer, parser, digest computation, and name resolution, while still
// producing every forensic artifact (general log, binlog, perfschema,
// heap arena) — the leakage-equivalence tests in internal/engine pin
// that property.
func BenchmarkPlanCache(b *testing.B) {
	const distinct = 64
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"on", false},
		{"off", true},
	} {
		b.Run("cache="+mode.name, func(b *testing.B) {
			cfg := engine.Defaults()
			cfg.DisablePlanCache = mode.disable
			e, err := engine.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := e.Connect("bench-plan")
			if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
				b.Fatal(err)
			}
			queries := make([]string, distinct)
			for i := range queries {
				if _, err := s.Execute(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'row-%04d')", i, i)); err != nil {
					b.Fatal(err)
				}
				queries[i] = fmt.Sprintf("SELECT v FROM t WHERE id = %d", i)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Execute(queries[i%distinct]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			hits, misses, _ := e.PlanCacheStats()
			if total := hits + misses; total > 0 {
				b.ReportMetric(100*float64(hits)/float64(total), "%hit")
			}
		})
	}
}

// BenchmarkBatchedThroughput measures client-observed statement
// throughput through the TCP server at 16 concurrent connections:
// per-statement Execute (one round trip and one server flush per
// statement) vs ExecuteBatch pipelining 32 statements per write. The
// gap is pure protocol overhead; the executed statements, replies, and
// forensic artifacts are identical.
func BenchmarkBatchedThroughput(b *testing.B) {
	const tables, rows, conns = 4, 100, 16
	for _, mode := range []struct {
		name  string
		batch int
	}{
		{"per-stmt", 1},
		{"batched", 32},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e, err := engine.New(engine.Defaults())
			if err != nil {
				b.Fatal(err)
			}
			if err := workload.SetupTables(e, tables, rows); err != nil {
				b.Fatal(err)
			}
			srv := server.New(e)
			ready := make(chan net.Addr, 1)
			done := make(chan error, 1)
			go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
			addr := (<-ready).String()
			b.ResetTimer()
			res, err := workload.RunDriverRemote(workload.RemoteDriverConfig{
				DriverConfig: workload.DriverConfig{
					Goroutines:   conns,
					Tables:       tables,
					RowsPerTable: rows,
					Statements:   b.N,
					WriteEvery:   10,
					Seed:         42,
				},
				Addr:      addr,
				BatchSize: mode.batch,
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Statements)/b.Elapsed().Seconds(), "stmts/s")
			if cerr := srv.Close(); cerr != nil {
				b.Fatal(cerr)
			}
			if serr := <-done; serr != nil {
				b.Fatal(serr)
			}
		})
	}
}

// BenchmarkParallelScan measures partitioned clustered scans against
// the serial executor on a 100k-row table with simulated per-batch IO
// waits (the regime where partitioning pays: on a real device the
// waits are the head-of-line fetch latencies the workers overlap).
// workers=1 is the serial baseline; the acceptance bar is >=2x rows/s
// at workers=4 on the full-range scan.
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
		cfg := engine.Defaults()
		cfg.EnableQueryCache = false // every iteration must really scan
		cfg.SimulatedScanIOWait = 2 * time.Millisecond
		cfg.ParallelScanMinRows = 1
		cfg.MaxScanWorkers = workers // below 2 every scan stays serial
		e, err := engine.New(cfg)
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

// BenchmarkCostedPlanning times uncached statements end to end under
// the cost-based access-path selector. The plan cache is disabled so
// every Execute pays the full lower-and-cost path; the table carries
// several secondary indexes (a low-selectivity one alphabetically
// first) so the pricing overhead and the better path's execution
// savings both show up.
func BenchmarkCostedPlanning(b *testing.B) {
	b.Run("cost-based", func(b *testing.B) {
		cfg := engine.Defaults()
		cfg.DisablePlanCache = true // time planning, not cache hits
		cfg.EnableQueryCache = false
		e, err := engine.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := e.Connect("bench")
		defer s.Close()
		setup := []string{
			"CREATE TABLE costed (id INT PRIMARY KEY, grp INT, ref INT, flag INT, score INT)",
			"CREATE INDEX idx_a_grp ON costed (grp)",
			"CREATE INDEX idx_b_flag ON costed (flag)",
			"CREATE INDEX idx_c_ref ON costed (ref)",
			"CREATE INDEX idx_d_score ON costed (score)",
		}
		for _, stmt := range setup {
			if _, err := s.Execute(stmt); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 512; i++ {
			stmt := fmt.Sprintf(
				"INSERT INTO costed (id, grp, ref, flag, score) VALUES (%d, %d, %d, %d, %d)",
				i, i%2, i, i%4, (i*13)%100)
			if _, err := s.Execute(stmt); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Execute("ANALYZE TABLE costed"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := s.Execute(fmt.Sprintf("SELECT id FROM costed WHERE grp = %d AND ref = %d", i%2, i%512))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 1 {
				b.Fatalf("rows = %d, want 1", len(res.Rows))
			}
		}
	})
}

// BenchmarkMVCCReadersVsWriter measures point-SELECT throughput while
// transactional writers stream BEGIN/UPDATE…/COMMIT batches against
// the same table. Under MVCC the readers take no table stripe — they
// resolve against their read view and sail past the writers'
// exclusive locks; with DisableMVCC they queue behind every UPDATE's
// stripe hold (which includes the simulated device wait), and each
// pending writer extends the queue readers sit in. The metric is the
// reader-side clock (reads until the last reader drains, writers
// still streaming); the acceptance bar is >=2x reads/s for the MVCC
// arm.
func BenchmarkMVCCReadersVsWriter(b *testing.B) {
	const (
		readers    = 8
		writers    = 3
		statements = 1100
		tableRows  = 4096 // two scan-IO batches per full-scan UPDATE
	)
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"mvcc", false},
		{"locking", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := engine.Defaults()
			cfg.DisableMVCC = mode.disable
			cfg.EnableQueryCache = false // every read must really execute
			cfg.SimulatedIOWait = 500 * time.Microsecond
			cfg.SimulatedScanIOWait = 500 * time.Microsecond
			e, err := engine.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := workload.SetupTables(e, 1, tableRows); err != nil {
				b.Fatal(err)
			}
			dcfg := workload.DriverConfig{
				Goroutines:       readers + writers,
				Tables:           1,
				RowsPerTable:     tableRows,
				Statements:       statements,
				Seed:             42,
				WriterSessions:   writers,
				TxnSize:          4,
				TxnRollbackEvery: 2,
				WriterScanEvery:  2,
			}
			b.ResetTimer()
			reads := 0
			var readerSecs float64
			for i := 0; i < b.N; i++ {
				res, err := workload.RunDriver(e, dcfg)
				if err != nil {
					b.Fatal(err)
				}
				reads += res.Reads
				readerSecs += res.ReaderDuration.Seconds()
			}
			b.ReportMetric(float64(reads)/readerSecs, "reads/s")
		})
	}
}

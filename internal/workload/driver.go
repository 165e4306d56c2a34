// driver.go: the concurrent workload driver. Where the rest of this
// package generates data for the leakage experiments, the driver
// exercises the engine's concurrent execution path: N goroutines, each
// with its own session, issuing a seeded, read-heavy statement mix over
// several tables. E12 runs it at rising session counts; E16 runs its
// readers-vs-writers mode as background churn.

package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"snapdb/internal/engine"
)

// DriverConfig configures one driver run.
type DriverConfig struct {
	Goroutines   int   // concurrent sessions (default 1)
	Tables       int   // tables to spread statements over (default 4)
	RowsPerTable int   // rows preloaded per table by SetupTables
	Statements   int   // total statements across all goroutines
	WriteEvery   int   // every Nth statement is an UPDATE; 0 disables writes
	Seed         int64 // per-goroutine streams derive from this

	// Mixed explicit-transaction mode: the first WriterSessions
	// goroutines become transactional writers running
	// BEGIN / TxnSize UPDATEs / COMMIT batches (every
	// TxnRollbackEvery-th batch ends in ROLLBACK instead), while the
	// remaining goroutines run pure point SELECTs regardless of
	// WriteEvery. This is the readers-vs-writer churn E16 runs: under
	// MVCC the readers sail past the writers' open transactions; under
	// stripe locking they queue behind them.
	WriterSessions   int // goroutines running explicit-txn write batches
	TxnSize          int // DML statements per transaction (default 4)
	TxnRollbackEvery int // every Nth batch rolls back; 0 = always commit
}

func (c DriverConfig) normalized() DriverConfig {
	if c.Goroutines <= 0 {
		c.Goroutines = 1
	}
	if c.Tables <= 0 {
		c.Tables = 4
	}
	if c.RowsPerTable <= 0 {
		c.RowsPerTable = 100
	}
	if c.WriterSessions > c.Goroutines {
		c.WriterSessions = c.Goroutines
	}
	if c.TxnSize <= 0 {
		c.TxnSize = 4
	}
	return c
}

// DriverResult is one run's outcome. RowsExamined and RowsReturned
// aggregate the engine's per-statement scan counters across the whole
// run — E12 reports them so the scaling table also shows the work each
// access path did, not just the statement rate.
type DriverResult struct {
	Statements   int
	Reads        int
	Writes       int
	RowsExamined int64
	RowsReturned int64
	Duration     time.Duration
	PerSecond    float64
}

// DriverTableName names the driver's i-th table.
func DriverTableName(i int) string { return fmt.Sprintf("bench%d", i) }

// SetupTables creates and preloads the driver's tables
// (bench0..bench{tables-1}), each with rows rows keyed 0..rows-1.
func SetupTables(e *engine.Engine, tables, rows int) error {
	s := e.Connect("driver-setup")
	defer s.Close()
	for t := 0; t < tables; t++ {
		name := DriverTableName(t)
		if _, err := s.Execute(fmt.Sprintf("CREATE TABLE %s (id INT PRIMARY KEY, v TEXT)", name)); err != nil {
			return err
		}
		for r := 0; r < rows; r++ {
			q := fmt.Sprintf("INSERT INTO %s (id, v) VALUES (%d, 'row-%05d')", name, r, r)
			if _, err := s.Execute(q); err != nil {
				return err
			}
		}
	}
	return nil
}

// stmtGen produces one goroutine's deterministic statement stream. It
// runs on the measurement path of every throughput benchmark, so it
// pre-resolves table names and builds statements with strconv appends
// into a reused buffer instead of per-statement fmt formatting. The
// generated text is byte-identical to the former Sprintf forms.
type stmtGen struct {
	rng    *rand.Rand
	tables []string
	cfg    DriverConfig
	g      int
	buf    []byte
}

func newStmtGen(cfg DriverConfig, g int) *stmtGen {
	tables := make([]string, cfg.Tables)
	for i := range tables {
		tables[i] = DriverTableName(i)
	}
	return &stmtGen{
		rng:    rand.New(rand.NewSource(cfg.Seed + int64(g)*7919)),
		tables: tables,
		cfg:    cfg,
		g:      g,
	}
}

// appendPad5 appends n zero-padded to at least 5 digits (the %05d of
// the original format).
func appendPad5(b []byte, n int64) []byte {
	var tmp [20]byte
	s := strconv.AppendInt(tmp[:0], n, 10)
	for pad := 5 - len(s); pad > 0; pad-- {
		b = append(b, '0')
	}
	return append(b, s...)
}

// next returns the i-th statement and whether it is a write. The
// string is freshly allocated — the engine's logs retain statement
// text past the call — but the build scratch is reused.
func (sg *stmtGen) next(i int) (string, bool) {
	table := sg.tables[sg.rng.Intn(sg.cfg.Tables)]
	id := int64(sg.rng.Intn(sg.cfg.RowsPerTable))
	b := sg.buf[:0]
	write := sg.cfg.WriteEvery > 0 && (i+1)%sg.cfg.WriteEvery == 0
	if write {
		b = append(b, "UPDATE "...)
		b = append(b, table...)
		b = append(b, " SET v = 'upd-"...)
		b = strconv.AppendInt(b, int64(sg.g), 10)
		b = append(b, '-')
		b = appendPad5(b, int64(i))
		b = append(b, "' WHERE id = "...)
		b = strconv.AppendInt(b, id, 10)
	} else {
		b = append(b, "SELECT v FROM "...)
		b = append(b, table...)
		b = append(b, " WHERE id = "...)
		b = strconv.AppendInt(b, id, 10)
	}
	sg.buf = b
	return string(b), write
}

// RunDriver drives e with cfg.Goroutines concurrent sessions until
// cfg.Statements statements have executed, and reports throughput.
// SetupTables must have been run first with matching Tables and
// RowsPerTable. The statement stream is deterministic per goroutine.
func RunDriver(e *engine.Engine, cfg DriverConfig) (*DriverResult, error) {
	cfg = cfg.normalized()
	if cfg.Statements <= 0 {
		return nil, fmt.Errorf("workload: driver needs a positive statement count")
	}
	perG := cfg.Statements / cfg.Goroutines
	if perG == 0 {
		perG = 1
	}

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Goroutines)
	reads := make([]int, cfg.Goroutines)
	writes := make([]int, cfg.Goroutines)
	examined := make([]int64, cfg.Goroutines)
	returned := make([]int64, cfg.Goroutines)
	start := time.Now()
	for g := 0; g < cfg.Goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := e.Connect(fmt.Sprintf("driver%d", g))
			defer s.Close()
			if g < cfg.WriterSessions {
				if err := runTxnWriter(s, cfg, g, perG, &writes[g], &examined[g]); err != nil {
					errs <- fmt.Errorf("workload: driver goroutine %d: %w", g, err)
				}
				return
			}
			gcfg := cfg
			if cfg.WriterSessions > 0 {
				// In mixed mode the non-writer goroutines read only;
				// all write pressure comes from the txn writers.
				gcfg.WriteEvery = 0
			}
			gen := newStmtGen(gcfg, g)
			for i := 0; i < perG; i++ {
				q, write := gen.next(i)
				if write {
					writes[g]++
				} else {
					reads[g]++
				}
				res, err := s.Execute(q)
				if err != nil {
					errs <- fmt.Errorf("workload: driver goroutine %d: %s: %w", g, q, err)
					return
				}
				examined[g] += int64(res.RowsExamined)
				returned[g] += int64(len(res.Rows))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}

	res := &DriverResult{Duration: time.Since(start)}
	for g := 0; g < cfg.Goroutines; g++ {
		res.Reads += reads[g]
		res.Writes += writes[g]
		res.RowsExamined += examined[g]
		res.RowsReturned += returned[g]
	}
	res.Statements = res.Reads + res.Writes
	if secs := res.Duration.Seconds(); secs > 0 {
		res.PerSecond = float64(res.Statements) / secs
	}
	return res, nil
}

// runTxnWriter is one transactional writer session: quota DML
// statements grouped into BEGIN / TxnSize UPDATEs / COMMIT batches
// (every TxnRollbackEvery-th batch rolls back). The statement stream
// forces WriteEvery=1 so every generated statement is an UPDATE; the
// control statements (BEGIN/COMMIT/ROLLBACK) don't count toward the
// quota.
func runTxnWriter(s *engine.Session, cfg DriverConfig, g, quota int, writes *int, examined *int64) error {
	wcfg := cfg
	wcfg.WriteEvery = 1
	gen := newStmtGen(wcfg, g)
	batch := 0
	for i := 0; i < quota; {
		if _, err := s.Execute("BEGIN"); err != nil {
			return fmt.Errorf("BEGIN: %w", err)
		}
		for j := 0; j < cfg.TxnSize && i < quota; j++ {
			q, _ := gen.next(i)
			i++
			*writes++
			res, err := s.Execute(q)
			if err != nil {
				return fmt.Errorf("%s: %w", q, err)
			}
			*examined += int64(res.RowsExamined)
		}
		batch++
		end := "COMMIT"
		if cfg.TxnRollbackEvery > 0 && batch%cfg.TxnRollbackEvery == 0 {
			end = "ROLLBACK"
		}
		if _, err := s.Execute(end); err != nil {
			return fmt.Errorf("%s: %w", end, err)
		}
	}
	return nil
}

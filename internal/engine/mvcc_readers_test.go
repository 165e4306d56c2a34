package engine_test

import (
	"testing"
	"time"

	"snapdb/internal/engine"
	"snapdb/internal/workload"
)

// BenchmarkMVCCReadersVsWriter measures point-SELECT throughput while
// transactional writers stream BEGIN/UPDATE…/COMMIT batches against
// the same table. Under MVCC the readers take no table stripe — they
// resolve against their read view and sail past the writers'
// exclusive locks; with DisableMVCC they queue behind every UPDATE's
// stripe hold (which includes the simulated device wait), and each
// pending writer extends the queue readers sit in. The metric is the
// reader-side clock (reads until the last reader drains, writers
// still streaming); the acceptance bar is >=2x reads/s for the MVCC
// arm. (An external test package because internal/workload, whose
// driver supplies the sessions, imports the engine.)
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

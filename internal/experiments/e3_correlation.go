package experiments

import (
	"fmt"

	"snapdb/internal/engine"
	"snapdb/internal/forensics"
	"snapdb/internal/snapshot"
)

// E3Result reproduces §3's timing attack: the binlog holds (timestamp,
// LSN) pairs; regressing them dates WAL records that precede the
// binlog's retention horizon.
type E3Result struct {
	Writes            int
	BinlogEvents      int     // events left after the purge (the horizon)
	DatedBeyondBinlog int     // WAL writes older than the binlog horizon that were dated
	MeanAbsErrSec     float64 // dating error vs ground truth
	MaxAbsErrSec      float64
}

// Name implements Result.
func (*E3Result) Name() string { return "E3" }

// Render implements Result.
func (r *E3Result) Render() string {
	t := &table{header: []string{"metric", "value"}}
	t.add("writes executed", fmt.Sprintf("%d", r.Writes))
	t.add("binlog events after purge", fmt.Sprintf("%d", r.BinlogEvents))
	t.add("WAL writes dated beyond binlog horizon", fmt.Sprintf("%d", r.DatedBeyondBinlog))
	t.add("mean |timestamp error| (s)", fmt.Sprintf("%.1f", r.MeanAbsErrSec))
	t.add("max |timestamp error| (s)", fmt.Sprintf("%.1f", r.MaxAbsErrSec))
	return "E3 (§3): dating WAL records via binlog LSN↔timestamp correlation\n" + t.String()
}

// E3BinlogCorrelation runs a steady write workload under a synthetic
// clock, purges the older half of the binlog (modelling its horizon),
// and checks that the regression still dates the purged-era WAL
// records accurately.
func E3BinlogCorrelation(quick bool) (*E3Result, error) {
	writes := 2000
	if quick {
		writes = 400
	}
	e, err := engine.New(engine.Defaults())
	if err != nil {
		return nil, err
	}
	now := int64(1_700_000_000)
	e.Clock = func() int64 { return now }
	s := e.Connect("app")
	if _, err := s.Execute("CREATE TABLE metrics (id INT PRIMARY KEY, v TEXT)"); err != nil {
		return nil, err
	}
	trueTime := make(map[uint64]int64) // commit LSN -> true timestamp
	for i := 0; i < writes; i++ {
		now += 1 // one write per second
		q := fmt.Sprintf("INSERT INTO metrics (id, v) VALUES (%d, 'sample-%06d')", i, i)
		if _, err := s.Execute(q); err != nil {
			return nil, err
		}
		// The statement's row change is the last data record in the log
		// (an autocommit commit marker follows it, and marker records are
		// invisible to write reconstruction).
		recs := e.WAL().Redo.Records()
		for j := len(recs) - 1; j >= 0; j-- {
			if !recs[j].Op.IsMarker() {
				trueTime[recs[j].LSN] = now
				break
			}
		}
	}
	// The binlog horizon: purge everything before the halfway point.
	horizon := int64(1_700_000_000) + int64(writes)/2
	e.Binlog().Purge(horizon)

	snap := snapshot.Capture(e, snapshot.DiskTheft)
	events, err := forensics.CorrelatableEvents(snap.Disk.Binlog)
	if err != nil {
		return nil, err
	}
	corr, err := forensics.CorrelateBinlog(events)
	if err != nil {
		return nil, err
	}
	recon, err := forensics.ReconstructWrites(snap.Disk.RedoLog, snap.Disk.UndoLog, snap.Disk.Catalog)
	if err != nil {
		return nil, err
	}
	forensics.DateWrites(recon, corr)

	res := &E3Result{Writes: writes, BinlogEvents: len(events)}
	var sumErr float64
	for _, w := range recon {
		truth, ok := trueTime[w.LSN]
		if !ok || truth >= horizon {
			continue // only score the records the binlog no longer covers
		}
		res.DatedBeyondBinlog++
		errSec := float64(w.Timestamp - truth)
		if errSec < 0 {
			errSec = -errSec
		}
		sumErr += errSec
		if errSec > res.MaxAbsErrSec {
			res.MaxAbsErrSec = errSec
		}
	}
	if res.DatedBeyondBinlog > 0 {
		res.MeanAbsErrSec = sumErr / float64(res.DatedBeyondBinlog)
	}
	if res.DatedBeyondBinlog == 0 {
		return nil, fmt.Errorf("E3: no WAL records beyond the binlog horizon were dated")
	}
	return res, nil
}

package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"

	"snapdb/internal/engine"
	"snapdb/internal/snapshot"
	"snapdb/internal/vfs"
	"snapdb/internal/workload"
)

// E16Result extends §4's "deleted data persists" channel to the MVCC
// version store: every UPDATE files the overwritten row image and
// every DELETE files the full deleted row into version chains so
// snapshot readers can see the past — and so can an analyst. The
// chains survive checkpointing (which persists them alongside the
// tablespace) and therefore crash recovery, even though the checkpoint
// truncates the WAL files an E13-style analyst would have parsed: the
// version store is a second, longer-lived copy of the history the
// application believes is gone. The purge ablation quantifies the
// knob: retention forever (DisablePurge), the default inline cadence,
// and an aggressive full sweep before the crash.
type E16Result struct {
	Secrets int // secret rows planted in the vault table
	Deleted int // vault rows the application deleted
	Churn   int // mixed-mode driver statements run for background churn
	Arms    []E16Arm
}

// E16Arm is one purge-policy arm of the ablation.
type E16Arm struct {
	Arm              string
	PreCrashVersions int   // retained row versions before the crash
	SurvivedVersions int   // row versions recoverable after crash+recovery
	SecretsSurvived  int   // surviving versions carrying a secret literal
	DeletedSurvived  int   // deleted vault rows fully recoverable post-recovery
	PurgeRuns        int64 // purge sweeps the engine ran before the crash
	PurgedVersions   int64 // versions those sweeps reclaimed
	WALHadSecret     bool  // secret present in redo/undo bytes before checkpoint
	WALHasSecret     bool  // secret present in redo/undo bytes after checkpoint (must be false)
}

// Name implements Result.
func (*E16Result) Name() string { return "E16" }

// Render implements Result.
func (r *E16Result) Render() string {
	t := &table{header: []string{"purge policy", "versions pre-crash", "survive recovery", "secrets", "deleted rows", "purge runs/reclaimed", "WAL secret pre/post ckpt"}}
	for _, a := range r.Arms {
		t.add(a.Arm,
			fmt.Sprintf("%d", a.PreCrashVersions),
			fmt.Sprintf("%d", a.SurvivedVersions),
			fmt.Sprintf("%d", a.SecretsSurvived),
			fmt.Sprintf("%d", a.DeletedSurvived),
			fmt.Sprintf("%d / %d", a.PurgeRuns, a.PurgedVersions),
			fmt.Sprintf("%v / %v", a.WALHadSecret, a.WALHasSecret))
	}
	return fmt.Sprintf("E16 (§4 extension): MVCC version chains outlive the WAL (%d secrets, %d deletes, %d churn statements)\n",
		r.Secrets, r.Deleted, r.Churn) + t.String()
}

// e16Secret marks row values that only ever exist in rows the
// application overwrites or deletes before the crash.
const e16Secret = "cc-4111-0000-7393"

// e16Arm runs one purge-policy arm end to end: plant secrets, churn
// the bench tables through the mixed-transaction driver, redact and
// delete the secrets, apply the arm's purge policy, checkpoint, crash,
// recover, and read the version residue back out of the recovered
// engine.
func e16Arm(name string, churn, secrets int, cfg engine.Config, aggressive bool) (E16Arm, error) {
	arm := E16Arm{Arm: name}
	mem := vfs.NewMemFS()
	cfg.FS = mem
	cfg.EnableQueryCache = false
	e, err := engine.New(cfg)
	if err != nil {
		return arm, err
	}
	defer e.Close()
	// Atomic: the workload driver calls the clock from its goroutines.
	var now atomic.Int64
	now.Store(1_700_000_000)
	e.Clock = func() int64 { return now.Add(1) }

	s := e.Connect("e16")
	defer s.Close()
	if _, err := s.Execute("CREATE TABLE vault (id INT PRIMARY KEY, card TEXT)"); err != nil {
		return arm, err
	}
	for i := 0; i < secrets; i++ {
		if _, err := s.Execute(fmt.Sprintf(
			"INSERT INTO vault (id, card) VALUES (%d, '%s-%04d')", i, e16Secret, i)); err != nil {
			return arm, err
		}
	}

	// Background churn: concurrent readers with explicit-transaction
	// writers (commits and rollbacks), the shape the MVCC benchmark
	// drives — version chains grow on the bench tables while the
	// inline purge cadence (or its absence) works against them.
	if err := workload.SetupTables(e, 2, 64); err != nil {
		return arm, err
	}
	if _, err := workload.RunDriver(e, workload.DriverConfig{
		Goroutines:       4,
		Tables:           2,
		RowsPerTable:     64,
		Statements:       churn,
		Seed:             16,
		WriterSessions:   2,
		TxnSize:          4,
		TxnRollbackEvery: 3,
	}); err != nil {
		return arm, err
	}
	churnEnd := e.Statements()

	// The application "destroys" the secrets: half are overwritten
	// (the pre-image goes into the chain), half deleted outright (the
	// full row goes into the chain as a tombstone version).
	for i := 0; i < secrets/2; i++ {
		if _, err := s.Execute(fmt.Sprintf(
			"UPDATE vault SET card = 'redacted-%04d' WHERE id = %d", i, i)); err != nil {
			return arm, err
		}
	}
	for i := secrets / 2; i < secrets; i++ {
		if _, err := s.Execute(fmt.Sprintf("DELETE FROM vault WHERE id = %d", i)); err != nil {
			return arm, err
		}
	}

	if aggressive {
		// Full sweep with no view pinned: everything reclaimable goes.
		e.PurgeVersions(0)
	}
	// An inline sweep runs after every PurgeEvery-th statement and
	// reclaims what no open view can reach — during the churn, whatever
	// the goroutine interleaving had made reclaimable by then. The
	// counts repeat only if the last sweep ran after the churn, with
	// nothing open; the churn length is chosen so that it does.
	if every := uint64(cfg.PurgeEvery); !cfg.DisablePurge && !aggressive && e.Statements()/every == churnEnd/every {
		return arm, fmt.Errorf("no inline sweep between statement %d (churn ends) and %d (crash): version counts would depend on scheduling; adjust churn", churnEnd, e.Statements())
	}
	// Counter read first: the SELECT is itself a statement and may
	// cross an inline-purge boundary; the residue count must be taken
	// after the last statement so it matches what the checkpoint
	// persists.
	arm.PurgeRuns, arm.PurgedVersions, err = e16PurgeCounters(s)
	if err != nil {
		return arm, err
	}
	arm.PreCrashVersions = len(e.VersionResidue())

	// The E13 analyst's surface: the secret pre-images sit in the WAL
	// (the deleted rows' undo records) until the checkpoint truncates
	// both logs — after which the version chains are the only copy.
	if arm.WALHadSecret, err = e16WALSecret(mem); err != nil {
		return arm, err
	}
	if err := e.Checkpoint(); err != nil {
		return arm, err
	}
	if arm.WALHasSecret, err = e16WALSecret(mem); err != nil {
		return arm, err
	}

	mem.Crash()
	r, _, err := engine.Recover(mem, cfg)
	if err != nil {
		return arm, fmt.Errorf("recovery: %w", err)
	}
	defer r.Close()
	for _, v := range r.VersionResidue() {
		arm.SurvivedVersions++
		hit := false
		for _, val := range v.Row {
			if strings.Contains(val.SQL(), e16Secret) {
				hit = true
			}
		}
		if hit {
			arm.SecretsSurvived++
			if v.Deleted {
				arm.DeletedSurvived++
			}
		}
	}
	return arm, nil
}

// e16WALSecret reports whether the secret literal is readable anywhere
// in the redo or undo log as a disk thief would copy them right now.
func e16WALSecret(fs vfs.FS) (bool, error) {
	snap, err := snapshot.ReadDirFS(fs)
	if err != nil {
		return false, err
	}
	secret := []byte(e16Secret)
	return bytes.Contains(snap.Disk.RedoLog, secret) || bytes.Contains(snap.Disk.UndoLog, secret), nil
}

// e16PurgeCounters reads the purge statistics off the mvcc_status
// system view, the same surface an operator would watch.
func e16PurgeCounters(s *engine.Session) (runs, purged int64, err error) {
	res, err := s.Execute("SELECT * FROM information_schema.mvcc_status")
	if err != nil || len(res.Rows) == 0 {
		return 0, 0, err
	}
	for i, col := range res.Columns {
		switch col {
		case "purge_runs":
			runs = res.Rows[0][i].Int
		case "purged_versions":
			purged = res.Rows[0][i].Int
		}
	}
	return runs, purged, nil
}

// E16VersionResidue runs the purge ablation: identical workloads under
// three purge policies, each ending in a checkpoint (which truncates
// the WAL — the E13 residue channel is closed at that point) and a
// crash. What recovery resurrects from the persisted version chains is
// the experiment's finding: with purge disabled, the overwritten and
// deleted secrets come back wholesale; the default inline cadence
// leaves whatever the last sweep had not reached; an aggressive
// pre-crash sweep clears the channel entirely.
func E16VersionResidue(quick bool) (*E16Result, error) {
	churn, secrets := 960, 16
	if quick {
		churn, secrets = 244, 8
	}
	res := &E16Result{Secrets: secrets, Deleted: secrets - secrets/2, Churn: churn}

	type policy struct {
		name       string
		cfg        func() engine.Config
		aggressive bool
	}
	policies := []policy{
		{"retain (purge off)", func() engine.Config {
			cfg := engine.Defaults()
			cfg.DisablePurge = true
			return cfg
		}, false},
		{"inline (default cadence)", func() engine.Config {
			cfg := engine.Defaults()
			cfg.PurgeEvery = 90
			return cfg
		}, false},
		{"aggressive (full sweep)", func() engine.Config {
			cfg := engine.Defaults()
			cfg.PurgeEvery = 90
			return cfg
		}, true},
	}
	for _, p := range policies {
		arm, err := e16Arm(p.name, churn, secrets, p.cfg(), p.aggressive)
		if err != nil {
			return nil, fmt.Errorf("E16: %s: %w", p.name, err)
		}
		res.Arms = append(res.Arms, arm)
	}

	retain, inline, aggr := res.Arms[0], res.Arms[1], res.Arms[2]
	if retain.SecretsSurvived == 0 {
		return nil, fmt.Errorf("E16: no secret survived recovery with purge disabled — residue channel not reproduced")
	}
	if retain.DeletedSurvived == 0 {
		return nil, fmt.Errorf("E16: no deleted row recoverable with purge disabled")
	}
	if retain.WALHasSecret {
		return nil, fmt.Errorf("E16: checkpoint left the secret in the WAL — the contrast with E13 is void")
	}
	if !retain.WALHadSecret {
		return nil, fmt.Errorf("E16: secret never reached the WAL — workload broken")
	}
	if aggr.SecretsSurvived != 0 {
		return nil, fmt.Errorf("E16: %d secrets survived the aggressive sweep", aggr.SecretsSurvived)
	}
	if inline.PurgeRuns == 0 {
		return nil, fmt.Errorf("E16: inline purge never ran")
	}
	if retain.SurvivedVersions < inline.SurvivedVersions || inline.SurvivedVersions < aggr.SurvivedVersions {
		return nil, fmt.Errorf("E16: residue not monotone in purge aggressiveness: %d / %d / %d",
			retain.SurvivedVersions, inline.SurvivedVersions, aggr.SurvivedVersions)
	}
	return res, nil
}

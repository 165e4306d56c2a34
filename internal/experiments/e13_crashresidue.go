package experiments

import (
	"fmt"
	"strings"

	"snapdb/internal/engine"
	"snapdb/internal/failpoint"
	"snapdb/internal/forensics"
	"snapdb/internal/snapshot"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// E13Result is the systems extension of §3 for crashed servers: a data
// directory captured after a crash — before or even after recovery —
// still carries the byte-level transcript of transactions that never
// committed. The torn redo tail that recovery truncates for
// consistency is still sitting in the stolen file for an attacker who
// parses the valid prefix.
type E13Result struct {
	Crashes           int // kill-points exercised
	RecoveredClean    int // crashes after which recovery reported no divergence
	ResidueCrashes    int // crashes whose directory leaked uncommitted writes
	UncommittedWrites int // uncommitted statements reconstructed across all crashes
	SecretHits        int // crashes where the never-committed secret literal was readable
	TruncationsSeen   int // crashes where recovery reported a torn/corrupt tail
	PostRecoveryLeaks int // crashes where the secret was STILL on disk after recovery ran
}

// Name implements Result.
func (*E13Result) Name() string { return "E13" }

// Render implements Result.
func (r *E13Result) Render() string {
	t := &table{header: []string{"metric", "value"}}
	t.add("crash kill-points exercised", fmt.Sprintf("%d", r.Crashes))
	t.add("recoveries without divergence", fmt.Sprintf("%d", r.RecoveredClean))
	t.add("crashes leaking uncommitted writes", fmt.Sprintf("%d", r.ResidueCrashes))
	t.add("uncommitted statements reconstructed", fmt.Sprintf("%d", r.UncommittedWrites))
	t.add("crashes exposing the aborted secret", fmt.Sprintf("%d", r.SecretHits))
	t.add("torn/corrupt tails reported by recovery", fmt.Sprintf("%d", r.TruncationsSeen))
	t.add("secret still on disk after recovery", fmt.Sprintf("%d", r.PostRecoveryLeaks))
	return "E13 (§3 extension): forensic residue in crashed data directories\n" + t.String()
}

// e13Secret is the literal that only ever travels inside transactions
// that do not commit before the crash.
const e13Secret = "uncommitted-wire-0091"

func e13Workload() []string {
	stmts := []string{
		"CREATE TABLE transfers (id INT PRIMARY KEY, memo TEXT, cents INT)",
	}
	for i := 0; i < 8; i++ {
		stmts = append(stmts, fmt.Sprintf(
			"INSERT INTO transfers (id, memo, cents) VALUES (%d, 'routine-%02d', %d)", i, i, 100*i))
	}
	// The in-flight transaction a crash interrupts: its rows carry the
	// secret memo and it never reaches COMMIT.
	stmts = append(stmts,
		"BEGIN",
		fmt.Sprintf("INSERT INTO transfers (id, memo, cents) VALUES (90, '%s', 999999)", e13Secret),
		fmt.Sprintf("UPDATE transfers SET memo = '%s' WHERE id = 3", e13Secret),
		"COMMIT",
	)
	return stmts
}

// E13CrashResidue crashes a durable engine at every k-th disk operation
// inside the final transaction's window, then plays the forensic
// analyst over the crashed directory: parse the redo file's valid
// prefix, reconstruct statements, and look for the transaction that was
// never acknowledged. It then runs recovery and checks whether the
// rolled-back data is still recoverable from the post-recovery files
// (compensation records preserve the pre-image transcript).
func E13CrashResidue(quick bool) (*E13Result, error) {
	stmts := e13Workload()

	// Dry run enumerates the disk operations the workload performs.
	dryReg := failpoint.New(1)
	dryAcked, err := e13Run(vfs.NewFaultFS(vfs.NewMemFS(), dryReg), stmts)
	if err != nil {
		return nil, err
	}
	if dryAcked != len(stmts) {
		return nil, fmt.Errorf("E13: dry run stopped at statement %d", dryAcked)
	}
	total := int(dryReg.TotalHits())

	stride := 1
	if quick {
		stride = 4
	}
	res := &E13Result{}
	for k := 1; k <= total; k += stride {
		mem := vfs.NewMemFS()
		reg := failpoint.New(1)
		reg.Arm("*", failpoint.KindCrash, uint64(k))
		_, _ = e13Run(vfs.NewFaultFS(mem, reg), stmts)
		if !reg.Crashed() {
			continue // workload completed before the kill-point
		}
		mem.Crash()
		res.Crashes++

		// The attacker images the crashed directory first.
		leaked, secret := e13Analyze(mem)
		if leaked > 0 {
			res.ResidueCrashes++
			res.UncommittedWrites += leaked
		}
		if secret {
			res.SecretHits++
		}

		// Then the operator recovers — and the attacker images the
		// directory again.
		_, rep, rerr := engine.Recover(mem, engine.Defaults())
		if rerr != nil {
			return nil, fmt.Errorf("E13: kill-point %d: recovery failed: %w", k, rerr)
		}
		if rep.RedoTruncated != nil || rep.UndoTruncated != nil || rep.BinlogTruncated != nil {
			res.TruncationsSeen++
		}
		res.RecoveredClean++
		_, postSecret := e13Analyze(mem)
		if postSecret {
			res.PostRecoveryLeaks++
		}
	}
	if res.Crashes == 0 {
		return nil, fmt.Errorf("E13: no kill-points fired")
	}
	if res.SecretHits == 0 {
		return nil, fmt.Errorf("E13: no crash exposed the uncommitted secret — residue channel not reproduced")
	}
	return res, nil
}

// e13Run executes the workload on a fresh durable engine over fs.
func e13Run(fs vfs.FS, stmts []string) (acked int, err error) {
	cfg := engine.Defaults()
	cfg.FS = fs
	e, err := engine.New(cfg)
	if err != nil {
		return 0, nil // crash during boot: nothing acknowledged
	}
	now := int64(1_700_000_000)
	e.Clock = func() int64 { now++; return now }
	s := e.Connect("app")
	for _, q := range stmts {
		if _, err := s.Execute(q); err != nil {
			return acked, nil
		}
		acked++
	}
	return acked, nil
}

// e13Analyze plays the forensic analyst over a (possibly crashed,
// possibly recovered) data directory in fs: read it as the thief does,
// reconstruct write statements from the logs' valid prefixes, and count
// the ones belonging to transactions with no commit marker. Returns that
// count and whether the secret was among the reconstructed bytes.
func e13Analyze(fs vfs.FS) (uncommitted int, secretSeen bool) {
	snap, err := snapshot.ReadDirFS(fs)
	if err != nil {
		return 0, false
	}
	d := snap.Disk
	writes, err := forensics.ReconstructWrites(d.RedoLog, d.UndoLog, d.Catalog)
	if err != nil {
		return 0, false
	}
	committed := e13CommittedTxns(d.RedoLog)
	for _, w := range writes {
		if w.Txn != 0 && !committed[w.Txn] {
			uncommitted++
		}
		if strings.Contains(w.SQL, e13Secret) {
			secretSeen = true
		}
	}
	return uncommitted, secretSeen
}

// e13CommittedTxns returns the set of txn ids with a commit marker in
// the parseable prefix of a redo image.
func e13CommittedTxns(redoImg []byte) map[uint64]bool {
	recs, _ := wal.ParseLogReport(redoImg)
	out := make(map[uint64]bool)
	for _, r := range recs {
		if r.Op == wal.OpCommit {
			out[r.Txn] = true
		}
	}
	return out
}

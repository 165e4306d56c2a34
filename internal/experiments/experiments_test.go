package experiments

import (
	"errors"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

func TestE1Figure1(t *testing.T) {
	res, err := E1Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Logs != true || res.Rows[0].Diagnostics || res.Rows[0].Memory {
		t.Errorf("disk theft row = %+v", res.Rows[0])
	}
	if !res.Rows[3].Memory {
		t.Errorf("full compromise row = %+v", res.Rows[3])
	}
	out := res.Render()
	if !strings.Contains(out, "disk theft") || !strings.Contains(out, "Figure 1") {
		t.Errorf("render:\n%s", out)
	}
}

func TestE2LogRetention(t *testing.T) {
	res, err := E2LogRetention(true)
	if err != nil {
		t.Fatal(err)
	}
	// Paper's estimate: 16 days. Our concrete record format retains
	// roughly 12-13 days in the update-redo log; the claim "weeks of
	// write history on disk" must hold within a factor.
	if res.UpdateRedoDays < 8 || res.UpdateRedoDays > 32 {
		t.Errorf("update redo retention = %.1f days, outside [8, 32]", res.UpdateRedoDays)
	}
	// Undo of an insert stream holds only keys: retention must exceed
	// the redo stream's.
	if res.InsertUndoDays <= res.InsertRedoDays {
		t.Errorf("insert undo (%.1f d) should outlast redo (%.1f d)", res.InsertUndoDays, res.InsertRedoDays)
	}
	if !strings.Contains(res.Render(), "days retained") {
		t.Error("render missing header")
	}
}

func TestE2QuickMatchesFullScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("full log takes a few seconds")
	}
	quick, err := E2LogRetention(true)
	if err != nil {
		t.Fatal(err)
	}
	full, err := E2LogRetention(false)
	if err != nil {
		t.Fatal(err)
	}
	ratio := quick.UpdateRedoDays / full.UpdateRedoDays
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("quick scaling off: quick %.2f vs full %.2f days", quick.UpdateRedoDays, full.UpdateRedoDays)
	}
}

func TestE3BinlogCorrelation(t *testing.T) {
	res, err := E3BinlogCorrelation(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.DatedBeyondBinlog == 0 {
		t.Fatal("nothing dated beyond the binlog horizon")
	}
	// One write per second with byte-proportional LSNs: the regression
	// must date purged-era records to within a few seconds.
	if res.MeanAbsErrSec > 5 {
		t.Errorf("mean dating error %.1f s too large", res.MeanAbsErrSec)
	}
	if res.BinlogEvents >= res.Writes {
		t.Error("purge did not shrink the binlog")
	}
}

func TestE4HeapResidue(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 12.5k statements")
	}
	res, err := E4HeapResidue(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.FullTextHits < 3 {
		t.Errorf("full text found %d times, want >= 3 (paper: 3)", res.FullTextHits)
	}
	if res.RandomStringHits < res.FullTextHits {
		t.Errorf("random string hits %d < full text hits %d", res.RandomStringHits, res.FullTextHits)
	}
}

func TestE5LewiWu(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := E5LewiWu(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		diff := row.FractionLeaked - row.PaperFraction
		if diff < -0.05 || diff > 0.05 {
			t.Errorf("row %d (%d queries): %.3f vs paper %.2f", i, row.Queries, row.FractionLeaked, row.PaperFraction)
		}
	}
	if !(res.Rows[0].FractionLeaked < res.Rows[1].FractionLeaked && res.Rows[1].FractionLeaked < res.Rows[2].FractionLeaked) {
		t.Error("leakage not monotone in query count")
	}
}

func TestE5BlockSizeAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := E5BlockSizeAblation(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].BlockBits != 1 || res.Rows[0].FractionLeaked == 0 {
		t.Errorf("1-bit row = %+v", res.Rows[0])
	}
	for _, row := range res.Rows[1:] {
		if row.FractionLeaked != 0 {
			t.Errorf("%d-bit blocks determined bits: %+v", row.BlockBits, row)
		}
	}
}

func TestE6CountAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation is slow")
	}
	res, err := E6CountAttack(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1.0 {
		t.Errorf("accuracy = %.2f; count-unique matches must be exact", res.Accuracy)
	}
	if res.RecoveryRate < 0.3 {
		t.Errorf("recovery rate = %.2f", res.RecoveryRate)
	}
	if res.DocsExposed == 0 {
		t.Error("no document content exposed")
	}
	if res.UniqueCountFrac <= 0 || res.UniqueCountFrac > 1 {
		t.Errorf("unique fraction = %.2f", res.UniqueCountFrac)
	}
}

func TestE7Seabed(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := E7Seabed(true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HistogramExact {
		t.Error("digest histogram is not the exact per-plaintext query histogram")
	}
	if res.WeightedRecovery < 0.8 {
		t.Errorf("weighted recovery = %.2f", res.WeightedRecovery)
	}
	if res.TailRowRecovery < 0.5 {
		t.Errorf("tail row recovery = %.2f", res.TailRowRecovery)
	}
}

func TestE8Arx(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res, err := E8Arx(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueriesRecovered != res.QueriesIssued {
		t.Errorf("recovered %d of %d queries", res.QueriesRecovered, res.QueriesIssued)
	}
	if !res.TranscriptComplete {
		t.Error("transcript missed repair writes")
	}
	if res.OrderAttackError >= 0.1 {
		t.Errorf("order attack error = %.3f", res.OrderAttackError)
	}
	if res.OrderAttackError > res.FreqBaselineError {
		t.Errorf("order attack (%.3f) worse than frequency baseline (%.3f)",
			res.OrderAttackError, res.FreqBaselineError)
	}
}

func TestE9AtRest(t *testing.T) {
	res, err := E9AtRest()
	if err != nil {
		t.Fatal(err)
	}
	if res.DiskPlaintextHits != 0 {
		t.Error("plaintext on encrypted disk")
	}
	if !res.MemoryGetsKey || res.DecryptedWrites == 0 {
		t.Errorf("memory attack: key=%v writes=%d", res.MemoryGetsKey, res.DecryptedWrites)
	}
}

func TestE10Diagnostics(t *testing.T) {
	res, err := E10Diagnostics(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.CurrentVisible != res.Threads {
		t.Errorf("processlist shows %d of %d victims", res.CurrentVisible, res.Threads)
	}
	if res.HistoryRecovered != res.Threads*res.HistoryPerThread {
		t.Errorf("history recovered %d", res.HistoryRecovered)
	}
	if res.DigestTotalQueries == 0 {
		t.Error("digest histogram empty")
	}
}

func TestE11Mitigations(t *testing.T) {
	res, err := E11Mitigations(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ClosedBy == 0 {
		t.Error("hardening closed nothing")
	}
	if res.Inherent == 0 {
		t.Error("no inherent channels")
	}
	if !strings.Contains(res.Render(), "inherent") {
		t.Error("render missing inherent summary")
	}
}

// TestRegistry holds the one experiment list to itself: ids are unique
// and what -run would match (case-insensitively) is unambiguous.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, x := range Registry {
		if x.ID == "" || x.Run == nil {
			t.Errorf("incomplete registry entry %+v", x)
		}
		if key := strings.ToLower(x.ID); seen[key] {
			t.Errorf("duplicate experiment id %s", x.ID)
		} else {
			seen[key] = true
		}
	}
}

// TestAllQuick is the transcript gate: the -quick transcript, exactly
// as cmd/experiments prints it, must equal testdata/quick.golden byte
// for byte. A PR that moves a forensic surface fails here and refreshes
// the golden with `go test ./internal/experiments -run TestAllQuick
// -update`, which puts the moved numbers in its diff.
func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	results, err := All(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Registry) {
		t.Fatalf("All ran %d experiments, registry lists %d", len(results), len(Registry))
	}
	var transcript strings.Builder
	for i, r := range results {
		if r.Name() != Registry[i].ID {
			t.Errorf("registry entry %d is %s but its result is named %s", i, Registry[i].ID, r.Name())
		}
		if r.Render() == "" {
			t.Errorf("experiment %s renders empty", r.Name())
		}
		transcript.WriteString(r.Render())
		transcript.WriteByte('\n') // cmd/experiments prints with Println
	}
	const golden = "testdata/quick.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(transcript.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := transcript.String(); got != string(want) {
		t.Errorf("-quick transcript differs from %s (rerun with -update if the change is meant):\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines at which two transcripts differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			sb.WriteString("line " + strconv.Itoa(i+1) + "\n- " + wl + "\n+ " + gl + "\n")
		}
	}
	return sb.String()
}

// TestRenderRepeats runs the experiments whose raw figures do not
// repeat — where E15's traces first diverge, E17's similarity over
// crypto/rand IVs — twice in one process: everything left in Render
// must.
func TestRenderRepeats(t *testing.T) {
	for _, x := range []Experiment{
		entry("E15", E15ParallelTrace),
		entry("E17", E17SnapshotDiff),
	} {
		first, err := x.Run(true)
		if err != nil {
			t.Fatal(err)
		}
		second, err := x.Run(true)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := first.Render(), second.Render(); a != b {
			t.Errorf("%s renders differently on a second run:\n%s", x.ID, lineDiff(a, b))
		}
		if _, ok := first.(Timed); !ok {
			t.Errorf("%s has no Timing for what Render leaves out", x.ID)
		}
	}
}

// TestAblations asserts what EXPERIMENTS.md's ablation table states.
func TestAblations(t *testing.T) {
	res, err := Ablations(true)
	if err != nil {
		t.Fatal(err)
	}
	// History depth: a SQLi attacker recovers min(depth, issued).
	if res.HistoryIssued != 50 || len(res.History) != 3 {
		t.Fatalf("history sweep = %+v (issued %d)", res.History, res.HistoryIssued)
	}
	for i, want := range []AblationHistoryRow{{1, 1}, {10, 10}, {100, 50}} {
		if res.History[i] != want {
			t.Errorf("history row %d = %+v, want %+v", i, res.History[i], want)
		}
	}
	// Buffer pool: the dump covers min(pool, touched) pages and grows
	// with every pool size swept.
	if len(res.Pool) != 3 {
		t.Fatalf("pool sweep = %+v", res.Pool)
	}
	for i, row := range res.Pool {
		if want := []int{16, 64, 256}[i]; row.Pages != want {
			t.Errorf("pool row %d sweeps %d pages, want %d", i, row.Pages, want)
		}
		if want := min(row.Pages, row.Touched); row.Dumped != want {
			t.Errorf("pool=%d: dump names %d pages, want min(pool, touched %d) = %d", row.Pages, row.Dumped, row.Touched, want)
		}
		if i > 0 && row.Dumped <= res.Pool[i-1].Dumped {
			t.Errorf("pool=%d: dump names %d pages, not more than pool=%d's %d", row.Pages, row.Dumped, res.Pool[i-1].Pages, res.Pool[i-1].Dumped)
		}
	}
	// SPLASHE: 20 columns basic, 5 splayed + 1 DET tail enhanced.
	if len(res.SPLASHE) != 2 || res.SPLASHE[0].Columns != 20 || res.SPLASHE[1].Columns != 6 {
		t.Errorf("SPLASHE columns = %+v, want 20 (basic) and 6 (enhanced)", res.SPLASHE)
	}
	// WAL granularity: column-diff records keep >= 3x the writes per MB.
	if len(res.WAL) != 2 || res.WAL[0].Mode != "column-diff" || res.WAL[1].Mode != "whole-row" {
		t.Fatalf("WAL sweep = %+v", res.WAL)
	}
	if diff, whole := res.WAL[0].RetainedPerMB, res.WAL[1].RetainedPerMB; whole == 0 || diff < 3*whole {
		t.Errorf("column-diff retains %d writes/MB vs whole-row %d, want >= 3x", diff, whole)
	}
	if !strings.Contains(res.Render(), "Ablations") {
		t.Error("render missing title")
	}
}

func TestE13CrashResidue(t *testing.T) {
	res, err := E13CrashResidue(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes < 20 {
		t.Errorf("only %d crashes exercised", res.Crashes)
	}
	if res.RecoveredClean != res.Crashes {
		t.Errorf("recovered %d of %d crashes", res.RecoveredClean, res.Crashes)
	}
	if res.SecretHits == 0 {
		t.Error("no crash exposed the uncommitted secret")
	}
	if res.UncommittedWrites == 0 {
		t.Error("no uncommitted writes reconstructed")
	}
	if !strings.Contains(res.Render(), "E13") {
		t.Error("render missing experiment id")
	}
}

func TestE15ParallelTrace(t *testing.T) {
	res, err := E15ParallelTrace(true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ResultsIdentical || !res.BinlogIdentical || !res.GeneralIdentical {
		t.Errorf("semantic artifacts diverged: results=%v binlog=%v general=%v",
			res.ResultsIdentical, res.BinlogIdentical, res.GeneralIdentical)
	}
	if res.FirstDivergence < 0 {
		t.Error("fetch traces never diverged between serial and parallel runs")
	}
	if res.ParallelFetches <= res.SerialFetches {
		t.Errorf("parallel fetches %d not above serial %d (per-partition descents missing?)",
			res.ParallelFetches, res.SerialFetches)
	}
	if !res.PartitionFetchesSum {
		t.Error("a parallel leaf's stage fetches are not the sum of its partitions'")
	}
	if !strings.Contains(res.Render(), "E15") {
		t.Error("render missing experiment id")
	}
}

func TestE16VersionResidue(t *testing.T) {
	res, err := E16VersionResidue(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 5 {
		t.Fatalf("arms = %d", len(res.Arms))
	}
	retain, inline, aggr, replayed, grouped := res.Arms[0], res.Arms[1], res.Arms[2], res.Arms[3], res.Arms[4]
	if retain.SecretsSurvived != res.Secrets {
		t.Errorf("retain arm recovered %d of %d secrets", retain.SecretsSurvived, res.Secrets)
	}
	if retain.DeletedSurvived != res.Deleted {
		t.Errorf("retain arm recovered %d of %d deleted rows", retain.DeletedSurvived, res.Deleted)
	}
	if retain.WALHasSecret || !retain.WALHadSecret {
		t.Errorf("WAL contrast broken: pre=%v post=%v", retain.WALHadSecret, retain.WALHasSecret)
	}
	if aggr.SurvivedVersions != 0 {
		t.Errorf("aggressive sweep left %d versions", aggr.SurvivedVersions)
	}
	if aggr.PurgedVersions == 0 {
		t.Error("aggressive arm reclaimed nothing")
	}
	// With no final checkpoint the whole workload is replayed from the
	// redo log, which must still hold the secret.
	if !replayed.WALHasSecret {
		t.Error("crash-before-checkpoint arm: secret gone from the WAL")
	}
	if replayed.SurvivedVersions > replayed.PreCrashVersions {
		t.Errorf("recovery resurrected %d versions, the running engine held %d",
			replayed.SurvivedVersions, replayed.PreCrashVersions)
	}
	// A sweep due inside a pipelined group runs once the group is
	// resolved, so it reclaims at least what the same sweep reclaims
	// between single statements.
	if grouped.PreCrashVersions > inline.PreCrashVersions {
		t.Errorf("grouped arm kept %d versions, the inline arm %d", grouped.PreCrashVersions, inline.PreCrashVersions)
	}
	if !strings.Contains(res.Render(), "E16") {
		t.Error("render missing experiment id")
	}
}

func TestE17SnapshotDiff(t *testing.T) {
	res, err := E17SnapshotDiff(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 {
		t.Fatalf("arms = %d", len(res.Arms))
	}
	det, fresh := res.Arms[0], res.Arms[1]
	// Deterministic page encryption leaks history to a snapshot-only
	// adversary: the overwrite localizes to few pages, the revert is
	// detectable by page similarity, and the idle interval is
	// byte-identical.
	if !det.RevertDetected || det.RevertSimilarity <= 0.95 {
		t.Errorf("det arm: revert not detected (similarity %.4f)", det.RevertSimilarity)
	}
	if !det.IdleIdentical {
		t.Error("det arm: idle checkpoint not byte-identical")
	}
	if det.OverwriteChanged == 0 || det.OverwriteChanged*2 > det.CkptPages {
		t.Errorf("det arm: overwrite changed %d of %d pages", det.OverwriteChanged, det.CkptPages)
	}
	// Fresh IVs kill the page-diff channel outright.
	if fresh.RevertDetected || fresh.RevertSimilarity > 0.1 {
		t.Errorf("fresh arm: page-diff channel survived (similarity %.4f)", fresh.RevertSimilarity)
	}
	if fresh.IdleIdentical {
		t.Error("fresh arm: idle checkpoint identical — pages not re-randomized")
	}
	// The size/timing channel is mode-independent: identical deltas,
	// same correct growth ranking, in both arms.
	if !det.GrowthRanked || !fresh.GrowthRanked {
		t.Errorf("growth ranking failed: det=%v fresh=%v", det.GrowthRanked, fresh.GrowthRanked)
	}
	if det.OrdersDelta != fresh.OrdersDelta || det.AuditDelta != fresh.AuditDelta {
		t.Errorf("size channel differs across modes: %d/%d vs %d/%d",
			det.OrdersDelta, det.AuditDelta, fresh.OrdersDelta, fresh.AuditDelta)
	}
	if det.TmpResidue || fresh.TmpResidue {
		t.Error("*.tmp residue visible in a snapshot")
	}
	if !strings.Contains(res.Render(), "E17") {
		t.Error("render missing experiment id")
	}
}

func TestE14RetryResidue(t *testing.T) {
	res, err := E14RetryResidue(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == 0 {
		t.Error("no reply-write fault fired")
	}
	if res.DigestMatches != res.Runs {
		t.Errorf("exactly-once violated: %d/%d digests matched", res.DigestMatches, res.Runs)
	}
	if res.ReplayRuns == 0 {
		t.Error("no run left duplicate general-log records")
	}
	if res.SecretRuns == 0 {
		t.Error("secret never found in the dedup cache")
	}
	if !res.OrphanRetained {
		t.Error("abandoned session was not retained")
	}
	if !strings.Contains(res.Render(), "E14") {
		t.Error("render missing experiment id")
	}
}

// TestRunErrorsNameTheirExperimentOnce: a registry entry's error starts
// with the experiment's id exactly once, whether or not the
// experiment's own message already did.
func TestRunErrorsNameTheirExperimentOnce(t *testing.T) {
	for _, c := range []struct{ msg, want string }{
		{"E15: serial run: boom", "E15: serial run: boom"},
		{"setup 3: boom", "E15: setup 3: boom"},
		{"E1 vm: boom", "E15: E1 vm: boom"},
		{"E15x: boom", "E15: E15x: boom"},
	} {
		base := errors.New(c.msg)
		x := entry("E15", func(bool) (*E15Result, error) { return nil, base })
		res, err := x.Run(true)
		if res != nil || err == nil || err.Error() != c.want || !errors.Is(err, base) {
			t.Errorf("%q: Run returned (%v, %v), want the error %q wrapping it", c.msg, res, err, c.want)
		}
	}
}

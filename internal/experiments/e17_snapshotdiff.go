package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"snapdb/internal/crypto/prim"
	"snapdb/internal/engine"
	"snapdb/internal/vfs"
)

// E17Result is the multi-snapshot attack on encryption at rest: an
// analyst who never holds the key, only periodic images of the
// encrypted disk (a cloud provider's scheduled VM snapshots, a backup
// service, a co-tenant reading a SAN), diffs ciphertext pages across
// snapshots and joins the diff with file-size growth and snapshot
// timestamps. Under the industry-default deterministic (XTS-style)
// page encryption this re-derives past-query inference — which table
// grew in which interval, that a secret was overwritten and then put
// back, that an interval was idle — the paper's §5 claim made concrete
// on our own CryptFS. The fresh-IV ablation re-randomizes every page
// write: the page-diff channel dies, while the size/timing channel —
// a function of lengths, which any length-preserving encryption keeps
// — survives untouched.
type E17Result struct {
	Snapshots int // encrypted disk images taken
	GrowRows  int // rows inserted per growth interval
	Arms      []E17Arm
}

// E17Arm is one encryption mode's run over the identical workload and
// snapshot schedule.
type E17Arm struct {
	Arm           string
	Deterministic bool // Config.DeterministicPages

	// Page-diff channel (ciphertext checkpoint pages across snapshots).
	CkptPages        int     // checkpoint pages in the final snapshot
	OverwriteChanged int     // pages changed in the secret-overwrite interval
	RevertSimilarity float64 // best equal-byte fraction, revert snapshot vs pre-overwrite
	RevertDetected   bool    // analyst concludes the overwritten page reverted
	IdleIdentical    bool    // idle-interval checkpoint is byte-identical
	// Size/timing channel (binlog growth per snapshot interval).
	OrdersDelta   int   // binlog byte growth in the orders-growth interval
	AuditDelta    int   // binlog byte growth in the audit-growth interval
	GrowthRanked  bool  // analyst correctly ranks which interval grew which table
	OverwriteTime int64 // snapshot clock at which the overwrite interval closed
	TmpResidue    bool  // any *.tmp plaintext residue visible at a snapshot
}

// Name implements Result.
func (*E17Result) Name() string { return "E17" }

// Render implements Result.
func (r *E17Result) Render() string {
	t := &table{header: []string{"mode", "ckpt pages", "overwrite Δpages", "revert similarity", "revert seen", "idle identical", "orders Δbinlog", "audit Δbinlog", "growth ranked", "tmp residue"}}
	for _, a := range r.Arms {
		// The deterministic arm's similarity is a function of the
		// plaintext and repeats exactly. The fresh-IV arm's compares
		// pages under independent crypto/rand IVs and never repeats, so
		// the transcript states the bound it is held to and Timing the
		// draw.
		similarity := fmt.Sprintf("%.4f", a.RevertSimilarity)
		if !a.Deterministic {
			similarity = fmt.Sprintf("< %.2f (chance)", e17NoiseFloor)
		}
		t.add(a.Arm,
			fmt.Sprintf("%d", a.CkptPages),
			fmt.Sprintf("%d", a.OverwriteChanged),
			similarity,
			fmt.Sprintf("%v", a.RevertDetected),
			fmt.Sprintf("%v", a.IdleIdentical),
			fmt.Sprintf("%d", a.OrdersDelta),
			fmt.Sprintf("%d", a.AuditDelta),
			fmt.Sprintf("%v", a.GrowthRanked),
			fmt.Sprintf("%v", a.TmpResidue))
	}
	return fmt.Sprintf("E17 (§5): multi-snapshot diffing of encrypted disks (%d snapshots, %d rows per growth interval)\n",
		r.Snapshots, r.GrowRows) + t.String()
}

// Timing implements Timed: the fresh-IV arm's measured similarity.
func (r *E17Result) Timing() string {
	var sb strings.Builder
	for _, a := range r.Arms {
		if !a.Deterministic {
			fmt.Fprintf(&sb, "E17 %s revert similarity this run: %.4f (IVs from crypto/rand; 1/256 = 0.0039 is chance)\n", a.Arm, a.RevertSimilarity)
		}
	}
	return sb.String()
}

// e17NoiseFloor bounds the best equal-byte fraction two independently
// re-randomized pages may show; independent random bytes agree at
// 1/256.
const e17NoiseFloor = 0.1

// e17Snap is one encrypted disk image: every file's raw (at-rest)
// bytes, plus the analyst-observable capture time.
type e17Snap struct {
	files map[string][]byte
	when  int64
}

func e17Capture(mem *vfs.MemFS, when int64) e17Snap {
	s := e17Snap{files: map[string][]byte{}, when: when}
	for _, name := range mem.Names() {
		if b, err := mem.ReadFile(name); err == nil {
			s.files[name] = append([]byte(nil), b...)
		}
	}
	return s
}

// e17Pages splits a file image into CryptPageSize pages (the last may
// be short).
func e17Pages(b []byte) [][]byte {
	var out [][]byte
	for off := 0; off < len(b); off += vfs.CryptPageSize {
		end := off + vfs.CryptPageSize
		if end > len(b) {
			end = len(b)
		}
		out = append(out, b[off:end])
	}
	return out
}

// e17EqualFrac returns the fraction of positions where a and b hold
// the same byte — the analyst's page-similarity metric. A positional
// cipher preserves plaintext similarity exactly; a fresh-IV rewrite
// drives it to the ~1/256 noise floor of independent random bytes.
func e17EqualFrac(a, b []byte) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	eq := 0
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(n)
}

// e17Arm runs the workload and snapshot schedule under one mode and
// plays the analyst against the captured ciphertext images.
func e17Arm(det bool, growRows int) (E17Arm, error) {
	name := "deterministic"
	if !det {
		name = "fresh-IV"
	}
	arm := E17Arm{Arm: name, Deterministic: det}

	mem := vfs.NewMemFS()
	cfg := engine.Defaults()
	cfg.FS = mem
	cfg.EncryptAtRest = true
	cfg.EncryptionKey = prim.TestKey("e17")
	cfg.DeterministicPages = det
	e, err := engine.New(cfg)
	if err != nil {
		return arm, err
	}
	defer e.Close()
	now := int64(1_700_000_000)
	e.Clock = func() int64 { return now }

	s := e.Connect("app")
	defer s.Close()
	exec := func(q string) error {
		now++
		_, err := s.Execute(q)
		return err
	}
	snap := func() (e17Snap, error) {
		// An operator's full purge first (E16's aggressive arm): the
		// checkpoint then carries no version chains, whose
		// churn-dependent bytes are residue E16 already measures and
		// would only blur the page diff here.
		e.PurgeVersions(0)
		if err := e.Checkpoint(); err != nil {
			return e17Snap{}, err
		}
		return e17Capture(mem, now), nil
	}

	// S0: seed. The vault holds the secret the application will later
	// overwrite and restore; two content tables exist for the growth
	// intervals, with per-row statement texts of different lengths —
	// the fingerprint the size channel reads.
	for _, q := range []string{
		"CREATE TABLE vault (id INT PRIMARY KEY, secret TEXT)",
		"CREATE TABLE orders (id INT PRIMARY KEY, item TEXT)",
		"CREATE TABLE audit_log_entries (id INT PRIMARY KEY, detail TEXT)",
		"INSERT INTO vault (id, secret) VALUES (1, 'the-original-secret-value')",
		"INSERT INTO vault (id, secret) VALUES (2, 'some-other-vault-entry-xx')",
	} {
		if err := exec(q); err != nil {
			return arm, err
		}
	}
	snaps := make([]e17Snap, 0, 6)
	s0, err := snap()
	if err != nil {
		return arm, err
	}
	snaps = append(snaps, s0)

	// S1: the orders table grows. S2: the audit table grows. Fixed-width
	// ids and values keep every per-row binlog event the same size
	// within an interval.
	for i := 0; i < growRows; i++ {
		if err := exec(fmt.Sprintf("INSERT INTO orders (id, item) VALUES (%04d, 'item-%04d')", 1000+i, i)); err != nil {
			return arm, err
		}
	}
	s1, err := snap()
	if err != nil {
		return arm, err
	}
	snaps = append(snaps, s1)
	for i := 0; i < growRows; i++ {
		if err := exec(fmt.Sprintf("INSERT INTO audit_log_entries (id, detail) VALUES (%04d, 'a-much-longer-audit-trail-detail-record-%04d')", 1000+i, i)); err != nil {
			return arm, err
		}
	}
	s2, err := snap()
	if err != nil {
		return arm, err
	}
	snaps = append(snaps, s2)

	// S3: the secret is overwritten. S4: it is put back (an operator
	// "undoing" a mistake — the revert the page diff exposes). S5: idle.
	if err := exec("UPDATE vault SET secret = 'overwritten-by-app-XXXXX' WHERE id = 1"); err != nil {
		return arm, err
	}
	s3, err := snap()
	if err != nil {
		return arm, err
	}
	snaps = append(snaps, s3)
	arm.OverwriteTime = s3.when
	if err := exec("UPDATE vault SET secret = 'the-original-secret-value' WHERE id = 1"); err != nil {
		return arm, err
	}
	s4, err := snap()
	if err != nil {
		return arm, err
	}
	snaps = append(snaps, s4)
	now += 1000 // an idle stretch of wall clock
	s5, err := snap()
	if err != nil {
		return arm, err
	}
	snaps = append(snaps, s5)

	// ---- The analyst. Everything below reads only snaps (ciphertext
	// images + capture times); the key and the engine are gone.

	for _, sn := range snaps {
		for fname := range sn.files {
			if strings.HasSuffix(fname, ".tmp") {
				arm.TmpResidue = true
			}
		}
	}

	ckpt := func(i int) [][]byte { return e17Pages(snaps[i].files[engine.FileCheckpoint]) }
	p2, p3, p4, p5 := ckpt(2), ckpt(3), ckpt(4), ckpt(5)
	arm.CkptPages = len(p5)

	// Page-diff channel 1: which pages changed when the secret was
	// overwritten (interval S2->S3)?
	changed := map[int]bool{}
	for i := range p3 {
		if i >= len(p2) || !bytes.Equal(p2[i], p3[i]) {
			changed[i] = true
			arm.OverwriteChanged++
		}
	}
	// Page-diff channel 2: did any of those pages revert (S4 back to
	// its S2 bytes)? Positional encryption preserves similarity, so the
	// vault page — identical plaintext again except its 8-byte page
	// LSN — diffs in a handful of bytes; under fresh IVs the same page
	// sits at the random-noise floor.
	for i := range changed {
		if i < len(p4) && i < len(p2) {
			if f := e17EqualFrac(p4[i], p2[i]); f > arm.RevertSimilarity {
				arm.RevertSimilarity = f
			}
		}
	}
	arm.RevertDetected = arm.RevertSimilarity > 0.95
	// Page-diff channel 3: the idle interval. Deterministic encryption
	// re-encrypts the unchanged checkpoint to identical bytes — the
	// analyst learns nothing happened, which is itself information.
	arm.IdleIdentical = len(p4) == len(p5) && func() bool {
		for i := range p4 {
			if !bytes.Equal(p4[i], p5[i]) {
				return false
			}
		}
		return true
	}()

	// Size/timing channel: binlog growth per snapshot interval. The
	// binlog is append-only ciphertext, but its length is plaintext
	// metadata. Joined with the snapshot timestamps, the analyst knows
	// WHEN each batch landed; the per-row byte cost separates WHICH
	// table grew (statement templates differ in length — auxiliary
	// knowledge, as in any inference attack).
	blen := func(i int) int { return len(snaps[i].files[engine.FileBinlog]) }
	arm.OrdersDelta = blen(1) - blen(0)
	arm.AuditDelta = blen(2) - blen(1)
	arm.GrowthRanked = arm.AuditDelta > arm.OrdersDelta && arm.OrdersDelta > 0
	return arm, nil
}

// E17SnapshotDiff runs the multi-snapshot attack under both encryption
// modes and checks the paper's claims: deterministic encryption leaks
// page-level history (growth, overwrite, revert, idleness) to a
// snapshot-only adversary; fresh IVs close the page-diff channel but
// leave the size/timing channel fully intact.
func E17SnapshotDiff(quick bool) (*E17Result, error) {
	growRows := 48
	if quick {
		growRows = 24
	}
	res := &E17Result{Snapshots: 6, GrowRows: growRows}
	for _, det := range []bool{true, false} {
		arm, err := e17Arm(det, growRows)
		if err != nil {
			return nil, fmt.Errorf("E17: %s: %w", arm.Arm, err)
		}
		res.Arms = append(res.Arms, arm)
	}
	det, fresh := res.Arms[0], res.Arms[1]

	// Deterministic mode: every page-diff inference lands.
	if det.OverwriteChanged == 0 || det.OverwriteChanged*2 > det.CkptPages {
		return nil, fmt.Errorf("E17: overwrite changed %d of %d pages — page diff not localized", det.OverwriteChanged, det.CkptPages)
	}
	if !det.RevertDetected {
		return nil, fmt.Errorf("E17: revert not detected under deterministic encryption (similarity %.4f)", det.RevertSimilarity)
	}
	if !det.IdleIdentical {
		return nil, fmt.Errorf("E17: idle interval not byte-identical under deterministic encryption")
	}
	// Fresh-IV mode: the page-diff channel is dead...
	if fresh.RevertDetected {
		return nil, fmt.Errorf("E17: revert still visible under fresh IVs (similarity %.4f)", fresh.RevertSimilarity)
	}
	if fresh.RevertSimilarity >= e17NoiseFloor {
		return nil, fmt.Errorf("E17: fresh-IV page similarity %.4f above noise floor", fresh.RevertSimilarity)
	}
	if fresh.IdleIdentical {
		return nil, fmt.Errorf("E17: idle interval identical under fresh IVs — pages not re-randomized")
	}
	// ...but the size/timing channel survives, byte-for-byte equal to
	// the deterministic arm: length preservation is mode-independent.
	if !det.GrowthRanked || !fresh.GrowthRanked {
		return nil, fmt.Errorf("E17: growth inference failed (det %v fresh %v)", det.GrowthRanked, fresh.GrowthRanked)
	}
	if det.OrdersDelta != fresh.OrdersDelta || det.AuditDelta != fresh.AuditDelta {
		return nil, fmt.Errorf("E17: size channel differs across modes (%d/%d vs %d/%d)",
			det.OrdersDelta, det.AuditDelta, fresh.OrdersDelta, fresh.AuditDelta)
	}
	if det.TmpResidue || fresh.TmpResidue {
		return nil, fmt.Errorf("E17: *.tmp residue visible in a snapshot")
	}
	return res, nil
}

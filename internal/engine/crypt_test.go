package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"snapdb/internal/crypto/prim"
	"snapdb/internal/failpoint"
	"snapdb/internal/vfs"
)

func cryptCfg(det bool) Config {
	cfg := Defaults()
	cfg.EncryptAtRest = true
	cfg.EncryptionKey = prim.TestKey("engine-crypt")
	cfg.DeterministicPages = det
	cfg.EnableGeneralLog = true
	return cfg
}

// TestDifferentialCryptVsPlain proves encryption at rest is observably
// transparent, the property that makes it deployable — and, per the
// paper, the property that bounds what it can protect. Three arms run
// the same workload on separate MemFS instances: plaintext,
// deterministic encryption, fresh-IV encryption. Asserted:
//
//   - per-statement results and errors are identical across arms;
//   - the binlog and general log event streams are identical;
//   - every persisted file, read back through the crypto layer,
//     is byte-identical to the plain arm's raw file — same frames,
//     same LSNs, same lengths (the length preservation is itself the
//     size side channel E17 uses);
//   - the at-rest bytes of both encrypted arms contain none of the
//     workload's plaintext markers, while the plain arm's do.
func TestDifferentialCryptVsPlain(t *testing.T) {
	stmts := append(tortureStmts(),
		"INSERT INTO users (id, name, karma) VALUES (70, 'marker-aa-secret', 7)",
		"SELECT name FROM users WHERE id = 70",
		"SELECT COUNT(*) FROM orders",
	)

	type arm struct {
		outcomes []string
		binlog   []string
		general  []string
		files    map[string][]byte // logical (decrypted) view
		raw      map[string][]byte // at-rest bytes
	}
	run := func(name string, encrypt, det bool) arm {
		mem := vfs.NewMemFS()
		cfg := cryptCfg(det)
		if !encrypt {
			cfg.EncryptAtRest = false
		}
		cfg.FS = mem
		e, now := newEngine(t, cfg)
		var a arm
		s := e.Connect("diff")
		defer s.Close()
		for _, q := range stmts {
			*now++
			res, err := s.Execute(q)
			a.outcomes = append(a.outcomes, renderResult(res, err))
		}
		for _, en := range e.GeneralLog().Entries() {
			a.general = append(a.general, fmt.Sprintf("%d|%d|%s", en.Timestamp, en.Session, en.Statement))
		}
		_, _, evs := durableLogs(t, e)
		for _, ev := range evs {
			a.binlog = append(a.binlog, fmt.Sprintf("%d|%d|%s", ev.Timestamp, ev.LSN, ev.Statement))
		}
		// Logical view: through the crypto layer (or directly, when
		// plain). A fresh CryptFS instance over the surviving bytes is
		// exactly what a restart uses, so this also proves the reader
		// needs no state beyond the key.
		var logical vfs.FS = mem
		if encrypt {
			cfs, err := vfs.NewCryptFS(mem, cfg.EncryptionKey, det)
			if err != nil {
				t.Fatal(err)
			}
			logical = cfs
		}
		a.files = map[string][]byte{}
		a.raw = map[string][]byte{}
		for _, f := range []string{FileRedo, FileUndo, FileBinlog, FileCheckpoint} {
			if b, err := logical.ReadFile(f); err == nil {
				a.files[f] = b
			}
			if b, err := mem.ReadFile(f); err == nil {
				a.raw[f] = b
			}
		}
		t.Logf("%s: %d statements, %d binlog events, %d files", name, len(stmts), len(a.binlog), len(a.files))
		return a
	}

	plain := run("plain", false, false)
	det := run("det", true, true)
	fresh := run("fresh", true, false)
	if len(plain.binlog) == 0 {
		t.Fatal("plain arm's binlog file is empty: the binlog comparison is vacuous")
	}

	for armName, a := range map[string]arm{"det": det, "fresh": fresh} {
		for i := range plain.outcomes {
			if plain.outcomes[i] != a.outcomes[i] {
				t.Fatalf("%s: statement %d %q:\nplain: %s\ncrypt: %s",
					armName, i, stmts[i], plain.outcomes[i], a.outcomes[i])
			}
		}
		if !reflect.DeepEqual(plain.binlog, a.binlog) {
			t.Errorf("%s: binlog event stream differs from plain", armName)
		}
		if !reflect.DeepEqual(plain.general, a.general) {
			t.Errorf("%s: general log differs from plain", armName)
		}
		for f, want := range plain.raw {
			got, ok := a.files[f]
			if !ok {
				t.Errorf("%s: file %s missing from encrypted arm", armName, f)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: decrypted %s differs from plain bytes (%d vs %d bytes)",
					armName, f, len(got), len(want))
			}
			raw := a.raw[f]
			if len(raw) != len(want) {
				t.Errorf("%s: ciphertext %s is %d bytes, plain is %d — length not preserved",
					armName, f, len(raw), len(want))
			}
			if len(want) > 0 && bytes.Equal(raw, want) {
				t.Errorf("%s: %s at rest equals plaintext", armName, f)
			}
		}
		// No plaintext markers at rest: statement text, table names,
		// row strings. The plain binlog carries all of them.
		for _, marker := range [][]byte{[]byte("marker-aa-secret"), []byte("INSERT INTO"), []byte("users")} {
			if !bytes.Contains(plain.raw[FileBinlog], marker) {
				t.Fatalf("plain binlog lacks marker %q — marker scan is vacuous", marker)
			}
			for f, raw := range a.raw {
				if bytes.Contains(raw, marker) {
					t.Errorf("%s: marker %q visible at rest in %s", armName, marker, f)
				}
			}
		}
	}
}

// TestCrashTortureEncrypted reruns the kill-point torture harness with
// the crypto layer stacked over the fault injector: engine -> CryptFS
// -> FaultFS -> MemFS, so every injected fault lands on ciphertext, as
// disk faults do. Deterministic mode's positional keystream means the
// inner operation sequence is identical to the plaintext run — same
// kill-point schedule, same torn-write semantics — and recovery through
// a fresh CryptFS must land on the same reference digests.
func TestCrashTortureEncrypted(t *testing.T) {
	stmts := tortureStmts()
	refs := refStates(t, stmts)
	cfg := cryptCfg(true)
	cfg.EnableGeneralLog = false

	// Dry run on plaintext: deterministic encryption must not change
	// the durable-op count, so the plain total IS the encrypted total.
	dryReg := failpoint.New(1)
	if got := runUntilError(vfs.NewFaultFS(vfs.NewMemFS(), dryReg), stmts); got != len(stmts) {
		t.Fatalf("dry run failed at statement %d", got)
	}
	total := int(dryReg.TotalHits())

	encReg := failpoint.New(1)
	if got := runUntilErrorCfg(vfs.NewFaultFS(vfs.NewMemFS(), encReg), cfg, stmts); got != len(stmts) {
		t.Fatalf("encrypted dry run failed at statement %d", got)
	}
	if encTotal := int(encReg.TotalHits()); encTotal != total {
		t.Fatalf("encrypted op count %d != plaintext %d: crypto layer changed the durable op stream", encTotal, total)
	}

	stride := total / 120
	if stride < 1 {
		stride = 1
	}
	points, leads := 0, 0
	for k := 1; k <= total; k += stride {
		mem := vfs.NewMemFS()
		reg := failpoint.New(1)
		reg.Arm("*", failpoint.KindCrash, uint64(k))
		acked := runUntilErrorCfg(vfs.NewFaultFS(mem, reg), cfg, stmts)
		if !reg.Crashed() {
			t.Fatalf("kill-point %d never fired (acked %d)", k, acked)
		}
		mem.Crash()

		r, rep, err := Recover(mem, cfg)
		if err != nil {
			t.Fatalf("kill-point %d: encrypted recovery failed: %v", k, err)
		}
		diverged, binlogLeads := checkRecovered(t, r, refs, acked, acked+1)
		if diverged {
			t.Fatalf("kill-point %d diverged: acked %d statements, report %+v", k, acked, rep)
		}
		if binlogLeads {
			leads++
		}
		points++
	}
	if points < 100 {
		t.Errorf("only %d kill-points exercised, want >= 100 (total ops %d)", points, total)
	}
	if leads > 0 {
		t.Errorf("%d of %d encrypted kill-points recover a binlog that leads the recovered data", leads, points)
	}
	t.Logf("%d encrypted kill-points over %d durable ops, all recovered consistently", points, total)

	for _, seed := range tortureSeeds(t) {
		t.Run(fmt.Sprintf("grouped/seed=%d", seed), func(t *testing.T) { tortureGrouped(t, cfg, seed) })
	}
}

// TestCrashTortureBitFlipsEncrypted is satellite 4's end-to-end check:
// a single bit flipped in the at-rest ciphertext of a redo write must
// surface at recovery as a detected CRC/torn truncation of the decrypted
// frame stream — never as silently wrong plaintext served to queries.
func TestCrashTortureBitFlipsEncrypted(t *testing.T) {
	stmts := tortureStmts()
	cfg := cryptCfg(true)
	cfg.EnableGeneralLog = false
	for _, k := range []uint64{14, 18, 25, 29} {
		mem := vfs.NewMemFS()
		reg := failpoint.New(int64(k))
		reg.Arm("write:"+FileRedo, failpoint.KindBitFlip, k)
		if got := runUntilErrorCfg(vfs.NewFaultFS(mem, reg), cfg, stmts); got != len(stmts) {
			t.Fatalf("bit flip %d: silent corruption turned into an error at statement %d", k, got)
		}
		mem.Crash()

		r, rep, err := Recover(mem, cfg)
		if err != nil {
			t.Fatalf("bit flip %d: encrypted recovery failed: %v", k, err)
		}
		if rep.RedoTruncated == nil {
			t.Fatalf("bit flip %d in ciphertext went undetected after decrypt", k)
		}
		if reason := rep.RedoTruncated.Reason; !strings.Contains(reason, "checksum") &&
			!strings.Contains(reason, "torn") && !strings.Contains(reason, "bad") {
			t.Errorf("bit flip %d: reason %q", k, reason)
		}
		s := r.Connect("app")
		if _, err := s.Execute("SELECT name FROM users WHERE id = 0"); err != nil {
			t.Errorf("bit flip %d: recovered engine cannot serve: %v", k, err)
		}
	}
}

// TestRecoverEncryptedWrongKey pins the failure mode of a key mismatch:
// recovery must refuse cleanly (the checkpoint does not parse), never
// panic or serve garbage.
func TestRecoverEncryptedWrongKey(t *testing.T) {
	mem := vfs.NewMemFS()
	cfg := cryptCfg(true)
	cfg.FS = mem
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'x')")
	mem.Crash()

	good := cryptCfg(true)
	if _, _, err := Recover(mem, good); err != nil {
		t.Fatalf("right key failed: %v", err)
	}
	bad := cryptCfg(true)
	bad.EncryptionKey = prim.TestKey("not-the-key")
	if _, _, err := Recover(mem, bad); err == nil {
		t.Fatal("wrong key recovered without error")
	}
}

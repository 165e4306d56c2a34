package mitigate

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"snapdb/internal/core"
	"snapdb/internal/engine"
	"snapdb/internal/snapshot"
)

// demoWorkload mixes writes and reads, including a "sensitive" SELECT.
func demoWorkload(e *engine.Engine) error {
	s := e.Connect("app")
	for _, q := range []string{
		"CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)",
		"INSERT INTO accounts (id, owner, balance) VALUES (1, 'alice', 100)",
		"INSERT INTO accounts (id, owner, balance) VALUES (2, 'bob', 250)",
		"UPDATE accounts SET balance = 175 WHERE id = 2",
		"SELECT owner FROM accounts WHERE balance >= 150",
	} {
		if _, err := s.Execute(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	return nil
}

func TestHardenFlags(t *testing.T) {
	cfg := Harden(engine.Defaults(), true)
	if !cfg.SecureHeapDelete || !cfg.DisablePerfSchema || !cfg.ScrubProcesslist {
		t.Errorf("hardening flags not set: %+v", cfg)
	}
	if cfg.EnableQueryCache || cfg.EnableGeneralLog || !cfg.DisableSlowLog {
		t.Errorf("optional channels not disabled: %+v", cfg)
	}
	if !cfg.EnableBinlog {
		t.Error("keepBinlog=true did not keep the binlog")
	}
	if Harden(engine.Defaults(), false).EnableBinlog {
		t.Error("keepBinlog=false kept the binlog")
	}
}

func TestSecureHeapDeleteRemovesResidue(t *testing.T) {
	cfg := Harden(engine.Defaults(), true)
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Connect("app")
	if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	marker := "SELECT v FROM t WHERE id = 314159265"
	if _, err := s.Execute(marker); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(e.Arena().Dump(), []byte(marker)) {
		t.Error("hardened heap still holds freed query text")
	}
}

func TestHardenedDiagnosticsEmpty(t *testing.T) {
	e, err := engine.New(Harden(engine.Defaults(), true))
	if err != nil {
		t.Fatal(err)
	}
	if err := demoWorkload(e); err != nil {
		t.Fatal(err)
	}
	snap := snapshot.Capture(e, snapshot.SQLInjection)
	if len(snap.Diagnostics.History) != 0 || len(snap.Diagnostics.DigestSummary) != 0 {
		t.Error("hardened engine still populates performance_schema")
	}
	for _, p := range snap.Diagnostics.Processlist {
		if p.State == "idle" && p.Statement != "" {
			t.Errorf("processlist not scrubbed: %+v", p)
		}
	}
}

func TestCompareClosesVolatileChannelsOnly(t *testing.T) {
	cmp, err := Compare(engine.Defaults(), true, snapshot.FullCompromise, demoWorkload)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ChannelDiff{}
	for _, ch := range cmp.Channels {
		byName[ch.Channel] = ch
	}
	for _, closable := range []string{"heap", "query-cache", "digest-table", "statement-history", "processlist"} {
		ch, ok := byName[closable]
		if !ok {
			t.Errorf("channel %q absent from the default run", closable)
			continue
		}
		if !ch.Closed {
			t.Errorf("hardening did not close %q (default=%d hardened=%d)", closable, ch.Default, ch.Hardened)
		}
	}
	// The paper's point: the write-history channels are inherent.
	for _, inherent := range []string{"wal", "binlog"} {
		ch := byName[inherent]
		if ch.Hardened == 0 {
			t.Errorf("channel %q unexpectedly closed — ACID/replication leakage should remain", inherent)
		}
	}
	if len(cmp.Inherent) == 0 {
		t.Error("no inherent channels reported")
	}
	if !strings.Contains(cmp.Render(), "inherent channels remaining") {
		t.Error("render missing summary line")
	}
}

func TestCompareWithoutBinlog(t *testing.T) {
	cmp, err := Compare(engine.Defaults(), false, snapshot.DiskTheft, demoWorkload)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range cmp.Channels {
		if ch.Channel == "binlog" && ch.Hardened != 0 {
			t.Error("binlog channel survived keepBinlog=false")
		}
		if ch.Channel == "wal" && ch.Hardened == 0 {
			t.Error("WAL closed; it must be inherent")
		}
	}
}

func TestCompareWorkloadError(t *testing.T) {
	bad := func(e *engine.Engine) error { return fmt.Errorf("boom") }
	if _, err := Compare(engine.Defaults(), true, snapshot.DiskTheft, bad); err == nil {
		t.Error("workload error swallowed")
	}
}

func TestHardenedEngineStillAnswersQueries(t *testing.T) {
	// Hardening must not break functionality.
	e, err := engine.New(Harden(engine.Defaults(), true))
	if err != nil {
		t.Fatal(err)
	}
	if err := demoWorkload(e); err != nil {
		t.Fatal(err)
	}
	s := e.Connect("check")
	res, err := s.Execute("SELECT COUNT(*) FROM accounts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 2 {
		t.Errorf("count = %d", res.Rows[0][0].Int)
	}
	// And the report machinery still works against it.
	rep, err := core.Analyze(snapshot.Capture(e, snapshot.FullCompromise))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PastWrites == 0 {
		t.Error("WAL reconstruction broken on hardened engine")
	}
}

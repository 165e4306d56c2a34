package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"snapdb/internal/binlog"
	"snapdb/internal/client"
	"snapdb/internal/engine"
	"snapdb/internal/failpoint"
	"snapdb/internal/netfault"
	"snapdb/internal/server"
	"snapdb/internal/storage"
)

// The network-torture harness: run a deterministic workload through a
// ReliableConn while seeded faults (resets, partial writes, latency,
// blackholed reads, dead-on-arrival accepts) savage the server's side
// of every connection, then assert the end state is byte-identical to
// a fault-free run. What the storage crash-torture harness proves for
// fsync-boundary durability, this proves for wire-level exactly-once:
// at-least-once resend plus server-side dedup leaves no statement
// lost, none double-applied, in the original order.
//
// The one artifact allowed to differ is the general log: a replayed
// arrival is logged again (see engine.Session.NoteReplay), so the
// faulted run's log is a superset whose extras are duplicates of
// statements the reference already holds — the retry residue that
// experiment E14 measures as a forensic channel.

// nettortureStmts is the deterministic workload: DDL, inserts, then a
// mixed read/update/delete phase. Everything is keyed so the final
// logical state is independent of timing.
func nettortureStmts() []string {
	stmts := []string{"CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)"}
	for i := 0; i < 40; i++ {
		stmts = append(stmts, fmt.Sprintf(
			"INSERT INTO accounts (id, owner, balance) VALUES (%d, 'owner%d', %d)", i, i, 1000+i))
	}
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			stmts = append(stmts, fmt.Sprintf("UPDATE accounts SET balance = %d WHERE id = %d", 2000+i, i))
		case 1:
			stmts = append(stmts, fmt.Sprintf("SELECT owner, balance FROM accounts WHERE id = %d", i))
		case 2:
			stmts = append(stmts, fmt.Sprintf("SELECT COUNT(*) FROM accounts WHERE balance >= %d", 1000+i))
		}
	}
	for i := 35; i < 40; i++ {
		stmts = append(stmts, fmt.Sprintf("DELETE FROM accounts WHERE id = %d", i))
	}
	stmts = append(stmts, "SELECT COUNT(*) FROM accounts")
	return stmts
}

// netfaultSeeds parses SNAPDB_NETFAULT_SEEDS (comma-separated int64s),
// defaulting to one seed for the ordinary test run.
func netfaultSeeds(t testing.TB) []int64 {
	spec := os.Getenv("SNAPDB_NETFAULT_SEEDS")
	if spec == "" {
		return []int64{1}
	}
	var seeds []int64
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("SNAPDB_NETFAULT_SEEDS: %v", err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// tortureServer starts a server whose listener is wrapped by netfault
// driven by reg (nil = unwrapped).
func tortureServer(t testing.TB, reg *failpoint.Registry) (string, *engine.Engine, func()) {
	t.Helper()
	cfg := engine.Defaults()
	cfg.EnableGeneralLog = true
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(e)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var ln net.Listener = raw
	if reg != nil {
		ln = netfault.WrapListener(raw, netfault.Config{Reg: reg, Label: "srv", Hold: 10 * time.Millisecond})
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return raw.Addr().String(), e, func() {
		_ = srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// runWorkload drives the full workload through rc, part singly and
// part batched, failing the test if any statement's outcome is lost.
func runWorkload(t testing.TB, ctx context.Context, rc *client.ReliableConn, stmts []string) {
	t.Helper()
	split := 10
	for i, stmt := range stmts[:split] {
		if _, err := rc.Execute(ctx, stmt); err != nil {
			t.Fatalf("stmt %d (%q): %v", i, stmt, err)
		}
	}
	res, err := rc.ExecuteBatch(ctx, stmts[split:])
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, br := range res {
		if br.Err != nil {
			t.Fatalf("batched stmt %d (%q): %v", split+i, stmts[split+i], br.Err)
		}
	}
}

// snapshotArtifacts captures the forensic surfaces the harness diffs.
func snapshotArtifacts(t testing.TB, e *engine.Engine) (digest string, blog []string, general map[string]int) {
	t.Helper()
	d, err := e.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	img, err := e.Dir().ReadFile(engine.FileBinlog)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := binlog.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		blog = append(blog, ev.Statement)
	}
	general = make(map[string]int)
	for _, en := range e.GeneralLog().Entries() {
		general[en.Statement]++
	}
	return d, blog, general
}

func TestNetworkTortureExactlyOnce(t *testing.T) {
	stmts := nettortureStmts()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Reference: the same workload, same client machinery, no faults.
	refAddr, refEng, refStop := tortureServer(t, nil)
	refRC, err := client.DialReliable(ctx, refAddr, client.RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, ctx, refRC, stmts)
	_ = refRC.Close()
	refDigest, refBinlog, refGeneral := snapshotArtifacts(t, refEng)
	refStop()

	// Dry run against a wrapped-but-unarmed listener to count the
	// workload's network operations — the crash-torture idiom: the
	// fault schedule must land inside the ops that actually happen,
	// not at hit counts the exchange never reaches.
	dryReg := failpoint.New(0)
	dryAddr, _, dryStop := tortureServer(t, dryReg)
	dryRC, err := client.DialReliable(ctx, dryAddr, client.RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, ctx, dryRC, stmts)
	_ = dryRC.Close()
	totalOps := int(dryReg.TotalHits())
	dryStop()
	if totalOps < 8 {
		t.Fatalf("dry run saw only %d network ops", totalOps)
	}

	for _, seed := range netfaultSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reg := failpoint.New(seed)
			// A seeded schedule of one-shot faults spread across the
			// dry-run op count, all four kinds, all three points. Every
			// seed tortures a different part of the exchange; faults
			// triggering retries add ops, so later rules keep landing.
			rng := rand.New(rand.NewSource(seed))
			points := []string{"netread:srv", "netwrite:srv", "accept:srv"}
			kinds := []failpoint.Kind{failpoint.KindReset, failpoint.KindPartial, failpoint.KindLatency, failpoint.KindBlackhole}
			for i := 0; i < 12; i++ {
				reg.Arm(points[rng.Intn(len(points))], kinds[rng.Intn(len(kinds))], uint64(rng.Intn(totalOps)+2))
			}

			addr, eng, stop := tortureServer(t, reg)
			defer stop()
			rc, err := client.DialReliable(ctx, addr, client.RetryConfig{
				BackoffFloor: time.Millisecond,
				BackoffCap:   20 * time.Millisecond,
				MaxAttempts:  50,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			runWorkload(t, ctx, rc, stmts)

			digest, binlogStmts, general := snapshotArtifacts(t, eng)
			if digest != refDigest {
				t.Errorf("state digest diverged under faults:\n  faulted %s\n  ref     %s", digest, refDigest)
			}
			if strings.Join(binlogStmts, "\x00") != strings.Join(refBinlog, "\x00") {
				t.Errorf("binlog diverged: %d events vs %d reference (mutation applied twice or lost)",
					len(binlogStmts), len(refBinlog))
			}
			// General log: superset of the reference, extras being
			// duplicate arrivals only — the documented retry residue.
			extras := 0
			for stmt, n := range general {
				refN, known := refGeneral[stmt]
				if !known {
					t.Errorf("general log has statement the reference never ran: %q", stmt)
					continue
				}
				if n < refN {
					t.Errorf("general log lost arrivals of %q: %d < %d", stmt, n, refN)
				}
				extras += n - refN
			}
			for stmt := range refGeneral {
				if _, ok := general[stmt]; !ok {
					t.Errorf("general log missing %q", stmt)
				}
			}
			t.Logf("seed %d: %d network ops evaluated, %d duplicate general-log arrivals (retry residue)",
				seed, reg.TotalHits(), extras)
		})
	}
}

// TestReplyLossForcesReplayResidue pins the harness's key channel
// deterministically: a reset on the server's reply write loses an ack
// for a statement that DID execute, so the client's resend is answered
// from the dedup cache — leaving at least one duplicate general-log
// arrival while the state digest stays identical to the fault-free
// run. This is E14's residue channel reduced to its minimal case.
func TestReplyLossForcesReplayResidue(t *testing.T) {
	stmts := nettortureStmts()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	refAddr, refEng, refStop := tortureServer(t, nil)
	refRC, err := client.DialReliable(ctx, refAddr, client.RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, ctx, refRC, stmts)
	_ = refRC.Close()
	refDigest, _, refGeneral := snapshotArtifacts(t, refEng)
	refStop()

	reg := failpoint.New(7)
	// Write 1 is the !session handshake ack; writes 2 and 3 carry the
	// first two statements' replies. Resetting write 4 therefore loses
	// the ack of an executed statement.
	reg.Arm("netwrite:srv", failpoint.KindReset, 4)
	addr, eng, stop := tortureServer(t, reg)
	defer stop()
	rc, err := client.DialReliable(ctx, addr, client.RetryConfig{BackoffFloor: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	runWorkload(t, ctx, rc, stmts)

	digest, _, general := snapshotArtifacts(t, eng)
	if digest != refDigest {
		t.Errorf("digest diverged after reply-loss replay: %s vs %s", digest, refDigest)
	}
	extras := 0
	for stmt, n := range general {
		extras += n - refGeneral[stmt]
	}
	if extras < 1 {
		t.Errorf("reply loss left no duplicate general-log arrivals; the retry residue channel is gone")
	}
}

// TestUnarmedNetfaultWrapperIsTransparent pins the harness's own
// no-op: with zero rules armed, the wrapped listener must leave every
// forensic artifact identical to an unwrapped run — including the
// buffer pool's page-fetch trace, the most order-sensitive artifact
// the paper's experiments rely on.
func TestUnarmedNetfaultWrapperIsTransparent(t *testing.T) {
	stmts := nettortureStmts()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	run := func(reg *failpoint.Registry) (string, []storage.PageID) {
		addr, eng, stop := tortureServer(t, reg)
		defer stop()
		var trace []storage.PageID
		eng.BufferPool().SetTraceFunc(func(id storage.PageID) { trace = append(trace, id) })
		rc, err := client.DialReliable(ctx, addr, client.RetryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		runWorkload(t, ctx, rc, stmts)
		digest, _, _ := snapshotArtifacts(t, eng)
		return digest, trace
	}

	plainDigest, plainTrace := run(nil)
	wrappedDigest, wrappedTrace := run(failpoint.New(99)) // armed with nothing

	if plainDigest != wrappedDigest {
		t.Errorf("digest differs under unarmed wrapper: %s vs %s", wrappedDigest, plainDigest)
	}
	if len(plainTrace) != len(wrappedTrace) {
		t.Fatalf("fetch trace length differs: %d vs %d", len(wrappedTrace), len(plainTrace))
	}
	for i := range plainTrace {
		if plainTrace[i] != wrappedTrace[i] {
			t.Fatalf("fetch trace diverges at %d: %v vs %v", i, wrappedTrace[i], plainTrace[i])
		}
	}
}

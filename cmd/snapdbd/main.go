// Command snapdbd runs the snapdb engine as a TCP server.
//
// Usage:
//
//	snapdbd [-addr 127.0.0.1:7001] [-harden] [-idle-timeout 5m] [-datadir DIR]
//	        [-stmt-timeout 0] [-max-concurrent 0] [-drain-timeout 10s] [-scan-workers 0]
//	        [-encrypt [-fresh-iv]]
//
// Clients speak the line protocol of internal/server; the simplest
// client is:
//
//	printf "CREATE TABLE t (id INT PRIMARY KEY)\n" | nc 127.0.0.1 7001
//
// -stmt-timeout bounds each statement's execution (snapdb's
// max_execution_time; 0 disables). -max-concurrent caps concurrently
// executing statements; excess statements draw a retryable
// "overloaded" ERR instead of queueing (0 = unlimited). On SIGINT or
// SIGTERM the server drains gracefully — in-flight and pipelined
// statements finish and flush — for at most -drain-timeout before
// remaining connections are closed hard.
//
// -harden applies the mitigate package's hardened configuration
// (secure heap deletion, no performance_schema, scrubbed processlist,
// no query cache or query logs).
//
// -datadir makes the engine durable: logs, checkpoints, and the
// buffer-pool dump persist under DIR, and boot runs crash recovery
// over whatever a previous process left there. Without it the engine
// is memory-only, as before.
//
// -encrypt encrypts the datadir at rest with the 32-byte key in
// SNAPDB_ENCRYPTION_KEY (64 hex chars), deterministic per-page tweaks
// by default; -fresh-iv re-randomizes every page write instead, which
// closes the snapshot page-diff channel E17 demonstrates at the cost
// of write amplification and an IV sidecar per file.
//
// SNAPDB_FAILPOINTS injects deterministic faults into the durable
// file layer, for crash testing a live server. The format is
// "point=kind[@hit],..." — for example
//
//	SNAPDB_FAILPOINTS='write:ib_logfile_redo=crash@120' snapdbd -datadir /tmp/d
//
// kills the process's storage at the 120th redo write; kinds are err,
// torn, dropsync, bitflip, crash. SNAPDB_FAILPOINT_SEED seeds the
// injector's randomness (torn lengths, flipped bits).
//
// SNAPDB_NETFAULTS does the same for the network layer: the same
// "point=kind[@hit]" specs armed against the listener's connections
// (points netread:srv, netwrite:srv, accept:srv; kinds reset,
// partial, latency, blackhole), sharing SNAPDB_FAILPOINT_SEED.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"snapdb/internal/engine"
	"snapdb/internal/failpoint"
	"snapdb/internal/mitigate"
	"snapdb/internal/netfault"
	"snapdb/internal/server"
	"snapdb/internal/vfs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7001", "listen address")
	harden := flag.Bool("harden", false, "apply the hardened configuration")
	datadir := flag.String("datadir", "", "persist to this directory and recover from it at boot (empty = memory-only)")
	idle := flag.Duration("idle-timeout", server.DefaultIdleTimeout,
		"close connections idle longer than this (0 or negative disables)")
	stmtTimeout := flag.Duration("stmt-timeout", 0,
		"abort statements running longer than this (0 disables; snapdb's max_execution_time)")
	maxConcurrent := flag.Int("max-concurrent", 0,
		"cap concurrently executing statements; excess get a retryable overloaded ERR (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"how long a SIGTERM/SIGINT drain waits for in-flight work before closing hard")
	scanWorkers := flag.Int("scan-workers", 0,
		"split large clustered scans across this many worker goroutines with an ordered merge (0 or 1 = serial)")
	encrypt := flag.Bool("encrypt", false,
		"encrypt the datadir at rest (key from SNAPDB_ENCRYPTION_KEY, 64 hex chars; requires -datadir)")
	freshIV := flag.Bool("fresh-iv", false,
		"with -encrypt, re-randomize every page write instead of deterministic per-page tweaks (mitigates snapshot page-diffing; see E17)")
	flag.Parse()

	cfg := engine.Defaults()
	if *harden {
		cfg = mitigate.Harden(cfg, true)
	}
	cfg.StatementTimeout = *stmtTimeout
	cfg.MaxScanWorkers = *scanWorkers
	if *encrypt {
		if *datadir == "" {
			log.Fatal("snapdbd: -encrypt requires -datadir")
		}
		key, set, err := vfs.EncryptionKeyFromEnv()
		if err != nil {
			log.Fatalf("snapdbd: %v", err)
		}
		if !set {
			log.Fatalf("snapdbd: -encrypt set but %s is empty", vfs.EncryptionKeyEnv)
		}
		cfg.EncryptAtRest = true
		cfg.EncryptionKey = key
		cfg.DeterministicPages = !*freshIV
	} else if *freshIV {
		log.Fatal("snapdbd: -fresh-iv requires -encrypt")
	}
	e, err := openEngine(cfg, *datadir)
	if err != nil {
		log.Fatalf("snapdbd: %v", err)
	}
	srv := server.New(e)
	if *idle <= 0 {
		srv.IdleTimeout = -1
	} else {
		srv.IdleTimeout = *idle
	}
	srv.MaxConcurrent = *maxConcurrent

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("snapdbd: listen: %v", err)
	}
	if wrapped, err := wrapNetFaults(ln); err != nil {
		log.Fatalf("snapdbd: %v", err)
	} else {
		ln = wrapped
	}
	fmt.Printf("snapdbd listening on %s (harden=%v)\n", ln.Addr(), *harden)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	shuttingDown := make(chan struct{})
	drained := make(chan error, 1)
	go func() {
		s := <-sig
		// Serve returns the moment the listener closes, while Shutdown
		// is still draining handlers — main must wait on drained, not
		// exit with Serve.
		close(shuttingDown)
		fmt.Printf("snapdbd: %v: draining (timeout %v)\n", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("snapdbd: %v", err)
	}
	select {
	case <-shuttingDown:
		if err := <-drained; err != nil {
			log.Fatalf("snapdbd: drain: %v", err)
		}
		fmt.Println("snapdbd: drained cleanly")
	default: // Serve ended without a signal (Close elsewhere)
	}
}

// wrapNetFaults arms SNAPDB_NETFAULTS against ln, if set.
func wrapNetFaults(ln net.Listener) (net.Listener, error) {
	spec := os.Getenv("SNAPDB_NETFAULTS")
	if spec == "" {
		return ln, nil
	}
	var seed int64 = 1
	if s := os.Getenv("SNAPDB_FAILPOINT_SEED"); s != "" {
		var err error
		seed, err = strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("SNAPDB_FAILPOINT_SEED: %w", err)
		}
	}
	reg := failpoint.New(seed)
	if err := reg.ArmSpec(spec); err != nil {
		return nil, fmt.Errorf("SNAPDB_NETFAULTS: %w", err)
	}
	fmt.Printf("snapdbd: network fault injection armed: %s (seed %d)\n", spec, seed)
	return netfault.WrapListener(ln, netfault.Config{Reg: reg, Label: "srv"}), nil
}

// openEngine builds the engine: memory-only without a datadir, or
// recovered from (and persisting to) the datadir, optionally wrapped
// in the SNAPDB_FAILPOINTS fault injector.
func openEngine(cfg engine.Config, datadir string) (*engine.Engine, error) {
	if datadir == "" {
		return engine.New(cfg)
	}
	if err := os.MkdirAll(datadir, 0o755); err != nil {
		return nil, err
	}
	var fs vfs.FS
	osfs, err := vfs.NewOSFS(datadir)
	if err != nil {
		return nil, err
	}
	fs = osfs
	if spec := os.Getenv("SNAPDB_FAILPOINTS"); spec != "" {
		var seed int64 = 1
		if s := os.Getenv("SNAPDB_FAILPOINT_SEED"); s != "" {
			seed, err = strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("SNAPDB_FAILPOINT_SEED: %w", err)
			}
		}
		reg := failpoint.New(seed)
		if err := reg.ArmSpec(spec); err != nil {
			return nil, fmt.Errorf("SNAPDB_FAILPOINTS: %w", err)
		}
		fs = vfs.NewFaultFS(fs, reg)
		fmt.Printf("snapdbd: fault injection armed: %s (seed %d)\n", spec, seed)
	}
	e, rep, err := engine.Recover(fs, cfg)
	if err != nil {
		return nil, fmt.Errorf("recovering %s: %w", datadir, err)
	}
	fmt.Printf("snapdbd: recovered %s: checkpoint=%v tables=%d redo=%d applied=%d rolled_back=%d",
		datadir, rep.CheckpointFound, rep.Tables, rep.RedoRecords, rep.RecordsApplied, rep.TxnsRolledBack)
	if rep.RedoTruncated != nil {
		fmt.Printf(" redo_truncated_at=%d (%s)", rep.RedoTruncated.Offset, rep.RedoTruncated.Reason)
	}
	if rep.BinlogTruncated != nil {
		fmt.Printf(" binlog_truncated_at=%d (%s)", rep.BinlogTruncated.Offset, rep.BinlogTruncated.Reason)
	}
	fmt.Println()
	return e, nil
}

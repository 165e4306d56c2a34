// Command snapdb is the interactive demonstration of the paper's
// thesis: it stands up the DBMS, runs an encrypted-database workload
// on top, takes a snapshot under a chosen attack model, and prints the
// leakage report.
//
// Usage:
//
//	snapdb [-attack disk|sqli|vm|full] [-edb cryptdb|seabed|arx|none]
//
// The -edb flag picks which encrypted database runs the workload; the
// -attack flag picks the snapshot the "attacker" takes afterwards.
package main

import (
	"flag"
	"fmt"
	"os"

	"snapdb/internal/core"
	"snapdb/internal/crypto/prim"
	"snapdb/internal/edb/arxx"
	"snapdb/internal/edb/cryptdbx"
	"snapdb/internal/edb/seabedx"
	"snapdb/internal/engine"
	"snapdb/internal/mitigate"
	"snapdb/internal/snapshot"
	"snapdb/internal/sqlparse"
	"snapdb/internal/vfs"
)

func main() {
	attack := flag.String("attack", "full", "snapshot attack: disk, sqli, vm, or full")
	edb := flag.String("edb", "cryptdb", "encrypted database layer: cryptdb, seabed, arx, or none")
	harden := flag.Bool("harden", false, "apply the mitigate package's hardened configuration")
	dump := flag.String("dump", "", "also write the stolen disk to this directory, as the data directory a snapdbd would hold (analyze with cmd/forensic)")
	flag.Parse()
	if err := realMain(*attack, *edb, *harden, *dump); err != nil {
		fmt.Fprintln(os.Stderr, "snapdb:", err)
		os.Exit(1)
	}
}

func parseAttack(s string) (snapshot.AttackType, error) {
	switch s {
	case "disk":
		return snapshot.DiskTheft, nil
	case "sqli":
		return snapshot.SQLInjection, nil
	case "vm":
		return snapshot.VMSnapshotLeak, nil
	case "full":
		return snapshot.FullCompromise, nil
	default:
		return 0, fmt.Errorf("unknown attack %q (want disk, sqli, vm, full)", s)
	}
}

func realMain(attackName, edbName string, harden bool, dumpDir string) error {
	attack, err := parseAttack(attackName)
	if err != nil {
		return err
	}
	cfg := engine.Defaults()
	if harden {
		cfg = mitigate.Harden(cfg, true)
	}
	e, err := engine.New(cfg)
	if err != nil {
		return err
	}
	root := prim.TestKey("snapdb-demo")

	switch edbName {
	case "cryptdb":
		if err := cryptdbWorkload(e, root); err != nil {
			return err
		}
	case "seabed":
		if err := seabedWorkload(e, root); err != nil {
			return err
		}
	case "arx":
		if err := arxWorkload(e, root); err != nil {
			return err
		}
	case "none":
		if err := plainWorkload(e); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown edb %q (want cryptdb, seabed, arx, none)", edbName)
	}

	fmt.Printf("workload: %s encrypted database; attack: %s\n\n", edbName, attack)
	snap := snapshot.Capture(e, attack)
	if dumpDir != "" {
		fs, err := vfs.NewOSFS(dumpDir)
		if err != nil {
			return err
		}
		if err := snap.WriteDirFS(fs); err != nil {
			return err
		}
		fmt.Printf("stolen-disk files written to %s (analyze with: go run ./cmd/forensic -dir %s; it is a data directory, so snapdbd -datadir %s boots it)\n\n", dumpDir, dumpDir, dumpDir)
	}
	rep, err := core.Analyze(snap)
	if err != nil {
		return err
	}
	rep.Fprint(os.Stdout)
	return nil
}

func cryptdbWorkload(e *engine.Engine, root prim.Key) error {
	proxy := cryptdbx.New(e, root)
	specs := []cryptdbx.ColumnSpec{
		{Name: "id", Type: sqlparse.TypeInt, Mode: cryptdbx.OPE},
		{Name: "name", Type: sqlparse.TypeText, Mode: cryptdbx.DET},
		{Name: "age", Type: sqlparse.TypeInt, Mode: cryptdbx.OPE},
		{Name: "notes", Type: sqlparse.TypeText, Mode: cryptdbx.SEARCH},
	}
	if err := proxy.CreateTable("patients", specs); err != nil {
		return err
	}
	rows := [][]sqlparse.Value{
		{sqlparse.IntValue(1), sqlparse.StrValue("alice"), sqlparse.IntValue(34), sqlparse.StrValue("fever cough")},
		{sqlparse.IntValue(2), sqlparse.StrValue("bob"), sqlparse.IntValue(52), sqlparse.StrValue("insulin daily")},
		{sqlparse.IntValue(3), sqlparse.StrValue("carol"), sqlparse.IntValue(41), sqlparse.StrValue("antiretroviral daily")},
	}
	for _, r := range rows {
		if err := proxy.Insert("patients", r); err != nil {
			return err
		}
	}
	if _, err := proxy.Select("patients", []cryptdbx.Pred{{Column: "age", Op: sqlparse.OpGe, Arg: sqlparse.IntValue(40)}}); err != nil {
		return err
	}
	if _, err := proxy.Search("patients", "notes", "daily"); err != nil {
		return err
	}
	return nil
}

func seabedWorkload(e *engine.Engine, root prim.Key) error {
	tbl, err := seabedx.NewTable(e, root, "facts", "state", []string{"CA", "TX", "NY"}, false)
	if err != nil {
		return err
	}
	for _, v := range []string{"CA", "CA", "TX", "NY", "CA", "TX"} {
		if err := tbl.Insert(v); err != nil {
			return err
		}
	}
	for _, v := range []string{"CA", "CA", "CA", "TX", "NY"} {
		if _, err := tbl.CountWhere(v); err != nil {
			return err
		}
	}
	return nil
}

func arxWorkload(e *engine.Engine, root prim.Key) error {
	ix, err := arxx.New(e, root, "arx_idx")
	if err != nil {
		return err
	}
	for _, v := range []uint32{50, 10, 90, 30, 70, 20, 60} {
		if err := ix.Insert(v); err != nil {
			return err
		}
	}
	for _, q := range [][2]uint32{{20, 65}, {0, 30}, {55, 95}} {
		if _, err := ix.RangeQuery(q[0], q[1]); err != nil {
			return err
		}
	}
	return nil
}

func plainWorkload(e *engine.Engine) error {
	s := e.Connect("app")
	stmts := []string{
		"CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)",
		"INSERT INTO accounts (id, owner, balance) VALUES (1, 'alice', 100)",
		"INSERT INTO accounts (id, owner, balance) VALUES (2, 'bob', 250)",
		"UPDATE accounts SET balance = 175 WHERE id = 2",
		"SELECT owner FROM accounts WHERE balance >= 150",
	}
	for _, q := range stmts {
		if _, err := s.Execute(q); err != nil {
			return err
		}
	}
	return nil
}

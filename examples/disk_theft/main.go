// Disk theft against a CryptDB-style encrypted database: the data
// files hold only ciphertext, yet the stolen disk's transaction logs
// replay every write — with timestamps — and the WAL retains weeks of
// history (§3 of the paper).
//
//	go run ./examples/disk_theft
package main

import (
	"fmt"
	"log"

	"snapdb/internal/core"
	"snapdb/internal/crypto/prim"
	"snapdb/internal/edb/cryptdbx"
	"snapdb/internal/engine"
	"snapdb/internal/forensics"
	"snapdb/internal/snapshot"
	"snapdb/internal/sqlparse"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		return err
	}
	now := int64(1_700_000_000)
	e.Clock = func() int64 { return now }

	// The victim deploys an encrypted database: the engine only ever
	// sees DET/OPE/RND ciphertexts.
	proxy := cryptdbx.New(e, prim.TestKey("disk-theft-demo"))
	specs := []cryptdbx.ColumnSpec{
		{Name: "id", Type: sqlparse.TypeInt, Mode: cryptdbx.OPE},
		{Name: "patient", Type: sqlparse.TypeText, Mode: cryptdbx.DET},
		{Name: "diagnosis", Type: sqlparse.TypeText, Mode: cryptdbx.RND},
	}
	if err := proxy.CreateTable("records", specs); err != nil {
		return err
	}
	admissions := []struct {
		id        int64
		patient   string
		diagnosis string
	}{
		{1, "alice", "influenza"},
		{2, "bob", "diabetes"},
		{3, "carol", "hypertension"},
	}
	for _, a := range admissions {
		now += 3600 // one admission per hour
		row := []sqlparse.Value{
			sqlparse.IntValue(a.id), sqlparse.StrValue(a.patient), sqlparse.StrValue(a.diagnosis),
		}
		if err := proxy.Insert("records", row); err != nil {
			return err
		}
	}

	// --- The attack: steal the disk. Nothing volatile survives. ---
	snap := snapshot.Capture(e, snapshot.DiskTheft)
	fmt.Println("attacker holds: tablespace, redo/undo logs, binlog, query logs")

	// 1. The binlog gives full write statements with timestamps.
	events, err := forensics.CorrelatableEvents(snap.Disk.Binlog)
	if err != nil {
		return err
	}
	fmt.Printf("\nbinlog: %d timestamped write transactions\n", len(events))
	for _, ev := range events {
		fmt.Printf("  t=%d  %.90s\n", ev.Timestamp, ev.Statement)
	}

	// 2. The WAL independently reconstructs the same writes byte by
	// byte — and keeps doing so long after the binlog is purged.
	rep, err := core.Analyze(snap)
	if err != nil {
		return err
	}
	fmt.Printf("\nWAL: %d writes reconstructed and dated via LSN correlation\n", len(rep.Writes))
	for _, w := range rep.Writes {
		fmt.Printf("  t≈%d  %.90s\n", w.Timestamp, w.SQL)
	}

	fmt.Println("\nconclusion: ciphertext-only storage did not hide the write history —")
	fmt.Println("the insertion times and per-row update patterns are in the clear, and")
	fmt.Println("the DET/OPE ciphertexts in the reconstructed statements feed directly")
	fmt.Println("into frequency and ordering attacks (see examples/sql_injection).")
	return nil
}

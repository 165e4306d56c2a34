// Quickstart: stand up the snapdb engine, run a few statements, take a
// full-compromise snapshot, and print the leakage report.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"snapdb/internal/core"
	"snapdb/internal/engine"
	"snapdb/internal/snapshot"
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
	sess := e.Connect("quickstart")
	defer sess.Close()

	for _, q := range []string{
		"CREATE TABLE users (id INT PRIMARY KEY, email TEXT, plan TEXT)",
		"INSERT INTO users (id, email, plan) VALUES (1, 'alice@example.com', 'pro')",
		"INSERT INTO users (id, email, plan) VALUES (2, 'bob@example.com', 'free')",
		"UPDATE users SET plan = 'pro' WHERE id = 2",
		"SELECT email FROM users WHERE plan = 'pro'",
	} {
		res, err := sess.Execute(q)
		if err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
		fmt.Printf("executed: %-70s rows=%d affected=%d\n", q, len(res.Rows), res.RowsAffected)
	}

	// The paper's point, in three lines: a single static snapshot...
	snap := snapshot.Capture(e, snapshot.FullCompromise)
	report, err := core.Analyze(snap)
	if err != nil {
		return err
	}
	// ...contains the history of everything we just did.
	fmt.Printf("\nsnapshot (%s) reveals:\n", snap.Attack)
	fmt.Printf("  %d past writes (all reconstructable as SQL, all timestamped)\n", report.PastWrites)
	fmt.Printf("  %d past reads\n", report.PastReads)
	fmt.Printf("  %d query-type histogram rows\n", report.DigestRows)
	for _, f := range report.Findings {
		fmt.Printf("  channel %-18s %3d artifacts (%s)\n", f.Channel, f.Count, f.PaperRef)
	}
	return nil
}

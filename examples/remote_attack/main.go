// Remote deployment, same conclusion: the application talks to snapdb
// over TCP like any production service, an encrypted workload runs
// through it — and a smash-and-grab compromise of the *server* machine
// still yields the full query history, because every artifact the
// paper describes lives server-side.
//
//	go run ./examples/remote_attack
package main

import (
	"fmt"
	"log"
	"net"

	"snapdb/internal/client"
	"snapdb/internal/core"
	"snapdb/internal/engine"
	"snapdb/internal/server"
	"snapdb/internal/snapshot"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The server side: a snapdb instance listening on localhost.
	e, err := engine.New(engine.Defaults())
	if err != nil {
		return err
	}
	srv := server.New(e)
	ready := make(chan net.Addr, 1)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()
	fmt.Printf("snapdbd listening on %s\n", addr)

	// The application side: a remote client doing its day job.
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	app := []string{
		"CREATE TABLE sessions (id INT PRIMARY KEY, user_email TEXT, token TEXT)",
		"INSERT INTO sessions (id, user_email, token) VALUES (1, 'ceo@corp.example', 'sess-8f2a91c4')",
		"INSERT INTO sessions (id, user_email, token) VALUES (2, 'cfo@corp.example', 'sess-1b7d03aa')",
		"BEGIN",
		"UPDATE sessions SET token = 'sess-rotated-1' WHERE id = 1",
		"COMMIT",
		"SELECT token FROM sessions WHERE user_email = 'ceo@corp.example'",
	}
	for _, q := range app {
		if _, err := c.Execute(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	if err := c.Close(); err != nil {
		return err
	}
	fmt.Printf("application executed %d statements over TCP\n\n", len(app))

	// The attack: smash-and-grab on the server host.
	rep, err := core.Analyze(snapshot.Capture(e, snapshot.FullCompromise))
	if err != nil {
		return err
	}
	fmt.Println("smash-and-grab compromise of the server host recovers:")
	fmt.Printf("  %d write statements (WAL), %d timestamped (binlog)\n", rep.PastWrites, rep.TimedWrites)
	fmt.Printf("  %d read statements across channels\n", rep.PastReads)
	if f, ok := rep.Finding("heap"); ok {
		fmt.Println("  heap residue samples:")
		for _, s := range f.Samples {
			fmt.Printf("    | %.88s\n", s)
		}
	}
	fmt.Println("\nnothing about the network hop changed the outcome: the statement")
	fmt.Println("text, tokens, and history live on the DBMS host the attacker took.")

	if err := srv.Close(); err != nil {
		return err
	}
	return <-serveDone
}

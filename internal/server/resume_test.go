package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"snapdb/internal/client"
	"snapdb/internal/engine"
	"snapdb/internal/server"
)

// startServerWith runs a customized server on an ephemeral port.
func startServerWith(t testing.TB, mutate func(*server.Server)) (string, *server.Server, *engine.Engine, func()) {
	t.Helper()
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(e)
	if mutate != nil {
		mutate(srv)
	}
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()
	return addr, srv, e, func() {
		_ = srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// rawSession opens a raw TCP connection with line-level send/expect
// helpers, for driving the control protocol directly.
type rawSession struct {
	t *testing.T
	c net.Conn
	r *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawSession {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return &rawSession{t: t, c: c, r: bufio.NewReader(c)}
}

func (s *rawSession) send(line string) {
	s.t.Helper()
	if _, err := fmt.Fprintf(s.c, "%s\n", line); err != nil {
		s.t.Fatalf("send %q: %v", line, err)
	}
}

func (s *rawSession) line() string {
	s.t.Helper()
	_ = s.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := s.r.ReadString('\n')
	if err != nil {
		s.t.Fatalf("read line: %v", err)
	}
	return strings.TrimRight(line, "\r\n")
}

// expect reads one line and asserts its prefix, returning the rest.
func (s *rawSession) expect(prefix string) string {
	s.t.Helper()
	line := s.line()
	if !strings.HasPrefix(line, prefix) {
		s.t.Fatalf("got %q, want prefix %q", line, prefix)
	}
	return strings.TrimPrefix(line, prefix)
}

func TestControlHelloAndStampedStatements(t *testing.T) {
	addr, _, e, stop := startServerWith(t, nil)
	defer stop()
	s := dialRaw(t, addr)
	s.send("!hello")
	token := s.expect("!session ")
	if token == "" {
		t.Fatal("empty session token")
	}

	s.send("!q 1 CREATE TABLE r (id INT PRIMARY KEY, v INT)")
	s.expect("OK ")
	s.send("!q 2 INSERT INTO r (id, v) VALUES (1, 10)")
	s.expect("OK ")

	// Replay of an executed statement: answered from cache, executed
	// exactly once (still one row).
	s.send("!q 2 INSERT INTO r (id, v) VALUES (1, 10)")
	s.expect("OK ")
	s.send("!q 3 SELECT COUNT(*) FROM r")
	s.expect("OK 1")
	s.expect("COLS ")
	if got := s.line(); got != "i:1" {
		t.Fatalf("replayed INSERT applied twice: COUNT = %q", got)
	}
	_ = e
}

func TestControlReplayReturnsCachedError(t *testing.T) {
	addr, _, _, stop := startServerWith(t, nil)
	defer stop()
	s := dialRaw(t, addr)
	s.send("!hello")
	s.expect("!session ")

	s.send("!q 1 NOT REAL SQL")
	first := s.line()
	if !strings.HasPrefix(first, "ERR ") {
		t.Fatalf("want ERR, got %q", first)
	}
	// The failed statement's ERR is cached too: a retry must observe
	// the same outcome, not a second parse attempt logged as new.
	s.send("!q 1 NOT REAL SQL")
	if second := s.line(); second != first {
		t.Fatalf("replayed ERR differs: %q vs %q", second, first)
	}
}

func TestControlSequenceGapAndWindow(t *testing.T) {
	addr, _, _, stop := startServerWith(t, func(srv *server.Server) { srv.DedupWindow = 2 })
	defer stop()
	s := dialRaw(t, addr)
	s.send("!hello")
	s.expect("!session ")

	s.send("!q 5 SELECT 1")
	if got := s.expect("ERR "); !strings.Contains(got, "sequence gap") {
		t.Fatalf("gap reply = %q", got)
	}

	s.send("!q 1 CREATE TABLE w (id INT PRIMARY KEY)")
	s.expect("OK ")
	s.send("!q 2 INSERT INTO w (id) VALUES (1)")
	s.expect("OK ")
	s.send("!q 3 INSERT INTO w (id) VALUES (2)")
	s.expect("OK ")
	// seq 1 has fallen out of the 2-entry window.
	s.send("!q 1 CREATE TABLE w (id INT PRIMARY KEY)")
	if got := s.expect("ERR "); !strings.Contains(got, "replay window exceeded") {
		t.Fatalf("window reply = %q", got)
	}
}

func TestResumeAcrossReconnect(t *testing.T) {
	addr, srv, _, stop := startServerWith(t, nil)
	defer stop()

	s1 := dialRaw(t, addr)
	s1.send("!hello")
	token := s1.expect("!session ")
	s1.send("!q 1 CREATE TABLE rc (id INT PRIMARY KEY, v TEXT)")
	s1.expect("OK ")
	s1.send("!q 2 INSERT INTO rc (id, v) VALUES (1, 'sekrit')")
	s1.expect("OK ")
	_ = s1.c.Close() // the network "fails"

	s2 := dialRaw(t, addr)
	s2.send("!resume " + token)
	if rest := s2.expect("!ok "); rest == "" {
		t.Fatal("resume ack missing lastseq")
	}
	// Replay the tail the client never saw acked, then continue.
	s2.send("!q 2 INSERT INTO rc (id, v) VALUES (1, 'sekrit')")
	s2.expect("OK ")
	s2.send("!q 3 SELECT COUNT(*) FROM rc")
	s2.expect("OK 1")
	s2.expect("COLS ")
	if got := s2.line(); got != "i:1" {
		t.Fatalf("resumed replay double-applied: COUNT = %q", got)
	}

	if n := srv.ResumeSessionCount(); n != 1 {
		t.Fatalf("resume sessions = %d, want 1", n)
	}
	// The dedup cache retains rendered replies — including result rows
	// — long after the client is done with them (E14's point).
	found := false
	for _, reply := range srv.RetainedReplies() {
		if strings.Contains(string(reply), "OK ") {
			found = true
		}
	}
	if !found {
		t.Fatal("no retained replies in dedup cache")
	}

	s2.send("!resume " + token)
	s2.expect("!err ") // already established on this conn
}

func TestResumeUnknownTokenRejected(t *testing.T) {
	addr, _, _, stop := startServerWith(t, nil)
	defer stop()
	s := dialRaw(t, addr)
	s.send("!resume deadbeef")
	if msg := s.expect("!err "); !strings.Contains(msg, "unknown or expired") {
		t.Fatalf("reject = %q", msg)
	}
	// The connection survives the failed resume for plain use.
	s.send("SELECT 1")
	s.expect("ERR ") // unknown table/parse error, but a reply nonetheless
}

func TestOverloadRejectionIsTypedAndRetryable(t *testing.T) {
	// MaxConcurrent=1, and connection A's statement is held inside its
	// admitted slot — parked in the engine's statement clock, which is
	// read on the statement goroutine after admission — until B has
	// drawn its rejection: while A is in flight, B must get the
	// retryable overloaded ERR, deterministically.
	addr, _, e, stop := startServerWith(t, func(srv *server.Server) { srv.MaxConcurrent = 1 })
	defer stop()
	var hold atomic.Bool
	held, resume := make(chan struct{}), make(chan struct{})
	e.ExecClock = func() time.Time {
		if hold.CompareAndSwap(true, false) {
			close(held)
			<-resume
		}
		return time.Now()
	}

	a, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := a.Execute("CREATE TABLE ol (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}

	hold.Store(true)
	inFlight := make(chan error, 1)
	go func() {
		_, err := a.Execute("SELECT COUNT(*) FROM ol")
		inFlight <- err
	}()
	<-held // a's statement owns the only slot
	_, err = b.Execute("SELECT COUNT(*) FROM ol")
	close(resume) // whatever b drew, a may finish: no assertion below leaves it parked
	if err == nil {
		t.Fatal("second concurrent statement was admitted past MaxConcurrent=1")
	}
	if !client.IsRetryable(err) {
		t.Fatalf("overload rejection not retryable: %v", err)
	}
	if !strings.Contains(err.Error(), "max 1") {
		t.Fatalf("rejection does not name the cap: %v", err)
	}
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight statement failed: %v", err)
	}
	// The slot is free again: b retries and succeeds.
	if _, err := b.Execute("SELECT COUNT(*) FROM ol"); err != nil {
		t.Fatalf("retry after overload failed: %v", err)
	}
}

func TestLongLineDrawsErrAndKeepsSession(t *testing.T) {
	addr, _, _, stop := startServerWith(t, nil)
	defer stop()
	s := dialRaw(t, addr)

	// An oversized statement line (> 1 MiB): ERR reply, session lives.
	huge := strings.Repeat("x", (1<<20)+100)
	s.send(huge)
	if msg := s.expect("ERR "); !strings.Contains(msg, "statement line too long") {
		t.Fatalf("long-line reply = %q", msg)
	}
	s.send("CREATE TABLE ll (id INT PRIMARY KEY)")
	s.expect("OK ")
	s.send("INSERT INTO ll (id) VALUES (7)")
	s.expect("OK ")
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	addr, srv, _, stop := startServerWith(t, nil)
	defer stop()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute("CREATE TABLE dr (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}

	// Pipeline a burst, then shut down while replies may be in flight:
	// every statement must still be answered before the server closes.
	stmts := make([]string, 0, 50)
	for i := 0; i < 50; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO dr (id, v) VALUES (%d, %d)", i, i))
	}
	type batchOut struct {
		res []client.BatchResult
		err error
	}
	got := make(chan batchOut, 1)
	go func() {
		res, err := c.ExecuteBatch(stmts)
		got <- batchOut{res, err}
	}()
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	out := <-got
	if out.err != nil {
		t.Fatalf("batch failed across graceful shutdown: %v", out.err)
	}
	for i, br := range out.res {
		if br.Err != nil {
			t.Fatalf("statement %d errored during drain: %v", i, br.Err)
		}
	}

	// New connections are refused after shutdown.
	if _, err := client.Dial(addr); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

func TestShutdownInterruptsIdleConnections(t *testing.T) {
	addr, srv, _, stop := startServerWith(t, nil)
	defer stop()
	s := dialRaw(t, addr)
	s.send("SELECT 1")
	s.expect("ERR ") // no table; just proves the conn is live and idle now

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown waited %v on an idle connection", elapsed)
	}
	// The idle peer observes EOF, not a stall.
	_ = s.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := s.r.ReadByte(); err == nil {
		t.Fatal("idle conn still open after shutdown")
	}
}

func TestReliableConnRidesAcrossServerFacingClose(t *testing.T) {
	addr, _, _, stop := startServerWith(t, nil)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rc, err := client.DialReliable(ctx, addr, client.RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if _, err := rc.Execute(ctx, "CREATE TABLE rr (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	stmts := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO rr (id, v) VALUES (%d, %d)", i, i))
	}
	res, err := rc.ExecuteBatch(ctx, stmts)
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range res {
		if br.Err != nil {
			t.Fatalf("stmt %d: %v", i, br.Err)
		}
	}
	out, err := rc.Execute(ctx, "SELECT COUNT(*) FROM rr")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0].Int != 100 {
		t.Fatalf("COUNT = %d, want 100", out.Rows[0][0].Int)
	}

	// A statement-level error is a result, not a retry trigger.
	if _, err := rc.Execute(ctx, "INSERT INTO rr (id, v) VALUES (0, 0)"); err == nil {
		t.Fatal("duplicate-key insert succeeded")
	} else if errors.Is(err, client.ErrSessionExpired) {
		t.Fatalf("statement error misclassified: %v", err)
	}
}

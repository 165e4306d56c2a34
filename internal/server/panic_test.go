package server

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"testing"

	"snapdb/internal/engine"
)

// TestRecoveredPassthrough: a statement that does not panic runs
// through recovered untouched — its result and its own error, plain
// SQL errors included, reach the caller unwrapped.
func TestRecoveredPassthrough(t *testing.T) {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	sess := e.Connect("panic-test")
	defer sess.Close()
	execute := func(line string) (res *engine.Result, err error) {
		if perr := recovered(line, nil, func() { res, err = sess.Execute(line) }); perr != nil {
			return nil, perr
		}
		return res, err
	}

	res, err := execute("CREATE TABLE pt (id INT PRIMARY KEY, v TEXT)")
	if err != nil || res == nil {
		t.Fatalf("passthrough: res=%v err=%v", res, err)
	}
	if _, err := execute("NOT REAL SQL"); err == nil ||
		strings.Contains(err.Error(), "internal error") {
		t.Fatalf("plain error should pass through unrecovered, got %v", err)
	}
}

func TestRecoveredRecoversPanic(t *testing.T) {
	// A nil session panics inside Execute with a nil dereference; the
	// handler must get an error line back, not die — and the error log
	// must capture the panic with its stack, because the client-visible
	// message alone is useless for diagnosing the crash.
	var logBuf strings.Builder
	logf := func(format string, args ...any) { fmt.Fprintf(&logBuf, format, args...) }
	var sess *engine.Session
	var res *engine.Result
	err := recovered("SELECT 1", logf, func() { res, _ = sess.Execute("SELECT 1") })
	if res != nil {
		t.Error("panicking statement returned a result")
	}
	if err == nil || !strings.Contains(err.Error(), "internal error") {
		t.Errorf("recovered error = %v", err)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "panic executing") || !strings.Contains(logged, "goroutine") {
		t.Errorf("error log missing panic stack: %q", logged)
	}
	if !strings.Contains(logged, "SELECT 1") {
		t.Errorf("error log missing offending statement: %q", logged)
	}
}

// TestSessionSurvivesPanicOverWire drives the recovery path end to end
// over a real connection: a statement that panics mid-execution draws
// an ERR reply, the panic and stack land in the server's error log,
// and the same session keeps executing afterwards.
func TestSessionSurvivesPanicOverWire(t *testing.T) {
	const poison = "SELECT 'poisoned'"
	panicHook = func(line string) {
		if line == poison {
			panic("injected test panic")
		}
	}
	defer func() { panicHook = nil }()

	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	srv := New(e)
	srv.ErrorLog = log.New(&logBuf, "", 0)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()
	defer func() {
		_ = srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(line string) string {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatalf("send: %v", err)
		}
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read reply to %q: %v", line, err)
		}
		return strings.TrimRight(reply, "\n")
	}

	if got := send(poison); !strings.Contains(got, "internal error") {
		t.Fatalf("poisoned statement reply = %q", got)
	}
	if got := send("CREATE TABLE sp (id INT PRIMARY KEY)"); !strings.HasPrefix(got, "OK ") {
		t.Fatalf("session did not survive the panic: %q", got)
	}
	if logged := logBuf.String(); !strings.Contains(logged, "goroutine") || !strings.Contains(logged, poison) {
		t.Errorf("error log missing stack or statement: %q", logged)
	}
}

// syncBuffer is a mutex-guarded strings.Builder: the handler goroutine
// writes the log while the test goroutine reads it.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

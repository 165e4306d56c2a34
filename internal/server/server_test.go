package server_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"snapdb/internal/client"
	"snapdb/internal/engine"
	"snapdb/internal/server"
	"snapdb/internal/sqlparse"
	"snapdb/internal/wire"
)

// startServer runs a server on an ephemeral port and returns its
// address, the engine, and a shutdown func.
func startServer(t testing.TB) (string, *engine.Engine, func()) {
	t.Helper()
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(e)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()
	return addr, e, func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

func TestExecuteOverTCP(t *testing.T) {
	addr, _, stop := startServer(t)
	defer stop()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute("INSERT INTO t (id, name) VALUES (1, 'alice'), (2, 'bob')")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
	res, err = c.Execute("SELECT id, name FROM t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 2 || res.Rows[0][1].Str != "bob" {
		t.Errorf("rows = %v", res.Rows)
	}
	if len(res.Columns) != 2 || res.Columns[1] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestServerErrorsPropagate(t *testing.T) {
	addr, _, stop := startServer(t)
	defer stop()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute("SELECT * FROM missing"); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Errorf("err = %v", err)
	}
	// The connection survives an error.
	if _, err := c.Execute("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestClientRejectsNewlines(t *testing.T) {
	addr, _, stop := startServer(t)
	defer stop()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute("SELECT 1\nFROM t"); err == nil {
		t.Error("newline statement accepted")
	}
}

func TestSpecialCharactersRoundTrip(t *testing.T) {
	addr, _, stop := startServer(t)
	defer stop()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	val := `tab	and back\slash`
	stmt := fmt.Sprintf("INSERT INTO t (id, v) VALUES (1, %s)", sqlparse.StrValue(val).SQL())
	if _, err := c.Execute(stmt); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute("SELECT v FROM t WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str != val {
		t.Errorf("round trip = %q, want %q", res.Rows[0][0].Str, val)
	}
}

func TestRemoteQueriesVisibleInProcesslist(t *testing.T) {
	addr, e, stop := startServer(t)
	defer stop()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, p := range e.Processlist().Snapshot() {
		if strings.Contains(p.Statement, "CREATE TABLE t") && strings.Contains(p.User, "127.0.0.1") {
			found = true
		}
	}
	if !found {
		t.Error("remote statement not in processlist with the client address")
	}
}

func TestTransactionsPerConnection(t *testing.T) {
	addr, _, stop := startServer(t)
	defer stop()
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

	if _, err := a.Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Execute("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Execute("INSERT INTO t (id, v) VALUES (1, 1)"); err != nil {
		t.Fatal(err)
	}
	// b runs in autocommit while a's txn is open.
	if _, err := b.Execute("INSERT INTO t (id, v) VALUES (2, 2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Execute("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	res, err := b.Execute("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 2 {
		t.Errorf("rows after rollback = %v", res.Rows)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _, stop := startServer(t)
	defer stop()
	setup, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perClient; i++ {
				id := w*perClient + i
				if _, err := c.Execute(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", id, id)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	res, err := check.Execute("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != clients*perClient {
		t.Errorf("count = %d, want %d", res.Rows[0][0].Int, clients*perClient)
	}
}

func TestQuickValueWireRoundTrip(t *testing.T) {
	f := func(isInt bool, n int64, s string) bool {
		var v sqlparse.Value
		if isInt {
			v = sqlparse.IntValue(n)
		} else {
			v = sqlparse.StrValue(s)
		}
		got, err := wire.DecodeValue([]byte(wire.EncodeValue(v)))
		return err == nil && got.Equal(v) && got.IsInt == v.IsInt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeValueErrors(t *testing.T) {
	for _, bad := range []string{"", "x:1", "i:notanumber", `s:trailing\`, `s:\q`} {
		if _, err := wire.DecodeValue([]byte(bad)); err == nil {
			t.Errorf("DecodeValue(%q) accepted", bad)
		}
	}
}

func TestIdleConnectionsAreClosed(t *testing.T) {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(e)
	srv.IdleTimeout = 100 * time.Millisecond
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Activity inside the window keeps the connection alive: each
	// statement re-arms the deadline.
	br := bufio.NewReader(conn)
	if _, err := fmt.Fprintf(conn, "CREATE TABLE idle (id INT PRIMARY KEY)\n"); err != nil {
		t.Fatal(err)
	}
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "OK") {
		t.Fatalf("create: line=%q err=%v", line, err)
	}
	for i := 0; i < 3; i++ {
		time.Sleep(40 * time.Millisecond)
		if _, err := fmt.Fprintf(conn, "SELECT id FROM idle WHERE id = 0\n"); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "OK 0") {
			t.Fatalf("statement %d: line=%q err=%v", i, line, err)
		}
	}

	// Then go silent past the timeout: the server must close the
	// connection (our read sees EOF) and release the session.
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("read after idle timeout returned data, want closed connection")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server did not close the idle connection within 2s")
	}
	// The session is gone from the processlist once the handler exits.
	deadline := time.Now().Add(2 * time.Second)
	for {
		alive := false
		for _, p := range e.Processlist().Snapshot() {
			if strings.Contains(p.User, "127.0.0.1") {
				alive = true
			}
		}
		if !alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session still in processlist after close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServeAfterCloseFails(t *testing.T) {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(e)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Error("Serve after Close succeeded")
	}
}

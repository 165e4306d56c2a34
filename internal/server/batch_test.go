package server_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"snapdb/internal/client"
	"snapdb/internal/wire"
)

func TestExecuteBatch(t *testing.T) {
	addr, _, stop := startServer(t)
	defer stop()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	results, err := c.ExecuteBatch([]string{
		"CREATE TABLE t (id INT PRIMARY KEY, name TEXT)",
		"INSERT INTO t (id, name) VALUES (1, 'alice'), (2, 'bob')",
		"SELECT id, name FROM t WHERE id = 2",
	})
	if err != nil {
		t.Fatalf("ExecuteBatch: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, br := range results[:2] {
		if br.Err != nil {
			t.Fatalf("statement %d: %v", i, br.Err)
		}
	}
	if results[1].Result.RowsAffected != 2 {
		t.Errorf("INSERT affected %d rows, want 2", results[1].Result.RowsAffected)
	}
	sel := results[2].Result
	if sel == nil || len(sel.Rows) != 1 {
		t.Fatalf("SELECT result = %+v, want 1 row", sel)
	}
	if got := sel.Rows[0][1].Str; got != "bob" {
		t.Errorf("SELECT name = %q, want %q", got, "bob")
	}
}

// TestExecuteBatchErrorIsolation checks that a failing statement in
// the middle of a batch yields its own error while the statements
// after it still run — the same isolation sequential Execute gives.
func TestExecuteBatchErrorIsolation(t *testing.T) {
	addr, _, stop := startServer(t)
	defer stop()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	results, err := c.ExecuteBatch([]string{
		"CREATE TABLE t (id INT PRIMARY KEY)",
		"SELECT * FROM missing",
		"INSERT INTO t (id) VALUES (7)",
		"SELECT id FROM t",
	})
	if err != nil {
		t.Fatalf("ExecuteBatch: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	var se *client.ServerError
	if !errors.As(results[1].Err, &se) || !strings.Contains(se.Msg, "unknown table") {
		t.Errorf("statement 1 error = %v, want ServerError about unknown table", results[1].Err)
	}
	if results[2].Err != nil || results[3].Err != nil {
		t.Fatalf("statements after the error failed: %v, %v", results[2].Err, results[3].Err)
	}
	if got := len(results[3].Result.Rows); got != 1 {
		t.Errorf("post-error SELECT saw %d rows, want 1", got)
	}
}

func TestExecuteBatchRejectsBadStatements(t *testing.T) {
	addr, _, stop := startServer(t)
	defer stop()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.ExecuteBatch([]string{"SELECT 1\nFROM t"}); err == nil {
		t.Error("statement with newline accepted")
	}
	if _, err := c.ExecuteBatch([]string{"  "}); err == nil {
		t.Error("blank statement accepted (would desync the reply stream)")
	}
	if res, err := c.ExecuteBatch(nil); err != nil || res != nil {
		t.Errorf("empty batch = (%v, %v), want (nil, nil)", res, err)
	}
}

// TestMultiLineErrorRoundTrip checks the client recovers an ERR
// payload with embedded newlines, tabs, and carriage returns
// byte-for-byte, via a scripted server speaking the wire format.
// Before ERR payloads were escaped, the extra lines were flattened to
// spaces (and a payload ending in \r was eaten by line trimming).
func TestMultiLineErrorRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const msg = "line one\nline two\ttabbed\rreturn ends in cr\r"
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := br.ReadString('\n'); err != nil {
			return
		}
		fmt.Fprintf(conn, "ERR %s\n", wire.Escape(msg))
	}()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Execute("SELECT 1")
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v (%T), want *client.ServerError", err, err)
	}
	if se.Msg != msg {
		t.Errorf("message round trip:\n got %q\nwant %q", se.Msg, msg)
	}
}

// TestServerErrorType checks real server ERR replies surface as
// *client.ServerError and leave the connection usable.
func TestServerErrorType(t *testing.T) {
	addr, _, stop := startServer(t)
	defer stop()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Execute("SELECT * FROM missing")
	var se *client.ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "unknown table") {
		t.Fatalf("error = %v (%T), want *client.ServerError about unknown table", err, err)
	}
	if _, err := c.Execute("CREATE TABLE t (id INT PRIMARY KEY)"); err != nil {
		t.Fatalf("connection unusable after ERR: %v", err)
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	cases := []string{
		"", "plain", "tab\there", "line\nbreak", "cr\rhere", "trailing\r",
		"back\\slash", "\\n literal", "mix\t\n\r\\\t", "\r\n", "\\",
	}
	for _, s := range cases {
		got, err := wire.Unescape(wire.Escape(s))
		if err != nil {
			t.Errorf("Unescape(Escape(%q)): %v", s, err)
			continue
		}
		if got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
		if esc := wire.Escape(s); strings.ContainsAny(esc, "\t\n\r") {
			t.Errorf("Escape(%q) = %q still holds wire metacharacters", s, esc)
		}
	}
	if err := quick.Check(func(s string) bool {
		got, err := wire.Unescape(wire.Escape(s))
		return err == nil && got == s
	}, nil); err != nil {
		t.Error(err)
	}
}

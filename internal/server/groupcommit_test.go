package server_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snapdb/internal/client"
	"snapdb/internal/engine"
	"snapdb/internal/failpoint"
	"snapdb/internal/server"
	"snapdb/internal/vfs"
)

// serveEngine runs a server for e on an ephemeral port and returns its
// address and a shutdown func.
func serveEngine(t *testing.T, e *engine.Engine) (string, func()) {
	t.Helper()
	srv := server.New(e)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0", ready) }()
	addr := (<-ready).String()
	return addr, func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// gatedFS blocks the next redo-log Sync once armed: the syncing
// goroutine signals entered and waits for release.
type gatedFS struct {
	vfs.FS
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gatedFS) Create(name string) (vfs.File, error) {
	f, err := g.FS.Create(name)
	return g.gate(f, name), err
}

func (g *gatedFS) Open(name string) (vfs.File, error) {
	f, err := g.FS.Open(name)
	return g.gate(f, name), err
}

func (g *gatedFS) gate(f vfs.File, name string) vfs.File {
	if f == nil {
		return nil
	}
	return gatedFile{File: f, fs: g, name: name}
}

type gatedFile struct {
	vfs.File
	fs   *gatedFS
	name string
}

func (f gatedFile) Sync() error {
	if f.name == engine.FileRedo && f.fs.armed.CompareAndSwap(true, false) {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// batchOf is n single-row INSERTs into t from id lo on, as one
// pipelined write.
func batchOf(lo, n int) string {
	var b strings.Builder
	for i := lo; i < lo+n; i++ {
		fmt.Fprintf(&b, "INSERT INTO t (id, v) VALUES (%d, 'b%d')\n", i, i)
	}
	return b.String()
}

func ids(t *testing.T, c *client.Conn) string {
	t.Helper()
	res, err := c.Execute("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, r := range res.Rows {
		got = append(got, r[0].Int)
	}
	return fmt.Sprint(got)
}

// TestGroupRepliesWaitForDurability: a pipelined batch of 16 autocommit
// INSERTs is one group whose redo sync the test holds. While it is
// held, the batch's client has received no reply byte, and another
// session's SELECT on the same table completes — the table latch is not
// held across the flush — and reads the rows from before the batch.
// Once the sync is released, all 16 replies arrive, and the rows are
// visible.
func TestGroupRepliesWaitForDurability(t *testing.T) {
	gfs := &gatedFS{FS: vfs.NewMemFS(), entered: make(chan struct{}), release: make(chan struct{})}
	cfg := engine.Defaults()
	cfg.FS = gfs
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := serveEngine(t, e)
	defer stop()
	other, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	for _, q := range []string{"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)", "INSERT INTO t (id, v) VALUES (1, 'a')"} {
		if _, err := other.Execute(q); err != nil {
			t.Fatal(err)
		}
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	release := sync.OnceFunc(func() { close(gfs.release) })
	defer release() // a failing check must not leave the flush blocked
	gfs.armed.Store(true)
	if _, err := conn.Write([]byte(batchOf(100, 16))); err != nil {
		t.Fatal(err)
	}
	<-gfs.entered // the group's flush is inside its redo sync

	if got := ids(t, other); got != "[1]" {
		t.Errorf("during the flush another session reads ids %s, want [1]", got)
	}
	// Had any reply been written before the flush, it would sit in the
	// socket's receive buffer by now.
	_ = conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	var one [1]byte
	if n, err := conn.Read(one[:]); n != 0 || err == nil {
		t.Fatalf("a reply byte (%q) arrived before the group was durable", one[:n])
	}

	release()
	_ = conn.SetReadDeadline(time.Time{})
	r := bufio.NewReader(conn)
	for i := 0; i < 16; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if line != "OK 0 1 0 0\n" {
			t.Errorf("reply %d = %q, want OK for one row", i, line)
		}
	}
	if got := ids(t, other); !strings.HasPrefix(got, "[1 100 101") || !strings.HasSuffix(got, " 115]") {
		t.Errorf("after the flush another session reads ids %s, want 1 and 100..115", got)
	}
}

// TestGroupFlushFailure injects an I/O error into a pipelined group's
// redo write. No statement of the batch gets an OK, a second connection
// still reads the rows from before the batch, later writes fail (the
// log stays failed), and recovery rebuilds the pre-batch state.
func TestGroupFlushFailure(t *testing.T) {
	mem := vfs.NewMemFS()
	reg := failpoint.New(1)
	cfg := engine.Defaults()
	cfg.FS = vfs.NewFaultFS(mem, reg)
	cfg.EnableQueryCache = false
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := serveEngine(t, e)
	other, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)", "INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')"} {
		if _, err := other.Execute(q); err != nil {
			t.Fatal(err)
		}
	}

	reg.Arm("write:"+engine.FileRedo, failpoint.KindErr, 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(batchOf(100, 16))); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for i := 0; i < 16; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !strings.HasPrefix(line, "ERR ") {
			t.Errorf("reply %d = %q after a failed flush, want ERR", i, line)
		}
	}
	conn.Close()
	if got := ids(t, other); got != "[1 2]" {
		t.Errorf("after the failed flush another session reads ids %s, want [1 2]", got)
	}
	if _, err := other.Execute("INSERT INTO t (id, v) VALUES (3, 'c')"); err == nil {
		t.Error("a write after the failed flush succeeded; want the log to stay failed")
	}
	other.Close()
	stop()
	e.Close()

	mem.Crash()
	rec, _, err := engine.Recover(mem, engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.Connect("check").Execute("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int != 1 || res.Rows[1][0].Int != 2 {
		t.Errorf("recovery rebuilds %v, want ids 1 and 2", res.Rows)
	}
}

// TestGroupRepliesKeepStatementOrder pipelines autocommit writes around
// every kind of line that answers at once — a SELECT, an oversized
// line, a control line — in one write. Each of them settles the
// pending group before its own reply, so the replies come back in
// statement order and the SELECT reads the writes before it.
func TestGroupRepliesKeepStatementOrder(t *testing.T) {
	cfg := engine.Defaults()
	cfg.FS = vfs.NewMemFS()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := serveEngine(t, e)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	batch := "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)\n" +
		batchOf(1, 2) +
		"SELECT COUNT(*) FROM t\n" +
		batchOf(3, 1) +
		"SELECT '" + strings.Repeat("x", 1<<20) + "'\n" +
		batchOf(4, 1) +
		"!hello\n" +
		batchOf(5, 1)
	if _, err := conn.Write([]byte(batch)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	for i, want := range []string{
		"OK 0 0 0 0", "OK 0 1 0 0", "OK 0 1 0 0",
		"OK 1 0 0 2", "COLS ", "i:2",
		"OK 0 1 0 0", "ERR statement line too long", "OK 0 1 0 0",
		"!session ", "OK 0 1 0 0",
	} {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply line %d: %v", i, err)
		}
		if !strings.HasPrefix(line, want) {
			t.Errorf("reply line %d = %q, want it to start with %q", i, line, want)
		}
	}
}

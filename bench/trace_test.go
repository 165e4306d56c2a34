package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"snapdb/internal/engine"
	"snapdb/internal/server"
	"snapdb/internal/vfs"
)

// armState is what one engine was left holding after a seeded stream.
type armState struct {
	digest  string
	fetches uint64
	files   map[string][]byte
}

// fixedClock keeps binlog timestamps out of the comparison: two runs a
// second apart would otherwise differ in eight bytes per event.
func fixedClock() int64 { return 1700000000 }

// driveStream loads w and plays a serial seeded stream over the wire at
// addr, failing the test on any wrong answer.
func driveStream(t *testing.T, w *workload, addr string, seed int64, span func(c int, o *op, start, end time.Time)) {
	t.Helper()
	loader, err := dialWire(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadOver(w, loader); err != nil {
		t.Fatal(err)
	}
	loader.close()
	actors := w.newClients(w, seed)
	execs := make([]executor, len(actors))
	for c := range execs {
		ex, err := dialWire(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer ex.close()
		execs[c] = ex
	}
	r := runLoop(&loopConfig{w: w, clients: actors, execs: execs, requests: w.requestsFor(300), serial: true, span: span})
	if r.err != nil || r.failed != 0 {
		t.Fatalf("%s: stream failed: err=%v failed=%d of %d", w.name, r.err, r.failed, r.stmts)
	}
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// plainArm is the reference: the engine on a bare OSFS (encrypting by
// its own Config switch, as snapdbd -encrypt does), served on a bare
// listener.
func plainArm(t *testing.T, w *workload, seed int64) armState {
	t.Helper()
	dir := t.TempDir()
	osfs, err := vfs.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Defaults()
	cfg.FS = osfs
	cfg.EncryptAtRest = w.encrypt
	cfg.EncryptionKey = encryptionKey()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Clock = fixedClock
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(e)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	driveStream(t, w, ln.Addr().String(), seed, nil)
	_ = srv.Close()
	<-done
	digest, err := e.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	return armState{digest: digest, fetches: e.BufferPool().FetchCount(), files: readDir(t, dir)}
}

// tracedArm is the same stream through the instrumented engine, with
// span recording on.
func tracedArm(t *testing.T, w *workload, seed int64) (armState, *tracedEngine) {
	t.Helper()
	dir := t.TempDir()
	te, err := openTraced(w, dir)
	if err != nil {
		t.Fatal(err)
	}
	te.eng.Clock = fixedClock
	te.rec.on.Store(true)
	driveStream(t, w, te.addr, seed, func(c int, o *op, start, end time.Time) {
		te.rec.request(spanClientExecute, c, o.kind, start, end)
	})
	te.rec.on.Store(false)
	te.close()
	digest, err := te.eng.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	return armState{digest: digest, fetches: te.eng.BufferPool().FetchCount(), files: readDir(t, dir)}, te
}

// TestInstrumentationIsTransparent proves the span-recording vfs.FS
// wrappers and the counting listener change nothing: the same seeded
// stream leaves the same logical state, the same bytes in every file
// (ciphertext included, for write_crypt), and the same buffer-pool
// fetch count, wrapped or not.
func TestInstrumentationIsTransparent(t *testing.T) {
	for _, name := range []string{"oltp_point", "txn_mixed", "write_crypt"} {
		w := workloadByName(name).scaled(100)
		t.Run(name, func(t *testing.T) {
			plain := plainArm(t, w, 7)
			traced, te := tracedArm(t, w, 7)
			if plain.digest != traced.digest {
				t.Errorf("StateDigest differs: plain %s traced %s", plain.digest, traced.digest)
			}
			if plain.fetches != traced.fetches {
				t.Errorf("BufferPool().FetchCount() differs: plain %d traced %d", plain.fetches, traced.fetches)
			}
			if len(plain.files) != len(traced.files) {
				t.Errorf("file sets differ: plain %d files, traced %d", len(plain.files), len(traced.files))
			}
			for name, want := range plain.files {
				if got, ok := traced.files[name]; !ok || !bytes.Equal(got, want) {
					t.Errorf("file %s differs under the wrappers (plain %d bytes, traced %d, present %v)", name, len(want), len(got), ok)
				}
			}
			// And the wrappers did see the traffic they let through.
			if te.inner.n.writes.Load() == 0 || te.wire.bytesIn.Load() == 0 || len(te.rec.spans) == 0 {
				t.Errorf("wrappers recorded nothing: writes %d bytesIn %d spans %d",
					te.inner.n.writes.Load(), te.wire.bytesIn.Load(), len(te.rec.spans))
			}
			if w.encrypt != (te.outer != nil) {
				t.Errorf("encrypt=%v but outer wrapper present=%v", w.encrypt, te.outer != nil)
			}
		})
	}
}

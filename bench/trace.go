package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"snapdb/internal/vfs"
)

// Tracing from outside. No engine, server or client file knows about
// the benchmark: spans are recorded around calls into each layer's
// public surface — a vfs.FS wrapper handed to engine.Config.FS (one
// above OSFS, and for write_crypt a second above CryptFS), a
// net.Listener wrapper handed to server.Serve, and the loop's own
// request interval.

type spanName uint8

const (
	spanClientExecute spanName = iota // one request over the wire
	spanEngineExecute                 // one request straight into Session.Execute
	spanCryptWrite                    // above CryptFS
	spanCryptSync
	spanCryptRead
	spanCryptOther
	spanVFSWrite // above the real filesystem
	spanVFSSync
	spanVFSRead
	spanVFSOther
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.execute", "engine.execute",
	"cryptfs.write", "cryptfs.sync", "cryptfs.read", "cryptfs.other",
	"vfs.write", "vfs.sync", "vfs.read", "vfs.other",
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch; parent is an index into the recorder's spans, -1
// for none; req identifies the request (connection << 40 | sequence).
type span struct {
	name       spanName
	parent     int32
	req        int64
	start, end int64
	kind       opKind // request spans: the (first) statement's class
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends.
//
// With one request in flight (serial mode) parentage is exact: layer
// spans nest through a stack, and a request span, recorded when its
// reply has been read, adopts every parentless span recorded since the
// previous request — every file operation inside a request's interval
// belongs to that request. With concurrent requests only counts and
// durations are meaningful, and spans stay parentless.
type recorder struct {
	on     atomic.Bool
	serial bool
	epoch  time.Time

	mu       sync.Mutex
	spans    []span
	stack    []int32
	seq      []int64 // requests recorded so far, per connection
	adoptGap int     // spans[adoptGap:] have not been offered to a request yet
}

// newRecorder makes a recorder with room for capacity spans. A traced
// pass sizes it for the whole pass up front: regrowing a slice of a
// million spans while recording would be the largest part of the
// tracing overhead, and none of the engine's.
func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), serial: true, spans: make([]span, 0, capacity)}
}

func (r *recorder) begin(name spanName, at time.Time) int32 {
	now := at.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := int32(-1)
	if r.serial && len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: parent, start: now})
	if r.serial {
		r.stack = append(r.stack, id)
	}
	return id
}

func (r *recorder) end(id int32, at time.Time) {
	now := at.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	if r.serial && len(r.stack) > 0 {
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// request records a finished request and, in serial mode, makes it the
// parent of the layer spans that ran inside it.
func (r *recorder) request(name spanName, c int, kind opKind, start, end time.Time) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	for len(r.seq) <= c {
		r.seq = append(r.seq, 0)
	}
	r.seq[c]++
	req := int64(c)<<40 | r.seq[c]
	s := span{name: name, parent: -1, req: req, kind: kind,
		start: start.Sub(r.epoch).Nanoseconds(), end: end.Sub(r.epoch).Nanoseconds()}
	if r.serial {
		for i := r.adoptGap; i < len(r.spans); i++ {
			c := &r.spans[i]
			if c.start >= s.start && c.end <= s.end {
				c.req = req
				if c.parent < 0 {
					c.parent = id
				}
			}
		}
	}
	r.spans = append(r.spans, s)
	r.adoptGap = len(r.spans)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval its direct children cover. Children are clipped to the
// parent's interval; in a serial trace siblings never overlap.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
	}
	for i := range spans {
		p := spans[i].parent
		if p < 0 {
			continue
		}
		lo, hi := spans[i].start, spans[i].end
		if ps := spans[p].start; lo < ps {
			lo = ps
		}
		if pe := spans[p].end; hi > pe {
			hi = pe
		}
		if hi > lo {
			self[p] -= hi - lo
		}
	}
	return self
}

// writeTrace dumps the spans as one JSON document, a row per span.
func (r *recorder) writeTrace(path, workload string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"columns\":[\"id\",\"parent\",\"conn\",\"seq\",\"name\",\"start_ns\",\"end_ns\"],\"spans\":[\n", workload)
	for i := range r.spans {
		s := &r.spans[i]
		sep := ","
		if i == len(r.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%q,%d,%d]%s\n", i, s.parent, s.req>>40, s.req&(1<<40-1), spanNames[s.name], s.start, s.end, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// --- the file-layer wrapper ------------------------------------------------

// fsCounters are one wrapper's totals. Counts are kept even while span
// recording is off, so a phase's figures are deltas of these.
type fsCounters struct {
	writes, writeBytes, syncs, reads, readBytes atomic.Int64
}

type fsSnapshot struct {
	writes, writeBytes, syncs, reads, readBytes int64
}

func (c *fsCounters) snapshot() fsSnapshot {
	return fsSnapshot{c.writes.Load(), c.writeBytes.Load(), c.syncs.Load(), c.reads.Load(), c.readBytes.Load()}
}

func (a fsSnapshot) sub(b fsSnapshot) fsSnapshot {
	return fsSnapshot{a.writes - b.writes, a.writeBytes - b.writeBytes, a.syncs - b.syncs, a.reads - b.reads, a.readBytes - b.readBytes}
}

// tracingFS is a pass-through vfs.FS: every call goes to inner
// unchanged (same arguments, same results, same bytes), with a span
// and a count around it. crypt selects the span names: the wrapper
// above CryptFS, or the one above the real filesystem.
type tracingFS struct {
	inner vfs.FS
	rec   *recorder
	crypt bool
	n     fsCounters
}

func newTracingFS(inner vfs.FS, rec *recorder, crypt bool) *tracingFS {
	return &tracingFS{inner: inner, rec: rec, crypt: crypt}
}

func (t *tracingFS) name(vfsName spanName) spanName {
	if t.crypt {
		return vfsName - spanVFSWrite + spanCryptWrite
	}
	return vfsName
}

// around runs fn, inside a span when recording is on.
func (t *tracingFS) around(name spanName, fn func()) {
	if !t.rec.on.Load() {
		fn()
		return
	}
	id := t.rec.begin(t.name(name), time.Now())
	fn()
	t.rec.end(id, time.Now())
}

func (t *tracingFS) other(fn func()) { t.around(spanVFSOther, fn) }

func (t *tracingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracingFile{f: f, t: t}, nil
}

func (t *tracingFS) Create(name string) (f vfs.File, err error) {
	t.other(func() { f, err = t.inner.Create(name) })
	return t.wrap(f, err)
}

func (t *tracingFS) Open(name string) (f vfs.File, err error) {
	t.other(func() { f, err = t.inner.Open(name) })
	return t.wrap(f, err)
}

func (t *tracingFS) ReadFile(name string) (b []byte, err error) {
	t.around(spanVFSRead, func() { b, err = t.inner.ReadFile(name) })
	t.n.reads.Add(1)
	t.n.readBytes.Add(int64(len(b)))
	return b, err
}

func (t *tracingFS) Rename(oldname, newname string) (err error) {
	t.other(func() { err = t.inner.Rename(oldname, newname) })
	return err
}

func (t *tracingFS) Remove(name string) (err error) {
	t.other(func() { err = t.inner.Remove(name) })
	return err
}

func (t *tracingFS) SyncDir() (err error) {
	t.around(spanVFSSync, func() { err = t.inner.SyncDir() })
	t.n.syncs.Add(1)
	return err
}

type tracingFile struct {
	f vfs.File
	t *tracingFS
}

func (f *tracingFile) WriteAt(p []byte, off int64) (n int, err error) {
	f.t.around(spanVFSWrite, func() { n, err = f.f.WriteAt(p, off) })
	f.t.n.writes.Add(1)
	f.t.n.writeBytes.Add(int64(n))
	return n, err
}

func (f *tracingFile) ReadAt(p []byte, off int64) (n int, err error) {
	f.t.around(spanVFSRead, func() { n, err = f.f.ReadAt(p, off) })
	f.t.n.reads.Add(1)
	f.t.n.readBytes.Add(int64(n))
	return n, err
}

func (f *tracingFile) Sync() (err error) {
	f.t.around(spanVFSSync, func() { err = f.f.Sync() })
	f.t.n.syncs.Add(1)
	return err
}

func (f *tracingFile) Size() (n int64, err error) {
	f.t.other(func() { n, err = f.f.Size() })
	return n, err
}

func (f *tracingFile) Truncate(size int64) (err error) {
	f.t.other(func() { err = f.f.Truncate(size) })
	return err
}

func (f *tracingFile) Close() (err error) {
	f.t.other(func() { err = f.f.Close() })
	return err
}

// --- the wire wrapper --------------------------------------------------------

// wireCounters are the server side's socket totals.
type wireCounters struct {
	bytesIn, bytesOut, writes atomic.Int64
}

type wireSnapshot struct{ bytesIn, bytesOut, writes int64 }

func (c *wireCounters) snapshot() wireSnapshot {
	return wireSnapshot{c.bytesIn.Load(), c.bytesOut.Load(), c.writes.Load()}
}

func (a wireSnapshot) sub(b wireSnapshot) wireSnapshot {
	return wireSnapshot{a.bytesIn - b.bytesIn, a.bytesOut - b.bytesOut, a.writes - b.writes}
}

// countingListener hands server.Serve connections that count what
// crosses them and change nothing.
type countingListener struct {
	net.Listener
	n *wireCounters
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *wireCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.writes.Add(1)
	c.n.bytesOut.Add(int64(n))
	return n, err
}

// Package server exposes a snapdb engine over TCP with a line-oriented
// text protocol, giving the simulation the same shape as a production
// deployment: remote clients, per-connection sessions (visible in the
// processlist), and statement text that arrives through a real network
// receive path before landing in the engine's heap.
//
// Protocol (all lines \n-terminated):
//
//	client → server:  one SQL statement per line
//	server → client:  ERR <escaped message>
//	               |  OK <nrows> <affected> <fromcache> <examined>
//	                  [COLS <name>\t<name>...]      when nrows > 0
//	                  <value>\t<value>...           × nrows
//
// <examined> is the statement's rows-examined counter (scan-leaf rows
// or index entries inspected), the same figure perfschema records.
//
// Values are typed: "i:<decimal>" for INT, "s:<escaped>" for TEXT,
// with \\, \t, \n, \r escaped inside strings. ERR payloads use the
// same escaping, so multi-line engine errors survive the wire intact.
//
// The protocol is pipelined: a client may write any number of
// statement lines before reading replies, and replies come back in
// order, one per statement. The server only flushes its write buffer
// when its read buffer is drained, so a batch of N statements is
// answered with close to one TCP flush instead of N.
//
// Control protocol (exactly-once retry, see resume.go): lines starting
// with '!' are control lines, never SQL. A client opts in with
//
//	!hello                → !session <token>
//	!resume <token>       → !ok <lastseq>  |  !err <escaped message>
//	!q <seq> <statement>  → normal OK/ERR reply framing
//	!bye                  → no reply; the session is released
//
// After !hello or !resume the connection owns a resumable session:
// statements stamped !q with consecutive sequence numbers execute
// exactly once even when the client resends them after a reconnect —
// the server answers a repeated sequence number from its dedup cache.
// An oversized statement line draws "ERR statement line too long" and
// the session continues; a saturated server (see MaxConcurrent) draws
// "ERR overloaded: ..." without executing, which stamped clients
// retry.
package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"snapdb/internal/engine"
	"snapdb/internal/wire"
)

// DefaultIdleTimeout is how long a connection may sit idle between
// statements before the server closes it. Idle sessions pin engine
// state (processlist entries, session buffers), so they are reaped
// like production servers reap them (cf. MySQL wait_timeout).
const DefaultIdleTimeout = 5 * time.Minute

// Server serves one engine to many TCP clients.
type Server struct {
	eng *engine.Engine

	// IdleTimeout bounds the gap between statements on a connection;
	// a connection idle longer is closed and its session released.
	// Zero means DefaultIdleTimeout; negative disables the timeout.
	IdleTimeout time.Duration

	// MaxConcurrent caps how many statements may execute at once; a
	// statement arriving past the cap is rejected with a retryable
	// "ERR overloaded" reply instead of queueing (admission control —
	// under overload, shed load at the door rather than let every
	// session's latency grow without bound). Zero means unlimited.
	MaxConcurrent int

	// DedupWindow is how many rendered replies each resumable session
	// retains for exactly-once replay (0 = defaultDedupWindow), and
	// ResumeTTL how long a detached session awaits its client before
	// being reaped (0 = defaultResumeTTL). See resume.go.
	DedupWindow int
	ResumeTTL   time.Duration

	// ErrorLog receives server-side diagnostics (panic stacks from
	// safeExecute). Nil logs via the log package's standard logger.
	ErrorLog *log.Logger

	mu       sync.Mutex
	ln       net.Listener
	closed   bool
	draining bool
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	sem      chan struct{}   // admission slots, built lazily from MaxConcurrent
	resume   *resumeRegistry // resumable sessions, built lazily from the knobs above
}

// New creates a server for the engine.
func New(e *engine.Engine) *Server {
	return &Server{eng: e, conns: make(map[net.Conn]struct{})}
}

// resumeReg returns the resume registry, building it on first use so
// the DedupWindow/ResumeTTL knobs set after New are honored.
func (s *Server) resumeReg() *resumeRegistry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resume == nil {
		s.resume = newResumeRegistry(s.DedupWindow, s.ResumeTTL)
	}
	return s.resume
}

// admit acquires one statement-execution slot, returning its release
// func — or nil when the server is saturated and the statement must be
// rejected instead of run.
func (s *Server) admit() func() {
	s.mu.Lock()
	if s.sem == nil && s.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, s.MaxConcurrent)
	}
	sem := s.sem
	s.mu.Unlock()
	if sem == nil {
		return func() {}
	}
	select {
	case sem <- struct{}{}:
		return func() { <-sem }
	default:
		return nil
	}
}

// logf writes one diagnostic line to the configured error log.
func (s *Server) logf(format string, args ...any) {
	if s.ErrorLog != nil {
		s.ErrorLog.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// idleTimeout resolves the configured timeout.
func (s *Server) idleTimeout() time.Duration {
	switch {
	case s.IdleTimeout == 0:
		return DefaultIdleTimeout
	case s.IdleTimeout < 0:
		return 0
	}
	return s.IdleTimeout
}

// Serve accepts connections on ln until Close. It blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		// Register under the lock so Close's wg.Wait can never race a
		// late wg.Add: once closed is set, no new handler starts.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr and serves. The returned channel
// yields the bound address once listening (useful with ":0").
func (s *Server) ListenAndServe(addr string, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	return s.Serve(ln)
}

// Close stops accepting, closes live connections immediately, and
// waits for handlers to finish. In-flight statements finish executing
// (the engine is never interrupted mid-statement) but their replies
// are lost with the connections; clients that need every acked
// statement applied should be stopped first, or the server drained
// with Shutdown instead.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	s.resumeReg().closeAll()
	return err
}

// Shutdown drains the server gracefully: stop accepting, interrupt
// idle-blocked connections, let every in-flight statement and buffered
// pipeline finish and flush its replies, then release the sessions.
// When ctx expires first, the stragglers are closed hard (as in Close)
// and the error reports the incomplete drain.
//
// Drain interacts with pipelining per connection: statements already
// in the read buffer still execute and their replies flush before the
// connection closes, so a client that stopped sending observes a
// clean, fully-answered stream ending in EOF — indistinguishable from
// its own half-close, which is what makes rolling restarts invisible
// to well-behaved clients.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.draining = true
	ln := s.ln
	// A past read deadline fails the next (or current, blocked) network
	// read without disturbing data already buffered: exactly "stop
	// waiting for more work, finish what you have". Taken under the
	// same lock as the handlers' draining check, so no handler can
	// re-arm an idle deadline over it.
	past := time.Unix(1, 0)
	for c := range s.conns {
		_ = c.SetReadDeadline(past)
	}
	s.mu.Unlock()

	var err error
	if ln != nil {
		err = ln.Close()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		<-done
		err = errors.Join(err, fmt.Errorf("server: drain incomplete: %w", ctx.Err()))
	}
	s.resumeReg().closeAll()
	return err
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()

	sess := s.eng.Connect(conn.RemoteAddr().String())
	var rs *resumeSession // non-nil once the control protocol owns sess
	defer func() {
		if rs != nil {
			// The engine session survives the connection, parked in the
			// registry awaiting a !resume (or the TTL reaper).
			s.resumeReg().detach(rs, conn)
		} else {
			sess.Close()
		}
	}()

	idle := s.idleTimeout()
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriter(conn)
	defer w.Flush()
	var lineBuf []byte
	var scratch bytes.Buffer
	for {
		// Arm the read deadline before waiting on the network: a
		// connection that stays silent past the idle timeout fails its
		// next Read and the deferred cleanup releases the session — a
		// clean idle close, never a leaked handler. Statements already
		// sitting in the read buffer don't touch the network, so a
		// pipelined batch arms it once, not once per statement. The
		// draining check shares Shutdown's lock, so a drain can never be
		// overwritten by a fresh idle deadline.
		if r.Buffered() == 0 {
			s.mu.Lock()
			draining := s.draining
			if !draining && idle > 0 {
				_ = conn.SetReadDeadline(time.Now().Add(idle))
			}
			s.mu.Unlock()
			if draining {
				_ = w.Flush()
				return
			}
		}
		raw, rerr := readLine(r, &lineBuf)
		if errors.Is(rerr, errLineTooLong) {
			// The oversized line was consumed through its terminator, so
			// the stream is still in sync: report and keep the session.
			// Closing silently (the old behavior) made a fat-fingered
			// quote indistinguishable from a server crash.
			writeErr(w, errLineTooLong.Error())
			if r.Buffered() == 0 {
				if err := w.Flush(); err != nil {
					return
				}
			}
			continue
		}
		line := strings.TrimRight(string(raw), "\r")
		// A final unterminated line executes only on a clean EOF (the
		// client wrote a last statement and half-closed). On any other
		// read error — idle timeout, drain interrupt, injected reset —
		// the bytes may be a prefix of a statement still in flight, and
		// executing half a statement corrupts instead of helps.
		if line != "" && (rerr == nil || errors.Is(rerr, io.EOF)) {
			if line[0] == '!' {
				var done bool
				rs, done = s.dispatchControl(conn, sess, rs, line, w, &scratch)
				if done {
					return
				}
			} else {
				execSess := sess
				if rs != nil {
					execSess = rs.sess
				}
				s.execTo(w, execSess, line)
			}
		}
		if rerr != nil {
			return
		}
		// Pipelining: hold replies in the write buffer while more
		// statements are already waiting in the read buffer, and flush
		// once the client has nothing else in flight. A batch client
		// writes all N statements before reading any reply, so this
		// never deadlocks — and it turns N per-statement flushes into
		// one. Interactive clients see no change: their read buffer is
		// empty after each statement.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// dispatchControl handles one '!'-prefixed control line (see the
// package comment). It returns the connection's resume session (which
// !hello/!resume establish) and whether the handler should close.
func (s *Server) dispatchControl(conn net.Conn, sess *engine.Session, rs *resumeSession, line string, w *bufio.Writer, scratch *bytes.Buffer) (*resumeSession, bool) {
	cmd, rest, _ := strings.Cut(line, " ")
	switch cmd {
	case "!hello":
		if rs != nil {
			fmt.Fprintf(w, "!err %s\n", wire.Escape("session already established"))
			return rs, false
		}
		rs = s.resumeReg().create(sess, conn)
		fmt.Fprintf(w, "!session %s\n", rs.token)
		return rs, false
	case "!resume":
		if rs != nil {
			fmt.Fprintf(w, "!err %s\n", wire.Escape("session already established"))
			return rs, false
		}
		got := s.resumeReg().attach(rest, conn)
		if got == nil {
			fmt.Fprintf(w, "!err %s\n", wire.Escape("unknown or expired session token"))
			return nil, false
		}
		// The resumed session replaces the handler's own.
		sess.Close()
		fmt.Fprintf(w, "!ok %d\n", got.last())
		return got, false
	case "!q":
		seqStr, stmt, ok := strings.Cut(rest, " ")
		seq, perr := strconv.ParseUint(seqStr, 10, 64)
		if !ok || perr != nil || strings.TrimSpace(stmt) == "" {
			writeErr(w, "malformed !q line")
			return rs, false
		}
		if rs == nil {
			writeErr(w, "no session: send !hello or !resume first")
			return rs, false
		}
		reply, _, derr := rs.dispatch(seq, stmt, func(stmt string) []byte {
			return s.renderExec(rs.sess, stmt, scratch)
		})
		if derr != nil {
			writeErr(w, derr.Error())
			return rs, false
		}
		_, _ = w.Write(reply)
		return rs, false
	case "!bye":
		if rs != nil {
			s.resumeReg().release(rs)
		}
		return rs, true
	default:
		writeErr(w, "unknown control line")
		return rs, false
	}
}

// last reads the session's acked sequence under its lock.
func (rs *resumeSession) last() uint64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.lastSeq
}

// execTo runs one statement under admission control and writes its
// reply — ERR or OK framing — to w.
func (s *Server) execTo(w replyWriter, sess *engine.Session, line string) {
	release := s.admit()
	if release == nil {
		// Rejected at the door: the reply is cheap and typed so stamped
		// clients back off and retry instead of failing the statement.
		writeErr(w, fmt.Sprintf("overloaded: too many concurrent statements (max %d)", s.MaxConcurrent))
		return
	}
	res, err := safeExecute(sess, line, s.logf)
	release()
	if err != nil {
		writeErr(w, err.Error())
	} else {
		writeResult(w, res)
	}
}

// renderExec executes one statement and renders its reply into a fresh
// byte slice — the form the dedup cache retains and replays verbatim,
// so a replayed reply is byte-identical to the original.
func (s *Server) renderExec(sess *engine.Session, line string, scratch *bytes.Buffer) []byte {
	scratch.Reset()
	s.execTo(scratch, sess, line)
	return append([]byte(nil), scratch.Bytes()...)
}

// maxLineLen bounds one statement line, matching the former
// bufio.Scanner limit.
const maxLineLen = 1 << 20

// errLineTooLong reports a statement line over maxLineLen. By the time
// readLine returns it, the oversized line has been consumed through
// its newline, so the handler can reply with an ERR and carry on — the
// reply text is this error's message.
var errLineTooLong = errors.New("statement line too long")

// readLine reads one \n-terminated line into *buf (reused across
// calls), returning the line without its terminator. On EOF after a
// final unterminated line it returns that line together with the
// error, mirroring bufio.Scanner's handling of missing final newlines;
// the caller processes the line and then closes. A line over
// maxLineLen is discarded through its terminator and reported as
// errLineTooLong with the stream still in sync.
func readLine(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	*buf = (*buf)[:0]
	tooLong := false
	for {
		frag, err := r.ReadSlice('\n')
		if !tooLong {
			*buf = append(*buf, frag...)
			if len(*buf) > maxLineLen {
				tooLong = true
				*buf = (*buf)[:0]
			}
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if tooLong {
			if err != nil {
				// The connection died mid-oversized-line; surface the IO
				// error, there is no session left to warn.
				return nil, err
			}
			return nil, errLineTooLong
		}
		line := *buf
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		return line, err
	}
}

// safeExecute runs one statement, converting a panic anywhere under
// Execute into a client-visible error: one poisoned statement must
// cost its own session an error line, never the whole server process.
// The panic and its full stack go to logf — the client-visible message
// alone ("internal error: ...") is useless for diagnosing the crash it
// papered over.
func safeExecute(sess *engine.Session, line string, logf func(string, ...any)) (res *engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if logf != nil {
				logf("server: panic executing %q: %v\n%s", line, r, debug.Stack())
			}
			res = nil
			err = fmt.Errorf("internal error: %v", r)
		}
	}()
	if panicHook != nil {
		panicHook(line)
	}
	return sess.Execute(line)
}

// panicHook, when non-nil, runs at the top of safeExecute. It exists
// for tests only: the engine does not panic on any parseable input, so
// exercising the recovery path end-to-end over a real connection needs
// an injection point.
var panicHook func(line string)

// replyWriter is what reply rendering needs from its sink: the
// handler's *bufio.Writer on the direct path, a *bytes.Buffer when the
// reply is rendered for the dedup cache. Both provide AvailableBuffer,
// which keeps writeInt allocation-free either way.
type replyWriter interface {
	io.Writer
	WriteString(s string) (int, error)
	WriteByte(b byte) error
	AvailableBuffer() []byte
}

// writeErr writes one ERR reply line.
func writeErr(w replyWriter, msg string) {
	_, _ = w.WriteString("ERR ")
	_, _ = w.WriteString(wire.Escape(msg))
	_ = w.WriteByte('\n')
}

// writeInt writes n in decimal without the fmt machinery — the reply
// header costs four of these per statement. Appending into the
// writer's own buffer keeps the digits off the heap.
func writeInt(w replyWriter, n int64) {
	w.Write(strconv.AppendInt(w.AvailableBuffer(), n, 10))
}

func writeResult(w replyWriter, res *engine.Result) {
	fromCache := int64(0)
	if res.FromCache {
		fromCache = 1
	}
	w.WriteString("OK ")
	writeInt(w, int64(len(res.Rows)))
	w.WriteByte(' ')
	writeInt(w, int64(res.RowsAffected))
	w.WriteByte(' ')
	writeInt(w, fromCache)
	w.WriteByte(' ')
	writeInt(w, int64(res.RowsExamined))
	w.WriteByte('\n')
	if len(res.Rows) == 0 {
		return
	}
	w.WriteString("COLS ")
	w.WriteString(strings.Join(res.Columns, "\t"))
	w.WriteByte('\n')
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				w.WriteByte('\t')
			}
			if v.IsInt {
				w.WriteString("i:")
				writeInt(w, v.Int)
			} else {
				w.WriteString("s:")
				w.WriteString(wire.Escape(v.Str))
			}
		}
		w.WriteByte('\n')
	}
}

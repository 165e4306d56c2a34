package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"snapdb/internal/wire"
)

// Exactly-once retry: the client half (see internal/server/resume.go
// for the server half and the wire protocol).
//
// A plain Conn gives at-most-once delivery with an honest failure
// mode: a transport error poisons the connection and the caller does
// not know whether the in-flight statement executed. ReliableConn
// upgrades that to exactly-once: it stamps every statement with a
// session-scoped sequence number, keeps the unacknowledged tail, and
// on any transport failure reconnects (with full-jitter backoff),
// resumes its server-side session by token, and resends the tail. The
// server deduplicates by sequence number, so a statement whose reply
// was lost is answered from the server's cache instead of executing
// twice — at-least-once delivery plus dedup equals exactly-once
// application.

// ErrSessionExpired reports that the server no longer holds the
// resumable session (reaped after the TTL, or the server restarted).
// The outcome of any unacknowledged statement is unknown — retrying it
// blindly on a fresh session could double-execute, so ReliableConn
// surfaces this instead of guessing.
var ErrSessionExpired = errors.New("client: resumable session expired on server; unacked statement outcomes unknown")

// IsRetryable reports whether err is a server rejection that a client
// should back off and retry — today, admission-control overload. A
// rejected statement did not execute, so retrying cannot double-apply.
func IsRetryable(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && strings.HasPrefix(se.Msg, "overloaded:")
}

// RetryConfig bounds ReliableConn's recovery behavior.
type RetryConfig struct {
	// BackoffFloor and BackoffCap bound the full-jitter reconnect and
	// overload backoff envelope. Defaults 5ms and 500ms.
	BackoffFloor time.Duration
	BackoffCap   time.Duration
	// MaxAttempts is how many delivery attempts (reconnect cycles, or
	// overload retry rounds) one batch gets before giving up. Default 8.
	MaxAttempts int
}

func (c RetryConfig) normalized() RetryConfig {
	if c.BackoffFloor <= 0 {
		c.BackoffFloor = 5 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 500 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	return c
}

// reliableBatchChunk caps how many statements ride in one stamped
// batch. It must stay below the server's dedup window so a full
// chunk's replies always fit in replay range after a reconnect.
const reliableBatchChunk = 64

// pendingStmt is one stamped, sent, not-yet-acknowledged statement.
type pendingStmt struct {
	seq  uint64
	text string
}

// ReliableConn is a self-healing client connection with exactly-once
// statement delivery. Not safe for concurrent use, like Conn.
type ReliableConn struct {
	addr    string
	cfg     RetryConfig
	conn    *Conn
	token   string
	nextSeq uint64
	pending []pendingStmt
}

// DialReliable opens a reliable connection and establishes its
// resumable server session. Transient handshake failures are retried
// under the same backoff policy as delivery: no statement is
// outstanding yet, so a retry can never double-execute anything (a
// half-created server session from a lost handshake ack is reaped by
// the server's resume TTL).
func DialReliable(ctx context.Context, addr string, cfg RetryConfig) (*ReliableConn, error) {
	rc := &ReliableConn{addr: addr, cfg: cfg.normalized()}
	backoff := rc.cfg.BackoffFloor
	var lastErr error
	for attempt := 0; attempt < rc.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("client: dial interrupted: %w (last error: %v)", ctx.Err(), lastErr)
			case <-time.After(jitteredBackoff(backoff)):
			}
			if backoff *= 2; backoff > rc.cfg.BackoffCap {
				backoff = rc.cfg.BackoffCap
			}
		}
		err := rc.connect(ctx)
		if err == nil {
			return rc, nil
		}
		if errors.Is(err, ErrSessionExpired) || ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("client: gave up dialing after %d attempts: %w", rc.cfg.MaxAttempts, lastErr)
}

// Close releases the server-side session (best effort) and closes the
// connection.
func (rc *ReliableConn) Close() error {
	if rc.conn == nil {
		return nil
	}
	_, _ = io.WriteString(rc.conn.c, "!bye\n")
	err := rc.conn.Close()
	rc.conn = nil
	return err
}

// Execute runs one statement with exactly-once delivery. A returned
// *ServerError is the statement's own outcome (it executed and
// failed, exactly once); other errors mean delivery itself failed.
func (rc *ReliableConn) Execute(ctx context.Context, stmt string) (*Result, error) {
	out, err := rc.run(ctx, []string{stmt})
	if err != nil {
		return nil, err
	}
	return out[0].Result, out[0].Err
}

// ExecuteBatch pipelines stmts with exactly-once delivery, chunking to
// stay inside the server's replay window. Statement-level errors land
// in their BatchResult; a non-nil error means a chunk could not be
// delivered (the slice holds the chunks that were).
func (rc *ReliableConn) ExecuteBatch(ctx context.Context, stmts []string) ([]BatchResult, error) {
	out := make([]BatchResult, 0, len(stmts))
	for start := 0; start < len(stmts); start += reliableBatchChunk {
		end := min(start+reliableBatchChunk, len(stmts))
		chunk, err := rc.run(ctx, stmts[start:end])
		if err != nil {
			return out, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// run stamps one chunk, delivers it (reconnecting as needed), and
// retries overload rejections with fresh sequence numbers.
func (rc *ReliableConn) run(ctx context.Context, stmts []string) ([]BatchResult, error) {
	for i, stmt := range stmts {
		if strings.ContainsAny(stmt, "\r\n") {
			return nil, fmt.Errorf("client: statement %d contains a newline", i)
		}
		if strings.TrimSpace(stmt) == "" {
			return nil, fmt.Errorf("client: statement %d is empty", i)
		}
	}
	out := make([]BatchResult, len(stmts))
	idx := make([]int, 0, len(stmts)) // out position of each pending stmt
	for i, stmt := range stmts {
		rc.nextSeq++
		rc.pending = append(rc.pending, pendingStmt{seq: rc.nextSeq, text: stmt})
		idx = append(idx, i)
	}
	backoff := rc.cfg.BackoffFloor
	for round := 0; ; round++ {
		res, err := rc.deliver(ctx)
		if err != nil {
			return nil, err
		}
		// An overloaded rejection never executed, so it is the one
		// statement error that is safe — and expected — to retry. A
		// retry is a new submission (fresh sequence number): the old
		// number is burned on the cached rejection.
		var retryIdx []int
		for i, r := range res {
			if r.Err != nil && IsRetryable(r.Err) && round+1 < rc.cfg.MaxAttempts {
				retryIdx = append(retryIdx, idx[i])
				continue
			}
			out[idx[i]] = r
		}
		if len(retryIdx) == 0 {
			return out, nil
		}
		for _, oi := range retryIdx {
			rc.nextSeq++
			rc.pending = append(rc.pending, pendingStmt{seq: rc.nextSeq, text: stmts[oi]})
		}
		idx = retryIdx
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("client: overload retry: %w", ctx.Err())
		case <-time.After(jitteredBackoff(backoff)):
		}
		if backoff *= 2; backoff > rc.cfg.BackoffCap {
			backoff = rc.cfg.BackoffCap
		}
	}
}

// deliver sends the pending tail and reads its replies, riding across
// transport failures: drop the broken connection, back off with full
// jitter, reconnect, resume the session, resend the whole tail. The
// server's dedup window answers the already-executed prefix from
// cache, so resending everything is safe.
func (rc *ReliableConn) deliver(ctx context.Context) ([]BatchResult, error) {
	backoff := rc.cfg.BackoffFloor
	var lastErr error
	for attempt := 0; attempt < rc.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("client: delivery interrupted: %w (last error: %v)", ctx.Err(), lastErr)
			case <-time.After(jitteredBackoff(backoff)):
			}
			if backoff *= 2; backoff > rc.cfg.BackoffCap {
				backoff = rc.cfg.BackoffCap
			}
		}
		if rc.conn == nil {
			if err := rc.connect(ctx); err != nil {
				if errors.Is(err, ErrSessionExpired) || ctx.Err() != nil {
					return nil, err
				}
				lastErr = err
				continue
			}
		}
		res, err := rc.exchange()
		if err == nil {
			rc.pending = rc.pending[:0]
			return res, nil
		}
		lastErr = err
		rc.dropConn()
	}
	return nil, fmt.Errorf("client: gave up after %d delivery attempts: %w (acked statements applied exactly once; the unacked tail's outcome is unknown)", rc.cfg.MaxAttempts, lastErr)
}

// exchange performs one wire round: all pending statements in one
// write, then one reply each. Any transport-level failure aborts the
// round (and poisons the Conn); statement-level ERRs are results.
func (rc *ReliableConn) exchange() ([]BatchResult, error) {
	c := rc.conn
	var sb strings.Builder
	for _, p := range rc.pending {
		sb.WriteString("!q ")
		sb.WriteString(strconv.FormatUint(p.seq, 10))
		sb.WriteByte(' ')
		sb.WriteString(p.text)
		sb.WriteByte('\n')
	}
	if _, err := io.WriteString(c.c, sb.String()); err != nil {
		return nil, c.poison(fmt.Errorf("client: send stamped batch: %w", err))
	}
	out := make([]BatchResult, 0, len(rc.pending))
	for range rc.pending {
		res, err := c.readResult()
		if err != nil {
			var se *ServerError
			if !errors.As(err, &se) {
				return nil, err
			}
			out = append(out, BatchResult{Err: err})
			continue
		}
		out = append(out, BatchResult{Result: res})
	}
	return out, nil
}

// dropConn discards the (presumed broken) connection.
func (rc *ReliableConn) dropConn() {
	if rc.conn != nil {
		_ = rc.conn.Close()
		rc.conn = nil
	}
}

// connect dials and establishes (or resumes) the server session.
func (rc *ReliableConn) connect(ctx context.Context) error {
	c, err := DialContext(ctx, rc.addr)
	if err != nil {
		return err
	}
	if rc.token == "" {
		tok, err := c.hello()
		if err != nil {
			_ = c.Close()
			return err
		}
		rc.token = tok
	} else if err := c.resume(rc.token); err != nil {
		_ = c.Close()
		return err
	}
	rc.conn = c
	return nil
}

// controlLine reads one raw reply line for the control exchange.
func (c *Conn) controlLine() (string, error) {
	line, err := c.readLine()
	if err != nil {
		return "", c.poison(err)
	}
	return string(line), nil
}

// hello establishes a fresh resumable session, returning its token.
func (c *Conn) hello() (string, error) {
	if c.broken {
		return "", ErrConnBroken
	}
	if _, err := io.WriteString(c.c, "!hello\n"); err != nil {
		return "", c.poison(fmt.Errorf("client: send hello: %w", err))
	}
	line, err := c.controlLine()
	if err != nil {
		return "", err
	}
	if tok, ok := strings.CutPrefix(line, "!session "); ok && tok != "" {
		return tok, nil
	}
	return "", c.poison(fmt.Errorf("client: unexpected hello reply %q", line))
}

// resume reattaches to the session named by token.
func (c *Conn) resume(token string) error {
	if c.broken {
		return ErrConnBroken
	}
	if _, err := io.WriteString(c.c, "!resume "+token+"\n"); err != nil {
		return c.poison(fmt.Errorf("client: send resume: %w", err))
	}
	line, err := c.controlLine()
	if err != nil {
		return err
	}
	switch {
	case strings.HasPrefix(line, "!ok "):
		return nil
	case strings.HasPrefix(line, "!err "):
		msg := line[len("!err "):]
		if m, uerr := wire.Unescape(msg); uerr == nil {
			msg = m
		}
		return fmt.Errorf("%w: %s", ErrSessionExpired, msg)
	default:
		return c.poison(fmt.Errorf("client: unexpected resume reply %q", line))
	}
}

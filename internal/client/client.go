// Package client is the TCP client for the snapdb server's line
// protocol (see internal/server for the wire format).
package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"time"

	"snapdb/internal/sqlparse"
	"snapdb/internal/wire"
)

// Result is one statement's outcome.
type Result struct {
	Columns      []string
	Rows         [][]sqlparse.Value
	RowsAffected int
	RowsExamined int
	FromCache    bool
}

// ServerError is a statement-level error reported by the server (an
// ERR reply). The connection remains usable after one; transport
// failures are returned as ordinary errors instead.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "client: server: " + e.Msg }

// ErrConnBroken reports a Conn poisoned by an earlier transport
// failure. Once a write fails, a read fails, or a reply is malformed,
// the request/reply framing may be desynchronized — a later reply
// could be attributed to the wrong statement — so every subsequent
// call fails fast with this error instead of risking a misattributed
// result. Recovery is a new connection (or a ReliableConn, which
// reconnects and replays automatically).
var ErrConnBroken = errors.New("client: connection poisoned by earlier transport error")

// BatchResult is one statement's outcome within ExecuteBatch: exactly
// one of Result and Err is set.
type BatchResult struct {
	Result *Result
	Err    error
}

// Conn is one client connection (one server-side session). A Conn is
// not safe for concurrent use; sendBuf is the reused statement-framing
// scratch behind that contract.
type Conn struct {
	c       net.Conn
	r       *bufio.Reader
	sendBuf []byte
	lineBuf []byte

	// broken latches the first transport-level failure (see
	// ErrConnBroken); statement-level ERR replies never set it.
	broken bool

	// Column-header interning: the raw COLS payload of the previous
	// reply and the []string it parsed to (see readResult).
	lastColsRaw []byte
	lastCols    []string
}

// parseOKHeader parses the four space-separated counters of an OK
// reply without the fmt scanner or any intermediate strings.
func parseOKHeader(b []byte) (nrows, affected, fromCache, examined int, ok bool) {
	var vals [4]int
	i := 0
	for f := 0; f < 4; f++ {
		if f > 0 {
			if i >= len(b) || b[i] != ' ' {
				return 0, 0, 0, 0, false
			}
			i++
		}
		n, digits := 0, 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			n = n*10 + int(b[i]-'0')
			i++
			digits++
		}
		if digits == 0 {
			return 0, 0, 0, 0, false
		}
		vals[f] = n
	}
	if i != len(b) {
		return 0, 0, 0, 0, false
	}
	return vals[0], vals[1], vals[2], vals[3], true
}

// Dial connects to a snapdb server.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return &Conn{c: c, r: bufio.NewReader(c)}, nil
}

// Backoff schedule for DialContext: exponential from 10ms, capped.
const (
	dialBackoffFloor = 10 * time.Millisecond
	dialBackoffCap   = 640 * time.Millisecond
)

// jitteredBackoff draws one full-jitter sleep: uniform in (0, envelope].
// Full jitter (sleep = random(0, envelope), envelope doubling per
// attempt) decorrelates the retry times of clients that failed
// together — after a server restart or a network partition heals, a
// deterministic schedule would march every waiting client back in
// lockstep, re-creating the overload that made them back off. The +1
// keeps the sleep nonzero so a tight dial loop cannot spin.
func jitteredBackoff(envelope time.Duration) time.Duration {
	return time.Duration(rand.Int63n(int64(envelope))) + 1
}

// DialContext connects to a snapdb server, retrying transient dial
// failures (server still booting or recovering, connection refused)
// with capped exponential backoff and full jitter until the context's
// deadline or cancellation. A server that just crashed takes a moment
// to replay its logs; clients that redial with DialContext ride across
// the recovery window instead of failing their first statement.
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	var (
		d       net.Dialer
		lastErr error
	)
	backoff := dialBackoffFloor
	for {
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return &Conn{c: c, r: bufio.NewReader(c)}, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(jitteredBackoff(backoff)):
		}
		if ctx.Err() != nil {
			break
		}
		backoff *= 2
		if backoff > dialBackoffCap {
			backoff = dialBackoffCap
		}
	}
	return nil, fmt.Errorf("client: dial %s: %w (last attempt: %v)", addr, ctx.Err(), lastErr)
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// poison latches the broken flag and returns err unchanged; every
// transport-level failure funnels through here.
func (c *Conn) poison(err error) error {
	c.broken = true
	return err
}

// Execute sends one statement and reads the response. Statements must
// not contain newlines (the protocol is line-oriented).
func (c *Conn) Execute(stmt string) (*Result, error) {
	if c.broken {
		return nil, ErrConnBroken
	}
	if strings.ContainsAny(stmt, "\r\n") {
		return nil, fmt.Errorf("client: statement contains a newline")
	}
	c.sendBuf = append(append(c.sendBuf[:0], stmt...), '\n')
	if _, err := c.c.Write(c.sendBuf); err != nil {
		return nil, c.poison(fmt.Errorf("client: send: %w", err))
	}
	return c.readResult()
}

// Explain runs EXPLAIN on the statement and returns the rendered plan,
// one operator per line, root first. The statement is planned but not
// executed.
func (c *Conn) Explain(stmt string) ([]string, error) {
	return c.explainLines("EXPLAIN " + stmt)
}

// ExplainAnalyze runs EXPLAIN ANALYZE on the statement: the statement
// really executes server-side (mutations apply, pages are fetched) and
// the returned plan lines carry the per-operator runtime counters.
func (c *Conn) ExplainAnalyze(stmt string) ([]string, error) {
	return c.explainLines("EXPLAIN ANALYZE " + stmt)
}

func (c *Conn) explainLines(query string) ([]string, error) {
	res, err := c.Execute(query)
	if err != nil {
		return nil, err
	}
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		if len(row) != 1 {
			return nil, fmt.Errorf("client: malformed EXPLAIN row %v", row)
		}
		lines = append(lines, row[0].Str)
	}
	return lines, nil
}

// ExecuteBatch pipelines stmts over the connection: every statement is
// sent in one write, then the replies are read back in order. This
// collapses N network round trips into one, which is where the
// per-statement latency of a remote snapdb server actually goes.
//
// Statement errors are isolated exactly as in sequential Execute
// calls: a failed statement yields a BatchResult with Err set (a
// *ServerError) and the remaining statements still run. The returned
// error is transport-level only; when it is non-nil the slice holds
// the replies received before the failure.
//
// Statements must be non-empty and newline-free: the server skips
// blank lines without replying, so an empty statement would desync
// the reply stream.
func (c *Conn) ExecuteBatch(stmts []string) ([]BatchResult, error) {
	if c.broken {
		return nil, ErrConnBroken
	}
	if len(stmts) == 0 {
		return nil, nil
	}
	total := 0
	for i, stmt := range stmts {
		if strings.ContainsAny(stmt, "\r\n") {
			return nil, fmt.Errorf("client: statement %d contains a newline", i)
		}
		if strings.TrimSpace(stmt) == "" {
			return nil, fmt.Errorf("client: statement %d is empty", i)
		}
		total += len(stmt) + 1
	}
	var batch strings.Builder
	batch.Grow(total)
	for _, stmt := range stmts {
		batch.WriteString(stmt)
		batch.WriteByte('\n')
	}
	if _, err := io.WriteString(c.c, batch.String()); err != nil {
		return nil, c.poison(fmt.Errorf("client: send batch: %w", err))
	}
	out := make([]BatchResult, 0, len(stmts))
	for range stmts {
		res, err := c.readResult()
		var se *ServerError
		if err != nil && !errors.As(err, &se) {
			return out, err
		}
		out = append(out, BatchResult{Result: res, Err: err})
	}
	return out, nil
}

// readResult parses one statement reply. An ERR reply comes back as a
// *ServerError; any other error means the connection is broken, so the
// Conn is poisoned (ErrConnBroken from then on).
func (c *Conn) readResult() (*Result, error) {
	res, err := c.readReply()
	if err != nil {
		var se *ServerError
		if !errors.As(err, &se) {
			_ = c.poison(err)
		}
	}
	return res, err
}

// readReply parses one reply off the wire.
//
// Parsing works on the reader's byte slices directly: the only strings
// materialized are the ones the caller keeps (column names, values,
// error text). The reply path runs once per statement on every remote
// workload, so reply framing must not allocate.
func (c *Conn) readReply() (*Result, error) {
	line, err := c.readLine()
	if err != nil {
		return nil, err
	}
	switch {
	case bytes.HasPrefix(line, []byte("ERR ")):
		raw := string(line[4:])
		msg, uerr := wire.Unescape(raw)
		if uerr != nil {
			msg = raw
		}
		return nil, &ServerError{Msg: msg}
	case bytes.HasPrefix(line, []byte("OK ")):
		nrows, affected, fromCache, examined, ok := parseOKHeader(line[3:])
		if !ok {
			return nil, fmt.Errorf("client: malformed OK line %q", line)
		}
		res := &Result{RowsAffected: affected, RowsExamined: examined, FromCache: fromCache == 1}
		if nrows == 0 {
			return res, nil
		}
		cols, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if !bytes.HasPrefix(cols, []byte("COLS ")) {
			return nil, fmt.Errorf("client: expected COLS line, got %q", cols)
		}
		// Workloads repeat the same projections, so the previous
		// reply's column slice usually matches byte for byte — reuse it
		// instead of re-splitting. Results share the slice; they never
		// mutate it.
		if bytes.Equal(cols[5:], c.lastColsRaw) && c.lastCols != nil {
			res.Columns = c.lastCols
		} else {
			res.Columns = strings.Split(string(cols[5:]), "\t")
			c.lastColsRaw = append(c.lastColsRaw[:0], cols[5:]...)
			c.lastCols = res.Columns
		}
		res.Rows = make([][]sqlparse.Value, 0, nrows)
		for i := 0; i < nrows; i++ {
			rowLine, err := c.readLine()
			if err != nil {
				return nil, err
			}
			row := make([]sqlparse.Value, 0, len(res.Columns))
			rest := rowLine
			for {
				var field []byte
				if j := bytes.IndexByte(rest, '\t'); j >= 0 {
					field, rest = rest[:j], rest[j+1:]
				} else {
					field, rest = rest, nil
				}
				v, err := wire.DecodeValue(field)
				if err != nil {
					return nil, fmt.Errorf("client: row %d: %w", i, err)
				}
				row = append(row, v)
				if rest == nil {
					break
				}
			}
			res.Rows = append(res.Rows, row)
		}
		return res, nil
	default:
		return nil, fmt.Errorf("client: unexpected response %q", line)
	}
}

// readLine returns the next reply line without its terminator. The
// returned slice aliases the reader's buffer (or c.lineBuf for lines
// longer than it) and is valid only until the next readLine call.
func (c *Conn) readLine() ([]byte, error) {
	c.lineBuf = c.lineBuf[:0]
	for {
		frag, err := c.r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			c.lineBuf = append(c.lineBuf, frag...)
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("client: read: %w", err)
		}
		line := frag
		if len(c.lineBuf) > 0 {
			c.lineBuf = append(c.lineBuf, frag...)
			line = c.lineBuf
		}
		for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
			line = line[:len(line)-1]
		}
		return line, nil
	}
}

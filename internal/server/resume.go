package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"sync"
	"time"

	"snapdb/internal/engine"
)

// Exactly-once retry support: the server half.
//
// A client that opts into the control protocol (see the package
// comment) owns a resumable session identified by an opaque token. It
// stamps every statement with a monotonically increasing sequence
// number; the server executes a statement only when its sequence is
// the next one expected, and keeps a bounded window of rendered
// replies so a retry of an already-executed statement is answered from
// cache instead of executing twice. That turns the client's "resend
// everything unacknowledged" recovery into exactly-once application:
// at-least-once delivery plus server-side deduplication.
//
// The forensic cost is deliberate and measured by experiment E14: the
// dedup window retains full rendered replies (result rows included)
// for statements the client finished long ago, and a replayed arrival
// leaves a duplicate general-log record. Retry machinery is itself a
// recording surface.

const (
	// dedupWindow is how many rendered replies a resumable session
	// retains for replay. A reconnecting client replays at most one
	// in-flight batch, so the window need only exceed the largest batch
	// (ReliableConn chunks at reliableBatchChunk = 64).
	dedupWindow = 128

	// resumeTTL is how long a detached resumable session (its
	// connection dropped, no reconnect yet) is retained before being
	// reaped. Mirrors the idle timeout's job: a client that never comes
	// back must not pin an engine session forever.
	resumeTTL = time.Minute
)

// cachedReply is one statement's retained outcome: the statement text
// (for the general-log replay record) and the fully rendered wire
// reply, ERR or OK framing included.
type cachedReply struct {
	seq   uint64
	stmt  string
	reply []byte
}

// resumeSession is one resumable client session. mu serializes
// statement dispatch, so a stolen session (old connection still
// draining buffered statements while the client reconnects) never runs
// two statements concurrently on the one engine session.
type resumeSession struct {
	token string
	sess  *engine.Session

	mu         sync.Mutex
	lastSeq    uint64
	replies    []cachedReply // ring, oldest first, ≤ dedupWindow entries
	owner      net.Conn
	detachedAt time.Time // zero while attached
}

// dispatch applies the exactly-once rule to one stamped statement.
// exec renders one execution (called only when the statement is new);
// the returned reply is what goes on the wire, replayed true when it
// came from the cache.
func (rs *resumeSession) dispatch(seq uint64, stmt string, exec func(string) []byte) (reply []byte, replayed bool, err error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	switch {
	case seq == rs.lastSeq+1:
		reply = exec(stmt)
		rs.lastSeq = seq
		rs.replies = append(rs.replies, cachedReply{seq: seq, stmt: stmt, reply: reply})
		if len(rs.replies) > dedupWindow {
			rs.replies = rs.replies[len(rs.replies)-dedupWindow:]
		}
		return reply, false, nil
	case seq <= rs.lastSeq:
		for _, cr := range rs.replies {
			if cr.seq == seq {
				// The statement arrived again: record the arrival (the
				// general log logs arrivals, not executions — this is
				// E14's duplicate-record channel) and answer from cache.
				rs.sess.NoteReplay(cr.stmt)
				return cr.reply, true, nil
			}
		}
		return nil, false, fmt.Errorf("replay window exceeded for seq %d (oldest retained %d)", seq, rs.lastSeq+1-uint64(len(rs.replies)))
	default:
		return nil, false, fmt.Errorf("sequence gap: got %d, want %d", seq, rs.lastSeq+1)
	}
}

// resumeRegistry tracks resumable sessions by token.
type resumeRegistry struct {
	mu       sync.Mutex
	sessions map[string]*resumeSession
}

// newToken draws an unguessable session token. Resuming requires the
// token, so it must not be predictable from connection order.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: token entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// create registers a fresh resumable session owned by conn.
func (rr *resumeRegistry) create(sess *engine.Session, conn net.Conn) *resumeSession {
	rs := &resumeSession{token: newToken(), sess: sess, owner: conn}
	rr.mu.Lock()
	rr.reapLocked(time.Now())
	rr.sessions[rs.token] = rs
	rr.mu.Unlock()
	return rs
}

// attach resumes the session named by token on conn, stealing
// ownership from (and closing) any previous connection still attached.
// Returns nil if the token is unknown or already reaped.
func (rr *resumeRegistry) attach(token string, conn net.Conn) *resumeSession {
	rr.mu.Lock()
	rr.reapLocked(time.Now())
	rs := rr.sessions[token]
	rr.mu.Unlock()
	if rs == nil {
		return nil
	}
	rs.mu.Lock()
	old := rs.owner
	rs.owner = conn
	rs.detachedAt = time.Time{}
	rs.mu.Unlock()
	if old != nil && old != conn {
		// The old connection is a zombie (the client gave up on it);
		// closing it unblocks its handler, whose detach is then a no-op.
		_ = old.Close()
	}
	return rs
}

// detach records that conn no longer serves rs. The engine session
// stays alive awaiting a resume until the TTL reaps it; a handler that
// lost ownership to a steal detaches nothing.
func (rr *resumeRegistry) detach(rs *resumeSession, conn net.Conn) {
	rs.mu.Lock()
	if rs.owner == conn {
		rs.owner = nil
		rs.detachedAt = time.Now()
	}
	rs.mu.Unlock()
}

// release removes rs entirely (the client said !bye): the engine
// session closes and the cached replies are dropped.
func (rr *resumeRegistry) release(rs *resumeSession) {
	rr.mu.Lock()
	delete(rr.sessions, rs.token)
	rr.mu.Unlock()
	rs.sess.Close()
}

// reapLocked drops sessions detached longer than the TTL. Called under
// rr.mu from create/attach — session churn drives reaping, so an idle
// server needs no timer goroutine.
func (rr *resumeRegistry) reapLocked(now time.Time) {
	for tok, rs := range rr.sessions {
		rs.mu.Lock()
		expired := rs.owner == nil && !rs.detachedAt.IsZero() && now.Sub(rs.detachedAt) > resumeTTL
		rs.mu.Unlock()
		if expired {
			delete(rr.sessions, tok)
			rs.sess.Close()
		}
	}
}

// closeAll releases every resumable session (server shutdown).
func (rr *resumeRegistry) closeAll() {
	rr.mu.Lock()
	sessions := rr.sessions
	rr.sessions = make(map[string]*resumeSession)
	rr.mu.Unlock()
	for _, rs := range sessions {
		rs.sess.Close()
	}
}

// RetainedReplies snapshots every rendered reply currently held in
// dedup windows, across all resumable sessions. This is a forensic
// surface, not an API convenience: E14 scans it to show that result
// rows (secrets included) outlive their statements inside the retry
// machinery.
func (s *Server) RetainedReplies() [][]byte {
	rr := s.resume
	rr.mu.Lock()
	sessions := make([]*resumeSession, 0, len(rr.sessions))
	for _, rs := range rr.sessions {
		sessions = append(sessions, rs)
	}
	rr.mu.Unlock()
	var out [][]byte
	for _, rs := range sessions {
		rs.mu.Lock()
		for _, cr := range rs.replies {
			out = append(out, append([]byte(nil), cr.reply...))
		}
		rs.mu.Unlock()
	}
	return out
}

// ResumeSessionCount reports how many resumable sessions the server
// currently retains (attached or awaiting resume). Orphans pin engine
// sessions until the TTL fires — E14's session-retention metric.
func (s *Server) ResumeSessionCount() int {
	rr := s.resume
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return len(rr.sessions)
}

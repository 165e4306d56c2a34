package main

import (
	"errors"

	"snapdb/internal/client"
	"snapdb/internal/engine"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// reply is one statement's outcome in the shape the checkers read,
// whichever way the statement travelled.
type reply struct {
	rows     [][]sqlparse.Value // over the wire
	recs     []storage.Record   // straight from the engine (same element type, no copy)
	affected int
	examined int
	err      error // statement-level error (an ERR reply); transport errors are returned separately
}

func (r *reply) nrows() int {
	if r.recs != nil {
		return len(r.recs)
	}
	return len(r.rows)
}

func (r *reply) row(i int) []sqlparse.Value {
	if r.recs != nil {
		return r.recs[i]
	}
	return r.rows[i]
}

// executor sends statements somewhere and returns their replies. The
// returned error is transport-level: the stream is unusable after it.
type executor interface {
	exec(stmt string) (reply, error)
	// execBatch pipelines stmts as one request, filling out[i] for
	// stmts[i].
	execBatch(stmts []string, out []reply) error
	close()
}

// wireExec is an executor over the line protocol: the real client
// talking to a real listener, in this process or another.
type wireExec struct{ c *client.Conn }

func dialWire(addr string) (*wireExec, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &wireExec{c: c}, nil
}

func fromClient(res *client.Result, err error) (reply, error) {
	if err != nil {
		var se *client.ServerError
		if errors.As(err, &se) {
			return reply{err: err}, nil
		}
		return reply{}, err
	}
	return reply{rows: res.Rows, affected: res.RowsAffected, examined: res.RowsExamined}, nil
}

func (w *wireExec) exec(stmt string) (reply, error) { return fromClient(w.c.Execute(stmt)) }

func (w *wireExec) execBatch(stmts []string, out []reply) error {
	res, err := w.c.ExecuteBatch(stmts)
	if err != nil {
		return err
	}
	for i := range res {
		out[i], _ = fromClient(res[i].Result, res[i].Err)
	}
	return nil
}

func (w *wireExec) close() { _ = w.c.Close() }

// directExec is an executor straight into an engine session: the
// traced replay uses it to time Session.Execute without the wire.
type directExec struct{ s *engine.Session }

func fromEngine(res *engine.Result, err error) reply {
	if err != nil {
		return reply{err: err}
	}
	return reply{recs: res.Rows, affected: res.RowsAffected, examined: res.RowsExamined}
}

func (d *directExec) exec(stmt string) (reply, error) { return fromEngine(d.s.Execute(stmt)), nil }

func (d *directExec) execBatch(stmts []string, out []reply) error {
	for i, s := range stmts {
		out[i] = fromEngine(d.s.Execute(s))
	}
	return nil
}

func (d *directExec) close() { d.s.Close() }

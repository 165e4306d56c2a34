package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The closed loop. Every client sends a request (one statement, or one
// pipelined batch), waits for the reply, checks it, and only then sends
// the next: a slower server receives less load. The same loop drives
// the spawned daemon over TCP, the in-process server of the traced
// pass, and an engine session directly; only the executors differ.

// sliceDur is the width of the slices the timed window is cut into. The
// gated throughput and request-latency figures are medians over the
// window's full slices, so a disturbance confined to one slice (a
// neighbour's burst, a long GC cycle) does not reach them.
const sliceDur = 1500 * time.Millisecond

// maxWindow aborts a workload that runs away: it then counts as failed.
const maxWindow = 120 * time.Second

// latency classes of the end-to-end report.
const (
	classReq   = iota // every request
	classRead         // SELECT
	classWrite        // autocommit DML, or COMMIT
	classBatch        // one pipelined ExecuteBatch
	numClasses
)

type loopConfig struct {
	w       *workload
	clients []actor
	execs   []executor
	// requests is the number of requests to issue, shared by the
	// driving clients through one counter so none idles at the end.
	// txn_mixed's reader follows instead: it runs until the writer
	// (the only driver) is done.
	requests int64
	// serial runs every client from one goroutine, round robin, so one
	// request is in flight at any time and every count repeats exactly.
	serial bool
	// perKind keeps a latency series per statement class as well.
	perKind bool
	// span, when set, is called with each request's interval.
	span func(c int, o *op, start, end time.Time)
}

type loopResult struct {
	elapsed    time.Duration
	stmts      int64 // statements acknowledged (replied to, right or wrong)
	failed     int64 // errored, refused or wrong
	writeBytes int64 // text bytes of acknowledged DML
	writeStmts int64
	commits    int64
	rowsBack   int64 // rows returned by reads
	examined   int64 // rows examined by reads
	class      [numClasses]latencies
	kind       [numOpKinds]latencies
	slices     []int64     // statements completed per slice
	sliceReq   []latencies // request round trips per slice
	err        error       // transport failure or runaway: the run is void
}

// follows reports whether client c of w runs until the drivers finish
// instead of consuming the request quota.
func (w *workload) follows(c int) bool { return c > 0 && c == w.follower }

// requestsFor converts a statement budget into whole requests.
func (w *workload) requestsFor(stmts int64) int64 {
	n := stmts / int64(w.batch)
	u := max(w.unit, 1)
	n = (n + u - 1) / u * u
	if n < u {
		n = u
	}
	return n
}

// worker is one client's share of a loop.
type worker struct {
	cfg     *loopConfig
	c       int
	res     loopResult
	ops     []op
	stmts   []string
	replies []reply
	logged  *atomic.Int32
	start   time.Time
}

func newWorker(cfg *loopConfig, c int, logged *atomic.Int32, start time.Time) *worker {
	b := cfg.w.batch
	w := &worker{cfg: cfg, c: c, logged: logged, start: start,
		ops: make([]op, b), stmts: make([]string, b), replies: make([]reply, b)}
	n := int(cfg.requests) + 16
	if n > 1<<22 {
		n = 1 << 22
	}
	w.res.class[classReq].ns = make([]uint32, 0, n)
	w.res.class[classRead].ns = make([]uint32, 0, n)
	w.res.slices = make([]int64, 0, 128)
	return w
}

// one issues and checks one request.
func (w *worker) one() error {
	cfg := w.cfg
	cl, ex := cfg.clients[w.c], cfg.execs[w.c]
	b := len(w.ops)
	for i := range w.ops {
		cl.next(&w.ops[i])
		w.stmts[i] = w.ops[i].sql
	}
	t0 := time.Now()
	var err error
	if b == 1 {
		w.replies[0], err = ex.exec(w.stmts[0])
	} else {
		err = ex.execBatch(w.stmts, w.replies)
	}
	t1 := time.Now()
	if err != nil {
		return err
	}
	d := t1.Sub(t0).Nanoseconds()
	if cfg.span != nil {
		cfg.span(w.c, &w.ops[0], t0, t1)
	}
	r := &w.res
	r.class[classReq].add(d)
	if b > 1 {
		r.class[classBatch].add(d)
	}
	for i := range w.ops {
		o, rep := &w.ops[i], &w.replies[i]
		r.stmts++
		if !cl.check(o, rep) {
			r.failed++
			if w.logged.Add(1) <= 5 {
				fmt.Fprintf(os.Stderr, "bench: %s client %d: wrong answer to %q: err=%v rows=%d affected=%d\n",
					cfg.w.name, w.c, o.sql, rep.err, rep.nrows(), rep.affected)
			}
		}
		switch {
		case o.kind.isRead():
			r.rowsBack += int64(rep.nrows())
			r.examined += int64(rep.examined)
			if b == 1 {
				r.class[classRead].add(d)
			}
		case o.kind.isWrite():
			r.writeBytes += int64(len(o.sql))
			r.writeStmts++
			if b == 1 && !o.inTxn {
				r.class[classWrite].add(d)
			}
		case o.kind == opCommit:
			r.commits++
			r.class[classWrite].add(d)
		}
		if cfg.perKind && b == 1 {
			r.kind[o.kind].add(d)
		}
	}
	slice := int(t1.Sub(w.start) / sliceDur)
	for len(r.slices) <= slice {
		r.slices = append(r.slices, 0)
		r.sliceReq = append(r.sliceReq, latencies{})
	}
	r.slices[slice] += int64(b)
	r.sliceReq[slice].add(d)
	return nil
}

// runLoop runs the configured number of requests and merges the
// clients' results.
func runLoop(cfg *loopConfig) *loopResult {
	var (
		remaining atomic.Int64
		drivers   atomic.Int32
		logged    atomic.Int32
	)
	remaining.Store(cfg.requests)
	start := time.Now()
	deadline := start.Add(maxWindow)
	workers := make([]*worker, len(cfg.clients))
	for c := range workers {
		workers[c] = newWorker(cfg, c, &logged, start)
		if !cfg.w.follows(c) {
			drivers.Add(1)
		}
	}
	// step runs one request of worker wk if it still has work; done
	// reports that it has none left.
	step := func(wk *worker) (done bool) {
		if cfg.w.follows(wk.c) {
			if drivers.Load() == 0 {
				return true
			}
		} else if remaining.Add(-1) < 0 {
			return true
		}
		if err := wk.one(); err != nil {
			wk.res.err = err
			return true
		}
		if time.Now().After(deadline) {
			wk.res.err = fmt.Errorf("bench: %s exceeded %v", cfg.w.name, maxWindow)
			return true
		}
		return false
	}
	if cfg.serial {
		live := len(workers)
		finished := make([]bool, len(workers))
		for live > 0 {
			for c, wk := range workers {
				if finished[c] {
					continue
				}
				if step(wk) {
					finished[c] = true
					live--
					if !cfg.w.follows(c) {
						drivers.Add(-1)
					}
				}
			}
		}
	} else {
		var wg sync.WaitGroup
		for _, wk := range workers {
			wg.Add(1)
			go func(wk *worker) {
				defer wg.Done()
				for !step(wk) {
				}
				if !cfg.w.follows(wk.c) {
					drivers.Add(-1)
				}
			}(wk)
		}
		wg.Wait()
	}
	out := &loopResult{}
	for _, wk := range workers {
		out.absorb(&wk.res)
	}
	out.elapsed = time.Since(start)
	return out
}

// absorb adds r's counts and samples to l (elapsed times add, too: the
// parts are assumed to have run one after another).
func (l *loopResult) absorb(r *loopResult) {
	l.elapsed += r.elapsed
	l.stmts += r.stmts
	l.failed += r.failed
	l.writeBytes += r.writeBytes
	l.writeStmts += r.writeStmts
	l.commits += r.commits
	l.rowsBack += r.rowsBack
	l.examined += r.examined
	for i := range r.class {
		l.class[i].merge(&r.class[i])
	}
	for i := range r.kind {
		l.kind[i].merge(&r.kind[i])
	}
	for i, n := range r.slices {
		for len(l.slices) <= i {
			l.slices = append(l.slices, 0)
			l.sliceReq = append(l.sliceReq, latencies{})
		}
		l.slices[i] += n
		l.sliceReq[i].merge(&r.sliceReq[i])
	}
	if r.err != nil && l.err == nil {
		l.err = r.err
	}
}

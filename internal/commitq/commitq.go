// Package commitq is the leader/follower group-commit queue under the
// WAL manager (wal.Manager), which frames the redo, undo and binlog
// records of every commit into its pending batch.
//
// An enqueue stamps its items and adds them to the pending batch in one
// critical section, so queue order equals stamp order — the invariant
// the LSN↔timestamp correlations (E3, E8) regress over: however
// statements interleave, redo and undo come out strictly LSN-ordered
// and the binlog non-decreasing in LSN and timestamp.
//
// Enqueueing does not wait: it returns a Ticket, and Wait on that
// ticket returns once the items' batch has been flushed. Whoever waits
// while no flush runs leads one: it flushes the whole pending batch
// outside the lock (the durability hook), so the items of every
// enqueuer since the last flush share that one flush, while later
// enqueuers fill the next batch. A Wait returns its own batch's flush
// error, no other's.
//
// The queue owns two batches and alternates them: one fills while the
// other is flushed, then reset for reuse.
package commitq

import "sync"

// fate is one batch's outcome, shared by every item that rode in it.
type fate struct {
	done bool
	err  error
}

// Ticket names the batch an enqueue's items joined. The zero Ticket
// names no batch: waiting on it returns at once.
type Ticket struct{ f *fate }

// Pending reports whether t names a batch.
func (t Ticket) Pending() bool { return t.f != nil }

// Queue is a group-commit queue of batches of type B. The embedded
// mutex is the enqueue lock: it also guards whatever state the stamp
// step reads or writes (an LSN counter, a monotonicity floor), so the
// owner's accessors for that state take it directly.
type Queue[B any] struct {
	sync.Mutex
	flushed  *sync.Cond // broadcast after each batch flush
	flush    func(*B) error
	reset    func(*B)
	pend     *B    // the batch being filled
	spare    *B    // the other batch, reset; nil while a leader flushes it
	queued   bool  // pend holds items
	cur      *fate // fate of pend
	inflight *fate // fate of the batch a leader is flushing; nil when none is
}

// New creates a queue whose leaders flush each batch through flush and
// then empty it through reset for reuse.
func New[B any](flush func(*B) error, reset func(*B)) *Queue[B] {
	q := &Queue[B]{flush: flush, reset: reset, pend: new(B), spare: new(B), cur: new(fate)}
	q.flushed = sync.NewCond(&q.Mutex)
	return q
}

// Enqueue runs stamp under the enqueue lock — stamp adds the caller's
// stamped items to the pending batch — and returns the ticket of the
// batch they joined, without waiting for it.
func (q *Queue[B]) Enqueue(stamp func(pend *B)) Ticket {
	q.Lock()
	defer q.Unlock()
	stamp(q.pend)
	q.queued = true
	return Ticket{q.cur}
}

// Tail returns the ticket of the last item enqueued so far — of the
// batch being filled, else of the batch being flushed — or the zero
// Ticket when every item has been flushed. Waiting on it returns once
// everything enqueued before the call is flushed.
func (q *Queue[B]) Tail() Ticket {
	q.Lock()
	defer q.Unlock()
	switch {
	case q.queued:
		return Ticket{q.cur}
	case q.inflight != nil:
		return Ticket{q.inflight}
	}
	return Ticket{}
}

// Wait returns once t's batch has been flushed, and that flush's error.
// While no leader runs, the caller leads: it flushes the pending batch,
// which holds t's items unless an earlier leader took them already.
func (q *Queue[B]) Wait(t Ticket) error {
	if t.f == nil {
		return nil
	}
	q.Lock()
	defer q.Unlock()
	for !t.f.done {
		if q.inflight != nil {
			q.flushed.Wait()
			continue
		}
		b, f := q.pend, q.cur
		q.pend, q.spare, q.queued, q.cur, q.inflight = q.spare, nil, false, new(fate), f
		q.Unlock()
		err := q.flush(b)
		q.reset(b)
		q.Lock()
		q.spare = b
		f.err, f.done = err, true
		q.inflight = nil
		q.flushed.Broadcast()
	}
	return t.f.err
}

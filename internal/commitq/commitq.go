// Package commitq is the leader/follower group-commit queue under the
// WAL manager (wal.Manager), which carries the redo, undo and binlog
// records of every commit through it.
//
// An enqueue stamps its items and appends them to the pending batch in
// one critical section, so queue order equals stamp order — the
// invariant the LSN↔timestamp correlations (E3, E8) regress over:
// however statements interleave, redo and undo come out strictly
// LSN-ordered and the binlog non-decreasing in LSN and timestamp.
//
// Enqueueing does not wait: it returns a Ticket, and Wait on that
// ticket returns once the items' batch has been flushed. Whoever waits
// while no flush runs leads one: it flushes the whole pending batch
// outside the lock (the durability hook), so the items of every
// enqueuer since the last flush share that one flush, while later
// enqueuers fill the next batch. A Wait returns its own batch's flush
// error, no other's.
package commitq

import "sync"

// maxSpare is the largest batch array kept for reuse. A rare huge
// batch (a bulk load's group) is left to the collector instead of
// staying pinned for the life of the queue.
const maxSpare = 1024

// batch is one batch's fate, shared by every item that rode in it.
type batch struct {
	done bool
	err  error
}

// Ticket names the batch an enqueue's items joined. The zero Ticket
// names no batch: waiting on it returns at once.
type Ticket struct{ b *batch }

// Pending reports whether t names a batch.
func (t Ticket) Pending() bool { return t.b != nil }

// Queue is a group-commit queue of T. The embedded mutex is the enqueue
// lock: it also guards whatever state the stamp step reads or writes
// (an LSN counter, a monotonicity floor), so the owner's accessors for
// that state take it directly.
type Queue[T any] struct {
	sync.Mutex
	flushed  *sync.Cond // broadcast after each batch flush
	flush    func([]T) error
	pend     []T    // the batch being filled
	spare    []T    // the last flushed batch's backing array, for reuse
	cur      *batch // fate of pend
	inflight *batch // fate of the batch a leader is flushing; nil when none is
}

// New creates a queue whose leaders flush each batch through flush.
// The slice flush receives is reused after it returns.
func New[T any](flush func([]T) error) *Queue[T] {
	q := &Queue[T]{flush: flush, cur: new(batch)}
	q.flushed = sync.NewCond(&q.Mutex)
	return q
}

// Enqueue runs stamp under the enqueue lock — stamp appends the
// caller's stamped items to the pending batch and returns it — and
// returns the ticket of the batch they joined, without waiting for it.
func (q *Queue[T]) Enqueue(stamp func(pend []T) []T) Ticket {
	q.Lock()
	defer q.Unlock()
	q.pend = stamp(q.pend)
	return Ticket{q.cur}
}

// Tail returns the ticket of the last item enqueued so far — of the
// batch being filled, else of the batch being flushed — or the zero
// Ticket when every item has been flushed. Waiting on it returns once
// everything enqueued before the call is flushed.
func (q *Queue[T]) Tail() Ticket {
	q.Lock()
	defer q.Unlock()
	switch {
	case len(q.pend) > 0:
		return Ticket{q.cur}
	case q.inflight != nil:
		return Ticket{q.inflight}
	}
	return Ticket{}
}

// Wait returns once t's batch has been flushed, and that flush's error.
// While no leader runs, the caller leads: it flushes the pending batch,
// which holds t's items unless an earlier leader took them already.
func (q *Queue[T]) Wait(t Ticket) error {
	if t.b == nil {
		return nil
	}
	q.Lock()
	defer q.Unlock()
	for !t.b.done {
		if q.inflight != nil {
			q.flushed.Wait()
			continue
		}
		items, b := q.pend, q.cur
		q.pend, q.cur, q.inflight = q.spare[:0], new(batch), b
		q.Unlock()
		err := q.flush(items)
		clear(items) // drop references; the array is reused
		q.Lock()
		q.spare = nil
		if cap(items) <= maxSpare {
			q.spare = items
		}
		b.err, b.done = err, true
		q.inflight = nil
		q.flushed.Broadcast()
	}
	return t.b.err
}

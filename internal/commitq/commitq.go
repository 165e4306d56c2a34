// Package commitq is the leader/follower group-commit queue under the
// WAL (wal.Manager) and the binlog (binlog.Log).
//
// A commit stamps its items and appends them to the pending batch in
// one critical section, so queue order equals stamp order — the
// invariant the LSN↔timestamp correlations (E3, E8) regress over:
// however statements interleave, redo and undo come out strictly
// LSN-ordered and the binlog non-decreasing in LSN and timestamp. One
// committer at a time leads, flushing the pending batch outside the
// lock (the durability hook) while later committers queue for the next
// batch. A commit returns its own batch's flush error, no other's.
package commitq

import "sync"

// batch is one batch's fate, shared by every commit that rode in it.
type batch struct {
	done bool
	err  error
}

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
	flushing bool   // a leader is draining the queue

	committed uint64 // items whose batch has been flushed
	flushes   uint64 // batches flushed
}

// New creates a queue whose leader flushes each batch through flush.
// The slice flush receives is reused after it returns.
func New[T any](flush func([]T) error) *Queue[T] {
	q := &Queue[T]{flush: flush, cur: new(batch)}
	q.flushed = sync.NewCond(&q.Mutex)
	return q
}

// Commit runs stamp under the enqueue lock — stamp appends the caller's
// stamped items to the pending batch and returns it — then leads the
// flush or waits for the running leader, and returns the caller's
// batch's flush error.
func (q *Queue[T]) Commit(stamp func(pend []T) []T) error {
	q.Lock()
	q.pend = stamp(q.pend)
	mine := q.cur
	if q.flushing {
		// Follower: the running leader picks this batch up next.
		for !mine.done {
			q.flushed.Wait()
		}
		q.Unlock()
		return mine.err
	}
	// Leader: drain the queue, including whatever followers enqueue
	// while the flush runs outside the lock.
	q.flushing = true
	for len(q.pend) > 0 {
		items, b := q.pend, q.cur
		q.pend, q.cur = q.spare[:0], new(batch)
		q.Unlock()
		err := q.flush(items)
		clear(items) // drop references; the array is reused
		q.Lock()
		q.spare = items
		b.err, b.done = err, true
		q.committed += uint64(len(items))
		q.flushes++
		q.flushed.Broadcast()
	}
	q.flushing = false
	q.Unlock()
	return mine.err
}

// Stats reports how many items have been committed and in how many
// batch flushes; committed/flushes is the mean group size.
func (q *Queue[T]) Stats() (committed, flushes uint64) {
	q.Lock()
	defer q.Unlock()
	return q.committed, q.flushes
}

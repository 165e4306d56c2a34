package commitq

import (
	"errors"
	"sync"
	"testing"
)

// intQueue is a queue of int batches whose flush sees each batch as a
// slice, reset for reuse after it.
func intQueue(flush func([]int) error) *Queue[[]int] {
	return New(func(b *[]int) error { return flush(*b) }, func(b *[]int) { *b = (*b)[:0] })
}

// TestQueueConcurrentCommits drives the queue from many goroutines with
// a flush function that fails exactly one batch, and checks the three
// things wal.Manager relies on: the flushed batches concatenate to
// stamp order, and the failed batch's error reaches every commit that
// rode in it and no other.
func TestQueueConcurrentCommits(t *testing.T) {
	const goroutines, commits = 8, 200
	boom := errors.New("boom")

	var (
		stamp    int   // guarded by the queue's lock
		flushed  []int // every flushed batch, concatenated; only the leader appends
		failed   = make(map[int]bool)
		flushNo  int
		failedAt = 5
	)
	q := intQueue(func(batch []int) error {
		flushNo++
		flushed = append(flushed, batch...)
		if flushNo == failedAt {
			for _, it := range batch {
				failed[it] = true
			}
			return boom
		}
		return nil
	})

	type outcome struct {
		items []int
		err   error
	}
	results := make(chan outcome, goroutines*commits)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				var mine []int
				err := q.Wait(q.Enqueue(func(pend *[]int) {
					// One or two items per commit, like a one-event and a
					// transaction's multi-event binlog commit.
					for n := 0; n <= (g+i)%2; n++ {
						stamp++
						mine = append(mine, stamp)
						*pend = append(*pend, stamp)
					}
				}))
				results <- outcome{mine, err}
			}
		}(g)
	}
	wg.Wait()
	close(results)

	if flushNo < failedAt {
		t.Fatalf("only %d flushes; the failing batch never ran", flushNo)
	}
	for i, it := range flushed {
		if it != i+1 {
			t.Fatalf("flushed[%d] = %d: batches do not concatenate to stamp order", i, it)
		}
	}
	if len(flushed) != stamp {
		t.Errorf("flushed %d items, stamped %d", len(flushed), stamp)
	}
	for r := range results {
		for _, it := range r.items {
			if failed[it] && !errors.Is(r.err, boom) {
				t.Errorf("item %d rode in the failed batch but its commit returned %v", it, r.err)
			}
			if !failed[it] && r.err != nil {
				t.Errorf("item %d rode in a good batch but its commit returned %v", it, r.err)
			}
		}
	}
}

// TestEnqueuedItemsShareOneFlush pins group commit without waiting:
// items enqueued by any number of callers ride the first flush anyone
// waits for, and a ticket of that batch (or the Tail taken before it)
// then returns without another flush.
func TestEnqueuedItemsShareOneFlush(t *testing.T) {
	var flushes [][]int
	q := intQueue(func(batch []int) error {
		flushes = append(flushes, append([]int(nil), batch...))
		return nil
	})
	if q.Tail().Pending() {
		t.Fatal("an empty queue has a pending tail")
	}
	var tickets []Ticket
	for i := 1; i <= 16; i++ {
		tickets = append(tickets, q.Enqueue(func(pend *[]int) { *pend = append(*pend, i) }))
	}
	tail := q.Tail()
	if err := q.Wait(tickets[15]); err != nil {
		t.Fatal(err)
	}
	for _, tk := range append(tickets, tail) {
		if err := q.Wait(tk); err != nil {
			t.Fatal(err)
		}
	}
	if len(flushes) != 1 || len(flushes[0]) != 16 || flushes[0][0] != 1 || flushes[0][15] != 16 {
		t.Errorf("flushes = %v, want one batch of 1..16", flushes)
	}
	if err := q.Wait(q.Tail()); err != nil || len(flushes) != 1 {
		t.Errorf("waiting on an empty tail flushed again: %v, %d flushes", err, len(flushes))
	}
}

// TestTailCoversTheFlushInFlight: with nothing left to enqueue but a
// batch still being flushed, Tail names that batch, so waiting on it
// returns only once the flush in flight has finished.
func TestTailCoversTheFlushInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var stored []int
	q := intQueue(func(batch []int) error {
		close(entered)
		<-release
		stored = append(stored, batch...)
		return nil
	})
	tk := q.Enqueue(func(pend *[]int) { *pend = append(*pend, 1) })
	leader := make(chan error)
	go func() { leader <- q.Wait(tk) }()
	<-entered
	tail := q.Tail()
	if !tail.Pending() {
		t.Fatal("Tail is empty while a batch is being flushed")
	}
	waited := make(chan error)
	go func() { waited <- q.Wait(tail) }()
	close(release)
	if err := <-waited; err != nil || len(stored) != 1 {
		t.Errorf("Wait(Tail()) returned %v with %d items stored, want nil after the flush", err, len(stored))
	}
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
}

// TestCommitDoesNotAllocatePerCall pins the property snapbench's
// engine.allocs_per_stmt rests on: with the stamp closure on the stack
// and the batch buffers recycled, a commit — an enqueue and a wait on
// its ticket — costs one small allocation (the batch's fate), however
// many it has been through.
func TestCommitDoesNotAllocatePerCall(t *testing.T) {
	q := intQueue(func([]int) error { return nil })
	stamp := func(pend *[]int) { *pend = append(*pend, 1) }
	commit := func() { _ = q.Wait(q.Enqueue(stamp)) }
	for i := 0; i < 4; i++ { // grow both buffers
		commit()
	}
	if n := testing.AllocsPerRun(100, commit); n > 1 {
		t.Errorf("a commit allocates %.0f objects, want at most 1", n)
	}
}

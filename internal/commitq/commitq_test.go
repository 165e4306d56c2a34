package commitq

import (
	"errors"
	"sync"
	"testing"
)

// TestQueueConcurrentCommits drives the queue from many goroutines with
// a flush function that fails exactly one batch, and checks the three
// things wal.Manager and binlog.Log rely on: the flushed batches
// concatenate to stamp order, the failed batch's error reaches every
// commit that rode in it and no other, and the counters add up.
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
	q := New(func(batch []int) error {
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
				err := q.Commit(func(pend []int) []int {
					// One or two items per commit, like a one-event and a
					// transaction's multi-event binlog commit.
					for n := 0; n <= (g+i)%2; n++ {
						stamp++
						mine = append(mine, stamp)
						pend = append(pend, stamp)
					}
					return pend
				})
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
	committed, flushes := q.Stats()
	if committed != uint64(stamp) || flushes != uint64(flushNo) {
		t.Errorf("Stats = (%d, %d), want (%d, %d)", committed, flushes, stamp, flushNo)
	}
}

// TestCommitDoesNotAllocatePerCall pins the property snapbench's
// engine.allocs_per_stmt rests on: with the stamp closure on the stack
// and the batch buffers recycled, a commit costs one small allocation
// (the batch's fate), however many it has been through.
func TestCommitDoesNotAllocatePerCall(t *testing.T) {
	q := New(func([]int) error { return nil })
	stamp := func(pend []int) []int { return append(pend, 1) }
	for i := 0; i < 4; i++ { // grow both buffers
		_ = q.Commit(stamp)
	}
	if n := testing.AllocsPerRun(100, func() { _ = q.Commit(stamp) }); n > 1 {
		t.Errorf("Commit allocates %.0f objects per call, want at most 1", n)
	}
}

package exec

import (
	"sync"

	"snapdb/internal/btree"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// Parallel partitioned scans. The planner splits one clustered
// full/range scan into K disjoint key ranges; each PartitionScan runs
// its B+ tree traversal on a worker goroutine, batching rows into a
// bounded channel, and the ParallelScan parent merges the partitions
// back *in partition order* during its Open. Because the partitions
// are consecutive key ranges of the same ascending traversal, the
// merged buffer is byte-identical to the serial scan's output — same
// rows, same order, same examined count — which is what lets the
// engine's differential tests diff parallel-on against parallel-off
// runs.
//
// What is NOT preserved is the buffer-pool fetch interleaving: workers
// fetch their partitions' pages concurrently, so the global fetch
// trace scrambles run to run. That is a leakage-profile change, not an
// implementation detail — experiment E15 measures it — and it is why
// per-partition fetch attribution is impossible with a shared counter:
// the parent samples the engine's cumulative fetch count around the
// whole parallel phase instead, and the partitions report zero.

// scanBatchSize is how many rows a partition worker accumulates before
// handing a batch to the merge: large enough to amortize the channel
// transfer, small enough to keep workers from stalling on a slow
// consumer.
const scanBatchSize = 128

// PartitionScan is one worker's slice of a parallel scan: the rows of
// the clustered tree with keys in [lo, hi]. It never runs on the
// statement goroutine — ParallelScan.Open spawns run() on a worker —
// and it participates in the Operator interface only for the
// introspection half (Describe/Stats/Children feed EXPLAIN and the
// events_stages surface); the iterator half is served by the parent
// out of the merged buffer.
type PartitionScan struct {
	tree   *btree.Tree
	lo, hi sqlparse.Value
	desc   string

	dl DeadlineCheck

	ch      chan []storage.Record
	done    <-chan struct{}
	batch   []storage.Record
	aborted bool
	err     error // set before ch closes; read only after ch closes
	stats   Stats
}

// Init prepares the partition for one execution.
func (p *PartitionScan) Init(tree *btree.Tree, lo, hi sqlparse.Value, desc string) {
	*p = PartitionScan{tree: tree, lo: lo, hi: hi, desc: desc}
}

// Open, Next and Close satisfy Operator but are never driven: the
// parent merge owns the partition's lifecycle.
func (p *PartitionScan) Open() error                         { return nil }
func (p *PartitionScan) Next() (storage.Record, bool, error) { return nil, false, nil }
func (p *PartitionScan) Close() error                        { return nil }
func (p *PartitionScan) Describe() string                    { return p.desc }
func (p *PartitionScan) Stats() Stats                        { return p.stats }
func (p *PartitionScan) Children() []Operator                { return nil }
func (p *PartitionScan) SetDeadlineCheck(dc DeadlineCheck)   { p.dl = dc }

// visit is the worker-side traversal callback: count, batch, and hand
// full batches to the merge. Sends select against the parent's done
// channel so an abort (error elsewhere, early Close) can never leave a
// worker blocked on a full channel.
func (p *PartitionScan) visit(r storage.Record) bool {
	if err := examine(&p.stats, p.dl); err != nil {
		p.err = err
		return false
	}
	p.batch = append(p.batch, r)
	p.stats.RowsReturned++
	if len(p.batch) >= scanBatchSize {
		if !p.send() {
			return false
		}
	}
	return true
}

// send hands the accumulated batch to the merge, reporting false on
// abort.
func (p *PartitionScan) send() bool {
	select {
	case p.ch <- p.batch:
		p.batch = nil
		return true
	case <-p.done:
		p.aborted = true
		return false
	}
}

// run is the worker body: traverse the partition's range, flush the
// tail batch, close the channel. The channel close is the
// happens-before edge that publishes err and stats to the merge.
func (p *PartitionScan) run() {
	defer close(p.ch)
	if err := p.tree.Range(p.lo, p.hi, p.visit); err != nil && p.err == nil {
		p.err = err
	}
	if p.err != nil || p.aborted {
		return
	}
	if len(p.batch) > 0 {
		p.send()
	}
}

// ParallelScan fans one clustered scan out over per-range partition
// workers and merges their batches back in partition (= key) order.
// Like every scan leaf it completes its traversal by Close — here
// already inside Open, which runs the whole parallel phase and buffers
// the merged rows (the in-order merge needs the buffer: partition i+1's
// rows arrive while partition i is still being consumed). Operators
// above it never fetch pages, so an early LIMIT or an error above the
// leaf stops the *emission*, not the traversal, exactly as with the
// serial leaf.
type ParallelScan struct {
	// scanBase supplies the merged buffer, its emission, and the MVCC
	// visibility hooks; the deadline and IO wait are armed on the
	// partitions, where the traversals run.
	scanBase
	parts []PartitionScan
	fc    FetchCounter

	done    chan struct{}
	wg      sync.WaitGroup
	spawned bool
	closed  bool
}

// Init prepares the merge over its partitions. rowEstimate (the live
// table/range row count) sizes each partition's batch channel so that
// in the common balanced case no worker ever stalls waiting for the
// in-order merge to reach it — bounded by the scan's own size, which
// is what the merged buffer holds anyway.
func (p *ParallelScan) Init(desc string, parts []PartitionScan, rowEstimate int64, fc FetchCounter) {
	*p = ParallelScan{scanBase: scanBase{desc: desc}, parts: parts, fc: fc}
	chanCap := int(rowEstimate/scanBatchSize) + 2
	if chanCap < 1 {
		chanCap = 1
	}
	p.done = make(chan struct{})
	for i := range p.parts {
		p.parts[i].ch = make(chan []storage.Record, chanCap)
		p.parts[i].done = p.done
	}
}

// SetDeadlineCheck arms the statement deadline on every partition: the
// workers call it at row boundaries, so a timeout cancels the whole
// fan-out promptly, not just the goroutine that dispatched it.
func (p *ParallelScan) SetDeadlineCheck(dc DeadlineCheck) {
	for i := range p.parts {
		p.parts[i].SetDeadlineCheck(dc)
	}
}

// Open spawns the partition workers and merges their batches in
// partition order into the leaf buffer. It returns only when every
// worker has finished (or been cancelled), so the statement goroutine
// never races a live worker afterwards. An armed read view is applied
// here, on the statement goroutine: each merged row is resolved as it
// is buffered and the ghosts are folded in after the last partition,
// so the workers stay plain tree readers.
func (p *ParallelScan) Open() error {
	before := sampleFetches(p.fc)
	p.spawned = true
	p.wg.Add(len(p.parts))
	for i := range p.parts {
		go func(ps *PartitionScan) {
			defer p.wg.Done()
			ps.run()
		}(&p.parts[i])
	}
	var firstErr error
	for i := range p.parts {
		if firstErr != nil {
			break
		}
		for batch := range p.parts[i].ch {
			if p.vis == nil {
				p.buf = append(p.buf, batch...)
				continue
			}
			for _, r := range batch {
				if vr, ok := p.resolveVisit(r); ok {
					p.buf = p.appendGhostsBefore(vr, true)
					p.buf = append(p.buf, vr)
				}
			}
		}
		if err := p.parts[i].err; err != nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		p.abort()
		p.stats.PoolFetches += sampleFetches(p.fc) - before
		return firstErr
	}
	p.wg.Wait()
	p.stats.PoolFetches += sampleFetches(p.fc) - before
	p.buf = p.appendGhostsBefore(nil, false)
	return nil
}

// appendGhostsBefore appends to the merged buffer every ghost due
// before row (every remaining one when ok is false).
func (p *ParallelScan) appendGhostsBefore(row storage.Record, ok bool) []storage.Record {
	for {
		g, due := p.ghostBefore(row, ok)
		if !due {
			return p.buf
		}
		p.buf = append(p.buf, g)
	}
}

// abort cancels outstanding workers and waits them out.
func (p *ParallelScan) abort() {
	if !p.closed {
		p.closed = true
		close(p.done)
	}
	for i := range p.parts {
		// Drain so no worker stays blocked on a send that raced the
		// done close.
		for range p.parts[i].ch {
		}
	}
	p.wg.Wait()
}

// Close cancels any straggling workers (none remain after a successful
// Open) and releases the buffer.
func (p *ParallelScan) Close() error {
	if p.spawned {
		p.abort()
	}
	p.buf = nil
	return nil
}

// Stats aggregates the partitions: examined/returned counts sum to
// exactly the serial scan's (disjoint ranges covering the same keys),
// while PoolFetches is the parent's whole-phase sample (see the file
// comment on attribution). Only meaningful after Open returns.
func (p *ParallelScan) Stats() Stats {
	out := p.stats
	out.RowsExamined = 0
	for i := range p.parts {
		out.RowsExamined += p.parts[i].stats.RowsExamined
	}
	return out
}

// Children exposes the partitions to EXPLAIN and the stage walk.
func (p *ParallelScan) Children() []Operator {
	out := make([]Operator, len(p.parts))
	for i := range p.parts {
		out[i] = &p.parts[i]
	}
	return out
}

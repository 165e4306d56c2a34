package exec

import (
	"errors"
	"sync"
	"sync/atomic"

	"snapdb/internal/storage"
)

// Parallel partitioned scans. The planner splits one clustered
// full/range scan into K disjoint, consecutive key ranges, each an
// ordinary streaming Scan leaf; ParallelScan.Open drains every one on a
// worker goroutine of its own and concatenates their rows *in partition
// order*. Because the partitions are consecutive key ranges of the same
// ascending traversal, the merged buffer is byte-identical to the
// serial scan's output — same rows, same order, same examined count —
// which is what lets the engine's differential tests diff parallel-on
// against parallel-off runs.
//
// What is NOT preserved is the buffer-pool fetch interleaving: workers
// fetch their partitions' pages concurrently, so the global fetch
// trace scrambles run to run. That is a leakage-profile change, not an
// implementation detail — experiment E15 measures it. The counts stay
// exact all the same: each partition counts its own cursor's fetches,
// as the serial leaf does, and the parent books their sum.

// errStopped is what a partition's deadline check returns once a
// sibling has failed. It ends that partition's traversal and is never
// the statement's error.
var errStopped = errors.New("exec: partition stopped after a sibling failed")

// ParallelScan fans one clustered scan out over partition Scans and
// merges their rows back in partition (= key) order. Like every scan
// leaf it completes its traversal by Close — here already inside Open,
// which runs the whole parallel phase and buffers the merged rows.
// Operators above it never fetch pages, so an early LIMIT or an error
// above the leaf stops the *emission*, not the traversal, exactly as
// with the serial leaf.
type ParallelScan struct {
	// scanBase supplies the merged buffer, its emission, and the MVCC
	// visibility hooks; the deadline is armed on the partitions, where
	// the traversals run.
	scanBase
	parts []Scan
	dl    DeadlineCheck
}

// Init prepares the merge over parts: streaming Scans over consecutive
// key ranges, in key order, none of them opened.
func (p *ParallelScan) Init(desc string, parts []Scan) {
	*p = ParallelScan{scanBase: scanBase{desc: desc}, parts: parts}
}

// SetDeadlineCheck arms the statement deadline on every partition: the
// workers check it at the serial leaf's row boundaries, so a timeout
// stops the whole fan-out promptly, not just the goroutine that
// dispatched it.
func (p *ParallelScan) SetDeadlineCheck(dc DeadlineCheck) { p.dl = dc }

// Open drains every partition on a worker of its own and merges their
// rows in partition order into the leaf buffer. It returns only when
// every worker has finished, so the statement goroutine never races a
// live worker afterwards. A partition that fails raises a stop flag
// that every partition's deadline check reads, so its siblings give up
// at their next row boundary; the first error in partition order other
// than that stop is the statement's. An armed read view is applied
// here, on the statement goroutine: each merged row is resolved and
// the ghosts are folded in by key, so the workers stay plain tree
// readers.
func (p *ParallelScan) Open() error {
	var stop atomic.Bool
	check := func() error {
		if stop.Load() {
			return errStopped
		}
		if p.dl != nil {
			return p.dl()
		}
		return nil
	}
	rows := make([][]storage.Record, len(p.parts))
	errs := make([]error, len(p.parts))
	var wg sync.WaitGroup
	wg.Add(len(p.parts))
	for i := range p.parts {
		p.parts[i].SetDeadlineCheck(check)
		go func(i int) {
			defer wg.Done()
			if rows[i], errs[i] = drainScan(&p.parts[i]); errs[i] != nil {
				stop.Store(true)
			}
		}(i)
	}
	wg.Wait()
	total := 0
	for i, err := range errs {
		if err != nil && !errors.Is(err, errStopped) {
			return err
		}
		total += len(rows[i])
	}
	p.buf = make([]storage.Record, 0, total)
	for _, part := range rows {
		for _, r := range part {
			if vr, ok := p.resolveVisit(r); ok {
				p.buf = p.appendGhostsBefore(vr, true)
				p.buf = append(p.buf, vr)
			}
		}
	}
	p.buf = p.appendGhostsBefore(nil, false)
	return nil
}

// drainScan runs s as a plan above it would — Open, Next to the end,
// Close — and returns the rows it emitted.
func drainScan(s *Scan) ([]storage.Record, error) {
	var rows []storage.Record
	err := s.Open()
	for err == nil {
		r, ok, nerr := s.Next()
		if err = nerr; !ok {
			break
		}
		rows = append(rows, r)
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return rows, err
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

// Close releases the merged buffer; the partitions finished in Open.
func (p *ParallelScan) Close() error {
	p.buf = nil
	return nil
}

// Stats sums the partitions' examined rows and page fetches — disjoint
// ranges covering the serial scan's keys, each fetch counted by the
// cursor that made it — and counts the rows this leaf emitted. Only
// meaningful after Open returns.
func (p *ParallelScan) Stats() Stats {
	out := p.stats
	for i := range p.parts {
		st := p.parts[i].Stats()
		out.RowsExamined += st.RowsExamined
		out.PoolFetches += st.PoolFetches
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

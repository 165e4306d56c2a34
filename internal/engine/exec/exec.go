// Package exec implements the engine's physical query operators: the
// Volcano-style iterator layer that internal/engine's statement drivers
// assemble into trees. Each operator implements Open/Next/Close, so a
// plan executes by pulling rows through the root; EXPLAIN renders the
// same tree via Describe/Children, and per-operator runtime counters
// (Stats) feed performance_schema's events_stages surface.
//
// One property is load-bearing for the paper's experiments: the scan
// leaves fetch buffer-pool pages in exactly the order the pre-operator
// monolithic scan loop did. The contract that secures it is that a leaf
// completes its B+ tree traversal by Close, and operators above it
// never fetch pages (a KeyLookup's clustered searches excepted, which
// begin only once its index leaf has finished). The serial leaf
// streams a leaf page at a time and walks whatever the plan above left
// unread inside Close; leaves that need a buffer anyway finish inside
// Open. Either way a Limit or an error above a scan cannot perturb the
// buffer-pool LRU order, access counters, or dump file that the
// forensic experiments measure. The engine's differential tests replay
// randomized workloads through both executors and diff the fetch
// traces byte for byte.
package exec

import (
	"errors"

	"snapdb/internal/storage"
)

// Stats holds one operator's runtime counters for a single execution.
// RowsExamined counts rows (or index entries) the operator inspected,
// RowsReturned counts rows it emitted, and PoolFetches counts the
// buffer-pool page fetches its own work triggered (leaves and key
// lookups only; pure row-at-a-time operators never touch pages).
type Stats struct {
	RowsExamined int
	RowsReturned int
	PoolFetches  uint64
}

// FetchCounter samples the engine's cumulative buffer-pool fetch count.
// KeyLookup samples it around each clustered search and ParallelScan
// around its parallel phase, to attribute fetches per operator (the
// serial Scan counts its cursor's own fetches instead). A nil
// FetchCounter disables the attribution (counters stay zero); under
// concurrent sessions the attribution is approximate, like any
// shared-counter delta.
type FetchCounter func() uint64

// Operator is one node of a physical plan: a pull-based iterator.
//
// The contract mirrors the classic Volcano model: Open prepares the
// operator (blocking operators do their work here), Next returns the
// next row with ok=false at end of stream, and Close releases state —
// and, for the scan leaf, completes the traversal, so its error counts.
// Describe returns the precomputed one-line form EXPLAIN prints, and
// Children returns the inputs in plan order.
type Operator interface {
	Open() error
	Next() (storage.Record, bool, error)
	Close() error
	Describe() string
	Stats() Stats
	Children() []Operator
}

// ErrUnsupportedAggregate reports an aggregate kind the executor has no
// implementation for. The parser rejects unknown aggregate functions
// outright, so reaching this error requires a hand-built plan; it is
// typed so callers can distinguish "not implemented" from data errors.
var ErrUnsupportedAggregate = errors.New("unsupported aggregate")

// DeadlineCheck reports whether the running statement has exceeded its
// deadline: nil to keep going, a typed error (engine.ErrStatementTimeout
// wrapped with context) to abort. Scan leaves call it at row boundaries
// of their traversal — the only long-running loops in the tree, the
// remainder walk in Close included — so a statement that never times
// out fetches exactly the pages it always fetched, and one that does
// stops mid-traversal before the mutation half of UPDATE/DELETE can
// start.
type DeadlineCheck func() error

// deadlineCheckInterval is how many examined rows pass between deadline
// checks: frequent enough to bound a runaway scan in microseconds of
// overshoot, sparse enough to keep the clock read off the per-row path.
const deadlineCheckInterval = 64

// sampleFetches reads fc, tolerating nil.
func sampleFetches(fc FetchCounter) uint64 {
	if fc == nil {
		return 0
	}
	return fc()
}

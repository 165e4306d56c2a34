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
//
// # Row lifetime
//
// Who may keep a row is fixed when the plan is instantiated, from the
// plan's shape alone, and nothing at run time revisits it:
//
//   - Aggregate folds each row, Project copies the columns it selects,
//     TopN copies the rows it admits to its heap: they are done with an
//     input row before they pull the next. Filter and Limit pass rows
//     through untouched. A plan made only of these above the serial
//     Scan borrows: the leaf Lends, and every leaf page of the walk is
//     decoded into one slab that the next page overwrites.
//   - Sort keeps its input rows until Close; the driver of a plan that
//     ends at the scan subtree (the scan half of UPDATE and DELETE,
//     whose rows become undo and redo images) keeps them longer. A
//     blocking leaf — rev, or an index leaf under a KeyLookup — and a
//     ParallelScan buffer theirs. Under all of these the leaf owns: a
//     fresh slab per leaf page, as before. KeyLookup's own output is a
//     record the tree search allocated, and MVCC substitutes and ghosts
//     are the version store's rows; both outlive the statement.
//
// The second thing the serial leaf may do for the plan above it is
// reject before decode (Filter.PushDown, Scan.Reject): evaluate the
// Filter's residual conjuncts on a row's page bytes and decode the row
// only if it passes. That is off whenever an MVCC view is armed — the
// tree row is then not the row the statement sees, so it has to be
// decoded and resolved before any predicate means anything — and the
// Filter does all the work, as it does above every other leaf.
//
// Neither shows in the stage rows. A rejected row is counted as
// returned by the leaf and examined by the Filter, the rows a lent
// slab saved were never counted anywhere, and the page fetches are the
// cursor's, which does not know what its caller decodes: each
// operator's (examined, returned, fetches) triple is what it was when
// every row was decoded and handed up. That is deliberate. The triples
// are a surface — events_stages_history, EXPLAIN ANALYZE — and a
// surface that told the two executions apart would be a new one.
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
//
// A row Next returns is the caller's to read until it calls Next or
// Close again, and not to write. Whether it stays good after that is a
// property of the plan, not of the operator (see "Row lifetime" in the
// package comment): an operator that keeps input rows across calls may
// only be instantiated over a leaf that owns its rows.
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

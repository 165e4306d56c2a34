package exec

import (
	"fmt"
	"time"

	"snapdb/internal/btree"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// scanBase is the shared buffer-and-emit half of the scan leaves. The
// leaves are blocking: Open runs the complete B+ tree traversal and
// buffers every visited row, then Next drains the buffer. Blocking is
// deliberate — it reproduces the legacy scan loop's buffer-pool fetch
// sequence exactly, because the traversal happens in one piece no
// matter what the operators above do (see the package comment).
//
// With rev set, Open reverses the buffer after the traversal — the
// traversal itself (and therefore the page-fetch sequence) still runs
// in forward key order; only the emission order flips. The planner uses
// this for ORDER BY <pk> DESC, where the tree's unique keys make the
// exact reversal identical to a stable descending sort.
type scanBase struct {
	desc  string
	rev   bool
	buf   []storage.Record
	pos   int
	stats Stats

	// dl, when set, is consulted every deadlineCheckInterval examined
	// rows during the traversal; dlErr records the abort it raised.
	dl    DeadlineCheck
	dlErr error

	// ioWait, when positive, models per-page-batch device latency: the
	// traversal sleeps this long every scanIOInterval examined rows
	// (see Config.SimulatedScanIOWait). Zero — the default — keeps the
	// traversal exactly as fast as it always was.
	ioWait time.Duration

	// vis, when set, arms the MVCC view-resolution hooks (see
	// visible.go). Nil — the default — keeps the scan a current read.
	vis *Visibility
}

// SetDeadlineCheck arms the statement-deadline check on this leaf. It
// must be called before Open; a nil check (the default) disables it.
func (s *scanBase) SetDeadlineCheck(dc DeadlineCheck) { s.dl = dc }

// SetSimulatedIOWait arms the modeled per-page-batch device latency.
// Must be called before Open; zero (the default) disables it.
func (s *scanBase) SetSimulatedIOWait(d time.Duration) { s.ioWait = d }

// checkDeadline evaluates the armed check, recording the error.
func (s *scanBase) checkDeadline() error {
	if s.dl == nil {
		return nil
	}
	if err := s.dl(); err != nil {
		s.dlErr = err
		return err
	}
	return nil
}

// reverse flips the emission order of the buffered rows (no-op unless
// the leaf was built reversed). Called at the end of Open, after the
// traversal's fetches have been attributed.
func (s *scanBase) reverse() {
	if !s.rev {
		return
	}
	for i, j := 0, len(s.buf)-1; i < j; i, j = i+1, j-1 {
		s.buf[i], s.buf[j] = s.buf[j], s.buf[i]
	}
}

func (s *scanBase) Next() (storage.Record, bool, error) {
	if s.pos >= len(s.buf) {
		return nil, false, nil
	}
	r := s.buf[s.pos]
	s.pos++
	s.stats.RowsReturned++
	return r, true, nil
}

func (s *scanBase) Close() error {
	s.buf = nil
	return nil
}

func (s *scanBase) Describe() string     { return s.desc }
func (s *scanBase) Stats() Stats         { return s.stats }
func (s *scanBase) Children() []Operator { return nil }

// examine is the per-row step every traversal callback shares — the
// serial leaf's and the partition workers': count the row, evaluate the
// armed deadline check at every deadlineCheckInterval-th row (the scan
// boundary where a runaway statement actually surfaces), and model one
// device wait per scanIOInterval rows. A non-nil error stops the
// traversal.
func examine(st *Stats, dl DeadlineCheck, ioWait time.Duration) error {
	st.RowsExamined++
	if dl != nil && st.RowsExamined%deadlineCheckInterval == 0 {
		if err := dl(); err != nil {
			return err
		}
	}
	if ioWait > 0 && st.RowsExamined%scanIOInterval == 0 {
		time.Sleep(ioWait)
	}
	return nil
}

// visit is the serial traversal callback: count, resolve against the
// armed view, and buffer.
func (s *scanBase) visit(r storage.Record) bool {
	if err := examine(&s.stats, s.dl, s.ioWait); err != nil {
		s.dlErr = err
		return false
	}
	if vr, ok := s.resolveVisit(r); ok {
		s.buf = append(s.buf, vr)
	}
	return true
}

// Scan is the serial scan leaf: one forward traversal of a tree — the
// clustered tree's rows or a secondary index's entries — over [lo, hi]
// when bounded, over every key otherwise. A point read is the range
// whose bounds coincide.
type Scan struct {
	scanBase
	tree    *btree.Tree
	bounded bool
	lo, hi  sqlparse.Value
	hint    int64 // buffer pre-size; <=0 disables
	fc      FetchCounter
}

// Init resets s in place so callers can embed the operator in a
// larger per-execution allocation instead of heap-allocating each
// node separately. hint, when positive and sane, pre-sizes the row
// buffer: the caller passes the table's advisory row count for
// unfiltered full scans, 1 for a point read of a unique tree, and 0
// otherwise — the legacy scan loop's pre-sizing rule. rev flips the
// emission order after the forward traversal (see scanBase).
func (s *Scan) Init(tree *btree.Tree, bounded bool, lo, hi sqlparse.Value, hint int64, rev bool, desc string, fc FetchCounter) {
	*s = Scan{scanBase: scanBase{desc: desc, rev: rev}, tree: tree, bounded: bounded, lo: lo, hi: hi, hint: hint, fc: fc}
}

// Open runs the traversal.
func (s *Scan) Open() error {
	if err := s.checkDeadline(); err != nil {
		return err
	}
	if s.hint > 0 && s.hint <= 1<<16 {
		s.buf = make([]storage.Record, 0, s.hint)
	}
	before := sampleFetches(s.fc)
	var err error
	if s.bounded {
		err = s.tree.Range(s.lo, s.hi, s.visit)
	} else {
		err = s.tree.Scan(s.visit)
	}
	s.stats.PoolFetches += sampleFetches(s.fc) - before
	if err == nil && s.dlErr != nil {
		return s.dlErr
	}
	s.mergeGhosts()
	s.reverse()
	return err
}

// KeyLookup resolves secondary-index entries to full rows: its input
// yields {compositeKey, pk} entries, and each Next searches the
// clustered tree for the pk. Lookups run row-at-a-time, but because
// the index leaf below is blocking, the clustered searches still
// happen in the same order (all index-leaf fetches, then one search
// per entry) as the legacy two-phase index scan.
//
// With revCol >= 0 the lookup runs in group-reverse mode for ORDER BY
// <indexed col> DESC: Open resolves every entry immediately — in the
// same forward order, so the clustered search sequence (and its fetch
// attribution) is byte-identical to the row-at-a-time mode — and then
// emits equal-key groups of schema column revCol in reverse group
// order, forward within each group. Because the index leaf yields
// (value ASC, pk ASC), that emission order is exactly what a stable
// descending sort on the column would produce.
type KeyLookup struct {
	input     Operator
	clustered *btree.Tree
	indexName string
	desc      string
	revCol    int // schema column for group-reverse emission; -1 disables
	rows      []storage.Record
	pos       int
	fc        FetchCounter
	stats     Stats

	// resolver, when set, serves version-store rows for entries whose
	// visible version is not the clustered tree's row (see visible.go).
	resolver LookupResolver
}

// Init resets k in place (see Scan.Init).
func (k *KeyLookup) Init(input Operator, clustered *btree.Tree, indexName, desc string, revCol int, fc FetchCounter) {
	*k = KeyLookup{input: input, clustered: clustered, indexName: indexName, desc: desc, revCol: revCol, fc: fc}
}

// resolve searches the clustered tree for one index entry's pk,
// attributing the fetches to this operator.
func (k *KeyLookup) resolve(entry storage.Record) (storage.Record, error) {
	pk := entry[1]
	k.stats.RowsExamined++
	if k.resolver != nil {
		if row, ok := k.resolver(pk); ok {
			return row, nil
		}
	}
	before := sampleFetches(k.fc)
	row, found, err := k.clustered.Search(pk)
	k.stats.PoolFetches += sampleFetches(k.fc) - before
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("exec: index %q points at missing pk %s", k.indexName, pk)
	}
	return row, nil
}

// Open opens the index leaf below. In group-reverse mode it also
// resolves every entry (forward) and rearranges the buffered rows into
// the reversed-group emission order.
func (k *KeyLookup) Open() error {
	if err := k.input.Open(); err != nil {
		return err
	}
	if k.revCol < 0 {
		return nil
	}
	var fwd []storage.Record
	for {
		entry, ok, err := k.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		row, err := k.resolve(entry)
		if err != nil {
			return err
		}
		fwd = append(fwd, row)
	}
	k.rows = make([]storage.Record, 0, len(fwd))
	for end := len(fwd); end > 0; {
		start := end - 1
		for start > 0 && fwd[start-1][k.revCol].Equal(fwd[start][k.revCol]) {
			start--
		}
		k.rows = append(k.rows, fwd[start:end]...)
		end = start
	}
	return nil
}

// Next resolves the next index entry to its clustered row (or, in
// group-reverse mode, emits the next buffered row).
func (k *KeyLookup) Next() (storage.Record, bool, error) {
	if k.revCol >= 0 {
		if k.pos >= len(k.rows) {
			return nil, false, nil
		}
		r := k.rows[k.pos]
		k.pos++
		k.stats.RowsReturned++
		return r, true, nil
	}
	entry, ok, err := k.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	row, err := k.resolve(entry)
	if err != nil {
		return nil, false, err
	}
	k.stats.RowsReturned++
	return row, true, nil
}

// Close releases the group-reverse buffer and closes the index leaf
// below.
func (k *KeyLookup) Close() error {
	k.rows = nil
	return k.input.Close()
}

func (k *KeyLookup) Describe() string     { return k.desc }
func (k *KeyLookup) Stats() Stats         { return k.stats }
func (k *KeyLookup) Children() []Operator { return []Operator{k.input} }

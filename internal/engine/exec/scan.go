package exec

import (
	"fmt"

	"snapdb/internal/btree"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// scanBase is what the scan leaves share: the description and counters
// every operator carries, the MVCC visibility hooks (visible.go), and
// the emission buffer of a leaf that completes its traversal at Open —
// ParallelScan always, Scan only when built blocking.
type scanBase struct {
	desc  string
	stats Stats

	// vis, when set, arms the MVCC view-resolution hooks; ghost is the
	// next of its Ghosts not yet merged into the output. Nil — the
	// default — keeps the scan a current read.
	vis   *Visibility
	ghost int

	buf []storage.Record
	pos int
}

// Next emits the next buffered row.
func (s *scanBase) Next() (storage.Record, bool, error) {
	if s.pos >= len(s.buf) {
		return nil, false, nil
	}
	r := s.buf[s.pos]
	s.pos++
	s.stats.RowsReturned++
	return r, true, nil
}

func (s *scanBase) Describe() string     { return s.desc }
func (s *scanBase) Stats() Stats         { return s.stats }
func (s *scanBase) Children() []Operator { return nil }

// examine is the per-row step every traversal shares — the serial
// leaf's and the partition workers': count the row, evaluate the armed
// deadline check at every deadlineCheckInterval-th row (the scan
// boundary where a runaway statement actually surfaces). A non-nil
// error stops the traversal.
func examine(st *Stats, dl DeadlineCheck) error {
	st.RowsExamined++
	if dl != nil && st.RowsExamined%deadlineCheckInterval == 0 {
		if err := dl(); err != nil {
			return err
		}
	}
	return nil
}

// Scan is the serial scan leaf: one forward traversal of a tree — the
// clustered tree's rows or a secondary index's entries — over [lo, hi]
// when bounded, over every key otherwise. A point read is the range
// whose bounds coincide.
//
// The leaf streams: each Next examines and resolves one more row of the
// cursor's current leaf page, fetching the next page only when that one
// is used up. What it guarantees in exchange is that the traversal is
// complete by the time Close returns: when the operators above stop
// pulling early (a Limit, an error), Close walks the remaining leaves
// itself — keys only, nothing decoded, every row still examined — so
// which pages a statement fetches, in which order, and its examined
// count depend on the access path alone, never on the plan above it
// (see the package comment).
//
// How long an emitted row stays good is decided when the plan is built
// (see Operator): a leaf that Lends hands out rows of the cursor's one
// recycled slab, good until the following Next; any other hands out
// rows the caller may keep. And a leaf given residual predicates
// (Reject) has the cursor evaluate them on each row's page bytes and
// decode only the rows that pass.
//
// Built blocking, the leaf instead runs the whole traversal inside
// Open and emits from a buffer. Two callers need that: rev (ORDER BY
// <pk> DESC), whose first row is the traversal's last — the tree's
// unique keys make the exact reversal of a forward walk identical to a
// stable descending sort, and the page-fetch sequence stays the forward
// one; and an index leaf under a KeyLookup, whose page fetches must all
// precede the first clustered search.
type Scan struct {
	scanBase
	cur           btree.Cursor
	batch         []storage.Record // rows of the cursor's current leaf
	bpos          int
	head          storage.Record // resolved tree row waiting behind ghosts
	held          bool
	blocking, rev bool

	// residual are the Filter's conjuncts this leaf evaluates for it,
	// rejected how many rows they have turned down so far (see Reject).
	residual []Pred
	rejected int

	// dl, when set, is consulted every deadlineCheckInterval examined
	// rows.
	dl DeadlineCheck

	// opened is set once Open has run; failed once the traversal itself
	// raised an error (deadline, unreadable page). Close finishes the
	// walk only for a leaf that is opened and not failed.
	opened, failed bool
}

// Init resets s in place so callers can embed the operator in a
// larger per-execution allocation instead of heap-allocating each
// node separately. need selects the record fields the plan reads (nil
// for all); the others come back as zero Values. blocking completes the
// traversal inside Open, and rev (which implies it) emits the rows in
// reverse — see Scan.
func (s *Scan) Init(tree *btree.Tree, bounded bool, lo, hi sqlparse.Value, need []bool, blocking, rev bool, desc string) {
	*s = Scan{scanBase: scanBase{desc: desc}, blocking: blocking || rev, rev: rev}
	s.cur.Init(tree, bounded, lo, hi, need)
}

// Stats reports the cursor's own page-fetch count: the leaf never
// samples the pool's shared counter, whose lock two concurrent scanners
// would otherwise hand back and forth once per leaf page. A row turned
// down for the Filter above counts as returned: it is a row that
// Filter would have been handed.
func (s *Scan) Stats() Stats {
	st := s.stats
	st.PoolFetches = s.cur.Fetches()
	st.RowsReturned += s.rejected
	return st
}

// Lend makes every row this leaf emits a loan, good until the
// following Next or Close (see btree.Cursor.Lend, and Operator for who
// may ask for it). Call it before Open.
func (s *Scan) Lend(textFree bool) { s.cur.Lend(textFree) }

// Reject gives a streaming clustered leaf the conjuncts of the Filter
// directly above it that its own bounds do not enforce. The cursor
// evaluates them on each row's page bytes — validating the whole
// record all the same, so a corrupt row fails the statement whether or
// not it would have passed — and only rows that pass are decoded and
// emitted. Every row is still examined one by one: counted and
// deadline-checked. The rows turned down are counted as this
// leaf's returned rows and the Filter's examined rows, because that is
// what they were before the hand-off existed, and every operator's
// (examined, returned, fetches) triple is a surface the paper's
// attacker reads: it must not tell the two executions apart.
//
// The hand-off is dropped at Open when an MVCC view is armed. A tree
// row that fails a predicate may stand for a visible version that
// passes it, so under a view the row must be decoded and resolved
// first, and the Filter does all the work, as it always did. A blocking
// leaf drops it too: a Limit above a reversed buffer stops the Filter
// part-way, and which rejected rows it would have reached by then is
// not something a count can say.
func (s *Scan) Reject(residual []Pred) { s.residual = residual }

// Rejected is how many rows this leaf has turned down before decoding
// them: zero for good when the hand-off was dropped.
func (s *Scan) Rejected() int { return s.rejected }

// SetDeadlineCheck arms the statement-deadline check on this leaf. It
// must be called before Open; a nil check (the default) disables it.
func (s *Scan) SetDeadlineCheck(dc DeadlineCheck) { s.dl = dc }

// Open checks the deadline and, for a blocking leaf, runs the
// traversal. A streaming leaf touches no page until its first Next.
func (s *Scan) Open() error {
	if s.dl != nil {
		if err := s.dl(); err != nil {
			return err
		}
	}
	s.opened = true
	if s.vis == nil && !s.blocking && len(s.residual) > 0 {
		s.cur.Reject(s.residual)
	}
	if !s.blocking {
		return nil
	}
	for {
		r, ok, err := s.pull()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.buf = append(s.buf, r)
	}
	if s.rev {
		for i, j := 0, len(s.buf)-1; i < j; i, j = i+1, j-1 {
			s.buf[i], s.buf[j] = s.buf[j], s.buf[i]
		}
	}
	return nil
}

// Next emits the next row the armed view sees, in key order.
func (s *Scan) Next() (storage.Record, bool, error) {
	if s.blocking {
		return s.scanBase.Next()
	}
	r, ok, err := s.pull()
	if ok {
		s.stats.RowsReturned++
	}
	return r, ok, err
}

// pull merges the view's ghosts into the resolved tree rows by key: a
// ghost is due while it sorts before the next tree row — which waits in
// head, already examined — or once the tree is exhausted.
func (s *Scan) pull() (storage.Record, bool, error) {
	if !s.held {
		var err error
		if s.head, s.held, err = s.treeRow(); err != nil {
			return nil, false, err
		}
	}
	if g, due := s.ghostBefore(s.head, s.held); due {
		return g, true, nil
	}
	r, ok := s.head, s.held
	s.head, s.held = nil, false
	return r, ok, nil
}

// treeRow examines tree rows, advancing the cursor leaf by leaf, until
// one survives the armed resolver.
func (s *Scan) treeRow() (storage.Record, bool, error) {
	for {
		for s.bpos < len(s.batch) {
			r := s.batch[s.bpos]
			s.bpos++
			if err := s.examineOne(); err != nil {
				return nil, false, err
			}
			if r == nil {
				s.rejected++
				continue
			}
			if vr, ok := s.resolveVisit(r); ok {
				return vr, true, nil
			}
		}
		batch, ok, err := s.cur.Next()
		if err != nil {
			s.failed = true
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		s.batch, s.bpos = batch, 0
	}
}

// examineOne counts one tree row, marking the leaf failed if the
// deadline fires on it.
func (s *Scan) examineOne() error {
	err := examine(&s.stats, s.dl)
	if err != nil {
		s.failed = true
	}
	return err
}

// Close completes the traversal the operators above cut short: the
// rest of the current leaf and every remaining leaf are examined —
// counted, deadline-checked — with no record decoded. After a
// drained or failed traversal there is nothing left to do.
func (s *Scan) Close() error {
	s.buf = nil
	if !s.opened || s.failed {
		return nil
	}
	n := len(s.batch) - s.bpos
	s.batch, s.bpos = nil, 0
	for {
		for ; n > 0; n-- {
			if err := s.examineOne(); err != nil {
				return err
			}
		}
		var ok bool
		var err error
		n, ok, err = s.cur.Skip()
		if err != nil {
			s.failed = true
			return err
		}
		if !ok {
			return nil
		}
	}
}

// KeyLookup resolves secondary-index entries to full rows: its input
// yields {compositeKey, pk} entries, and each Next searches the
// clustered tree for the pk. Lookups run row-at-a-time, but because
// the index leaf below is built blocking — its traversal is complete
// when its Open returns — the clustered searches still happen in the
// same order (all index-leaf fetches, then one search per entry) as
// the legacy two-phase index scan.
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

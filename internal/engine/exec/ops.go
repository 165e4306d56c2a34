package exec

import (
	"fmt"
	"sort"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// Pred is one resolved conjunct of a WHERE clause: schema column index,
// comparison operator, literal argument. It is storage's type so that
// a scan leaf can evaluate the same conjunct on a row's page bytes.
type Pred = storage.Pred

// Filter passes through the input rows satisfying every predicate. The
// planner hands it the full predicate set — including the bounds the
// access path below already enforces — matching the legacy scan loop,
// which re-checked every conjunct per visited row.
//
// A Filter directly above a streaming clustered Scan may hand that
// leaf its residual conjuncts, compiled for the table's record layout
// (PushDown). The leaf then turns rows down before decoding them, and
// this operator sees only rows that pass — which it still checks
// against every predicate, so nothing about the result rests on the
// hand-off. Its counters do not show it: Stats counts the rows the
// leaf rejected on its behalf as examined here, as the leaf counts
// them returned (see Scan.Reject). Under an Aggregate that folds at
// the leaf, every predicate is evaluated on the page bytes instead and
// no row passes through here at all; the counters are booked as if
// they had (see Aggregate.FoldAtLeaf).
type Filter struct {
	input Operator
	preds []Pred
	leaf  *Scan // the leaf rejecting for this Filter, if any
	desc  string
	stats Stats
}

// Init resets f in place so callers can embed the operator in a
// larger per-execution allocation instead of heap-allocating each
// node separately.
func (f *Filter) Init(input Operator, preds []Pred, desc string) {
	*f = Filter{input: input, preds: preds, desc: desc}
}

// PushDown hands residual — the conjuncts of f's predicates that leaf's
// bounds do not already enforce, compiled for the table's layout — to
// leaf, which must be f's input. Call it before Open.
func (f *Filter) PushDown(leaf *Scan, residual *storage.Matcher) {
	f.leaf = leaf
	leaf.Reject(residual)
}

// Open opens the input.
func (f *Filter) Open() error { return f.input.Open() }

// Next returns the next row satisfying all predicates.
func (f *Filter) Next() (storage.Record, bool, error) {
	for {
		r, ok, err := f.input.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		f.stats.RowsExamined++
		pass := true
		for _, p := range f.preds {
			if !p.Op.Eval(r[p.Col].Compare(p.Arg)) {
				pass = false
				break
			}
		}
		if pass {
			f.stats.RowsReturned++
			return r, true, nil
		}
	}
}

// Close closes the input.
func (f *Filter) Close() error { return f.input.Close() }

func (f *Filter) Describe() string     { return f.desc }
func (f *Filter) Children() []Operator { return []Operator{f.input} }

// folded books what a folding leaf did in f's place: examined rows
// reached the leaf, accepted of them pass every predicate. The rows
// the leaf counted as rejected for f are not f's own (see Stats).
func (f *Filter) folded(examined, accepted int) {
	if f.leaf != nil {
		examined = accepted
	}
	f.stats.RowsExamined += examined
	f.stats.RowsReturned += accepted
}

// Stats counts in the rows the leaf below turned down for f.
func (f *Filter) Stats() Stats {
	st := f.stats
	if f.leaf != nil {
		st.RowsExamined += f.leaf.Rejected()
	}
	return st
}

// Project maps each input row onto the selected schema column indices,
// emitting a fresh record (results may be retained by the query cache,
// so projected rows never alias scan buffers). The records are carved
// from slabs of doubling size, projectMaxChunk rows at most: a one-row
// result costs the one record it always did, a long one an allocation
// per chunk instead of per row.
type Project struct {
	input Operator
	cols  []int
	desc  string
	stats Stats

	slab  storage.Record // the unused rest of the current chunk
	chunk int            // rows in the current chunk
}

// projectMaxChunk bounds what a result that stops early leaves unused.
const projectMaxChunk = 64

// Init resets p in place (see Filter.Init).
func (p *Project) Init(input Operator, cols []int, desc string) {
	*p = Project{input: input, cols: cols, desc: desc}
}

// Open opens the input.
func (p *Project) Open() error { return p.input.Open() }

// Next projects the next input row.
func (p *Project) Next() (storage.Record, bool, error) {
	r, ok, err := p.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.stats.RowsExamined++
	w := len(p.cols)
	if len(p.slab) < w {
		p.chunk = min(max(1, 2*p.chunk), projectMaxChunk)
		p.slab = make(storage.Record, w*p.chunk)
	}
	out := p.slab[:w:w]
	p.slab = p.slab[w:]
	for i, idx := range p.cols {
		out[i] = r[idx]
	}
	p.stats.RowsReturned++
	return out, true, nil
}

// Close closes the input.
func (p *Project) Close() error { return p.input.Close() }

func (p *Project) Describe() string     { return p.desc }
func (p *Project) Stats() Stats         { return p.stats }
func (p *Project) Children() []Operator { return []Operator{p.input} }

// Sort is a blocking stable sort on one schema column of the full input
// rows. It runs below Project so ORDER BY may name any table column,
// selected or not — the same rule MySQL applies and the legacy
// executor implemented by sorting pre-projection rows.
type Sort struct {
	input Operator
	col   int
	desc  bool
	label string
	rows  []storage.Record
	pos   int
	stats Stats
}

// Init resets s in place (see Filter.Init).
func (s *Sort) Init(input Operator, col int, desc bool, label string) {
	*s = Sort{input: input, col: col, desc: desc, label: label}
}

// Open drains and sorts the input.
func (s *Sort) Open() error {
	if err := s.input.Open(); err != nil {
		return err
	}
	for {
		r, ok, err := s.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.stats.RowsExamined++
		s.rows = append(s.rows, r)
	}
	sort.SliceStable(s.rows, func(a, b int) bool {
		c := s.rows[a][s.col].Compare(s.rows[b][s.col])
		if s.desc {
			return c > 0
		}
		return c < 0
	})
	return nil
}

// Next emits the next row in sorted order.
func (s *Sort) Next() (storage.Record, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	s.stats.RowsReturned++
	return r, true, nil
}

// Close releases the sorted buffer and closes the input.
func (s *Sort) Close() error {
	s.rows = nil
	return s.input.Close()
}

func (s *Sort) Describe() string     { return s.label }
func (s *Sort) Stats() Stats         { return s.stats }
func (s *Sort) Children() []Operator { return []Operator{s.input} }

// Aggregate is a blocking single-group aggregate: COUNT(*) / COUNT(col)
// or SUM(col) over the whole input. Unknown kinds fail Open with a
// typed ErrUnsupportedAggregate.
//
// Directly above the serial clustered Scan, or above a Filter directly
// above it, the aggregate may fold at the leaf (FoldAtLeaf): Open has
// the cursor count each leaf page, and sum the SUM column, on the
// page bytes, with every predicate of the Filter evaluated there, and
// no row is decoded or handed up. Every operator's (examined,
// returned, fetches) triple, the deadline checks and the errors are
// those of the row-at-a-time fold. An armed MVCC view keeps the row
// path: the tree row may not be the row the statement sees.
type Aggregate struct {
	input Operator
	kind  sqlparse.AggKind
	col   int // schema column index for SUM; unused for COUNT
	desc  string
	stats Stats
	out   sqlparse.Value
	done  bool

	// leafFold, when set, is the Filter's predicates (none without
	// one) compiled for the table's layout with col as the SUM column:
	// what a folding leaf judges and sums each record with. folded says
	// Open used it.
	leafFold *storage.Matcher
	folded   bool
}

// Init resets a in place (see Filter.Init). For AggSum, col must be a
// resolved INT schema column (the planner validates and reports unknown
// or non-INT columns before the operator runs).
func (a *Aggregate) Init(input Operator, kind sqlparse.AggKind, col int, desc string) {
	*a = Aggregate{input: input, kind: kind, col: col, desc: desc}
}

// FoldAtLeaf lets Open fold at the leaf: a's input must be the
// serial clustered Scan or a Filter directly above it, and m that
// Filter's predicates (nil ones without it) compiled for the table's
// layout, with a's SUM column. Whether the fold happens is decided at
// Open: not when the leaf is blocking or an MVCC view is armed on it.
// Call it before Open.
func (a *Aggregate) FoldAtLeaf(m *storage.Matcher) { a.leafFold = m }

// foldingLeaf returns the Scan whose pages Open folds and the Filter
// between it and a, if any; a nil Scan means the row path.
func (a *Aggregate) foldingLeaf() (*Scan, *Filter) {
	if a.leafFold == nil {
		return nil, nil
	}
	in, f := a.input, (*Filter)(nil)
	if ff, ok := in.(*Filter); ok {
		in, f = ff.input, ff
	}
	s, ok := in.(*Scan)
	if !ok || s.blocking || s.vis != nil {
		return nil, nil
	}
	return s, f
}

// Open drains the input and folds it into the aggregate value.
func (a *Aggregate) Open() error {
	if a.kind != sqlparse.AggCount && a.kind != sqlparse.AggSum {
		return fmt.Errorf("exec: %w (kind %d)", ErrUnsupportedAggregate, int(a.kind))
	}
	if err := a.input.Open(); err != nil {
		return err
	}
	count, sum, err := a.fold()
	if err != nil {
		return err
	}
	if a.kind == sqlparse.AggCount {
		a.out = sqlparse.IntValue(count)
	} else {
		a.out = sqlparse.IntValue(sum)
	}
	return nil
}

// fold counts the input's rows and sums the SUM column over them: at
// the leaf when foldingLeaf names one, else row by row.
func (a *Aggregate) fold() (count, sum int64, err error) {
	if leaf, f := a.foldingLeaf(); leaf != nil {
		a.folded = true
		if count, sum, err = leaf.fold(a.leafFold); err != nil {
			return 0, 0, err
		}
		if f != nil {
			f.folded(leaf.stats.RowsExamined, int(count))
		}
		a.stats.RowsExamined += int(count)
		return count, sum, nil
	}
	for {
		r, ok, err := a.input.Next()
		if err != nil || !ok {
			return count, sum, err
		}
		a.stats.RowsExamined++
		count++
		if a.kind == sqlparse.AggSum {
			sum += r[a.col].Int
		}
	}
}

// Folded reports whether Open folds at the leaf (or tried to: an error
// in the walk fails the fold, as it fails the row path).
func (a *Aggregate) Folded() bool { return a.folded }

// Next emits the single aggregate row.
func (a *Aggregate) Next() (storage.Record, bool, error) {
	if a.done {
		return nil, false, nil
	}
	a.done = true
	a.stats.RowsReturned++
	return storage.Record{a.out}, true, nil
}

// Close closes the input.
func (a *Aggregate) Close() error { return a.input.Close() }

func (a *Aggregate) Describe() string     { return a.desc }
func (a *Aggregate) Stats() Stats         { return a.stats }
func (a *Aggregate) Children() []Operator { return []Operator{a.input} }

// Limit emits at most n input rows. It stops pulling once satisfied;
// the leaf below completes its traversal by Close regardless, so an
// early stop never changes which pages were fetched — LIMIT pushdown
// into the scan itself (dropping that remainder walk) is a
// leakage-profile change deliberately left on the roadmap.
type Limit struct {
	input Operator
	n     int
	seen  int
	desc  string
	stats Stats
}

// Init resets l in place (see Filter.Init).
func (l *Limit) Init(input Operator, n int, desc string) {
	*l = Limit{input: input, n: n, desc: desc}
}

// Open opens the input.
func (l *Limit) Open() error { return l.input.Open() }

// Next passes through up to n rows.
func (l *Limit) Next() (storage.Record, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	r, ok, err := l.input.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	l.stats.RowsExamined++
	l.stats.RowsReturned++
	return r, true, nil
}

// Close closes the input.
func (l *Limit) Close() error { return l.input.Close() }

func (l *Limit) Describe() string     { return l.desc }
func (l *Limit) Stats() Stats         { return l.stats }
func (l *Limit) Children() []Operator { return []Operator{l.input} }

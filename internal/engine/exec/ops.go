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
// leaf its residual conjuncts (PushDown). The leaf then turns rows
// down before decoding them, and this operator sees only rows that
// pass — which it still checks against every predicate, so nothing
// about the result rests on the hand-off. Its counters do not show it:
// Stats counts the rows the leaf rejected on its behalf as examined
// here, as the leaf counts them returned (see Scan.Reject).
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
// bounds do not already enforce — to leaf, which must be f's input.
// Call it before Open.
func (f *Filter) PushDown(leaf *Scan, residual []Pred) {
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
type Aggregate struct {
	input Operator
	kind  sqlparse.AggKind
	col   int // schema column index for SUM; unused for COUNT
	desc  string
	stats Stats
	out   sqlparse.Value
	done  bool
}

// Init resets a in place (see Filter.Init). For AggSum, col must be a
// resolved INT schema column (the planner validates and reports unknown
// or non-INT columns before the operator runs).
func (a *Aggregate) Init(input Operator, kind sqlparse.AggKind, col int, desc string) {
	*a = Aggregate{input: input, kind: kind, col: col, desc: desc}
}

// Open drains the input and folds it into the aggregate value.
func (a *Aggregate) Open() error {
	if a.kind != sqlparse.AggCount && a.kind != sqlparse.AggSum {
		return fmt.Errorf("exec: %w (kind %d)", ErrUnsupportedAggregate, int(a.kind))
	}
	if err := a.input.Open(); err != nil {
		return err
	}
	var count, sum int64
	for {
		r, ok, err := a.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		a.stats.RowsExamined++
		count++
		if a.kind == sqlparse.AggSum {
			sum += r[a.col].Int
		}
	}
	if a.kind == sqlparse.AggCount {
		a.out = sqlparse.IntValue(count)
	} else {
		a.out = sqlparse.IntValue(sum)
	}
	return nil
}

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

package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"snapdb/internal/sqlparse"
)

// Matcher is a conjunction of Preds compiled once for one record
// layout — the column types of the table whose records it reads — so
// that a scan leaf can test a record in a single pass over its bytes.
// The pass checks that the record is one of the layout's (its field
// count, every tag, every length within bounds) and reads each
// conjunct's field where that check found it: an INT conjunct is an
// interval [lo, hi] of int64 (!= the outside of one), a TEXT conjunct a
// byte comparison, and a conjunct whose verdict the layout already
// fixes (a text argument against an INT column, or the reverse) is no
// check at all. A record that is not of the layout — a forged or torn
// one, or one written under another schema — is decoded and the Preds
// are evaluated on its Values, so it gets the decoder's error and the
// decoded verdict by construction: compiling changes how much a record
// costs, never what it answers. (The planner compiles only resolved
// columns of typed rows, so only a corrupt or forged record goes there.)
//
// A Matcher is immutable once compiled: one plan template's may be
// shared by every session that runs it.
type Matcher struct {
	preds []Pred
	tags  []byte  // the layout: one field tag per column
	steps []check // in field order
	never bool    // some conjunct fails every record of the layout
	// sum is the INT field Fold adds up, -1 for none.
	sum int
	// generic sends every record to judge: some conjunct, or the SUM
	// field, lies outside the layout, so no record of it can be judged
	// without judge's error.
	generic bool

	// Room for a narrow table's layout and a two-conjunct WHERE clause:
	// a plan template, and so its matchers, is built for every
	// statement whose text is new, so Compile allocates once for those.
	tagBuf  [8]byte
	stepBuf [2]check
}

// check is one compiled conjunct: the interval test of an INT field,
// or the comparison of a TEXT field with arg.
type check struct {
	field  int
	lo, hi int64
	out    bool // pass outside [lo, hi] rather than inside
	op     sqlparse.CompareOp
	arg    sqlparse.Value
}

// Compile compiles preds for records whose columns have the types in
// layout. sum names an INT column whose values Fold adds up over the
// records that pass; -1 for none. The layout is a promise about the
// common case only: records that break it are still answered, by judge.
func Compile(preds []Pred, layout []sqlparse.ColumnType, sum int) *Matcher {
	m := &Matcher{preds: preds, sum: sum}
	m.tags, m.steps = m.tagBuf[:0], m.stepBuf[:0]
	for _, t := range layout {
		tag := tagText
		if t == sqlparse.TypeInt {
			tag = tagInt
		}
		m.tags = append(m.tags, tag)
	}
	if sum >= len(layout) {
		m.generic = true
	}
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(layout) {
			m.generic = true
			continue
		}
		isInt := m.tags[p.Col] == tagInt
		switch {
		case isInt && p.Arg.IsInt:
			m.compileInt(p)
		case !isInt && !p.Arg.IsInt:
			m.steps = append(m.steps, check{field: p.Col, op: p.Op, arg: p.Arg})
		default:
			// An INT field sorts before every text argument and a TEXT
			// field after every int one (compareField): the verdict is
			// the operator's on that fixed sign.
			if !p.Op.Eval(compareField(isInt, 0, nil, p.Arg)) {
				m.never = true
			}
		}
	}
	sort.SliceStable(m.steps, func(a, b int) bool { return m.steps[a].field < m.steps[b].field })
	return m
}

// compileInt turns an INT conjunct into the set of field values it
// passes. Which values those are depends only on the operator's verdict
// on each sign of the comparison with the argument a; every such set is
// empty, everything, an interval, or the outside of [a, a].
func (m *Matcher) compileInt(p Pred) {
	a := p.Arg.Int
	lt, eq, gt := p.Op.Eval(-1), p.Op.Eval(0), p.Op.Eval(1)
	c := check{field: p.Col, lo: math.MinInt64, hi: math.MaxInt64}
	switch {
	case lt && eq && gt:
		return
	case !lt && !eq && !gt:
		m.never = true
		return
	case lt && !eq && gt:
		c.lo, c.hi, c.out = a, a, true
	case lt:
		c.hi = a
		if !eq {
			if a == math.MinInt64 {
				m.never = true
				return
			}
			c.hi = a - 1
		}
	case gt:
		c.lo = a
		if !eq {
			if a == math.MaxInt64 {
				m.never = true
				return
			}
			c.lo = a + 1
		}
	default: // eq alone
		c.lo, c.hi = a, a
	}
	m.steps = append(m.steps, c)
}

// Match reports whether the encoded record b satisfies m's conjuncts:
// the verdict of the Preds m was compiled from on the decoded record,
// or the decoder's error.
func (m *Matcher) Match(b []byte) (bool, error) {
	if !m.generic {
		if ok, fits, _ := m.walk(b); fits {
			return ok, nil
		}
	}
	_, ok, err := m.judge(b)
	return ok, err
}

// matchSum is Match that also returns, for a record that passes, the
// value of m's SUM column as decoding the record would give it: the
// int, or 0 for a text field. A record that passes but lacks the field
// is an error.
func (m *Matcher) matchSum(b []byte) (bool, int64, error) {
	if !m.generic {
		if ok, fits, v := m.walk(b); fits {
			return ok, v, nil
		}
	}
	r, ok, err := m.judge(b)
	switch {
	case !ok || err != nil || m.sum < 0:
		return ok, 0, err
	case m.sum >= len(r):
		return true, 0, fmt.Errorf("storage: SUM reads field %d beyond the record's %d", m.sum, len(r))
	}
	return true, r[m.sum].Int, nil
}

// judge answers for a record off m's layout: it decodes b and evaluates
// m's Preds on the Values — the decoder's error, or an error for a
// predicate naming a field the record does not have.
func (m *Matcher) judge(b []byte) (Record, bool, error) {
	r, _, err := DecodeRecord(b)
	if err != nil {
		return nil, false, err
	}
	ok := true
	for _, p := range m.preds {
		if p.Col < 0 || p.Col >= len(r) {
			return nil, false, fmt.Errorf("storage: predicate reads a field beyond the record's %d", len(r))
		}
		ok = ok && p.Op.Eval(r[p.Col].Compare(p.Arg))
	}
	return r, ok, nil
}

// Fold judges the records in slots, live slots of p, in order: it
// returns how many m accepts and the sum of m's SUM column over them,
// read in place, or stops at the first record that fails and returns
// its slot with the error, which is the decoder's.
func (m *Matcher) Fold(p *Page, slots []uint16) (accepted int, sum int64, bad uint16, err error) {
	for _, slot := range slots {
		ok, v, err := m.matchSum(p.SlotBytes(int(slot)))
		if err != nil {
			return 0, 0, slot, err
		}
		if ok {
			accepted++
			sum += v
		}
	}
	return accepted, sum, 0, nil
}

// walk is the compiled pass. fits reports whether b is a record of m's
// layout; only then do ok (every conjunct holds) and v (the SUM field,
// when ok) mean anything.
func (m *Matcher) walk(b []byte) (ok, fits bool, v int64) {
	if len(b) < 2 || int(binary.BigEndian.Uint16(b)) != len(m.tags) {
		return false, false, 0
	}
	ok = !m.never
	pos, j := 2, 0
	for i, tag := range m.tags {
		if pos >= len(b) || b[pos] != tag {
			return false, false, 0
		}
		pos++
		if tag == tagInt {
			if pos+8 > len(b) {
				return false, false, 0
			}
			x := int64(binary.BigEndian.Uint64(b[pos:]))
			pos += 8
			for ; j < len(m.steps) && m.steps[j].field == i; j++ {
				c := &m.steps[j]
				ok = ok && (x >= c.lo && x <= c.hi) != c.out
			}
			if i == m.sum {
				v = x
			}
			continue
		}
		if pos+4 > len(b) {
			return false, false, 0
		}
		l := int(binary.BigEndian.Uint32(b[pos:]))
		pos += 4
		if pos+l > len(b) {
			return false, false, 0
		}
		s := b[pos : pos+l]
		pos += l
		for ; j < len(m.steps) && m.steps[j].field == i; j++ {
			c := &m.steps[j]
			ok = ok && c.op.Eval(compareField(false, 0, s, c.arg))
		}
	}
	if !ok {
		v = 0
	}
	return ok, true, v
}

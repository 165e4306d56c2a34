package exec

import (
	"errors"
	"testing"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// rowSource is a stub leaf feeding fixed rows to the operator under
// test, tracking Open/Close so tests can assert the iterator contract.
// With lend set it hands every row out in one buffer that the next
// Next overwrites and Close wipes — the shortest loan the Operator
// contract allows.
type rowSource struct {
	rows   []storage.Record
	pos    int
	opened bool
	closed bool
	lend   bool
	loan   storage.Record
}

func (s *rowSource) Open() error { s.opened = true; return nil }
func (s *rowSource) Next() (storage.Record, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	if s.lend {
		s.loan = append(s.loan[:0], r...)
		r = s.loan
	}
	return r, true, nil
}
func (s *rowSource) Close() error {
	s.closed = true
	for i := range s.loan {
		s.loan[i] = sqlparse.StrValue("stale loan")
	}
	return nil
}
func (s *rowSource) Describe() string     { return "stub source" }
func (s *rowSource) Stats() Stats         { return Stats{} }
func (s *rowSource) Children() []Operator { return nil }

func intRows(vals ...int64) []storage.Record {
	out := make([]storage.Record, len(vals))
	for i, v := range vals {
		out[i] = storage.Record{sqlparse.IntValue(v)}
	}
	return out
}

func drainAll(t *testing.T, op Operator) []storage.Record {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	var out []storage.Record
	for {
		r, ok, err := op.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		out = append(out, r)
	}
	if err := op.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out
}

func TestLimitStopsAtN(t *testing.T) {
	src := &rowSource{rows: intRows(1, 2, 3, 4, 5)}
	l := new(Limit)
	l.Init(src, 3, "Limit: 3")
	out := drainAll(t, l)
	if len(out) != 3 {
		t.Fatalf("emitted %d rows, want 3", len(out))
	}
	for i, want := range []int64{1, 2, 3} {
		if out[i][0].Int != want {
			t.Errorf("row %d = %d, want %d", i, out[i][0].Int, want)
		}
	}
	// Once satisfied, Limit must not pull its input again.
	if src.pos != 3 {
		t.Errorf("limit pulled %d input rows, want exactly 3", src.pos)
	}
	st := l.Stats()
	if st.RowsExamined != 3 || st.RowsReturned != 3 {
		t.Errorf("stats = %+v, want 3 examined / 3 returned", st)
	}
	if !src.closed {
		t.Error("input was not closed")
	}
}

func TestLimitLargerThanInput(t *testing.T) {
	l := new(Limit)
	l.Init(&rowSource{rows: intRows(7, 8)}, 10, "Limit: 10")
	if got := drainAll(t, l); len(got) != 2 {
		t.Fatalf("emitted %d rows, want 2", len(got))
	}
}

func TestLimitZeroRows(t *testing.T) {
	src := &rowSource{rows: intRows(1, 2)}
	l := new(Limit)
	l.Init(src, 0, "Limit: 0")
	if got := drainAll(t, l); len(got) != 0 {
		t.Fatalf("emitted %d rows, want 0", len(got))
	}
	if src.pos != 0 {
		t.Errorf("limit 0 pulled %d input rows, want 0", src.pos)
	}
}

func TestFilterCountsExaminedAndReturned(t *testing.T) {
	src := &rowSource{rows: intRows(1, 5, 3, 9, 2)}
	f := new(Filter)
	f.Init(src, []Pred{{Col: 0, Op: sqlparse.OpGe, Arg: sqlparse.IntValue(3)}}, "Filter: x >= 3")
	out := drainAll(t, f)
	if len(out) != 3 {
		t.Fatalf("emitted %d rows, want 3", len(out))
	}
	st := f.Stats()
	if st.RowsExamined != 5 || st.RowsReturned != 3 {
		t.Errorf("stats = %+v, want 5 examined / 3 returned", st)
	}
}

func TestSortStableOrdering(t *testing.T) {
	src := &rowSource{rows: []storage.Record{
		{sqlparse.IntValue(2), sqlparse.StrValue("b")},
		{sqlparse.IntValue(1), sqlparse.StrValue("a")},
		{sqlparse.IntValue(2), sqlparse.StrValue("a")}, // ties keep input order
	}}
	s := new(Sort)
	s.Init(src, 0, false, "Sort: k ASC")
	out := drainAll(t, s)
	got := ""
	for _, r := range out {
		got += r[1].Str
	}
	if got != "aba" {
		t.Errorf("sorted order = %q, want %q (stable ascending on col 0)", got, "aba")
	}

	desc := new(Sort)
	desc.Init(&rowSource{rows: intRows(1, 3, 2)}, 0, true, "Sort: k DESC")
	out = drainAll(t, desc)
	if out[0][0].Int != 3 || out[2][0].Int != 1 {
		t.Errorf("descending sort wrong: %v", out)
	}
}

func TestAggregateCountAndSum(t *testing.T) {
	c := new(Aggregate)
	c.Init(&rowSource{rows: intRows(4, 5, 6)}, sqlparse.AggCount, -1, "Aggregate: COUNT(*)")
	out := drainAll(t, c)
	if len(out) != 1 || out[0][0].Int != 3 {
		t.Fatalf("COUNT = %v, want single row 3", out)
	}
	s := new(Aggregate)
	s.Init(&rowSource{rows: intRows(4, 5, 6)}, sqlparse.AggSum, 0, "Aggregate: SUM(x)")
	out = drainAll(t, s)
	if len(out) != 1 || out[0][0].Int != 15 {
		t.Fatalf("SUM = %v, want single row 15", out)
	}
}

func TestAggregateUnsupportedKind(t *testing.T) {
	a := new(Aggregate)
	a.Init(&rowSource{}, sqlparse.AggKind(99), 0, "Aggregate: ?")
	err := a.Open()
	if err == nil {
		t.Fatal("Open accepted an unsupported aggregate kind")
	}
	if !errors.Is(err, ErrUnsupportedAggregate) {
		t.Errorf("error %v is not ErrUnsupportedAggregate", err)
	}
}

func TestProjectEmitsFreshRecords(t *testing.T) {
	base := storage.Record{sqlparse.IntValue(1), sqlparse.StrValue("x"), sqlparse.IntValue(9)}
	p := new(Project)
	p.Init(&rowSource{rows: []storage.Record{base}}, []int{2, 0}, "Project: c, a")
	out := drainAll(t, p)
	if len(out) != 1 || len(out[0]) != 2 || out[0][0].Int != 9 || out[0][1].Int != 1 {
		t.Fatalf("projection = %v", out)
	}
	// Mutating the projected row must not alias the source record.
	out[0][0] = sqlparse.IntValue(42)
	if base[2].Int != 9 {
		t.Error("projected record aliases the scan buffer")
	}
}

// Project carves its records from shared chunks: over a long, lent
// input every record must still be its own — right after the loan is
// gone, unreachable from its neighbours by append, unchanged when a
// neighbour is written.
func TestProjectRecordsAreDisjoint(t *testing.T) {
	const n = 3*projectMaxChunk + 5
	rows := make([]storage.Record, n)
	for i := range rows {
		rows[i] = storage.Record{sqlparse.IntValue(int64(i)), sqlparse.StrValue("x"), sqlparse.IntValue(int64(-i))}
	}
	p := new(Project)
	p.Init(&rowSource{rows: rows, lend: true}, []int{2, 0}, "Project: c, a")
	out := drainAll(t, p)
	if len(out) != n {
		t.Fatalf("projected %d rows, want %d", len(out), n)
	}
	for i := range out {
		out[i] = append(out[i], sqlparse.IntValue(7))
		out[i][0] = sqlparse.IntValue(int64(-i))
	}
	for i, r := range out {
		if len(r) != 3 || r[0].Int != int64(-i) || r[1].Int != int64(i) || r[2].Int != 7 {
			t.Fatalf("row %d = %v after writing its neighbours", i, r)
		}
	}
	if got := testing.AllocsPerRun(3, func() {
		p.Init(&rowSource{rows: rows}, []int{2, 0}, "")
		for {
			if _, ok, _ := p.Next(); !ok {
				break
			}
		}
	}); got > n/8 {
		t.Errorf("%d projected rows cost %.0f allocations, want a few per %d-row chunk", n, got, projectMaxChunk)
	}
}

package exec

import (
	"sort"

	"snapdb/internal/storage"
)

// topnEntry is one buffered row plus its arrival sequence number. The
// sequence breaks comparison ties, which is exactly what makes the
// bounded heap equivalent to a stable sort followed by truncation.
type topnEntry struct {
	rec storage.Record
	seq int
}

// TopN is a blocking bounded-heap replacement for Sort+Limit: it keeps
// only the first n rows of the stable sort order while draining its
// input, so the work is O(rows · log n) instead of O(rows · log rows)
// and the retained memory is O(n). Like Sort it runs below Project and
// drains its input completely at Open, so the buffer-pool fetch
// sequence is byte-identical to the Sort+Limit plan it replaces — only
// the CPU/memory profile changes. It copies each row it admits to the
// heap, into the record of the row that admission evicts once the heap
// is full, so its input may lend rows (see Operator) and it allocates n
// records however many rows pass through.
type TopN struct {
	input Operator
	col   int
	desc  bool
	n     int
	label string
	heap  []topnEntry // max-heap on precedes until Open sorts it
	pos   int
	stats Stats
}

// Init resets t in place (see Filter.Init).
func (t *TopN) Init(input Operator, col int, desc bool, n int, label string) {
	*t = TopN{input: input, col: col, desc: desc, n: n, label: label}
}

// precedes reports whether a comes before b in the output order: by the
// sort column (reversed for DESC), then by arrival order. This is a
// strict weak order with no ties, so "the n smallest under precedes"
// is exactly the first n rows of sort.SliceStable on the column.
func (t *TopN) precedes(a, b topnEntry) bool {
	c := a.rec[t.col].Compare(b.rec[t.col])
	if t.desc {
		c = -c
	}
	if c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// The heap is a max-heap under precedes: the root is the entry that
// comes LAST among the kept n, i.e. the first candidate for eviction.

func (t *TopN) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.precedes(t.heap[parent], t.heap[i]) {
			break
		}
		t.heap[parent], t.heap[i] = t.heap[i], t.heap[parent]
		i = parent
	}
}

func (t *TopN) siftDown(i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(t.heap) && t.precedes(t.heap[worst], t.heap[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(t.heap) && t.precedes(t.heap[worst], t.heap[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// Open drains the input through the bounded heap, then sorts the kept
// rows into emission order. The input is always drained to exhaustion
// — even for n = 0 — because the leaf below completes its traversal
// either way and the operator contract is that LIMIT never changes
// which rows are examined.
func (t *TopN) Open() error {
	if err := t.input.Open(); err != nil {
		return err
	}
	if t.n > 0 {
		t.heap = make([]topnEntry, 0, t.n)
	}
	seq := 0
	for {
		r, ok, err := t.input.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		t.stats.RowsExamined++
		e := topnEntry{rec: r, seq: seq}
		seq++
		if t.n == 0 {
			continue
		}
		if len(t.heap) < t.n {
			e.rec = r.Clone()
			t.heap = append(t.heap, e)
			t.siftUp(len(t.heap) - 1)
		} else if t.precedes(e, t.heap[0]) {
			e.rec = append(t.heap[0].rec[:0], r...)
			t.heap[0] = e
			t.siftDown(0)
		}
	}
	sort.Slice(t.heap, func(a, b int) bool { return t.precedes(t.heap[a], t.heap[b]) })
	return nil
}

// Next emits the next kept row in sorted order.
func (t *TopN) Next() (storage.Record, bool, error) {
	if t.pos >= len(t.heap) {
		return nil, false, nil
	}
	r := t.heap[t.pos].rec
	t.pos++
	t.stats.RowsReturned++
	return r, true, nil
}

// Close releases the heap and closes the input.
func (t *TopN) Close() error {
	t.heap = nil
	return t.input.Close()
}

func (t *TopN) Describe() string     { return t.label }
func (t *TopN) Stats() Stats         { return t.stats }
func (t *TopN) Children() []Operator { return []Operator{t.input} }

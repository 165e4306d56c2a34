package engine

import (
	"fmt"
	"sort"

	"snapdb/internal/btree"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// SecondaryIndex is a non-unique index over one column: a B+ tree of
// {compositeKey, pk} entries whose composite key preserves (value, pk)
// order. Like the clustered index, every traversal flows through the
// buffer pool — so secondary-index access paths are part of the
// snapshot leakage surface too.
type SecondaryIndex struct {
	Name   string
	Column string
	colIdx int
	Tree   *btree.Tree
}

const hexDigits = "0123456789abcdef"

// encodeOrdered renders a value as a string whose bytewise order equals
// the value order within its type: ints as offset-binary fixed-width
// hex, strings as themselves. Columns are typed, so int and string
// encodings never mix within one index.
//
// The int form is written by hand instead of fmt.Sprintf("i%016x", u):
// every secondary-index probe and maintenance op builds these keys, and
// Sprintf's interface boxing plus format parsing was a measurable share
// of DML allocations. The output bytes are identical (asserted by
// TestEncodeOrderedMatchesSprintf).
func encodeOrdered(v sqlparse.Value) string {
	if v.IsInt {
		var b [17]byte
		b[0] = 'i'
		u := uint64(v.Int) + (1 << 63)
		for i := 16; i >= 1; i-- {
			b[i] = hexDigits[u&0xf]
			u >>= 4
		}
		return string(b[:])
	}
	return "s" + v.Str
}

// indexKey builds the composite (value, pk) key. The \x00 separator
// keeps entries of one value contiguous and ordered by pk.
func indexKey(v, pk sqlparse.Value) sqlparse.Value {
	return sqlparse.StrValue(encodeOrdered(v) + "\x00" + encodeOrdered(pk))
}

// indexValueBounds returns the inclusive composite-key range covering
// every pk for values in [lo, hi].
func indexValueBounds(lo, hi sqlparse.Value) (sqlparse.Value, sqlparse.Value) {
	return sqlparse.StrValue(encodeOrdered(lo) + "\x00"),
		sqlparse.StrValue(encodeOrdered(hi) + "\x00\xff")
}

func (e *Engine) execCreateIndex(st *sqlparse.CreateIndex, query string, ts int64) (*Result, error) {
	t, err := e.lookupTable(st.Table)
	if err != nil {
		return nil, err
	}
	colIdx := t.ColumnIndex(st.Column)
	if colIdx < 0 {
		return nil, fmt.Errorf("engine: unknown column %q in CREATE INDEX", st.Column)
	}
	if colIdx == 0 {
		return nil, fmt.Errorf("engine: column %q is the primary key; it is already indexed", st.Column)
	}
	e.mu.Lock()
	for _, ix := range t.Indexes {
		if ix.Name == st.Name {
			e.mu.Unlock()
			return nil, fmt.Errorf("engine: index %q already exists", st.Name)
		}
		if ix.Column == st.Column {
			e.mu.Unlock()
			return nil, fmt.Errorf("engine: column %q is already indexed by %q", st.Column, ix.Column)
		}
	}
	ix := &SecondaryIndex{
		Name:   st.Name,
		Column: st.Column,
		colIdx: colIdx,
		Tree:   btree.New(e.ts, e.pool),
	}
	e.mu.Unlock()

	// Backfill from the clustered index.
	err = t.Tree.Scan(func(r storage.Record) bool {
		entry := storage.Record{indexKey(r[colIdx], r[0]), r[0]}
		if insErr := ix.Tree.Insert(entry); insErr != nil {
			err = insErr
			return false
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("engine: backfilling index %q: %w", st.Name, err)
	}
	e.mu.Lock()
	t.Indexes = append(t.Indexes, ix)
	sort.Slice(t.Indexes, func(i, j int) bool { return t.Indexes[i].Name < t.Indexes[j].Name })
	e.mu.Unlock()
	// DDL invalidates cached plans: a SELECT planned before this index
	// existed would keep full-scanning past it.
	e.plans.bumpEpoch()
	// The backfilled index tree is not WAL-logged either: commitDDL's
	// checkpoint persists it with the catalog.
	if err := e.commitDDL(query, ts); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// indexInsertRow adds row to every secondary index of t.
func indexInsertRow(t *Table, row storage.Record) error {
	for _, ix := range t.Indexes {
		entry := storage.Record{indexKey(row[ix.colIdx], row[0]), row[0]}
		if err := ix.Tree.Insert(entry); err != nil {
			return fmt.Errorf("engine: index %q: %w", ix.Name, err)
		}
	}
	return nil
}

// indexDeleteRow removes row from every secondary index of t.
func indexDeleteRow(t *Table, row storage.Record) error {
	for _, ix := range t.Indexes {
		found, err := ix.Tree.Delete(indexKey(row[ix.colIdx], row[0]))
		if err != nil {
			return fmt.Errorf("engine: index %q: %w", ix.Name, err)
		}
		if !found {
			return fmt.Errorf("engine: index %q lost entry for pk %s", ix.Name, row[0])
		}
	}
	return nil
}

// indexed reports whether a secondary index of t covers column col.
func (t *Table) indexed(col int) bool {
	for _, ix := range t.Indexes {
		if ix.colIdx == col {
			return true
		}
	}
	return false
}

// indexUpdateColumn re-keys the indexes covering column col.
func indexUpdateColumn(t *Table, pk sqlparse.Value, col int, oldVal, newVal sqlparse.Value) error {
	if oldVal.Equal(newVal) {
		return nil
	}
	for _, ix := range t.Indexes {
		if ix.colIdx != col {
			continue
		}
		found, err := ix.Tree.Delete(indexKey(oldVal, pk))
		if err != nil {
			return fmt.Errorf("engine: index %q: %w", ix.Name, err)
		}
		if !found {
			return fmt.Errorf("engine: index %q lost entry for pk %s", ix.Name, pk)
		}
		if err := ix.Tree.Insert(storage.Record{indexKey(newVal, pk), pk}); err != nil {
			return fmt.Errorf("engine: index %q: %w", ix.Name, err)
		}
	}
	return nil
}

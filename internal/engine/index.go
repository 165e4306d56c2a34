package engine

import (
	"fmt"
	"sort"

	"snapdb/internal/binlog"
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

func (e *Engine) execCreateIndex(s *Session, st *sqlparse.CreateIndex, query string, ts int64) (*Result, error) {
	if s.txn != nil {
		return nil, fmt.Errorf("engine: DDL inside a transaction is not supported")
	}
	if e.persist != nil {
		if n := e.openTxns.Load(); n != 0 {
			return nil, fmt.Errorf("engine: DDL refused: %d open transaction(s)", n)
		}
	}
	t, err := e.lookupTable(st.Table)
	if err != nil {
		return nil, err
	}
	colIdx := t.ColumnIndex(st.Column)
	if colIdx < 0 {
		return nil, fmt.Errorf("engine: unknown column %q in CREATE INDEX", st.Column)
	}
	if colIdx == t.PKIndex {
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
		entry := storage.Record{indexKey(r[colIdx], r[t.PKIndex]), r[t.PKIndex]}
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
	if e.plans != nil {
		e.plans.bumpEpoch()
	}
	if e.cfg.EnableBinlog {
		if err := e.binlog.Commit(binlog.Event{Timestamp: ts, Statement: query}); err != nil {
			return nil, fmt.Errorf("engine: binlog: %w", err)
		}
	}
	// Like CREATE TABLE: the catalog (and the backfilled index tree) is
	// not WAL-logged, so a durable engine persists it by checkpointing.
	if err := e.checkpointLocked(); err != nil {
		return nil, fmt.Errorf("engine: DDL checkpoint: %w", err)
	}
	return &Result{}, nil
}

// indexInsertRow adds row to every secondary index of t.
func indexInsertRow(t *Table, row storage.Record) error {
	for _, ix := range t.Indexes {
		entry := storage.Record{indexKey(row[ix.colIdx], row[t.PKIndex]), row[t.PKIndex]}
		if err := ix.Tree.Insert(entry); err != nil {
			return fmt.Errorf("engine: index %q: %w", ix.Name, err)
		}
	}
	return nil
}

// indexDeleteRow removes row from every secondary index of t.
func indexDeleteRow(t *Table, row storage.Record) error {
	for _, ix := range t.Indexes {
		found, err := ix.Tree.Delete(indexKey(row[ix.colIdx], row[t.PKIndex]))
		if err != nil {
			return fmt.Errorf("engine: index %q: %w", ix.Name, err)
		}
		if !found {
			return fmt.Errorf("engine: index %q lost entry for pk %s", ix.Name, row[t.PKIndex])
		}
	}
	return nil
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

// indexBoundsFor extracts the predicate bounds usable with one index:
// an equality (eq=true, lo==hi) or both range bounds on its column.
// The first equality predicate wins outright, as it always has.
func indexBoundsFor(ix *SecondaryIndex, where sqlparse.Where) (lo, hi sqlparse.Value, eq, ok bool) {
	var haveLo, haveHi bool
	for _, p := range where {
		if p.Column != ix.Column {
			continue
		}
		switch p.Op {
		case sqlparse.OpEq:
			return p.Arg, p.Arg, true, true
		case sqlparse.OpGe, sqlparse.OpGt:
			if !haveLo || p.Arg.Compare(lo) > 0 {
				lo, haveLo = p.Arg, true
			}
		case sqlparse.OpLe, sqlparse.OpLt:
			if !haveHi || p.Arg.Compare(hi) < 0 {
				hi, haveHi = p.Arg, true
			}
		}
	}
	if haveLo && haveHi {
		return lo, hi, false, true
	}
	return sqlparse.Value{}, sqlparse.Value{}, false, false
}

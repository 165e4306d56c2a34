package engine

// This file freezes the pre-operator executor — the inline scan loop,
// aggregate, projection, ORDER BY, and LIMIT code execSelect,
// execUpdate, and execDelete contained before the Volcano refactor —
// as a test-only execFn. The differential and leakage-equivalence
// tests run the same workload through legacyExecute and the production
// operator-tree executor and require identical results AND identical
// forensic artifact streams (buffer-pool fetch sequence included).
//
// The copies differ from the historical code only in that they resolve
// WHERE/projection columns inline instead of through the old
// planBindings fields (which the physical-plan template replaced):
// resolution has no forensic side effects and errors at the same
// execution points, so the artifact streams are unaffected. It is a
// read-path reference, so the UPDATE and DELETE copies end through the
// production commit path (Session.publish) rather than a commit tail of
// their own.

import (
	"fmt"
	"sort"

	"snapdb/internal/binlog"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// legacyExecute dispatches SELECT/UPDATE/DELETE to the frozen legacy
// paths with the same lock scopes the production dispatcher uses, and
// delegates every other statement kind (whose execution did not
// change) to the production executor.
func legacyExecute(e *Engine, s *Session, query string, pl *plan, parseErr error, ts int64) (*Result, error) {
	if parseErr != nil {
		return nil, parseErr
	}
	switch st := pl.stmt.(type) {
	case *sqlparse.Select:
		if isSystemTable(st.Table) {
			return legacyExecSelect(e, s, st, query)
		}
		mu := e.locks.shared(st.Table)
		defer mu.RUnlock()
		return legacyExecSelect(e, s, st, query)
	case *sqlparse.Update:
		mu := e.locks.exclusive(st.Table)
		defer mu.Unlock()
		return legacyExecUpdate(e, s, st, query, ts)
	case *sqlparse.Delete:
		mu := e.locks.exclusive(st.Table)
		defer mu.Unlock()
		return legacyExecDelete(e, s, st, query, ts)
	default:
		return e.execute(s, query, pl, parseErr, ts)
	}
}

func legacyExecSelect(e *Engine, s *Session, st *sqlparse.Select, query string) (*Result, error) {
	if res, ok := e.systemSelect(st); ok {
		return res, nil
	}
	t, err := e.lookupTable(st.Table)
	if err != nil {
		return nil, err
	}
	if cached, ok := e.qcache.Get(query); ok {
		return &Result{Columns: selectColumns(t, st), Rows: cached, FromCache: true}, nil
	}
	rows, examined, path, err := legacyScanWhere(e, t, st.Where)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: selectColumns(t, st), RowsExamined: examined, AccessPath: path}

	// Aggregates. LIMIT caps the single aggregate row (the LIMIT 0 fix
	// applies here too — this frozen copy tracks the current semantics,
	// not the historical ORDER BY/LIMIT-dropping bug, so the differential
	// tests prove executor equivalence rather than re-proving the bug).
	if len(st.Exprs) == 1 && st.Exprs[0].Agg != sqlparse.AggNone {
		val, err := legacyAggregate(t, st.Exprs[0], rows)
		if err != nil {
			return nil, err
		}
		res.Rows = []storage.Record{{val}}
		if st.Limit >= 0 && len(res.Rows) > st.Limit {
			res.Rows = res.Rows[:st.Limit]
		}
		e.qcache.Put(query, t.Name, res.Rows)
		return res, nil
	}

	// Projection.
	proj, err := projection(t, st.Exprs)
	if err != nil {
		return nil, err
	}
	out := make([]storage.Record, 0, len(rows))
	for _, r := range rows {
		pr := make(storage.Record, len(proj))
		for i, idx := range proj {
			pr[i] = r[idx]
		}
		out = append(out, pr)
	}

	if st.OrderBy != "" {
		oidx := t.ColumnIndex(st.OrderBy)
		if oidx < 0 {
			return nil, fmt.Errorf("engine: unknown ORDER BY column %q", st.OrderBy)
		}
		order := make([]int, len(rows))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			c := rows[order[a]][oidx].Compare(rows[order[b]][oidx])
			if st.Desc {
				return c > 0
			}
			return c < 0
		})
		reordered := make([]storage.Record, len(out))
		for i, o := range order {
			reordered[i] = out[o]
		}
		out = reordered
	}
	if st.Limit >= 0 && len(out) > st.Limit {
		out = out[:st.Limit]
	}
	res.Rows = out
	e.qcache.Put(query, t.Name, out)
	return res, nil
}

func legacyScanWhere(e *Engine, t *Table, where sqlparse.Where) ([]storage.Record, int, string, error) {
	colIdx := make([]int, len(where))
	for i, p := range where {
		idx := t.ColumnIndex(p.Column)
		if idx < 0 {
			return nil, 0, "", fmt.Errorf("engine: unknown column %q in WHERE", p.Column)
		}
		colIdx[i] = idx
	}
	match := func(r storage.Record) (bool, error) {
		for i, p := range where {
			if !p.Op.Eval(r[colIdx[i]].Compare(p.Arg)) {
				return false, nil
			}
		}
		return true, nil
	}

	lo, hi, _, havePK := columnBounds(t.Columns[t.PKIndex].Name, where)
	var rows []storage.Record
	switch {
	case havePK && lo.Equal(hi):
		rows = make([]storage.Record, 0, 1)
	case len(where) == 0:
		if n := t.rows.Load(); n > 0 && n <= 1<<16 {
			rows = make([]storage.Record, 0, n)
		}
	}
	examined := 0
	var scanErr error
	visit := func(r storage.Record) bool {
		examined++
		ok, err := match(r)
		if err != nil {
			scanErr = err
			return false
		}
		if ok {
			rows = append(rows, r)
		}
		return true
	}
	var err error
	path := "full-scan"
	switch {
	case havePK:
		path = "pk-range"
		err = t.Tree.Range(lo, hi, visit)
	default:
		if ix, ilo, ihi, ok := indexBounds(t.Indexes, where); ok {
			candidates, n, ierr := legacyIndexScan(t, ix, ilo, ihi)
			if ierr != nil {
				return nil, 0, "", ierr
			}
			examined = n
			for _, r := range candidates {
				ok, merr := match(r)
				if merr != nil {
					return nil, 0, "", merr
				}
				if ok {
					rows = append(rows, r)
				}
			}
			return rows, examined, "index:" + ix.Name, nil
		}
		err = t.Tree.Scan(visit)
	}
	if err != nil {
		return nil, 0, "", err
	}
	if scanErr != nil {
		return nil, 0, "", scanErr
	}
	return rows, examined, path, nil
}

// indexBounds is the pre-statistics access-path rule, frozen with the
// rest of the legacy executor: the first index (by name) with a bounded
// predicate wins.
func indexBounds(indexes []*SecondaryIndex, where sqlparse.Where) (*SecondaryIndex, sqlparse.Value, sqlparse.Value, bool) {
	for _, ix := range indexes {
		if lo, hi, _, ok := columnBounds(ix.Column, where); ok {
			return ix, lo, hi, true
		}
	}
	return nil, sqlparse.Value{}, sqlparse.Value{}, false
}

func legacyIndexScan(t *Table, ix *SecondaryIndex, lo, hi sqlparse.Value) ([]storage.Record, int, error) {
	klo, khi := indexValueBounds(lo, hi)
	var pks []sqlparse.Value
	if err := ix.Tree.Range(klo, khi, func(r storage.Record) bool {
		pks = append(pks, r[1])
		return true
	}); err != nil {
		return nil, 0, err
	}
	rows := make([]storage.Record, 0, len(pks))
	for _, pk := range pks {
		row, found, err := t.Tree.Search(pk)
		if err != nil {
			return nil, 0, err
		}
		if !found {
			return nil, 0, fmt.Errorf("engine: index %q points at missing pk %s", ix.Name, pk)
		}
		rows = append(rows, row)
	}
	return rows, len(pks), nil
}

func legacyAggregate(t *Table, ex sqlparse.SelectExpr, rows []storage.Record) (sqlparse.Value, error) {
	switch ex.Agg {
	case sqlparse.AggCount:
		return sqlparse.IntValue(int64(len(rows))), nil
	case sqlparse.AggSum:
		idx := t.ColumnIndex(ex.Column)
		if idx < 0 {
			return sqlparse.Value{}, fmt.Errorf("engine: unknown column %q in SUM", ex.Column)
		}
		if t.Columns[idx].Type != sqlparse.TypeInt {
			return sqlparse.Value{}, fmt.Errorf("engine: SUM over non-INT column %q", ex.Column)
		}
		var sum int64
		for _, r := range rows {
			sum += r[idx].Int
		}
		return sqlparse.IntValue(sum), nil
	default:
		return sqlparse.Value{}, fmt.Errorf("engine: unsupported aggregate")
	}
}

func legacyExecUpdate(e *Engine, s *Session, st *sqlparse.Update, query string, ts int64) (*Result, error) {
	t, err := e.lookupTable(st.Table)
	if err != nil {
		return nil, err
	}
	rows, examined, _, err := legacyScanWhere(e, t, st.Where)
	if err != nil {
		return nil, err
	}
	type setOpL struct {
		idx int
		val sqlparse.Value
	}
	sets := make([]setOpL, 0, len(st.Set))
	for _, a := range st.Set {
		idx := t.ColumnIndex(a.Column)
		if idx < 0 {
			return nil, fmt.Errorf("engine: unknown column %q in SET", a.Column)
		}
		if idx == t.PKIndex {
			return nil, fmt.Errorf("engine: updating the primary key is not supported")
		}
		if err := checkType(t.Columns[idx], a.Value); err != nil {
			return nil, err
		}
		sets = append(sets, setOpL{idx, a.Value})
	}
	txn, _ := s.stmtTxn(e)
	for _, old := range rows {
		updated := old.Clone()
		for _, op := range sets {
			_, undo, err := e.wal.TxUpdate(txn, t.ID,
				storage.Record{old[t.PKIndex]}, uint8(op.idx),
				storage.Record{old[op.idx]}, storage.Record{op.val})
			if err != nil {
				return nil, fmt.Errorf("engine: wal: %w", err)
			}
			s.noteUndo(undo)
			if err := indexUpdateColumn(t, old[t.PKIndex], op.idx, old[op.idx], op.val); err != nil {
				return nil, err
			}
			updated[op.idx] = op.val
		}
		if _, err := t.Tree.Update(old[t.PKIndex], updated); err != nil {
			return nil, err
		}
	}
	e.qcache.InvalidateTable(t.Name)
	if len(rows) > 0 {
		if _, err := s.publish(e, txn, binlog.Event{Timestamp: ts, Statement: query}); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: len(rows), RowsExamined: examined}, nil
}

func legacyExecDelete(e *Engine, s *Session, st *sqlparse.Delete, query string, ts int64) (*Result, error) {
	t, err := e.lookupTable(st.Table)
	if err != nil {
		return nil, err
	}
	rows, examined, _, err := legacyScanWhere(e, t, st.Where)
	if err != nil {
		return nil, err
	}
	txn, _ := s.stmtTxn(e)
	t.rows.Add(-int64(len(rows)))
	for _, old := range rows {
		if _, err := t.Tree.Delete(old[t.PKIndex]); err != nil {
			return nil, err
		}
		if err := indexDeleteRow(t, old); err != nil {
			return nil, err
		}
		_, undo, err := e.wal.TxDelete(txn, t.ID, old)
		if err != nil {
			return nil, fmt.Errorf("engine: wal: %w", err)
		}
		s.noteUndo(undo)
	}
	e.qcache.InvalidateTable(t.Name)
	if len(rows) > 0 {
		if _, err := s.publish(e, txn, binlog.Event{Timestamp: ts, Statement: query}); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: len(rows), RowsExamined: examined}, nil
}

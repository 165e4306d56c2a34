package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"snapdb/internal/btree"
	"snapdb/internal/bufpool"
	"snapdb/internal/engine/exec"
	"snapdb/internal/querycache"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// The engine's SQL reference is a map, as the B+ tree's is
// (internal/btree/model_test.go). sqlModel answers the statements the
// model-checked workloads issue from Go maps alone — the rows in order,
// the columns, the affected and examined counts, the access path, whether
// the query cache served the statement, and the literal error text —
// without calling the engine's planner or executor. Every session reads
// through its own view: a transaction sees the committed state as of its
// first read plus its own writes.
//
// How a statement fetches pages is held to the trace rule instead
// (ruleTrace): a statement fetches what its plan's btree calls fetch on
// the engine's own trees. A full scan fetches what Tree.Scan does, a
// primary-key range what Tree.Range(lo, hi) does, and an index path
// what the index tree's Range does, then one clustered Search per entry
// in index order. A primary-key range split into partitions fetches
// what one Tree.Range per partition does, in any order: the partitions
// run concurrently.

// sqlModel is the reference state: the catalog, each table's rows as
// its tree holds them, the transactions and read views, and the query
// cache's keys.
type sqlModel struct {
	tables   map[string]*mTable
	cacheOn  bool
	workers  int   // partitions a primary-key range may split into
	minRows  int64 // the table size from which it splits
	nextTxn  uint64
	seq      uint64            // commit sequence: one step per resolved transaction
	resolved map[uint64]uint64 // transaction -> the seq it committed or rolled back at
	open     map[*mTxn]bool
	cache    map[string]string // the query cache: statement text -> the table it read
	sessions map[int]*mSession
}

// mTable is one table. rows is what its tree holds: the latest write of
// every transaction, committed or not.
type mTable struct {
	name    string
	cols    []sqlparse.ColumnDef
	rows    map[sqlparse.Value]storage.Record
	indexes []mIndex                  // by name
	writer  map[sqlparse.Value]uint64 // the last transaction to write each key
}

type mIndex struct {
	name string
	col  int
}

type mSession struct {
	txn          *mTxn
	nextReadOnly bool // SET TRANSACTION READ ONLY, for the next BEGIN
}

// mTxn is one open explicit transaction.
type mTxn struct {
	id       uint64
	readOnly bool
	// view is the committed state at the transaction's first read; nil
	// until then.
	view *mView
	// pre holds each key's committed row (nil: absent) from before the
	// transaction first wrote it; undo counts the undo records the
	// transaction holds per table.
	pre  map[*mTable]map[sqlparse.Value]storage.Record
	undo map[*mTable]int
}

type mView struct {
	snap uint64
	rows map[*mTable]map[sqlparse.Value]storage.Record
}

func newSQLModel(cfg Config) *sqlModel {
	return &sqlModel{
		tables:   make(map[string]*mTable),
		cacheOn:  cfg.EnableQueryCache,
		workers:  min(cfg.MaxScanWorkers, maxScanPartitions),
		minRows:  cfg.normalized().ParallelScanMinRows,
		resolved: make(map[uint64]uint64),
		open:     make(map[*mTxn]bool),
		cache:    make(map[string]string),
		sessions: make(map[int]*mSession),
	}
}

// mScan is the access path a statement walks: its table, the engine's
// label for the path, and its bounds — primary-key values on the
// clustered paths, indexed-column values on an index.
type mScan struct {
	table  string
	path   string // "full-scan", "pk-range" or "index:<name>"
	index  *mIndex
	lo, hi sqlparse.Value
	// lookups is how many of an index path's entries the plan resolves
	// to rows: -1 for every one.
	lookups int
	// parts are the inclusive primary-key bounds of the partitions a
	// parallel scan splits a pk-range into; nil for a serial scan.
	parts [][2]int64
}

// mAnswer is the model's answer to one statement.
type mAnswer struct {
	res *Result
	err error
	// scan is the access path whose btree calls the statement's fetches
	// must be; nil when the statement fetches nothing at all — unless
	// free is set: then the model says nothing about its fetches.
	scan *mScan
	free bool
	// prefix: scan's calls are only where the statement's fetches
	// begin (a DML statement goes on to write; a read through a version
	// filter resolves entries the filter holds from the filter).
	prefix bool
	// planText: the rows are EXPLAIN lines, which the model does not
	// render; for EXPLAIN ANALYZE of DML it checks the header line.
	planText bool
	header   string
}

func fail(format string, args ...any) mAnswer {
	return mAnswer{err: fmt.Errorf(format, args...)}
}

func (m *sqlModel) session(n int) *mSession {
	s := m.sessions[n]
	if s == nil {
		s = &mSession{}
		m.sessions[n] = s
	}
	return s
}

func (m *sqlModel) table(name string) (*mTable, error) {
	if t := m.tables[name]; t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("engine: unknown table %q", name)
}

func (t *mTable) col(name string) int {
	for i, c := range t.cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// restart is a crash and Recover: every open transaction is a loser and
// rolled back, and the sessions and the query cache are gone.
func (m *sqlModel) restart() {
	for tx := range m.open {
		m.rollback(tx)
	}
	clear(m.sessions)
	clear(m.cache)
}

// answer runs q on session n of the model. A statement outside what the
// model-checked workloads issue — another statement kind, DDL that
// fails or runs inside a transaction, a transaction-control statement
// out of turn — fails t: the model answers only what it was built to.
func (m *sqlModel) answer(t testing.TB, n int, q string) mAnswer {
	t.Helper()
	st, err := sqlparse.Parse(q)
	if err != nil {
		return mAnswer{err: err}
	}
	s := m.session(n)
	switch st := st.(type) {
	case *sqlparse.Select:
		return m.selectAnswer(t, s, st, q, false)
	case *sqlparse.Insert:
		return m.insert(s, st)
	case *sqlparse.Update, *sqlparse.Delete:
		return m.mutate(s, st)
	case *sqlparse.Explain:
		return m.explain(t, s, st, q)
	case *sqlparse.TxnControl:
		if (st.Op == sqlparse.TxnBegin) == (s.txn == nil) {
			return m.txnControl(s, st)
		}
	case *sqlparse.SetTxn:
		if s.txn == nil {
			s.nextReadOnly = st.ReadOnly
			return mAnswer{res: &Result{}}
		}
	case *sqlparse.CreateTable:
		if s.txn == nil && m.tables[st.Table] == nil {
			m.tables[st.Table] = &mTable{name: st.Table, cols: st.Columns,
				rows: make(map[sqlparse.Value]storage.Record), writer: make(map[sqlparse.Value]uint64)}
			return mAnswer{res: &Result{}, free: true}
		}
	case *sqlparse.CreateIndex:
		if t := m.tables[st.Table]; s.txn == nil && t != nil && t.col(st.Column) > 0 {
			t.indexes = append(t.indexes, mIndex{name: st.Name, col: t.col(st.Column)})
			sort.Slice(t.indexes, func(i, j int) bool { return t.indexes[i].name < t.indexes[j].name })
			return mAnswer{res: &Result{}, free: true}
		}
	}
	t.Fatalf("the model does not answer %q", q)
	return mAnswer{}
}

// txnControl opens s's transaction, or ends it.
func (m *sqlModel) txnControl(s *mSession, st *sqlparse.TxnControl) mAnswer {
	switch st.Op {
	case sqlparse.TxnBegin:
		m.nextTxn++
		s.txn = &mTxn{id: m.nextTxn, readOnly: s.nextReadOnly,
			pre: make(map[*mTable]map[sqlparse.Value]storage.Record), undo: make(map[*mTable]int)}
		s.nextReadOnly = false
		m.open[s.txn] = true
		return mAnswer{res: &Result{}}
	case sqlparse.TxnCommit:
		delete(m.open, s.txn)
		m.resolve(s.txn.id)
	default:
		m.rollback(s.txn)
	}
	s.txn = nil
	// ROLLBACK's compensations fetch what they write; COMMIT fetches
	// nothing.
	return mAnswer{res: &Result{}, free: st.Op == sqlparse.TxnRollback}
}

// rollback restores every row tx wrote, as the transaction's own
// compensations, and resolves it.
func (m *sqlModel) rollback(tx *mTxn) {
	for t, keys := range tx.pre {
		for k, row := range keys {
			m.put(tx.id, nil, t, k, row)
		}
		if tx.undo[t] > 0 {
			m.invalidate(t.name)
		}
	}
	delete(m.open, tx)
	m.resolve(tx.id)
}

func (m *sqlModel) resolve(id uint64) {
	m.seq++
	m.resolved[id] = m.seq
}

func (m *sqlModel) invalidate(table string) {
	for q, name := range m.cache {
		if name == table {
			delete(m.cache, q)
		}
	}
}

// put makes row (nil: none) what t's tree holds under key, written by
// transaction id; tx, when the write is an open transaction's, keeps the
// committed row from before its first write of key.
func (m *sqlModel) put(id uint64, tx *mTxn, t *mTable, key sqlparse.Value, row storage.Record) {
	if tx != nil {
		pre := tx.pre[t]
		if pre == nil {
			pre = make(map[sqlparse.Value]storage.Record)
			tx.pre[t] = pre
		}
		if _, ok := pre[key]; !ok {
			pre[key] = t.rows[key]
		}
	}
	if row == nil {
		delete(t.rows, key)
	} else {
		t.rows[key] = row
	}
	t.writer[key] = id
}

// committed is t's rows as every transaction still open had not written
// them.
func (m *sqlModel) committed(t *mTable) map[sqlparse.Value]storage.Record {
	var out map[sqlparse.Value]storage.Record
	for tx := range m.open {
		for k, row := range tx.pre[t] {
			if out == nil {
				out = cloneRows(t.rows)
			}
			if row == nil {
				delete(out, k)
			} else {
				out[k] = row
			}
		}
	}
	if out == nil {
		return t.rows
	}
	return out
}

func cloneRows(in map[sqlparse.Value]storage.Record) map[sqlparse.Value]storage.Record {
	out := make(map[sqlparse.Value]storage.Record, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// pin opens s's transaction view at its first read.
func (m *sqlModel) pin(s *mSession) {
	if s.txn == nil || s.txn.view != nil {
		return
	}
	v := &mView{snap: m.seq, rows: make(map[*mTable]map[sqlparse.Value]storage.Record)}
	for _, t := range m.tables {
		v.rows[t] = cloneRows(m.committed(t))
	}
	s.txn.view = v
}

// visible is t's rows as s sees them: the committed state, or its
// transaction's view with its own writes over it.
func (m *sqlModel) visible(s *mSession, t *mTable) map[sqlparse.Value]storage.Record {
	if s.txn == nil {
		return m.committed(t)
	}
	out := cloneRows(s.txn.view.rows[t])
	for k := range s.txn.pre[t] {
		if row, ok := t.rows[k]; ok {
			out[k] = row
		} else {
			delete(out, k)
		}
	}
	return out
}

// filtered reports whether s reads t through a version filter: whether
// some key's last writer is a transaction s cannot see — one still
// open, or one resolved after s's view opened. Otherwise the tree is
// exactly what s sees, and the query cache is in play.
func (m *sqlModel) filtered(s *mSession, t *mTable) bool {
	snap, own := m.seq, uint64(0)
	if s.txn != nil {
		snap, own = s.txn.view.snap, s.txn.id
	}
	for _, w := range t.writer {
		if seq, ok := m.resolved[w]; w != own && (!ok || seq > snap) {
			return true
		}
	}
	return false
}

// bounds is what a WHERE clause bounds column col to: its first
// equality, else its tightest lower and upper bounds when it has both.
func bounds(col string, where sqlparse.Where) (lo, hi sqlparse.Value, ok bool) {
	var haveLo, haveHi bool
	for _, p := range where {
		if p.Column != col {
			continue
		}
		switch p.Op {
		case sqlparse.OpEq:
			return p.Arg, p.Arg, true
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
	return lo, hi, haveLo && haveHi
}

// scan is the first-match rule, the access path of every table no
// ANALYZE has costed: primary-key bounds win, then the first index by
// name whose column the WHERE clause bounds, then a full scan.
func (t *mTable) scan(where sqlparse.Where) *mScan {
	sc := &mScan{table: t.name, path: "full-scan", lookups: -1}
	if lo, hi, ok := bounds(t.cols[0].Name, where); ok {
		sc.path, sc.lo, sc.hi = "pk-range", lo, hi
		return sc
	}
	for i, ix := range t.indexes {
		if lo, hi, ok := bounds(t.cols[ix.col].Name, where); ok {
			sc.path, sc.index, sc.lo, sc.hi = "index:"+ix.name, &t.indexes[i], lo, hi
			return sc
		}
	}
	return sc
}

// partitions is how a forward SELECT's scan sc splits across scan
// workers: a primary-key range over an INT key, on a table of at least
// minRows rows, splits into workers partitions of equal key span, the
// last taking the remainder — unless the span is shorter than workers
// keys. (A full scan splits only on an ANALYZE'd table, which the
// model does not cover.)
func (m *sqlModel) partitions(t *mTable, sc *mScan) [][2]int64 {
	k := m.workers
	if k < 2 || sc.path != "pk-range" || t.cols[0].Type != sqlparse.TypeInt ||
		!sc.lo.IsInt || !sc.hi.IsInt || int64(len(t.rows)) < m.minRows {
		return nil
	}
	lo, hi := sc.lo.Int, sc.hi.Int
	span := uint64(hi) - uint64(lo)
	if hi <= lo || span < uint64(k) {
		return nil
	}
	step := span / uint64(k)
	parts := make([][2]int64, k)
	for i := range parts {
		parts[i] = [2]int64{int64(uint64(lo) + uint64(i)*step), hi}
		if i < k-1 {
			parts[i][1] = int64(uint64(lo)+uint64(i+1)*step) - 1
		}
	}
	return parts
}

// visit lists the rows of rows the access path visits, in the order it
// visits them: primary-key order on the clustered paths, (value,
// primary key) order on an index.
func (sc *mScan) visit(rows map[sqlparse.Value]storage.Record) []storage.Record {
	col := 0
	if sc.index != nil {
		col = sc.index.col
	}
	var out []storage.Record
	for _, r := range rows {
		if sc.path == "full-scan" || (r[col].Compare(sc.lo) >= 0 && r[col].Compare(sc.hi) <= 0) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if c := out[i][col].Compare(out[j][col]); c != 0 {
			return c < 0
		}
		return out[i][0].Compare(out[j][0]) < 0
	})
	return out
}

// preds resolves a WHERE clause, or returns the engine's error for its
// first unknown column.
func (t *mTable) preds(where sqlparse.Where) ([]exec.Pred, error) {
	out := make([]exec.Pred, len(where))
	for i, p := range where {
		c := t.col(p.Column)
		if c < 0 {
			return nil, fmt.Errorf("engine: unknown column %q in WHERE", p.Column)
		}
		out[i] = exec.Pred{Col: c, Op: p.Op, Arg: p.Arg}
	}
	return out, nil
}

func matches(r storage.Record, preds []exec.Pred) bool {
	for _, p := range preds {
		if !p.Op.Eval(r[p.Col].Compare(p.Arg)) {
			return false
		}
	}
	return true
}

func mColumns(t *mTable, st *sqlparse.Select) []string {
	var out []string
	for _, ex := range st.Exprs {
		switch {
		case ex.Agg != sqlparse.AggNone:
			out = append(out, ex.SQL())
		case ex.Column == "*":
			for _, c := range t.cols {
				out = append(out, c.Name)
			}
		default:
			out = append(out, ex.Column)
		}
	}
	return out
}

// selectAnswer answers a SELECT, or with analyze the SELECT inside an
// EXPLAIN ANALYZE, which neither reads nor fills the query cache.
func (m *sqlModel) selectAnswer(tb testing.TB, s *mSession, st *sqlparse.Select, q string, analyze bool) mAnswer {
	if isSystemTable(st.Table) {
		tb.Fatalf("the model does not answer %q", q)
	}
	t, err := m.table(st.Table)
	if err != nil {
		return mAnswer{err: err}
	}
	m.pin(s)
	filtered := m.filtered(s, t)
	useCache := m.cacheOn && !filtered && !analyze
	if _, hit := m.cache[q]; useCache && hit {
		a := m.query(t, st, t.rows, filtered)
		return mAnswer{res: &Result{Columns: mColumns(t, st), Rows: a.res.Rows, FromCache: true}}
	}
	a := m.query(t, st, m.visible(s, t), filtered)
	if useCache && a.err == nil {
		if m.cache[q] = t.name; len(m.cache) > querycache.DefaultCapacity {
			tb.Fatalf("the model does not evict from the query cache (%q)", q)
		}
	}
	return a
}

// query evaluates a SELECT over rows, the table as the reader sees it;
// what the access path examines is counted on the tree.
func (m *sqlModel) query(t *mTable, st *sqlparse.Select, rows map[sqlparse.Value]storage.Record, filtered bool) mAnswer {
	preds, err := t.preds(st.Where)
	if err != nil {
		return mAnswer{err: err}
	}
	sc := t.scan(st.Where)
	if !(st.OrderBy == t.cols[0].Name && st.Desc) {
		sc.parts = m.partitions(t, sc)
	}
	a := mAnswer{scan: sc}
	visits := sc.visit(rows)
	// An index path resolves its entries on demand, so a LIMIT with no
	// sort below it stops the clustered lookups at the row that fills it.
	stops := sc.index != nil && st.Limit >= 0 && st.Exprs[0].Agg == sqlparse.AggNone &&
		(st.OrderBy == "" || (st.OrderBy == t.cols[sc.index.col].Name && !st.Desc))
	if stops && st.Limit == 0 {
		sc.lookups = 0
	}
	var matched []storage.Record
	for i, r := range visits {
		if matches(r, preds) {
			if matched = append(matched, r); stops && len(matched) == st.Limit {
				sc.lookups = i + 1
			}
		}
	}
	if filtered && sc.index != nil {
		// The filter serves the entries of keys it holds without a
		// lookup; the index walk still comes first.
		sc.lookups, a.prefix = 0, true
	}
	res := &Result{Columns: mColumns(t, st), RowsExamined: len(sc.visit(t.rows)), AccessPath: sc.path}
	a.res = res
	if len(st.Exprs) == 1 && st.Exprs[0].Agg != sqlparse.AggNone {
		var v sqlparse.Value
		switch ex := st.Exprs[0]; ex.Agg {
		case sqlparse.AggCount:
			v = sqlparse.IntValue(int64(len(matched)))
		case sqlparse.AggSum:
			c := t.col(ex.Column)
			if c < 0 {
				return m.deferred(a, fmt.Errorf("engine: unknown column %q in SUM", ex.Column))
			}
			if t.cols[c].Type != sqlparse.TypeInt {
				return m.deferred(a, fmt.Errorf("engine: SUM over non-INT column %q", ex.Column))
			}
			var sum int64
			for _, r := range matched {
				sum += r[c].Int
			}
			v = sqlparse.IntValue(sum)
		default:
			return m.deferred(a, fmt.Errorf("engine: %w", exec.ErrUnsupportedAggregate))
		}
		res.Rows = []storage.Record{{v}}
		if st.Limit == 0 {
			res.Rows = nil
		}
		return a
	}
	var proj []int
	for _, ex := range st.Exprs {
		switch c := t.col(ex.Column); {
		case ex.Agg != sqlparse.AggNone:
			return m.deferred(a, errors.New("engine: cannot mix aggregates and columns"))
		case ex.Column == "*":
			for i := range t.cols {
				proj = append(proj, i)
			}
		case c < 0:
			return m.deferred(a, fmt.Errorf("engine: unknown column %q", ex.Column))
		default:
			proj = append(proj, c)
		}
	}
	if st.OrderBy != "" {
		c := t.col(st.OrderBy)
		if c < 0 {
			return m.deferred(a, fmt.Errorf("engine: unknown ORDER BY column %q", st.OrderBy))
		}
		sort.SliceStable(matched, func(i, j int) bool {
			if st.Desc {
				return matched[i][c].Compare(matched[j][c]) > 0
			}
			return matched[i][c].Compare(matched[j][c]) < 0
		})
	}
	if st.Limit >= 0 && len(matched) > st.Limit {
		matched = matched[:st.Limit]
	}
	for _, r := range matched {
		out := make(storage.Record, len(proj))
		for i, c := range proj {
			out[i] = r[c]
		}
		res.Rows = append(res.Rows, out)
	}
	return a
}

// deferred is a SELECT whose resolution error surfaces after its scan
// has run to the end.
func (m *sqlModel) deferred(a mAnswer, err error) mAnswer {
	a.res, a.err, a.scan.lookups = nil, err, -1
	return a
}

func typeErr(col sqlparse.ColumnDef, v sqlparse.Value) error {
	if col.Type == sqlparse.TypeInt && !v.IsInt {
		return fmt.Errorf("engine: column %q is INT, got string %q", col.Name, v.Str)
	}
	if col.Type == sqlparse.TypeText && v.IsInt {
		return fmt.Errorf("engine: column %q is TEXT, got integer %d", col.Name, v.Int)
	}
	return nil
}

// dml is what the INSERT, UPDATE and DELETE answers share: the read-only
// refusal, the table, and the transaction a statement writes under
// (tx nil in autocommit, where the statement is its own).
func (m *sqlModel) dml(s *mSession, verb, table string) (*mTable, uint64, *mTxn, error) {
	if s.txn != nil && s.txn.readOnly {
		return nil, 0, nil, fmt.Errorf("engine: cannot execute %s in a READ ONLY transaction", verb)
	}
	t, err := m.table(table)
	if err != nil {
		return nil, 0, nil, err
	}
	if s.txn != nil {
		return t, s.txn.id, s.txn, nil
	}
	m.nextTxn++
	return t, m.nextTxn, nil, nil
}

// wrote ends a statement that wrote n undo records to t: the query
// cache forgets t, and an autocommit statement commits.
func (m *sqlModel) wrote(t *mTable, id uint64, tx *mTxn, n int) {
	m.invalidate(t.name)
	if tx != nil {
		tx.undo[t] += n
	} else if n > 0 {
		m.resolve(id)
	}
}

func (m *sqlModel) insert(s *mSession, st *sqlparse.Insert) mAnswer {
	t, id, tx, err := m.dml(s, "INSERT", st.Table)
	if err != nil {
		return mAnswer{err: err}
	}
	rows := make([]storage.Record, 0, len(st.Rows))
	for _, tuple := range st.Rows {
		if len(st.Columns) != len(t.cols) {
			return fail("engine: INSERT must list all %d columns of %q", len(t.cols), t.name)
		}
		row := make(storage.Record, len(t.cols))
		seen := make(map[int]bool)
		for i, name := range st.Columns {
			c := t.col(name)
			if c < 0 {
				return fail("engine: unknown column %q in table %q", name, t.name)
			}
			if seen[c] {
				return fail("engine: duplicate column %q", name)
			}
			seen[c] = true
			if err := typeErr(t.cols[c], tuple[i]); err != nil {
				return mAnswer{err: err}
			}
			row[c] = tuple[i]
		}
		rows = append(rows, row)
	}
	a := mAnswer{res: &Result{RowsAffected: len(rows)}, free: true}
	for i, row := range rows {
		if _, dup := t.rows[row[0]]; dup {
			// The statement fails whole: the rows before this one are
			// deleted again, by the statement's own transaction.
			for j := i - 1; j >= 0; j-- {
				m.put(id, tx, t, rows[j][0], nil)
			}
			if i > 0 {
				m.invalidate(t.name)
				if tx == nil {
					m.resolve(id)
				}
			}
			a.res, a.err = nil, fmt.Errorf("%w: %s", btree.ErrDuplicateKey, row[0])
			return a
		}
		m.put(id, tx, t, row[0], row)
	}
	m.wrote(t, id, tx, len(rows))
	return a
}

// dmlParts takes an UPDATE or DELETE apart.
func dmlParts(st sqlparse.Statement) (verb, table string, where sqlparse.Where, set []sqlparse.Assignment) {
	if up, ok := st.(*sqlparse.Update); ok {
		return "UPDATE", up.Table, up.Where, up.Set
	}
	del := st.(*sqlparse.Delete)
	return "DELETE", del.Table, del.Where, nil
}

// mSet is one resolved UPDATE assignment.
type mSet struct {
	col int
	val sqlparse.Value
}

// sets resolves an UPDATE's SET list, or returns the engine's error for
// its first bad assignment.
func (t *mTable) sets(set []sqlparse.Assignment) ([]mSet, error) {
	var out []mSet
	for _, as := range set {
		c := t.col(as.Column)
		switch {
		case c < 0:
			return nil, fmt.Errorf("engine: unknown column %q in SET", as.Column)
		case c == 0:
			return nil, errors.New("engine: updating the primary key is not supported")
		}
		if err := typeErr(t.cols[c], as.Value); err != nil {
			return nil, err
		}
		out = append(out, mSet{c, as.Value})
	}
	return out, nil
}

// mutate answers an UPDATE or DELETE: the scan half matches rows on the
// tree, whatever the session's view, then a bad SET list fails the
// statement or every matched row is written.
func (m *sqlModel) mutate(s *mSession, st sqlparse.Statement) mAnswer {
	verb, table, where, set := dmlParts(st)
	t, id, tx, err := m.dml(s, verb, table)
	if err != nil {
		return mAnswer{err: err}
	}
	preds, err := t.preds(where)
	if err != nil {
		return mAnswer{err: err}
	}
	sc := t.scan(where)
	visits := sc.visit(t.rows)
	var matched []storage.Record
	for _, r := range visits {
		if matches(r, preds) {
			matched = append(matched, r)
		}
	}
	a := mAnswer{scan: sc, prefix: true, res: &Result{RowsAffected: len(matched), RowsExamined: len(visits)}}
	sets, err := t.sets(set)
	if err != nil {
		a.res, a.err = nil, err
		return a
	}
	for _, old := range matched {
		var row storage.Record
		if verb == "UPDATE" {
			row = slices.Clone(old)
			for _, op := range sets {
				row[op.col] = op.val
			}
		}
		m.put(id, tx, t, old[0], row)
	}
	m.wrote(t, id, tx, len(matched)*max(len(sets), 1))
	return a
}

func (m *sqlModel) explain(tb testing.TB, s *mSession, st *sqlparse.Explain, q string) mAnswer {
	var a mAnswer
	switch inner := st.Stmt.(type) {
	case *sqlparse.Select:
		if !st.Analyze {
			// Plain EXPLAIN plans only: no view, no cache, no fetch.
			t, err := m.table(inner.Table)
			if err != nil {
				return mAnswer{err: err}
			}
			if a = m.query(t, inner, t.rows, false); a.err != nil {
				return mAnswer{err: a.err}
			}
			return mAnswer{res: &Result{Columns: []string{"EXPLAIN"}, AccessPath: a.res.AccessPath}, planText: true}
		}
		a = m.selectAnswer(tb, s, inner, "", true)
	case *sqlparse.Update, *sqlparse.Delete:
		verb, table, where, set := dmlParts(inner)
		if !st.Analyze {
			t, err := m.table(table)
			if err == nil {
				_, err = t.preds(where)
			}
			if err == nil {
				_, err = t.sets(set)
			}
			if err != nil {
				return mAnswer{err: err}
			}
			return mAnswer{res: &Result{Columns: []string{"EXPLAIN"}, AccessPath: t.scan(where).path}, planText: true}
		}
		if a = m.mutate(s, inner); a.err == nil {
			verb = verb[:1] + strings.ToLower(verb[1:])
			a.header = fmt.Sprintf("-> %s: %s (affected=%d)", verb, table, a.res.RowsAffected)
		}
	default:
		tb.Fatalf("the model does not answer %q", q)
	}
	if a.err == nil {
		a.res = &Result{Columns: []string{"EXPLAIN"}, RowsAffected: a.res.RowsAffected,
			RowsExamined: a.res.RowsExamined, AccessPath: a.res.AccessPath}
		a.planText = true
	}
	return a
}

// ruleTrace is the trace rule: the pages sc's btree calls fetch on e's
// trees as they stand, read through a pool of its own so that e's pool
// sees nothing.
func ruleTrace(t testing.TB, e *Engine, sc *mScan) []storage.PageID {
	t.Helper()
	et, ok := e.Table(sc.table)
	if !ok {
		t.Fatalf("trace rule: no table %q", sc.table)
	}
	pool, err := bufpool.New(e.ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var trace []storage.PageID
	pool.SetTraceFunc(func(id storage.PageID) { trace = append(trace, id) })
	tree := btree.Open(e.ts, pool, et.Tree.Root())
	all := func(storage.Record) bool { return true }
	switch {
	case sc.index != nil:
		var pks []sqlparse.Value
		for _, ix := range et.Indexes {
			if ix.Name == sc.index.name {
				lo, hi := indexValueBounds(sc.lo, sc.hi)
				err = btree.Open(e.ts, pool, ix.Tree.Root()).Range(lo, hi, func(r storage.Record) bool {
					pks = append(pks, r[1])
					return true
				})
			}
		}
		if sc.lookups >= 0 && sc.lookups < len(pks) {
			pks = pks[:sc.lookups]
		}
		for _, pk := range pks {
			if err == nil {
				_, _, err = tree.Search(pk)
			}
		}
	case sc.parts != nil:
		for _, p := range sc.parts {
			if err == nil {
				err = tree.Range(sqlparse.IntValue(p[0]), sqlparse.IntValue(p[1]), all)
			}
		}
	case sc.path == "pk-range":
		err = tree.Range(sc.lo, sc.hi, all)
	default:
		err = tree.Scan(all)
	}
	if err != nil {
		t.Fatalf("trace rule: %v", err)
	}
	return trace
}

// expectation is what the model and the trace rule say one statement
// does, taken before the engine runs it.
type expectation struct {
	q       string
	ans     mAnswer
	fetches []storage.PageID
}

// expect asks m for q's answer on session n and reads the trace rule's
// fetches off e's trees; call it just before e runs q.
func (m *sqlModel) expect(t testing.TB, e *Engine, n int, q string) expectation {
	t.Helper()
	x := expectation{q: q, ans: m.answer(t, n, q)}
	if x.ans.scan != nil {
		x.fetches = ruleTrace(t, e, x.ans.scan)
	}
	return x
}

// step runs q on sess, which is session n of the model, tracing e's
// pool, and holds it to m and the trace rule.
func (m *sqlModel) step(t testing.TB, e *Engine, n int, sess *Session, q string) *Result {
	t.Helper()
	x := m.expect(t, e, n, q)
	var fetched []storage.PageID
	e.BufferPool().SetTraceFunc(func(id storage.PageID) { fetched = append(fetched, id) })
	res, err := sess.Execute(q)
	e.BufferPool().SetTraceFunc(nil)
	x.check(t, res, err, fetched)
	return res
}

// check holds what the engine returned and fetched for the statement to
// x.
func (x expectation) check(t testing.TB, res *Result, err error, fetched []storage.PageID) {
	t.Helper()
	if x.ans.planText && err == nil {
		if x.ans.header != "" && (len(res.Rows) == 0 || res.Rows[0][0].Str != x.ans.header) {
			t.Fatalf("%q: EXPLAIN ANALYZE header %v, model %q", x.q, res.Rows, x.ans.header)
		}
		bare := *res
		bare.Rows = nil
		res = &bare
	}
	if got, want := renderResult(res, err), renderResult(x.ans.res, x.ans.err); got != want {
		t.Fatalf("%q:\nengine: %s\nmodel:  %s", x.q, got, want)
	}
	if x.ans.free {
		return
	}
	if x.ans.prefix && len(fetched) > len(x.fetches) {
		fetched = fetched[:len(x.fetches)]
	}
	want := x.fetches
	if x.ans.scan != nil && x.ans.scan.parts != nil {
		fetched, want = slices.Clone(fetched), slices.Clone(want)
		slices.Sort(fetched)
		slices.Sort(want)
	}
	if !slices.Equal(fetched, want) {
		t.Fatalf("%q fetched %v; the trace rule says %v", x.q, fetched, want)
	}
}

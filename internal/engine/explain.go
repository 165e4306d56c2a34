package engine

import (
	"fmt"
	"strings"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// execExplain renders the execution plan of the wrapped statement
// without running it: the statement is lowered and templated through
// the same two-stage planner execution uses, and the operator tree is
// printed one node per row, indented by depth, each leaf naming its
// access path. Planning errors (unknown columns, bad aggregates)
// surface immediately — EXPLAIN never touches a page, so there is no
// scan to sequence them after.
func (e *Engine) execExplain(st *sqlparse.Explain) (*Result, error) {
	var (
		pp     *physicalPlan
		header string
	)
	switch inner := st.Stmt.(type) {
	case *sqlparse.Select:
		if isSystemTable(inner.Table) {
			return nil, fmt.Errorf("engine: cannot EXPLAIN system table %q", inner.Table)
		}
		t, err := e.lookupTable(inner.Table)
		if err != nil {
			return nil, err
		}
		pp = e.buildSelectPlan(t, inner)
	case *sqlparse.Update:
		t, err := e.lookupTable(inner.Table)
		if err != nil {
			return nil, err
		}
		pp = e.buildUpdatePlan(t, inner)
		header = "Update: " + t.Name
	case *sqlparse.Delete:
		t, err := e.lookupTable(inner.Table)
		if err != nil {
			return nil, err
		}
		pp = e.buildDeletePlan(t, inner)
		header = "Delete: " + t.Name
	default:
		return nil, fmt.Errorf("engine: EXPLAIN supports SELECT, UPDATE, and DELETE, not %s", st.Stmt.SQL())
	}
	if pp.whereErr != nil {
		return nil, pp.whereErr
	}
	if pp.deferredErr != nil {
		return nil, pp.deferredErr
	}
	// Instantiate (without a fetch counter) purely to walk the tree
	// shape; the operators are never opened, so nothing is fetched.
	pi := pp.instantiate(nil)
	res := &Result{Columns: []string{"EXPLAIN"}, AccessPath: pp.path}
	base := 0
	if header != "" {
		res.Rows = append(res.Rows, storage.Record{sqlparse.StrValue("-> " + header)})
		base = 1
	}
	for _, n := range pi.nodes {
		line := strings.Repeat("  ", n.depth+base) + "-> " + n.op.Describe()
		if n.op == pi.leaf {
			// The scan leaf carries the cost model's verdict. EXPLAIN
			// always plans fresh, so these reflect current statistics.
			line += fmt.Sprintf("  (est_rows=%d est_cost=%.2f)", pp.estRows, pp.estCost)
		}
		res.Rows = append(res.Rows, storage.Record{sqlparse.StrValue(line)})
	}
	return res, nil
}

// analyzeLines renders the per-operator counters of an executed plan:
// one row per operator, indented by tree depth (below the header, when
// one is given), annotated with the same counters events_stages_history
// records. The scan-leaf line (matched by its operator description)
// additionally carries the planner's estimate next to the actual
// count — the estimated-vs-actual comparison EXPLAIN ANALYZE exists
// for.
func analyzeLines(header string, res *Result) []storage.Record {
	base := 0
	rows := make([]storage.Record, 0, len(res.stages)+1)
	if header != "" {
		rows = append(rows, storage.Record{sqlparse.StrValue(header)})
		base = 1
	}
	for _, ev := range res.stages {
		line := fmt.Sprintf("%s-> %s (examined=%d returned=%d fetches=%d)",
			strings.Repeat("  ", ev.Depth+base), ev.Operator,
			ev.RowsExamined, ev.RowsReturned, ev.PoolFetches)
		if res.scanDesc != "" && ev.Operator == res.scanDesc {
			line += fmt.Sprintf("  (est_rows=%d est_cost=%.2f actual_rows=%d)",
				res.estRows, res.estCost, ev.RowsReturned)
		}
		rows = append(rows, storage.Record{sqlparse.StrValue(line)})
	}
	return rows
}

// execExplainAnalyze executes the wrapped statement through its own
// entry function — the same guard, locks and driver the bare statement
// gets, because the statement really runs: pages are fetched, mutations
// apply, the binlog and WAL record them — and renders the operator tree
// annotated with the per-operator runtime counters. A SELECT's result
// rows are discarded (the client gets the annotated tree, as in MySQL)
// and it bypasses the query cache in both directions, so the counters
// are always from a genuine, freshly planned execution; a mutation
// keeps its affected count in a header line, and its stage events land
// under the EXPLAIN ANALYZE statement's digest.
func (e *Engine) execExplainAnalyze(s *Session, st *sqlparse.Explain, ts int64) (*Result, error) {
	var (
		res    *Result
		err    error
		header string
	)
	switch inner := st.Stmt.(type) {
	case *sqlparse.Select:
		if isSystemTable(inner.Table) {
			return nil, fmt.Errorf("engine: cannot EXPLAIN ANALYZE system table %q", inner.Table)
		}
		res, err = e.execSelect(s, inner, nil, "", true)
	case *sqlparse.Update:
		header = "Update: " + inner.Table
		res, err = e.execUpdate(s, inner, nil, inner.SQL(), ts)
	case *sqlparse.Delete:
		header = "Delete: " + inner.Table
		res, err = e.execDelete(s, inner, nil, inner.SQL(), ts)
	default:
		return nil, fmt.Errorf("engine: EXPLAIN ANALYZE supports SELECT, UPDATE, and DELETE, not %s", st.Stmt.SQL())
	}
	if err != nil {
		return nil, err
	}
	if header != "" {
		header = fmt.Sprintf("-> %s (affected=%d)", header, res.RowsAffected)
	}
	return &Result{
		Columns:      []string{"EXPLAIN"},
		Rows:         analyzeLines(header, res),
		RowsAffected: res.RowsAffected,
		RowsExamined: res.RowsExamined,
		AccessPath:   res.AccessPath,
		stages:       res.stages,
	}, nil
}

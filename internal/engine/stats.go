package engine

import (
	"fmt"
	"sync"

	"snapdb/internal/binlog"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// Planner statistics. ANALYZE TABLE scans the clustered tree once and
// records, per column the planner can use (the INT primary key and
// every secondary-index column), a histogram-lite summary: distinct
// value count plus min/max bounds for INT columns. DML afterwards
// keeps the summaries honest the cheap way — inserts and updates widen
// the bounds, the row counter (Table.rows, which predates this file)
// tracks cardinality live — and a large drift between the live row
// count and the count ANALYZE saw bumps the plan-cache epoch so cached
// access paths re-cost instead of serving a decision made against a
// table that has since doubled or halved.
//
// Everything here is advisory: the cost model reads it, correctness
// never does. A table that was never analyzed plans with default
// selectivities (see physical.go), exactly as before this file
// existed.

// colStats summarizes one column.
type colStats struct {
	Distinct   int64 // distinct values at last ANALYZE
	HaveMinMax bool  // Min/Max valid (INT columns only)
	Min, Max   int64 // value bounds, widened by DML after ANALYZE
}

// tableStats is the per-table container. The mutex is private to the
// stats — DML paths touch it outside any engine lock, and planning
// reads it under the catalog snapshot — so it must never be held
// across calls that take other locks.
type tableStats struct {
	mu         sync.Mutex
	analyzed   bool
	analyzedAt int64            // engine clock at last ANALYZE
	baseline   int64            // row count ANALYZE saw (drift reference)
	cols       map[int]colStats // by column index
}

// statsFor returns the column's summary and whether the table has been
// analyzed at all. Cheap enough for the planning path: one mutex, one
// map lookup.
func (t *Table) statsFor(colIdx int) (cs colStats, analyzed bool) {
	t.stats.mu.Lock()
	defer t.stats.mu.Unlock()
	if !t.stats.analyzed {
		return colStats{}, false
	}
	return t.stats.cols[colIdx], true
}

// setStats installs a freshly computed summary set (ANALYZE, or
// checkpoint restore).
func (t *Table) setStats(cols map[int]colStats, at, rows int64) {
	t.stats.mu.Lock()
	defer t.stats.mu.Unlock()
	t.stats.analyzed = true
	t.stats.analyzedAt = at
	t.stats.baseline = rows
	t.stats.cols = cols
}

// statsNoteInsert widens the bounds of every tracked INT column to
// cover the new row. Distinct counts are not maintained incrementally
// — that is what re-running ANALYZE is for — but bounds must be,
// because a range estimate against stale bounds would clamp new keys
// out of the estimate entirely.
func (t *Table) statsNoteInsert(row []sqlparse.Value) {
	t.stats.mu.Lock()
	defer t.stats.mu.Unlock()
	if !t.stats.analyzed {
		return
	}
	for idx, cs := range t.stats.cols {
		if !cs.HaveMinMax || idx >= len(row) || !row[idx].IsInt {
			continue
		}
		v := row[idx].Int
		if v < cs.Min || v > cs.Max {
			if v < cs.Min {
				cs.Min = v
			}
			if v > cs.Max {
				cs.Max = v
			}
			t.stats.cols[idx] = cs
		}
	}
}

// statsNoteUpdate widens one column's bounds for an updated value.
func (t *Table) statsNoteUpdate(colIdx int, v sqlparse.Value) {
	if !v.IsInt {
		return
	}
	t.stats.mu.Lock()
	defer t.stats.mu.Unlock()
	if !t.stats.analyzed {
		return
	}
	cs, ok := t.stats.cols[colIdx]
	if !ok || !cs.HaveMinMax {
		return
	}
	if v.Int < cs.Min || v.Int > cs.Max {
		if v.Int < cs.Min {
			cs.Min = v.Int
		}
		if v.Int > cs.Max {
			cs.Max = v.Int
		}
		t.stats.cols[colIdx] = cs
	}
}

// statsSnapshot copies the summaries out for information_schema and
// checkpointing.
func (t *Table) statsSnapshot() (analyzed bool, at, baseline int64, cols map[int]colStats) {
	t.stats.mu.Lock()
	defer t.stats.mu.Unlock()
	if !t.stats.analyzed {
		return false, 0, 0, nil
	}
	cols = make(map[int]colStats, len(t.stats.cols))
	for k, v := range t.stats.cols {
		cols[k] = v
	}
	return true, t.stats.analyzedAt, t.stats.baseline, cols
}

// maybeStatsDrift checks whether the live row count has drifted far
// (2x either way) from what ANALYZE saw. If so, the baseline resets to
// the live count and every cached plan is invalidated: an access path
// costed against the old cardinality may no longer be the cheap one.
// Called on the DML paths after the row counter moves; does nothing on
// never-analyzed tables.
func (e *Engine) maybeStatsDrift(t *Table) {
	live := t.rows.Load()
	t.stats.mu.Lock()
	drifted := t.stats.analyzed &&
		(live > 2*t.stats.baseline || 2*live < t.stats.baseline)
	if drifted {
		t.stats.baseline = live
	}
	t.stats.mu.Unlock()
	if drifted {
		e.plans.bumpEpoch()
	}
}

// statCols returns the column indexes ANALYZE summarizes: the primary
// key plus every secondary-index column, deduplicated, in ascending
// order (map iteration is not ordered; callers sort for determinism
// where it matters).
func (t *Table) statCols() map[int]bool {
	cols := map[int]bool{0: true}
	for _, ix := range t.Indexes {
		cols[ix.colIdx] = true
	}
	return cols
}

// execAnalyzeTable is the ANALYZE TABLE statement: one clustered scan
// computing distinct counts and INT bounds for every indexed column,
// installed atomically, followed by a plan-cache epoch bump (cached
// plans were costed against the old statistics) and a binlog record
// (replicas must re-cost too — ANALYZE is a replicated statement in
// MySQL for the same reason).
func (e *Engine) execAnalyzeTable(s *Session, st *sqlparse.AnalyzeTable, query string, ts int64) (*Result, error) {
	t, err := e.lookupTable(st.Table)
	if err != nil {
		return nil, err
	}
	cols := t.statCols()
	distinct := make(map[int]map[sqlparse.Value]struct{}, len(cols))
	summaries := make(map[int]colStats, len(cols))
	for idx := range cols {
		distinct[idx] = make(map[sqlparse.Value]struct{})
	}
	var rows int64
	scanErr := t.Tree.Scan(func(row storage.Record) bool {
		rows++
		for idx := range cols {
			if idx >= len(row) {
				continue
			}
			v := row[idx]
			distinct[idx][v] = struct{}{}
			if v.IsInt {
				cs, seen := summaries[idx]
				if !seen || !cs.HaveMinMax {
					cs = colStats{HaveMinMax: true, Min: v.Int, Max: v.Int}
				} else {
					if v.Int < cs.Min {
						cs.Min = v.Int
					}
					if v.Int > cs.Max {
						cs.Max = v.Int
					}
				}
				summaries[idx] = cs
			}
		}
		return true
	})
	if scanErr != nil {
		return nil, fmt.Errorf("engine: analyze scan: %w", scanErr)
	}
	for idx := range cols {
		cs := summaries[idx]
		cs.Distinct = int64(len(distinct[idx]))
		summaries[idx] = cs
	}
	t.setStats(summaries, ts, rows)
	t.rows.Store(rows) // the scan just counted the truth; resync the hint
	// Cached plans hold access paths chosen under the old statistics.
	e.plans.bumpEpoch()
	s.publish(e, 0, binlog.Event{Timestamp: ts, Statement: query})
	res := &Result{
		Columns: []string{"table", "op", "status"},
		Rows: []storage.Record{{
			{Str: t.Name},
			{Str: "analyze"},
			{Str: fmt.Sprintf("OK rows=%d cols=%d", rows, len(summaries))},
		}},
	}
	return res, nil
}

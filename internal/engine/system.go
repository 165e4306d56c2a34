package engine

import (
	"sort"

	"snapdb/internal/binlog"
	"snapdb/internal/bufpool"
	"snapdb/internal/dblog"
	"snapdb/internal/heap"
	"snapdb/internal/infoschema"
	"snapdb/internal/perfschema"
	"snapdb/internal/querycache"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// systemSelect serves the virtual diagnostic tables that §4 of the
// paper shows are reachable through any SQL execution path, including
// an injected query: information_schema.processlist and the
// performance_schema statement tables. Returns (result, true) when the
// statement targeted a system table.
func (e *Engine) systemSelect(st *sqlparse.Select) (*Result, bool) {
	switch st.Table {
	case "information_schema.processlist":
		rows := e.procs.Snapshot()
		out := &Result{Columns: []string{"id", "user", "state", "started", "info"}}
		for _, p := range rows {
			out.Rows = append(out.Rows, storage.Record{
				sqlparse.IntValue(int64(p.ID)),
				sqlparse.StrValue(p.User),
				sqlparse.StrValue(p.State),
				sqlparse.IntValue(p.Started),
				sqlparse.StrValue(p.Statement),
			})
		}
		return out, true
	case "performance_schema.events_statements_current":
		out := &Result{Columns: []string{"thread", "timestamp", "sql_text", "digest", "rows_examined", "rows_sent"}}
		for _, ev := range e.perf.Current() {
			out.Rows = append(out.Rows, statementEventRow(ev))
		}
		return out, true
	case "performance_schema.events_statements_history":
		out := &Result{Columns: []string{"thread", "timestamp", "sql_text", "digest", "rows_examined", "rows_sent"}}
		for _, ev := range e.perf.History() {
			out.Rows = append(out.Rows, statementEventRow(ev))
		}
		return out, true
	case "performance_schema.events_stages_history":
		out := &Result{Columns: []string{"thread", "timestamp", "digest", "seq", "depth", "operator", "rows_examined", "rows_returned", "pool_fetches"}}
		for _, ev := range e.perf.StagesHistory() {
			out.Rows = append(out.Rows, storage.Record{
				sqlparse.IntValue(int64(ev.Thread)),
				sqlparse.IntValue(ev.Timestamp),
				sqlparse.StrValue(ev.Digest),
				sqlparse.IntValue(int64(ev.Seq)),
				sqlparse.IntValue(int64(ev.Depth)),
				sqlparse.StrValue(ev.Operator),
				sqlparse.IntValue(int64(ev.RowsExamined)),
				sqlparse.IntValue(int64(ev.RowsReturned)),
				sqlparse.IntValue(int64(ev.PoolFetches)),
			})
		}
		return out, true
	case "information_schema.table_statistics":
		// One row per analyzed table: when ANALYZE last ran, the row
		// count it saw (the drift baseline), and the live row hint.
		// Never-analyzed tables are omitted — they have no statistics
		// to show, which is itself the signal the planner acts on.
		out := &Result{Columns: []string{"table_name", "analyzed_at", "baseline_rows", "live_rows"}}
		for _, t := range e.Tables() {
			analyzed, at, baseline, _ := t.statsSnapshot()
			if !analyzed {
				continue
			}
			out.Rows = append(out.Rows, storage.Record{
				sqlparse.StrValue(t.Name),
				sqlparse.IntValue(at),
				sqlparse.IntValue(baseline),
				sqlparse.IntValue(t.rows.Load()),
			})
		}
		return out, true
	case "information_schema.index_statistics":
		// One row per (analyzed table, summarized column): the
		// distinct count and, for INT columns, the value bounds the
		// cost model interpolates ranges against. Ordered by table
		// name then column index for determinism.
		out := &Result{Columns: []string{"table_name", "column_name", "distinct_count", "have_min_max", "min_value", "max_value"}}
		for _, t := range e.Tables() {
			analyzed, _, _, cols := t.statsSnapshot()
			if !analyzed {
				continue
			}
			idxs := make([]int, 0, len(cols))
			for idx := range cols {
				idxs = append(idxs, idx)
			}
			sort.Ints(idxs)
			for _, idx := range idxs {
				cs := cols[idx]
				hav := int64(0)
				if cs.HaveMinMax {
					hav = 1
				}
				out.Rows = append(out.Rows, storage.Record{
					sqlparse.StrValue(t.Name),
					sqlparse.StrValue(t.Columns[idx].Name),
					sqlparse.IntValue(cs.Distinct),
					sqlparse.IntValue(hav),
					sqlparse.IntValue(cs.Min),
					sqlparse.IntValue(cs.Max),
				})
			}
		}
		return out, true
	case "information_schema.active_transactions":
		// One row per open explicit transaction: who holds it, its WAL
		// txn id, access mode, buffered undo/binlog sizes, and the
		// commit-sequence snapshot its read view pinned (-1 before the
		// first consistent read). §4's point applies: transaction state
		// is reachable through any SQL path.
		out := &Result{Columns: []string{"session", "txn", "read_only", "undo_records", "binlog_events", "view_snap"}}
		e.mu.Lock()
		txns := make([]*txnState, 0, len(e.activeTxns))
		for _, tx := range e.activeTxns {
			txns = append(txns, tx)
		}
		e.mu.Unlock()
		sort.Slice(txns, func(i, j int) bool { return txns[i].sessionID < txns[j].sessionID })
		for _, tx := range txns {
			ro, snap := int64(0), int64(-1)
			if tx.readOnly {
				ro = 1
			}
			tx.mu.Lock()
			if tx.view != nil {
				snap = int64(tx.view.snap)
			}
			nUndo, nEvs := len(tx.undo), len(tx.binlogBuf)
			tx.mu.Unlock()
			out.Rows = append(out.Rows, storage.Record{
				sqlparse.IntValue(int64(tx.sessionID)),
				sqlparse.IntValue(int64(tx.walTxn)),
				sqlparse.IntValue(ro),
				sqlparse.IntValue(int64(nUndo)),
				sqlparse.IntValue(int64(nEvs)),
				sqlparse.IntValue(snap),
			})
		}
		return out, true
	case "information_schema.mvcc_version_store":
		// One row per version chain — the purge-lag / residue surface:
		// deleted=1 chains still carrying versions are rows the
		// application removed that remain readable here.
		out := &Result{Columns: []string{"table_name", "pk", "latest_txn", "deleted", "versions"}}
		for _, ce := range e.sortedChains() {
			del := int64(0)
			if ce.deleted {
				del = 1
			}
			out.Rows = append(out.Rows, storage.Record{
				sqlparse.StrValue(ce.table),
				sqlparse.StrValue(ce.pk.String()),
				sqlparse.IntValue(int64(ce.latestTxn)),
				sqlparse.IntValue(del),
				sqlparse.IntValue(int64(len(ce.olds))),
			})
		}
		return out, true
	case "information_schema.mvcc_status":
		// Store-wide counters: commit sequence, chain/version totals,
		// open views and the oldest snapshot pinning purge, and the
		// purge statistics (the purge-lag view).
		out := &Result{Columns: []string{"seq", "chains", "versions", "views", "oldest_view_snap", "commits_tracked", "purge_runs", "purged_versions"}}
		ms := e.versions.status()
		out.Rows = append(out.Rows, storage.Record{
			sqlparse.IntValue(int64(ms.seq)),
			sqlparse.IntValue(int64(ms.chains)),
			sqlparse.IntValue(int64(ms.versions)),
			sqlparse.IntValue(int64(ms.views)),
			sqlparse.IntValue(int64(ms.oldestViewSnap)),
			sqlparse.IntValue(int64(ms.commitsTracked)),
			sqlparse.IntValue(int64(ms.purgeRuns)),
			sqlparse.IntValue(int64(ms.purgedVersions)),
		})
		return out, true
	case "performance_schema.events_statements_summary_by_digest":
		out := &Result{Columns: []string{"digest", "digest_text", "count_star", "sum_rows_examined", "sum_rows_sent", "first_seen", "last_seen"}}
		for _, row := range e.perf.DigestSummary() {
			out.Rows = append(out.Rows, storage.Record{
				sqlparse.StrValue(row.Digest),
				sqlparse.StrValue(row.DigestText),
				sqlparse.IntValue(int64(row.Count)),
				sqlparse.IntValue(int64(row.SumRowsExamined)),
				sqlparse.IntValue(int64(row.SumRowsReturned)),
				sqlparse.IntValue(row.FirstSeen),
				sqlparse.IntValue(row.LastSeen),
			})
		}
		return out, true
	}
	return nil, false
}

func statementEventRow(ev perfschema.StatementEvent) storage.Record {
	return storage.Record{
		sqlparse.IntValue(int64(ev.Thread)),
		sqlparse.IntValue(ev.Timestamp),
		sqlparse.StrValue(ev.Statement),
		sqlparse.StrValue(ev.Digest),
		sqlparse.IntValue(int64(ev.RowsExamined)),
		sqlparse.IntValue(int64(ev.RowsReturned)),
	}
}

// --- Accessors used by the snapshot and forensics packages. They
// expose the engine's internal state exactly as a compromise would. ---

// WAL returns the redo/undo log manager. The engine's records are in
// its files (Dir), not in the manager's in-memory logs.
func (e *Engine) WAL() *wal.Manager { return e.wal }

// Binlog returns the binary log. The engine's events are in its binlog
// file (Dir), not in the log's in-memory store.
func (e *Engine) Binlog() *binlog.Log { return e.binlog }

// BufferPool returns the buffer pool.
func (e *Engine) BufferPool() *bufpool.Pool { return e.pool }

// Arena returns the simulated process heap.
func (e *Engine) Arena() *heap.Arena { return e.arena }

// QueryCache returns the internal query cache.
func (e *Engine) QueryCache() *querycache.Cache { return e.qcache }

// PerfSchema returns the performance_schema state.
func (e *Engine) PerfSchema() *perfschema.Schema { return e.perf }

// Processlist returns the information_schema processlist.
func (e *Engine) Processlist() *infoschema.Processlist { return e.procs }

// Tablespace returns the page store.
func (e *Engine) Tablespace() *storage.Tablespace { return e.ts }

// GeneralLog returns the general query log.
func (e *Engine) GeneralLog() *dblog.GeneralLog { return e.general }

// SlowLog returns the slow query log.
func (e *Engine) SlowLog() *dblog.SlowLog { return e.slow }

// TableByID resolves a WAL table id to its catalog entry.
func (e *Engine) TableByID(id uint8) (*Table, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tablesByID[id]
	return t, ok
}

// Dir returns the engine's view of its data directory — the files its
// logs, checkpoint and buffer-pool dump live in — decrypted when the
// engine encrypts at rest. Readers only read it.
func (e *Engine) Dir() vfs.FS { return e.persist.fs }

// Shutdown writes the buffer-pool dump file (FileBufferPool) the way
// MySQL does at shutdown; the periodic dump writes the same file every
// DumpInterval statements.
func (e *Engine) Shutdown() error { return e.persist.writeDump(e.pool.DumpFile()) }

// Statements returns the number of executed statements.
func (e *Engine) Statements() uint64 { return e.statements.Load() }

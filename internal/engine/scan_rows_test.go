package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"snapdb/internal/btree"
	"snapdb/internal/perfschema"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// The scan leaf's two economies — rows lent from one recycled slab, and
// residual predicates evaluated before a row is decoded — held at the
// statement surface: no stage row, EXPLAIN ANALYZE line, result or page
// fetch may tell them from the plain execution that decodes every row
// and filters above the leaf.

// rowAtATimeExecute is that plain execution, as an execFn: the
// production back half, except that a SELECT (bare or under EXPLAIN
// ANALYZE) runs from a copy of its template whose residual list is
// empty, so the Filter hands nothing down and does all the filtering
// itself. Run under btree.RecycleNever no leaf lends either, and the
// statement executes as it did before either economy existed.
func rowAtATimeExecute(e *Engine, s *Session, query string, pl *plan, parseErr error, ts int64) (*Result, error) {
	if parseErr != nil {
		return nil, parseErr
	}
	st, analyze := pl.stmt, false
	if ex, ok := st.(*sqlparse.Explain); ok && ex.Analyze {
		st, analyze = ex.Stmt, true
	}
	sel, ok := st.(*sqlparse.Select)
	if !ok || isSystemTable(sel.Table) {
		return e.execute(s, query, pl, parseErr, ts)
	}
	ra, err := e.acquireRead(s, nil, sel.Table)
	if err != nil {
		return nil, err
	}
	defer ra.release(e)
	pp := *e.buildSelectPlan(ra.table, sel)
	pp.residual = nil
	res, err := e.runScan(s, &pp, ra.vf)
	if err != nil {
		return nil, err
	}
	res.Columns, res.AccessPath = selectColumns(ra.table, sel), pp.path
	if analyze {
		res = &Result{Columns: []string{"EXPLAIN"}, Rows: analyzeLines("", res),
			RowsExamined: res.RowsExamined, AccessPath: res.AccessPath, stages: res.stages}
	}
	return res, nil
}

// rejectedBy runs a SELECT's plan as the driver would for session s and
// returns its rows with how many rows the leaf turned down undecoded.
func rejectedBy(t *testing.T, e *Engine, s *Session, q string) (rows []storage.Record, rejected int) {
	t.Helper()
	st, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*sqlparse.Select)
	ra, err := e.acquireRead(s, nil, sel.Table)
	if err != nil {
		t.Fatal(err)
	}
	defer ra.release(e)
	pp := e.buildSelectPlan(ra.table, sel)
	pi := pp.instantiate(e.fc)
	pi.armVisibility(pp, ra.vf)
	if rows, err = pi.drain(); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return rows, pi.scan.Rejected()
}

// stmtSurfaces is what one statement leaves behind that this file
// compares.
type stmtSurfaces struct {
	rows    string
	analyze string // the EXPLAIN ANALYZE lines
	stages  []perfschema.StageEvent
	history []perfschema.StageEvent // events_stages_history after the statement
	trace   []storage.PageID
}

// surfacesOf runs q, then EXPLAIN ANALYZE q, through fn under the given
// recycle mode.
func surfacesOf(t *testing.T, e *Engine, s *Session, q string, fn execFn, mode btree.RecycleMode) stmtSurfaces {
	t.Helper()
	if fn == nil {
		fn = (*Engine).execute
	}
	defer btree.SetRecycleMode(btree.SetRecycleMode(mode))
	var out stmtSurfaces
	e.BufferPool().SetTraceFunc(func(id storage.PageID) { out.trace = append(out.trace, id) })
	defer e.BufferPool().SetTraceFunc(nil)
	res, err := s.executeWith(q, fn)
	out.rows = renderResult(res, err)
	e.PerfSchema().Reset()
	res, err = s.executeWith("EXPLAIN ANALYZE "+q, fn)
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE %s: %v", q, err)
	}
	out.analyze = renderResult(&Result{Rows: res.Rows}, nil)
	out.stages = res.stages
	out.history = e.PerfSchema().StagesHistory()
	return out
}

// triples renders stage rows as "operator(examined,returned)" by the
// operator's first word or two, for the table's hand-computed anchors.
func triples(stages []perfschema.StageEvent) string {
	var parts []string
	for _, ev := range stages {
		name, _, _ := strings.Cut(ev.Operator, ":")
		name, _, _ = strings.Cut(name, " on ")
		parts = append(parts, fmt.Sprintf("%s(%d,%d)", name, ev.RowsExamined, ev.RowsReturned))
	}
	return strings.Join(parts, " ")
}

// TestStageTriplesMatchRowAtATime: for every plan shape the hand-off
// and the loan touch — and the ones they must leave alone — each
// operator's (examined, returned, fetches) triple, the EXPLAIN ANALYZE
// text, the events_stages_history rows, the result and the page-fetch
// sequence equal the row-at-a-time execution's, with and without live
// version chains on the table; without chains they also equal the
// frozen legacy executor's rows and fetches, and the examined/returned
// pairs equal the figures worked out by hand below. A leaf that
// rejected rows without accounting for them shows up here as a Filter
// that examined only the survivors.
func TestStageTriplesMatchRowAtATime(t *testing.T) {
	// customers: id 0..199, state = [IN AZ NY CA][id%4], age = 20+id%50.
	cases := []struct {
		sql     string
		rejects bool   // the leaf turns rows down (when no view is armed)
		want    string // examined/returned per operator, no chains
	}{
		{"SELECT name FROM customers WHERE state = 'CA'", true,
			"Project(50,50) Filter(200,50) Table scan(200,200)"},
		{"SELECT name FROM customers WHERE id >= 20 AND id <= 119 AND state = 'NY'", true,
			"Project(25,25) Filter(100,25) Range scan(100,100)"},
		{"SELECT id, name FROM customers WHERE id >= 20 AND id <= 119", false,
			"Project(100,100) Filter(100,100) Range scan(100,100)"},
		{"SELECT id FROM customers WHERE id > 20 AND id < 30", true, // strict bounds are residual
			"Project(9,9) Filter(11,9) Range scan(11,11)"},
		{"SELECT name FROM customers WHERE id = 7 AND state = 'CA'", false, // armed, and the one row passes
			"Project(1,1) Filter(1,1) Point scan(1,1)"},
		{"SELECT name FROM customers WHERE id = 8 AND state = 'CA'", true,
			"Project(0,0) Filter(1,0) Point scan(1,1)"},
		{"SELECT name FROM customers WHERE age >= 30 AND age <= 34 AND state = 'CA'", false,
			"Project(4,4) Filter(20,4) Key lookup(20,20) Index range scan(20,20)"},
		{"SELECT name FROM customers WHERE state = 'CA' LIMIT 3", true,
			"Limit(3,3) Project(3,3) Filter(12,3) Table scan(200,12)"},
		{"SELECT name FROM customers WHERE state = 'CA' LIMIT 0", false, // nothing is pulled
			"Limit(0,0) Project(0,0) Filter(0,0) Table scan(200,0)"},
		{"SELECT name FROM customers WHERE state = 'CA' ORDER BY age DESC LIMIT 4", true,
			"Project(4,4) Top-N sort(50,4) Filter(200,50) Table scan(200,200)"},
		{"SELECT name FROM customers WHERE state = 'CA' ORDER BY name", true,
			"Project(50,50) Sort(50,50) Filter(200,50) Table scan(200,200)"},
		{"SELECT name FROM customers WHERE state = 'CA' ORDER BY id DESC LIMIT 2", false, // blocking leaf
			"Limit(2,2) Project(2,2) Filter(5,2) Table scan(200,5)"},
		{"SELECT COUNT(*) FROM customers WHERE state = 'NY' AND id >= 0", true,
			"Aggregate(50,1) Filter(200,50) Table scan(200,200)"},
		{"SELECT SUM(age) FROM customers WHERE id >= 10 AND id <= 59 AND state = 'AZ'", true,
			"Aggregate(12,1) Filter(50,12) Range scan(50,50)"},
		{"SELECT COUNT(*) FROM customers WHERE age != 20", true,
			"Aggregate(196,1) Filter(200,196) Table scan(200,200)"},
		{"SELECT COUNT(*) FROM customers", false,
			"Aggregate(200,1) Table scan(200,200)"},
	}
	for _, chains := range []bool{false, true} {
		t.Run(fmt.Sprintf("chains=%v", chains), func(t *testing.T) {
			cfg := Defaults()
			cfg.EnableQueryCache = false // every statement really scans, in both arms
			cfg.BufferPoolPages = 8      // small enough that fetches miss and evict
			e, _ := newEngine(t, cfg)
			s, writer := e.Connect("app"), e.Connect("writer")
			defer s.Close()
			defer writer.Close()
			setupCustomers(t, s, 200)
			mustExec(t, s, "CREATE INDEX idx_age ON customers (age)")
			if chains {
				// An open transaction: s reads the rows as they were.
				for _, q := range []string{
					"BEGIN",
					"UPDATE customers SET state = 'CA' WHERE id = 0", // tree passes state = 'CA', the view's row does not
					"UPDATE customers SET state = 'IN' WHERE id = 3", // and the reverse
					"DELETE FROM customers WHERE id = 7",             // a ghost that passes
					"DELETE FROM customers WHERE id = 100",
					"UPDATE customers SET age = 31 WHERE id = 20", // its index entry moved
					"INSERT INTO customers (id, name, state, age) VALUES (500, 'late', 'CA', 31)",
				} {
					mustExec(t, writer, q)
				}
			}
			for _, c := range cases {
				ref := surfacesOf(t, e, s, c.sql, rowAtATimeExecute, btree.RecycleNever)
				got := surfacesOf(t, e, s, c.sql, nil, btree.RecyclePoison)
				if got.rows != ref.rows {
					t.Errorf("%s: rows differ from the row-at-a-time execution's:\n%s\nwant:\n%s", c.sql, got.rows, ref.rows)
				}
				if got.analyze != ref.analyze {
					t.Errorf("%s: EXPLAIN ANALYZE differs:\n%s\nrow-at-a-time:\n%s", c.sql, got.analyze, ref.analyze)
				}
				if !reflect.DeepEqual(got.stages, ref.stages) || !reflect.DeepEqual(got.history, ref.history) {
					t.Errorf("%s: stage rows differ:\n%+v\nrow-at-a-time:\n%+v", c.sql, got.history, ref.history)
				}
				if !reflect.DeepEqual(got.trace, ref.trace) {
					t.Errorf("%s: fetch trace differs: %v, row-at-a-time %v", c.sql, got.trace, ref.trace)
				}
				_, rejected := rejectedBy(t, e, s, c.sql)
				if want := c.rejects && !chains; (rejected > 0) != want {
					t.Errorf("%s: the leaf turned down %d rows undecoded, want some: %v", c.sql, rejected, want)
				}
				if chains {
					continue
				}
				if tr := triples(got.stages); tr != c.want {
					t.Errorf("%s: stages %s, want %s", c.sql, tr, c.want)
				}
				legacy := surfacesOf(t, e, s, c.sql, legacyExecute, btree.RecycleNever)
				if got.rows != legacy.rows || !reflect.DeepEqual(got.trace[:len(got.trace)/2], legacy.trace[:len(legacy.trace)/2]) {
					t.Errorf("%s: rows or fetches differ from the legacy executor's:\n%s\n%v\nlegacy:\n%s\n%v",
						c.sql, got.rows, got.trace, legacy.rows, legacy.trace)
				}
			}
			if chains {
				return
			}
			// A DML scan half hands down too (it owns its rows, but filters
			// like any plan); its stage rows have no reference arm to lean
			// on, so they are pinned by hand.
			res := mustExec(t, s, "EXPLAIN ANALYZE UPDATE customers SET age = 1 WHERE state = 'CA' AND id >= 100")
			if tr, want := triples(res.stages), "Filter(200,25) Table scan(200,200)"; tr != want || res.RowsAffected != 25 {
				t.Errorf("UPDATE scan half: stages %s affected %d, want %s affected 25", tr, res.RowsAffected, want)
			}
		})
	}
}

// overlapWorkload is a two-session statement list ("N|SQL") in which
// session 1 reads through a pinned view while session 0 deletes,
// inserts and updates under it, so the lending leaf merges ghosts in
// mid-page and substitutes old versions; then the same reads again as
// current reads, twice, so the second round is served from the query
// cache's retained rows.
func overlapWorkload() []string {
	w := []string{"0|CREATE TABLE t (id INT PRIMARY KEY, name TEXT, grp INT)"}
	for id := 0; id < 300; id++ {
		if id != 61 {
			w = append(w, fmt.Sprintf("0|INSERT INTO t (id, name, grp) VALUES (%d, 'n%d', %d)", id, id, id%7))
		}
	}
	w = append(w, "0|CREATE INDEX idx_grp ON t (grp)")
	reads := []string{
		"SELECT id, name FROM t",
		"SELECT id, name FROM t ORDER BY id DESC",
		"SELECT id FROM t LIMIT 4",
		"SELECT id, name FROM t WHERE id >= 55 AND id <= 65",
		"SELECT id, name FROM t WHERE id >= 70 AND id <= 79",
		"SELECT id FROM t WHERE id >= 55 AND id <= 65 ORDER BY id DESC LIMIT 3",
		"SELECT name FROM t WHERE id = 60",
		"SELECT COUNT(*) FROM t WHERE grp = 3 AND id >= 0",
		"SELECT SUM(grp) FROM t WHERE id >= 50 AND id <= 130 AND name != 'n77'",
		"SELECT id, name FROM t WHERE grp = 3",
		"SELECT id, name FROM t WHERE name >= 'n2' AND grp != 4",
		"SELECT id FROM t WHERE grp >= 2 AND grp <= 4 ORDER BY grp DESC LIMIT 5",
		"SELECT id, name FROM t WHERE grp != 5 ORDER BY name LIMIT 6",
		"SELECT id, name FROM t WHERE grp != 5 ORDER BY name DESC LIMIT 40",
		"SELECT name FROM t WHERE id >= 20 AND id <= 250 ORDER BY grp",
		"EXPLAIN ANALYZE SELECT name FROM t WHERE grp != 5 ORDER BY name LIMIT 6",
	}
	round := func(session int) {
		for _, q := range reads {
			w = append(w, fmt.Sprintf("%d|%s", session, q))
		}
	}
	w = append(w, "1|BEGIN")
	round(1) // pins the view
	for _, id := range []int{0, 1, 2, 299, 298, 100, 101, 150, 60, 62} {
		w = append(w, fmt.Sprintf("0|DELETE FROM t WHERE id = %d", id))
	}
	w = append(w,
		"0|DELETE FROM t WHERE id >= 70 AND id <= 79 AND grp != 9",
		"0|INSERT INTO t (id, name, grp) VALUES (61, 'late', 3)",
		"0|INSERT INTO t (id, name, grp) VALUES (400, 'later', 3)",
		"0|UPDATE t SET name = 'moved', grp = 5 WHERE id = 59",
		"0|UPDATE t SET grp = 3 WHERE name = 'n63'",
	)
	round(1) // ghosts, substitutes, suppressed inserts
	round(0) // the writer's own current reads, chains live
	w = append(w, "1|COMMIT")
	round(1)
	round(1) // from the query cache
	return w
}

// TestBorrowedRowsSurvivePoison runs the randomized SELECT/DML
// generators, and the overlapping-transaction list above, twice: with
// every cursor owning its records (btree.RecycleNever), and with every
// lending cursor overwriting what it lent before each Next
// (btree.RecyclePoison). An operator, driver or cache that kept a lent
// row — a TopN that did not copy on admission or eviction, a Sort over
// a lending leaf, a DML row list, a ghost merge holding its tree row
// across a page, a cached result — returns the sentinel instead of the
// row, and every surface the differentials compare must be identical.
func TestBorrowedRowsSurvivePoison(t *testing.T) {
	workloads := map[string][]string{
		"random-C0FFEE": randomWorkload(rand.New(rand.NewSource(0xC0FFEE))),
		"random-BEEF":   randomWorkload(rand.New(rand.NewSource(0xBEEF))),
		"mask":          maskWorkload(rand.New(rand.NewSource(0x5EED))),
		"mvcc":          mvccDiffWorkload(rand.New(rand.NewSource(0xBEEF))),
		"overlap":       overlapWorkload(),
	}
	for name, workload := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := Defaults()
			cfg.EnableGeneralLog = true
			restore := btree.SetRecycleMode(btree.RecycleNever)
			owned := captureRun(t, cfg, workload, nil)
			btree.SetRecycleMode(btree.RecyclePoison)
			poisoned := captureRun(t, cfg, workload, nil)
			btree.SetRecycleMode(restore)
			diffRuns(t, workload, "owned", "poisoned", owned, poisoned, 0)
			for i, out := range poisoned.outcomes {
				if strings.Contains(out, btree.Poison.Str) {
					t.Errorf("statement %d %q returned a recycled row: %s", i, workload[i], out)
				}
			}
		})
	}
}

// TestRejectBeforeDecodeYieldsToMVCC: a chained key whose tree row
// fails k = ? while the version the view sees passes, and one the other
// way round, under COUNT and a range — read in autocommit while the
// writer's transaction is open, and through a repeatable-read view
// after it committed. Whenever the view differs from the tree the leaf
// must turn nothing down undecoded; whenever the tree is exactly what
// the statement may see — the writer's own reads, a view newer than
// every chain, a purged table — it does, and sees the new rows.
func TestRejectBeforeDecodeYieldsToMVCC(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	reader, writer := e.Connect("reader"), e.Connect("writer")
	defer reader.Close()
	defer writer.Close()
	loadScanTable(t, writer, "t", 100) // k = id % 10

	const count = "SELECT COUNT(*) FROM t WHERE k = 3 AND id >= 0"
	const ranged = "SELECT id FROM t WHERE id >= 10 AND id <= 19 AND k = 3"
	check := func(when string, s *Session, wantIDs string, wantRejecting bool) {
		t.Helper()
		for _, q := range []string{count, ranged} {
			direct, rejected := rejectedBy(t, e, s, q)
			res := mustExec(t, s, q)
			if got, want := renderResult(&Result{Rows: res.Rows}, nil), renderResult(&Result{Rows: direct}, nil); got != want {
				t.Errorf("%s: %s through the session:\n%s\ndirectly:\n%s", when, q, got, want)
			}
			if (rejected > 0) != wantRejecting {
				t.Errorf("%s: %s turned down %d rows undecoded, want some: %v", when, q, rejected, wantRejecting)
			}
			want := "10"
			if q == ranged {
				want = wantIDs
			}
			var got []string
			for _, r := range res.Rows {
				got = append(got, r[0].SQL())
			}
			if strings.Join(got, ",") != want {
				t.Errorf("%s: %s = %v, want %s", when, q, got, want)
			}
		}
	}

	check("clean table", reader, "13", true)

	mustExec(t, reader, "BEGIN")
	check("repeatable read, before the writes", reader, "13", true) // pins the view; no chains yet

	mustExec(t, writer, "BEGIN")
	mustExec(t, writer, "UPDATE t SET k = 4 WHERE id = 13") // tree row fails k = 3, the visible version passes
	mustExec(t, writer, "UPDATE t SET k = 3 WHERE id = 14") // tree row passes, the visible version fails
	autocommit := e.Connect("autocommit")
	defer autocommit.Close()
	check("autocommit, writer open", autocommit, "13", false)
	check("repeatable read, writer open", reader, "13", false)
	check("the writer's own view", writer, "14", true) // the tree is what the writer sees

	mustExec(t, writer, "COMMIT")
	check("repeatable read, writer committed", reader, "13", false)
	check("autocommit, writer committed", autocommit, "14", true) // chains still live, but a new view sees their heads

	mustExec(t, reader, "COMMIT")
	e.PurgeVersions(0)
	check("clean again", autocommit, "14", true)
}

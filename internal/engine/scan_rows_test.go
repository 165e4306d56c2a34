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
// fetch may tell them apart from an execution that decodes every row and
// filters above the leaf.

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
	pp := e.template(ra.table, sel)
	pi := pp.instantiate()
	pi.armVisibility(pp, ra.filter(e, pp))
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

// surfacesOf runs q, then EXPLAIN ANALYZE q, on session n of e under
// the given recycle mode, holding both to the model m.
func surfacesOf(t *testing.T, e *Engine, m *sqlModel, n int, s *Session, q string, mode btree.RecycleMode) stmtSurfaces {
	t.Helper()
	defer btree.SetRecycleMode(btree.SetRecycleMode(mode))
	var out stmtSurfaces
	e.BufferPool().SetTraceFunc(func(id storage.PageID) { out.trace = append(out.trace, id) })
	defer e.BufferPool().SetTraceFunc(nil)
	x := m.expect(t, e, n, q)
	res, err := s.Execute(q)
	x.check(t, res, err, out.trace)
	out.rows = renderResult(res, err)
	e.PerfSchema().Reset()
	before := len(out.trace)
	x = m.expect(t, e, n, "EXPLAIN ANALYZE "+q)
	res, err = s.Execute("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE %s: %v", q, err)
	}
	x.check(t, res, err, out.trace[before:])
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
// operator's (examined, returned) pair equals the figure worked out by
// hand below, with and without live version chains on the table, and
// with every lending cursor poisoning what it lent the stage rows, the
// EXPLAIN ANALYZE text, the events_stages_history rows, the result and
// the page-fetch sequence equal those of a run where nothing is lent;
// rows and fetches are the SQL model's and the trace rule's. A leaf
// that rejected rows without accounting for them shows up here as a
// Filter that examined only the survivors.
func TestStageTriplesMatchRowAtATime(t *testing.T) {
	// customers: id 0..199, state = [IN AZ NY CA][id%4], age = 20+id%50.
	// With chains, the writer's open transaction has moved id 0 to CA and
	// id 3 to IN, deleted ids 7 and 100, moved id 20 to age 31 and
	// inserted id 500 (CA, 31): the tree holds 199 rows, the reader sees
	// the original 200, and a leaf examines tree rows but returns the
	// rows the view sees.
	cases := []struct {
		sql       string
		rejects   bool   // the leaf turns rows down (when no view is armed)
		want      string // examined/returned per operator, no chains
		wantChain string // the same under the writer's open transaction
	}{
		{"SELECT name FROM customers WHERE state = 'CA'", true,
			"Project(50,50) Filter(200,50) Table scan(200,200)",
			"Project(50,50) Filter(200,50) Table scan(199,200)"},
		{"SELECT name FROM customers WHERE id >= 20 AND id <= 119 AND state = 'NY'", true,
			"Project(25,25) Filter(100,25) Range scan(100,100)",
			"Project(25,25) Filter(100,25) Range scan(99,100)"},
		{"SELECT id, name FROM customers WHERE id >= 20 AND id <= 119", false,
			"Project(100,100) Filter(100,100) Range scan(100,100)",
			"Project(100,100) Filter(100,100) Range scan(99,100)"},
		{"SELECT id FROM customers WHERE id > 20 AND id < 30", true, // strict bounds are residual
			"Project(9,9) Filter(11,9) Range scan(11,11)",
			"Project(9,9) Filter(11,9) Range scan(11,11)"},
		{"SELECT name FROM customers WHERE id = 7 AND state = 'CA'", false, // armed, and the one row passes
			"Project(1,1) Filter(1,1) Point scan(1,1)",
			"Project(1,1) Filter(1,1) Point scan(0,1)"}, // a ghost: nothing in the tree
		{"SELECT name FROM customers WHERE id = 8 AND state = 'CA'", true,
			"Project(0,0) Filter(1,0) Point scan(1,1)",
			"Project(0,0) Filter(1,0) Point scan(1,1)"},
		{"SELECT name FROM customers WHERE age >= 30 AND age <= 34 AND state = 'CA'", false,
			"Project(4,4) Filter(20,4) Key lookup(20,20) Index range scan(20,20)",
			"Project(4,4) Filter(20,4) Key lookup(20,20) Index range scan(22,20)"}, // ids 20 and 500's new entries
		{"SELECT name FROM customers WHERE state = 'CA' LIMIT 3", true,
			"Limit(3,3) Project(3,3) Filter(12,3) Table scan(200,12)",
			"Limit(3,3) Project(3,3) Filter(12,3) Table scan(199,12)"},
		{"SELECT name FROM customers WHERE state = 'CA' LIMIT 0", false, // nothing is pulled
			"Limit(0,0) Project(0,0) Filter(0,0) Table scan(200,0)",
			"Limit(0,0) Project(0,0) Filter(0,0) Table scan(199,0)"},
		{"SELECT name FROM customers WHERE state = 'CA' ORDER BY age DESC LIMIT 4", true,
			"Project(4,4) Top-N sort(50,4) Filter(200,50) Table scan(200,200)",
			"Project(4,4) Top-N sort(50,4) Filter(200,50) Table scan(199,200)"},
		{"SELECT name FROM customers WHERE state = 'CA' ORDER BY name", true,
			"Project(50,50) Sort(50,50) Filter(200,50) Table scan(200,200)",
			"Project(50,50) Sort(50,50) Filter(200,50) Table scan(199,200)"},
		{"SELECT name FROM customers WHERE state = 'CA' ORDER BY id DESC LIMIT 2", false, // blocking leaf
			"Limit(2,2) Project(2,2) Filter(5,2) Table scan(200,5)",
			"Limit(2,2) Project(2,2) Filter(5,2) Table scan(199,5)"},
		{"SELECT COUNT(*) FROM customers WHERE state = 'NY' AND id >= 0", true,
			"Aggregate(50,1) Filter(200,50) Table scan(200,200)",
			"Aggregate(50,1) Filter(200,50) Table scan(199,200)"},
		{"SELECT SUM(age) FROM customers WHERE id >= 10 AND id <= 59 AND state = 'AZ'", true,
			"Aggregate(12,1) Filter(50,12) Range scan(50,50)",
			"Aggregate(12,1) Filter(50,12) Range scan(50,50)"},
		{"SELECT COUNT(*) FROM customers WHERE age != 20", true,
			"Aggregate(196,1) Filter(200,196) Table scan(200,200)",
			"Aggregate(196,1) Filter(200,196) Table scan(199,200)"},
		{"SELECT COUNT(*) FROM customers", false,
			"Aggregate(200,1) Table scan(200,200)",
			"Aggregate(200,1) Table scan(199,200)"},
	}
	for _, chains := range []bool{false, true} {
		t.Run(fmt.Sprintf("chains=%v", chains), func(t *testing.T) {
			cfg := Defaults()
			cfg.EnableQueryCache = false // every statement really scans
			cfg.BufferPoolPages = 8      // small enough that fetches miss and evict
			e, _ := newEngine(t, cfg)
			m := newSQLModel(cfg)
			s, writer := e.Connect("app"), e.Connect("writer")
			defer s.Close()
			defer writer.Close()
			for _, q := range append(customersFixture(200), "CREATE INDEX idx_age ON customers (age)") {
				m.step(t, e, 0, s, q)
			}
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
					m.step(t, e, 1, writer, q)
				}
			}
			for _, c := range cases {
				owned := surfacesOf(t, e, m, 0, s, c.sql, btree.RecycleNever)
				got := surfacesOf(t, e, m, 0, s, c.sql, btree.RecyclePoison)
				if got.rows != owned.rows {
					t.Errorf("%s: rows differ from the owned run's:\n%s\nwant:\n%s", c.sql, got.rows, owned.rows)
				}
				if got.analyze != owned.analyze {
					t.Errorf("%s: EXPLAIN ANALYZE differs:\n%s\nowned:\n%s", c.sql, got.analyze, owned.analyze)
				}
				if !reflect.DeepEqual(got.stages, owned.stages) || !reflect.DeepEqual(got.history, owned.history) {
					t.Errorf("%s: stage rows differ:\n%+v\nowned:\n%+v", c.sql, got.history, owned.history)
				}
				if !reflect.DeepEqual(got.trace, owned.trace) {
					t.Errorf("%s: fetch trace differs: %v, owned %v", c.sql, got.trace, owned.trace)
				}
				_, rejected := rejectedBy(t, e, s, c.sql)
				// The writer's chains keep the hand-off off a statement
				// whose primary-key range holds one, and only there.
				if want := c.rejects && (!chains || cleanRange(t, c.sql, []int64{0, 3, 7, 20, 100, 500})); (rejected > 0) != want {
					t.Errorf("%s: the leaf turned down %d rows undecoded, want some: %v", c.sql, rejected, want)
				}
				want := c.want
				if chains {
					want = c.wantChain
				}
				if tr := triples(got.stages); tr != want {
					t.Errorf("%s: stages %s, want %s", c.sql, tr, want)
				}
			}
			if chains {
				return
			}
			// A DML scan half hands down too (it owns its rows, but filters
			// like any plan); its stage rows are pinned by hand as well.
			res := m.step(t, e, 0, s, "EXPLAIN ANALYZE UPDATE customers SET age = 1 WHERE state = 'CA' AND id >= 100")
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
// Both runs are held to the SQL model, so each pinned view's rows are
// its snapshot's.
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
			owned := captureRun(t, cfg, workload, checked)
			btree.SetRecycleMode(btree.RecyclePoison)
			poisoned := captureRun(t, cfg, workload, checked)
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

	// An open chain outside the range: the COUNT, a full scan, reads
	// through it and yields; the range resolves nothing and hands off.
	mustExec(t, writer, "BEGIN")
	mustExec(t, writer, "UPDATE t SET k = 3 WHERE id = 50") // the view's row fails k = 3
	for _, c := range []struct {
		q, want   string
		rejecting bool
	}{{count, "10", false}, {ranged, "14", true}} {
		direct, rejected := rejectedBy(t, e, autocommit, c.q)
		res := mustExec(t, autocommit, c.q)
		if got, want := renderResult(&Result{Rows: res.Rows}, nil), renderResult(&Result{Rows: direct}, nil); got != want {
			t.Errorf("chain outside the range: %s through the session:\n%s\ndirectly:\n%s", c.q, got, want)
		}
		if (rejected > 0) != c.rejecting {
			t.Errorf("chain outside the range: %s turned down %d rows undecoded, want some: %v", c.q, rejected, c.rejecting)
		}
		if got := res.Rows[0][0].SQL(); got != c.want {
			t.Errorf("chain outside the range: %s = %s, want %s", c.q, got, c.want)
		}
	}
	mustExec(t, writer, "ROLLBACK")
}

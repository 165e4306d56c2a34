package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"snapdb/internal/bufpool"
	"snapdb/internal/sqlparse"
)

// newEngine returns an engine with a deterministic, manually advanced
// clock starting at t0.
func newEngine(t testing.TB, cfg Config) (*Engine, *int64) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := int64(1_000_000)
	e.Clock = func() int64 { return now }
	return e, &now
}

func mustExec(t testing.TB, s *Session, q string) *Result {
	t.Helper()
	res, err := s.Execute(q)
	if err != nil {
		t.Fatalf("Execute(%q): %v", q, err)
	}
	return res
}

func setupCustomers(t testing.TB, s *Session, n int) {
	t.Helper()
	for _, q := range customersFixture(n) {
		mustExec(t, s, q)
	}
}

// customersFixture creates customers and loads ids 0..n-1 into it:
// state = [IN AZ NY CA][id%4], age = 20+id%50.
func customersFixture(n int) []string {
	stmts := []string{"CREATE TABLE customers (id INT PRIMARY KEY, name TEXT, state TEXT, age INT)"}
	states := []string{"IN", "AZ", "NY", "CA"}
	for i := 0; i < n; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO customers (id, name, state, age) VALUES (%d, 'name%d', '%s', %d)",
			i, i, states[i%len(states)], 20+i%50))
	}
	return stmts
}

func TestCreateInsertSelect(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	defer s.Close()
	setupCustomers(t, s, 20)

	res := mustExec(t, s, "SELECT name, age FROM customers WHERE id = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "name7" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectStarExpansion(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	setupCustomers(t, s, 3)
	res := mustExec(t, s, "SELECT * FROM customers WHERE id = 1")
	if len(res.Columns) != 4 || res.Columns[3] != "age" {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows[0]) != 4 {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestWhereNonKeyColumn(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	setupCustomers(t, s, 40)
	res := mustExec(t, s, "SELECT id FROM customers WHERE state = 'IN'")
	if len(res.Rows) != 10 {
		t.Errorf("IN rows = %d, want 10", len(res.Rows))
	}
	if res.RowsExamined != 40 {
		t.Errorf("examined = %d, want full scan of 40", res.RowsExamined)
	}
}

func TestPKRangeUsesIndex(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	setupCustomers(t, s, 100)
	res := mustExec(t, s, "SELECT id FROM customers WHERE id >= 10 AND id <= 19")
	if len(res.Rows) != 10 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	if res.RowsExamined >= 100 {
		t.Errorf("examined = %d; PK range should not scan the whole table", res.RowsExamined)
	}
}

func TestBetween(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	setupCustomers(t, s, 50)
	res := mustExec(t, s, "SELECT id FROM customers WHERE id BETWEEN 5 AND 8")
	if len(res.Rows) != 4 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestAggregates(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	setupCustomers(t, s, 10)
	res := mustExec(t, s, "SELECT COUNT(*) FROM customers WHERE state = 'IN'")
	if res.Rows[0][0].Int != 3 {
		t.Errorf("count = %d", res.Rows[0][0].Int)
	}
	res = mustExec(t, s, "SELECT SUM(age) FROM customers WHERE id <= 1 AND id >= 0")
	if res.Rows[0][0].Int != 41 { // 20 + 21
		t.Errorf("sum = %d", res.Rows[0][0].Int)
	}
}

func TestOrderByLimit(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	setupCustomers(t, s, 10)
	res := mustExec(t, s, "SELECT id FROM customers ORDER BY id DESC LIMIT 3")
	if len(res.Rows) != 3 || res.Rows[0][0].Int != 9 || res.Rows[2][0].Int != 7 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestOrderByUnselectedColumn(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i, v := range []int64{30, 10, 20} {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, v))
	}
	// ORDER BY a column that is not in the select list, like MySQL.
	res := mustExec(t, s, "SELECT id FROM t ORDER BY v")
	want := []int64{1, 2, 0} // ids sorted by their v values 10, 20, 30
	for i, w := range want {
		if res.Rows[i][0].Int != w {
			t.Fatalf("rows = %v, want id order %v", res.Rows, want)
		}
	}
}

func TestUpdateAndDelete(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	setupCustomers(t, s, 10)

	res := mustExec(t, s, "UPDATE customers SET age = 99 WHERE id = 3")
	if res.RowsAffected != 1 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
	got := mustExec(t, s, "SELECT age FROM customers WHERE id = 3")
	if got.Rows[0][0].Int != 99 {
		t.Errorf("age = %d", got.Rows[0][0].Int)
	}

	res = mustExec(t, s, "DELETE FROM customers WHERE id = 3")
	if res.RowsAffected != 1 {
		t.Errorf("delete affected = %d", res.RowsAffected)
	}
	got = mustExec(t, s, "SELECT * FROM customers WHERE id = 3")
	if len(got.Rows) != 0 {
		t.Errorf("deleted row still visible: %v", got.Rows)
	}
}

func TestUpdatePrimaryKeyRejected(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	setupCustomers(t, s, 3)
	if _, err := s.Execute("UPDATE customers SET id = 99 WHERE id = 1"); err == nil {
		t.Error("PK update accepted")
	}
}

func TestTypeChecking(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
	if _, err := s.Execute("INSERT INTO t (id, name) VALUES ('str', 'ok')"); err == nil {
		t.Error("string into INT accepted")
	}
	if _, err := s.Execute("INSERT INTO t (id, name) VALUES (1, 2)"); err == nil {
		t.Error("int into TEXT accepted")
	}
	if _, err := s.Execute("UPDATE t SET name = 5 WHERE id = 1"); err == nil {
		t.Error("typed update accepted")
	}
}

func TestSchemaErrors(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	cases := []string{
		"CREATE TABLE t (id INT PRIMARY KEY)",       // duplicate table
		"CREATE TABLE u (a INT, b INT PRIMARY KEY)", // PK not first
		"SELECT * FROM missing",                     // unknown table
		"SELECT nope FROM t",                        // unknown column
		"SELECT * FROM t WHERE nope = 1",            // unknown WHERE column
		"INSERT INTO t (id) VALUES (1)",             // missing column
		"INSERT INTO t (id, id) VALUES (1, 2)",      // duplicate column
		"INSERT INTO t (id, nope) VALUES (1, 2)",    // unknown column
		"UPDATE t SET nope = 1 WHERE id = 1",        // unknown SET column
		"SELECT COUNT(*), v FROM t",                 // aggregate mixed with column
		"SELECT SUM(id) FROM missing",               // aggregate over missing table
		"SELECT id FROM t ORDER BY w",               // order by unknown column
	}
	for _, q := range cases {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("Execute(%q) unexpectedly succeeded", q)
		}
	}
}

func TestDuplicatePKRejected(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 1)")
	if _, err := s.Execute("INSERT INTO t (id, v) VALUES (1, 2)"); err == nil {
		t.Error("duplicate PK accepted")
	}
}

func TestMultiRowInsert(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	res := mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30)")
	if res.RowsAffected != 3 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
	got := mustExec(t, s, "SELECT COUNT(*) FROM t")
	if got.Rows[0][0].Int != 3 {
		t.Errorf("count = %d", got.Rows[0][0].Int)
	}
}

// --- Artifact wiring: the paper's leakage channels. ---

func TestBinlogRecordsWritesWithTimestamps(t *testing.T) {
	e, now := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	*now = 2_000_000
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 'secret-value')")
	*now = 2_000_500
	mustExec(t, s, "SELECT * FROM t WHERE id = 1") // reads must NOT hit the binlog
	mustExec(t, s, "UPDATE t SET v = 'updated' WHERE id = 1")

	_, _, evs := durableLogs(t, e)
	if len(evs) != 3 { // create, insert, update
		t.Fatalf("binlog has %d events: %+v", len(evs), evs)
	}
	if evs[1].Timestamp != 2_000_000 || !strings.Contains(evs[1].Statement, "secret-value") {
		t.Errorf("insert event = %+v", evs[1])
	}
	if evs[2].Timestamp != 2_000_500 {
		t.Errorf("update timestamp = %d", evs[2].Timestamp)
	}
	if evs[2].LSN <= evs[1].LSN {
		t.Error("binlog LSNs not increasing")
	}
	for _, ev := range evs {
		if strings.HasPrefix(ev.Statement, "SELECT") {
			t.Error("SELECT leaked into binlog")
		}
	}
}

func TestBinlogDisabled(t *testing.T) {
	cfg := Defaults()
	cfg.EnableBinlog = false
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 1)")
	if _, _, evs := durableLogs(t, e); len(evs) != 0 {
		t.Error("disabled binlog recorded events")
	}
}

func TestWALRecordsByteLevelChanges(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (7, 'original')")
	mustExec(t, s, "UPDATE t SET v = 'modified' WHERE id = 7")
	mustExec(t, s, "DELETE FROM t WHERE id = 7")

	redo, undo, _ := durableLogs(t, e)
	redo = dataRecords(redo)
	if len(redo) != 3 || len(undo) != 3 {
		t.Fatalf("redo=%d undo=%d", len(redo), len(undo))
	}
	if redo[0].Image[1].Str != "original" {
		t.Errorf("insert redo image = %v", redo[0].Image)
	}
	if redo[1].Image[1].Str != "modified" || undo[1].Image[1].Str != "original" {
		t.Errorf("update images: redo=%v undo=%v", redo[1].Image, undo[1].Image)
	}
	if undo[2].Image[1].Str != "modified" {
		t.Errorf("delete undo image = %v", undo[2].Image)
	}
}

func TestQueryCacheHitAndInvalidation(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	setupCustomers(t, s, 10)
	q := "SELECT name FROM customers WHERE id = 2"
	first := mustExec(t, s, q)
	if first.FromCache {
		t.Error("first execution hit the cache")
	}
	second := mustExec(t, s, q)
	if !second.FromCache {
		t.Error("second execution missed the cache")
	}
	mustExec(t, s, "UPDATE customers SET age = 1 WHERE id = 9")
	third := mustExec(t, s, q)
	if third.FromCache {
		t.Error("cache not invalidated by table write")
	}
}

// TestCachedResultsAreNotShared edits a returned row, on the miss that
// filled the cache entry and on a hit served from it, and requires the
// next identical SELECT to be served the original value: neither caller
// holds the cache's own rows.
func TestCachedResultsAreNotShared(t *testing.T) {
	for _, arm := range []string{"miss", "hit"} {
		t.Run(arm, func(t *testing.T) {
			e, _ := newEngine(t, Defaults())
			s := e.Connect("app")
			setupCustomers(t, s, 10)
			q := "SELECT id, name FROM customers WHERE id >= 2 AND id <= 4"
			res := mustExec(t, s, q)
			if arm == "hit" {
				if res = mustExec(t, s, q); !res.FromCache {
					t.Fatal("second execution missed the cache")
				}
			}
			if len(res.Rows) != 3 || res.Rows[0][1].Str != "name2" {
				t.Fatalf("rows = %v", res.Rows)
			}
			res.Rows[0][1] = sqlparse.StrValue("tampered")
			again := mustExec(t, s, q)
			if !again.FromCache {
				t.Fatal("re-run missed the cache")
			}
			if got := again.Rows[0][1]; got != sqlparse.StrValue("name2") {
				t.Errorf("re-run served %v after the caller edited its row, want name2", got)
			}
		})
	}
}

func TestQueryTextInHeapResidue(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	marker := "SELECT v FROM t WHERE id = 424242"
	if _, err := s.Execute(marker); err != nil {
		t.Fatal(err)
	}
	dump := e.Arena().Dump()
	if n := bytes.Count(dump, []byte(marker)); n < 3 {
		t.Errorf("query text found %d times in heap, want >= 3 (conn + parse + history buffers)", n)
	}
}

func TestProcesslistVisibleAcrossSessions(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	victim := e.Connect("victim")
	attacker := e.Connect("attacker")
	setupCustomers(t, victim, 5)
	mustExec(t, victim, "SELECT name FROM customers WHERE id = 1")

	res := mustExec(t, attacker, "SELECT * FROM information_schema.processlist")
	var sawVictim bool
	for _, r := range res.Rows {
		if r[1].Str == "victim" && strings.Contains(r[4].Str, "SELECT name FROM customers") {
			sawVictim = true
		}
	}
	if !sawVictim {
		t.Error("attacker could not see victim's last query in processlist")
	}
}

func TestPerfSchemaTablesViaSQL(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	victim := e.Connect("victim")
	attacker := e.Connect("attacker")
	setupCustomers(t, victim, 5)
	for i := 0; i < 3; i++ {
		mustExec(t, victim, fmt.Sprintf("SELECT name FROM customers WHERE id = %d", i))
	}

	hist := mustExec(t, attacker, "SELECT * FROM performance_schema.events_statements_history")
	found := 0
	for _, r := range hist.Rows {
		if strings.Contains(r[2].Str, "SELECT name FROM customers") {
			found++
		}
	}
	if found != 3 {
		t.Errorf("history shows %d victim SELECTs, want 3", found)
	}

	digest := mustExec(t, attacker, "SELECT * FROM performance_schema.events_statements_summary_by_digest")
	var sawDigest bool
	for _, r := range digest.Rows {
		if strings.Contains(r[1].Str, "SELECT name FROM customers WHERE id = ?") && r[2].Int == 3 {
			sawDigest = true
		}
	}
	if !sawDigest {
		t.Errorf("digest summary missing grouped SELECT row: %v", digest.Rows)
	}

	cur := mustExec(t, attacker, "SELECT * FROM performance_schema.events_statements_current")
	if len(cur.Rows) == 0 {
		t.Error("events_statements_current empty")
	}
}

func TestSlowLogCapturesSlowQueries(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	// Fake execution times: every statement appears to take 1 second.
	base := time.Unix(0, 0)
	calls := 0
	e.ExecClock = func() time.Time {
		calls++
		return base.Add(time.Duration(calls) * time.Second)
	}
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	entries := e.SlowLog().Entries()
	if len(entries) == 0 {
		t.Fatal("slow log empty despite slow statements")
	}
	if !strings.Contains(entries[0].Statement, "CREATE TABLE") {
		t.Errorf("slow entry = %+v", entries[0])
	}
}

func TestGeneralLogOffByDefaultOnWhenEnabled(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "SELECT * FROM t")
	if len(e.GeneralLog().Entries()) != 0 {
		t.Error("general log recorded while disabled")
	}

	cfg := Defaults()
	cfg.EnableGeneralLog = true
	e2, _ := newEngine(t, cfg)
	s2 := e2.Connect("app")
	mustExec(t, s2, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s2, "SELECT * FROM t")
	if len(e2.GeneralLog().Entries()) != 2 {
		t.Errorf("general log entries = %d", len(e2.GeneralLog().Entries()))
	}
}

// TestBufferPoolDumpWrittenPeriodically: the buffer-pool dump has one
// store, its file, written every DumpInterval statements and again at
// Shutdown.
func TestBufferPoolDumpWrittenPeriodically(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	setupCustomers(t, s, 30)
	dump := func() []byte {
		t.Helper()
		b, err := e.Dir().ReadFile(FileBufferPool)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		return b
	}
	if dump() != nil {
		t.Fatalf("a dump was written after %d statements, before the first interval", e.Statements())
	}
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := bufpool.ParseDump(dump()); err != nil {
		t.Fatalf("shutdown dump: %v", err)
	}
	if err := e.Dir().Remove(FileBufferPool); err != nil {
		t.Fatal(err)
	}
	for e.Statements() < DumpInterval {
		mustExec(t, s, "SELECT * FROM customers WHERE id = 1")
	}
	if _, err := bufpool.ParseDump(dump()); err != nil {
		t.Fatalf("no periodic buffer pool dump written: %v", err)
	}
}

func TestStatementsCounter(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "INSERT INTO t (id, v) VALUES (1, 1)")
	if e.Statements() != 2 {
		t.Errorf("statements = %d", e.Statements())
	}
}

func TestParseErrorStillFreesHeap(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	if _, err := s.Execute("NOT SQL AT ALL"); err == nil {
		t.Fatal("garbage accepted")
	}
	allocs, frees, _ := e.Arena().Stats()
	// One live block per statement remains in the history ring; the
	// per-statement working buffers must all be freed.
	if allocs-frees != 1 {
		t.Errorf("allocs=%d frees=%d after failed statement, want exactly 1 live history block", allocs, frees)
	}
}

func BenchmarkInsertStatement(b *testing.B) {
	e, err := New(Defaults())
	if err != nil {
		b.Fatal(err)
	}
	s := e.Connect("bench")
	if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'payload')", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointSelect(b *testing.B) {
	e, err := New(Defaults())
	if err != nil {
		b.Fatal(err)
	}
	s := e.Connect("bench")
	if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := s.Execute(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'payload')", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(fmt.Sprintf("SELECT v FROM t WHERE id = %d", i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

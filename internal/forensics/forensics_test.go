package forensics

import (
	"fmt"
	"strings"
	"testing"

	"snapdb/internal/binlog"
	"snapdb/internal/engine"
	"snapdb/internal/sqlparse"
	"snapdb/internal/wal"
)

func catalogOf(e *engine.Engine) Catalog {
	cat := make(Catalog)
	for _, t := range e.Tables() {
		cols := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = c.Name
		}
		cat[t.ID] = TableSchema{Name: t.Name, Columns: cols}
	}
	return cat
}

func TestReconstructWritesFromEngineWAL(t *testing.T) {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	s := e.Connect("app")
	stmts := []string{
		"CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT)",
		"INSERT INTO accounts (id, owner) VALUES (1, 'alice')",
		"UPDATE accounts SET owner = 'mallory' WHERE id = 1",
		"DELETE FROM accounts WHERE id = 1",
	}
	for _, q := range stmts {
		if _, err := s.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	redo, err := e.Dir().ReadFile(engine.FileRedo)
	if err != nil {
		t.Fatal(err)
	}
	undo, err := e.Dir().ReadFile(engine.FileUndo)
	if err != nil {
		t.Fatal(err)
	}
	writes, err := ReconstructWrites(redo, undo, catalogOf(e))
	if err != nil {
		t.Fatal(err)
	}
	if len(writes) != 3 {
		t.Fatalf("reconstructed %d writes, want 3", len(writes))
	}
	if writes[0].SQL != "INSERT INTO accounts (id, owner) VALUES (1, 'alice')" {
		t.Errorf("insert = %q", writes[0].SQL)
	}
	if !strings.Contains(writes[1].SQL, "SET owner = 'mallory' WHERE id = 1") {
		t.Errorf("update = %q", writes[1].SQL)
	}
	if !strings.Contains(writes[1].SQL, "old value: 'alice'") {
		t.Errorf("update lost old value: %q", writes[1].SQL)
	}
	if !strings.HasPrefix(writes[2].SQL, "DELETE FROM accounts WHERE id = 1") {
		t.Errorf("delete = %q", writes[2].SQL)
	}
	// The undo log gives up the deleted row's full content.
	if !strings.Contains(writes[2].SQL, "deleted row: (1, 'mallory')") {
		t.Errorf("deleted row content not recovered: %q", writes[2].SQL)
	}
	// Reconstructed statements must be valid SQL (strip comments).
	for _, w := range writes {
		sql := w.SQL
		if i := strings.Index(sql, " /*"); i >= 0 {
			sql = sql[:i]
		}
		if _, err := sqlparse.Parse(sql); err != nil {
			t.Errorf("reconstructed SQL does not parse: %q: %v", sql, err)
		}
	}
}

func TestReconstructWithoutUndo(t *testing.T) {
	m, err := wal.NewManager(1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	m.LogUpdate(1,
		[]sqlparse.Value{sqlparse.IntValue(7)}, 1,
		[]sqlparse.Value{sqlparse.StrValue("old")},
		[]sqlparse.Value{sqlparse.StrValue("new")})
	writes, err := ReconstructWrites(m.Redo.Serialize(), nil, Catalog{1: {Name: "t", Columns: []string{"id", "v"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(writes) != 1 || strings.Contains(writes[0].SQL, "old value") {
		t.Errorf("writes = %+v", writes)
	}
	if !strings.Contains(writes[0].SQL, "SET v = 'new'") {
		t.Errorf("update = %q", writes[0].SQL)
	}
}

func TestReconstructUnknownTable(t *testing.T) {
	m, _ := wal.NewManager(1<<20, 1<<20)
	m.LogInsert(42, []sqlparse.Value{sqlparse.IntValue(1), sqlparse.StrValue("x")})
	writes, err := ReconstructWrites(m.Redo.Serialize(), nil, Catalog{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(writes[0].SQL, "table_42") || !strings.Contains(writes[0].SQL, "col0") {
		t.Errorf("fallback naming wrong: %q", writes[0].SQL)
	}
}

func TestCorrelationLinearFit(t *testing.T) {
	// Steady workload: 40 bytes of WAL per second.
	var events []binlog.Event
	for i := 0; i < 100; i++ {
		events = append(events, binlog.Event{
			Timestamp: 1_000_000 + int64(i),
			LSN:       uint64(100_000 + 40*i),
			Statement: "INSERT ...",
		})
	}
	c, err := CorrelateBinlog(events)
	if err != nil {
		t.Fatal(err)
	}
	if c.Samples() != 100 {
		t.Errorf("samples = %d", c.Samples())
	}
	// Extrapolate backwards past the binlog horizon.
	got := c.Date(100_000 - 40*50)
	want := int64(1_000_000 - 50)
	if got < want-1 || got > want+1 {
		t.Errorf("extrapolated ts = %d, want ~%d", got, want)
	}
}

func TestCorrelationErrors(t *testing.T) {
	if _, err := CorrelateBinlog(nil); err == nil {
		t.Error("empty binlog accepted")
	}
	one := []binlog.Event{{Timestamp: 1, LSN: 10}}
	if _, err := CorrelateBinlog(one); err == nil {
		t.Error("single event accepted")
	}
	same := []binlog.Event{{Timestamp: 1, LSN: 10}, {Timestamp: 2, LSN: 10}}
	if _, err := CorrelateBinlog(same); err == nil {
		t.Error("degenerate LSNs accepted")
	}
}

func TestDateWrites(t *testing.T) {
	c := &Correlation{Slope: 1, Intercept: 100}
	writes := []ReconstructedWrite{{LSN: 5}, {LSN: 50}}
	DateWrites(writes, c)
	if writes[0].Timestamp != 105 || writes[1].Timestamp != 150 {
		t.Errorf("dated writes = %+v", writes)
	}
}

func TestCountOccurrences(t *testing.T) {
	img := []byte("xxSELECTxx..SELECTxxSELECT")
	if n := CountOccurrences(img, "SELECT"); n != 3 {
		t.Errorf("count = %d", n)
	}
	if n := CountOccurrences(img, "absent"); n != 0 {
		t.Errorf("absent count = %d", n)
	}
	if n := CountOccurrences(img, ""); n != 0 {
		t.Errorf("empty needle count = %d", n)
	}
	if n := CountOccurrences([]byte("aaaa"), "aa"); n != 2 {
		t.Errorf("overlap handling: %d", n)
	}
}

func TestExtractStrings(t *testing.T) {
	img := append([]byte{0, 1, 2}, []byte("hello world")...)
	img = append(img, 0, 0)
	img = append(img, []byte("ab")...) // too short
	img = append(img, 0)
	img = append(img, []byte("trailing run")...)
	got := ExtractStrings(img, 4)
	if len(got) != 2 || got[0] != "hello world" || got[1] != "trailing run" {
		t.Errorf("strings = %q", got)
	}
}

func TestExtractQueriesFromHeapImage(t *testing.T) {
	var img []byte
	img = append(img, 0xFF)
	img = append(img, []byte("SELECT name FROM t WHERE id = 5")...)
	img = append(img, 0x00)
	img = append(img, []byte("not a query at all")...)
	img = append(img, 0x00)
	// A query with trailing residue from a reused block.
	img = append(img, []byte("INSERT INTO t (id) VALUES (9) GARBAGE RESIDUE")...)
	img = append(img, 0x00)
	got := ExtractQueries(img)
	if len(got) != 2 {
		t.Fatalf("queries = %q", got)
	}
	if got[0] != "SELECT name FROM t WHERE id = 5" {
		t.Errorf("q0 = %q", got[0])
	}
	if got[1] != "INSERT INTO t (id) VALUES (9)" {
		t.Errorf("q1 = %q (residue not trimmed)", got[1])
	}
}

func TestQueryHistogram(t *testing.T) {
	qs := []string{
		"SELECT * FROM t WHERE a = 1",
		"SELECT * FROM t WHERE a = 2",
		"SELECT * FROM t WHERE b = 1",
	}
	h := QueryHistogram(qs)
	if len(h) != 2 {
		t.Fatalf("histogram = %v", h)
	}
	if h[sqlparse.Digest("SELECT * FROM t WHERE a = 99")] != 2 {
		t.Errorf("digest grouping wrong: %v", h)
	}
}

func TestRetentionWindow(t *testing.T) {
	var recs []wal.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, wal.Record{LSN: uint64(100 + i*40)})
	}
	c := &Correlation{Slope: 1.0 / 40.0, Intercept: 0}
	oldest, newest, err := RetentionWindow(recs, c)
	if err != nil {
		t.Fatal(err)
	}
	if newest <= oldest {
		t.Errorf("window [%d, %d]", oldest, newest)
	}
	if _, _, err := RetentionWindow(nil, c); err == nil {
		t.Error("empty log accepted")
	}
}

func TestAnalyzeBufferPoolDumpRanks(t *testing.T) {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	s := e.Connect("app")
	if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := s.Execute(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'x')", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Execute("SELECT v FROM t WHERE id = 42"); err != nil {
		t.Fatal(err)
	}
	order := e.BufferPool().LRUOrder()
	visits := AnalyzeBufferPoolDump(order)
	if len(visits) != len(order) {
		t.Fatalf("visits = %d, order = %d", len(visits), len(order))
	}
	if visits[0].Rank != 0 || visits[0].Page != order[0] {
		t.Errorf("rank 0 = %+v", visits[0])
	}
	// The most recent pages must be the traversal path of the last
	// SELECT (leaf last touched).
	tbl, _ := e.Table("t")
	path, err := tbl.Tree.TraversalPath(sqlparse.IntValue(42))
	if err != nil {
		t.Fatal(err)
	}
	if visits[0].Page != path[len(path)-1] {
		t.Errorf("most recent page %d is not the SELECT's leaf %d", visits[0].Page, path[len(path)-1])
	}
}

package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"snapdb/internal/sqlparse"
)

func setupIndexed(t *testing.T, n int) (*Engine, *Session) {
	t.Helper()
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE orders (id INT PRIMARY KEY, customer TEXT, total INT)")
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		q := fmt.Sprintf("INSERT INTO orders (id, customer, total) VALUES (%d, 'cust%02d', %d)",
			i, rng.Intn(20), rng.Intn(1000))
		mustExec(t, s, q)
	}
	mustExec(t, s, "CREATE INDEX idx_total ON orders (total)")
	mustExec(t, s, "CREATE INDEX idx_customer ON orders (customer)")
	return e, s
}

// fullScanRows runs the query forcing a scan (on a fresh engine without
// indexes) to obtain reference results.
func referenceRows(t *testing.T, src *Session, query string) [][2]int64 {
	t.Helper()
	res := mustExec(t, src, query)
	var out [][2]int64
	for _, r := range res.Rows {
		out = append(out, [2]int64{r[0].Int, r[1].Int})
	}
	return out
}

func TestIndexScanMatchesFullScan(t *testing.T) {
	_, s := setupIndexed(t, 500)
	// Reference engine without indexes.
	eRef, _ := newEngine(t, Defaults())
	ref := eRef.Connect("ref")
	mustExec(t, ref, "CREATE TABLE orders (id INT PRIMARY KEY, customer TEXT, total INT)")
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		q := fmt.Sprintf("INSERT INTO orders (id, customer, total) VALUES (%d, 'cust%02d', %d)",
			i, rng.Intn(20), rng.Intn(1000))
		mustExec(t, ref, q)
	}
	queries := []string{
		"SELECT id, total FROM orders WHERE total >= 100 AND total <= 200",
		"SELECT id, total FROM orders WHERE total = 500",
		"SELECT id, total FROM orders WHERE total BETWEEN 900 AND 999",
		"SELECT id, total FROM orders WHERE total >= 0 AND total <= 999",
	}
	for _, q := range queries {
		want := referenceRows(t, ref, q)
		got := referenceRows(t, s, q)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows via index, %d via scan", q, len(got), len(want))
		}
		seen := make(map[[2]int64]bool, len(want))
		for _, r := range want {
			seen[r] = true
		}
		for _, r := range got {
			if !seen[r] {
				t.Fatalf("%s: row %v from index scan not in full scan", q, r)
			}
		}
	}
}

func TestIndexReducesRowsExamined(t *testing.T) {
	_, s := setupIndexed(t, 500)
	res := mustExec(t, s, "SELECT id FROM orders WHERE total = 123")
	if res.RowsExamined >= 500 {
		t.Errorf("examined %d rows; the index should prune the scan", res.RowsExamined)
	}
	res = mustExec(t, s, "SELECT id FROM orders WHERE customer = 'cust05'")
	if res.RowsExamined >= 500 {
		t.Errorf("text index: examined %d rows", res.RowsExamined)
	}
}

func TestIndexMaintainedByUpdateDelete(t *testing.T) {
	_, s := setupIndexed(t, 100)
	mustExec(t, s, "UPDATE orders SET total = 7777 WHERE id = 42")
	res := mustExec(t, s, "SELECT id FROM orders WHERE total = 7777")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 42 {
		t.Fatalf("updated row not found via index: %v", res.Rows)
	}
	mustExec(t, s, "DELETE FROM orders WHERE id = 42")
	res = mustExec(t, s, "SELECT id FROM orders WHERE total = 7777")
	if len(res.Rows) != 0 {
		t.Fatalf("deleted row still indexed: %v", res.Rows)
	}
}

func TestIndexMaintainedByRollback(t *testing.T) {
	_, s := setupIndexed(t, 50)
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE orders SET total = 8888 WHERE id = 10")
	mustExec(t, s, "INSERT INTO orders (id, customer, total) VALUES (999, 'ghost', 8888)")
	mustExec(t, s, "DELETE FROM orders WHERE id = 11")
	mustExec(t, s, "ROLLBACK")

	res := mustExec(t, s, "SELECT id FROM orders WHERE total = 8888")
	if len(res.Rows) != 0 {
		t.Errorf("rolled-back values still indexed: %v", res.Rows)
	}
	// Row 11 must be findable through its index entry again.
	row11 := mustExec(t, s, "SELECT total FROM orders WHERE id = 11")
	if len(row11.Rows) != 1 {
		t.Fatal("rolled-back delete lost the row")
	}
	viaIdx := mustExec(t, s, fmt.Sprintf("SELECT id FROM orders WHERE total = %d", row11.Rows[0][0].Int))
	found := false
	for _, r := range viaIdx.Rows {
		if r[0].Int == 11 {
			found = true
		}
	}
	if !found {
		t.Error("restored row missing from index")
	}
}

func TestCreateIndexValidation(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "CREATE INDEX idx_v ON t (v)")
	cases := []string{
		"CREATE INDEX idx_v ON t (v)",       // duplicate name
		"CREATE INDEX idx_v2 ON t (v)",      // column already indexed
		"CREATE INDEX idx_id ON t (id)",     // PK already indexed
		"CREATE INDEX idx_x ON t (nope)",    // unknown column
		"CREATE INDEX idx_y ON missing (v)", // unknown table
	}
	for _, q := range cases {
		if _, err := s.Execute(q); err == nil {
			t.Errorf("Execute(%q) accepted", q)
		}
	}
	mustExec(t, s, "BEGIN")
	if _, err := s.Execute("CREATE INDEX idx_txn ON t (v)"); err == nil {
		t.Error("DDL inside transaction accepted")
	}
	mustExec(t, s, "ROLLBACK")
}

func TestCreateIndexBackfillsExistingRows(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i%10))
	}
	mustExec(t, s, "CREATE INDEX idx_v ON t (v)")
	res := mustExec(t, s, "SELECT COUNT(*) FROM t WHERE v = 3")
	if res.Rows[0][0].Int != 20 {
		t.Errorf("count via backfilled index = %d, want 20", res.Rows[0][0].Int)
	}
	if res.RowsExamined >= 200 {
		t.Errorf("examined = %d; backfilled index unused", res.RowsExamined)
	}
}

func TestIndexDDLInBinlog(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, s, "CREATE INDEX idx_v ON t (v)")
	found := false
	for _, stmt := range durableBinlog(t, e) {
		if strings.Contains(stmt, "CREATE INDEX idx_v") {
			found = true
		}
	}
	if !found {
		t.Error("index DDL missing from binlog")
	}
}

func TestIndexNegativeValuesOrdered(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	mustExec(t, s, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i, v := range []int64{-100, -1, 0, 1, 100} {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, v))
	}
	mustExec(t, s, "CREATE INDEX idx_v ON t (v)")
	res := mustExec(t, s, "SELECT v FROM t WHERE v >= -50 AND v <= 50")
	if len(res.Rows) != 3 {
		t.Fatalf("range over negatives = %v", res.Rows)
	}
}

func TestAccessPathReporting(t *testing.T) {
	_, s := setupIndexed(t, 100)
	cases := []struct {
		query string
		want  string
	}{
		{"SELECT id FROM orders WHERE id = 5", "pk-range"},
		{"SELECT id FROM orders WHERE id >= 5 AND id <= 9", "pk-range"},
		{"SELECT id FROM orders WHERE total = 100", "index:idx_total"},
		{"SELECT id FROM orders WHERE customer = 'cust01'", "index:idx_customer"},
		{"SELECT id FROM orders WHERE total >= 100", "full-scan"}, // one-sided: no index range
		{"SELECT id FROM orders", "full-scan"},
	}
	for _, c := range cases {
		res := mustExec(t, s, c.query)
		if res.AccessPath != c.want {
			t.Errorf("%s: path = %q, want %q", c.query, res.AccessPath, c.want)
		}
	}
}

func TestIndexedAccessShowsInBufferPool(t *testing.T) {
	e, s := setupIndexed(t, 500)
	h1, m1, _ := e.BufferPool().Stats()
	mustExec(t, s, "SELECT id FROM orders WHERE total = 321")
	h2, m2, _ := e.BufferPool().Stats()
	if h2+m2 == h1+m1 {
		t.Error("index scan produced no buffer pool traffic")
	}
}

// TestEncodeOrderedMatchesSprintf pins the hand-rolled int encoding in
// encodeOrdered to the fmt.Sprintf("i%016x", ...) form it replaced:
// byte-identical output, and bytewise order equal to value order.
func TestEncodeOrderedMatchesSprintf(t *testing.T) {
	vals := []int64{
		math.MinInt64, math.MinInt64 + 1, -1 << 62, -65536, -256, -2, -1,
		0, 1, 2, 255, 65535, 1 << 62, math.MaxInt64 - 1, math.MaxInt64,
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 1000; i++ {
		vals = append(vals, int64(rng.Uint64()))
	}
	for _, v := range vals {
		got := encodeOrdered(sqlparse.IntValue(v))
		want := fmt.Sprintf("i%016x", uint64(v)+(1<<63))
		if got != want {
			t.Fatalf("encodeOrdered(%d) = %q, want %q", v, got, want)
		}
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 1; i < len(sorted); i++ {
		a := encodeOrdered(sqlparse.IntValue(sorted[i-1]))
		b := encodeOrdered(sqlparse.IntValue(sorted[i]))
		if a > b {
			t.Fatalf("order violated: enc(%d)=%q > enc(%d)=%q",
				sorted[i-1], a, sorted[i], b)
		}
	}
	if got := encodeOrdered(sqlparse.StrValue("abc")); got != "sabc" {
		t.Fatalf("string encoding = %q, want %q", got, "sabc")
	}
}

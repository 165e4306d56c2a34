package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"snapdb/internal/btree"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// The leaf fold (exec.Aggregate.FoldAtLeaf) held to the row path it
// stands in for. A COUNT or SUM that folds at the clustered leaf must
// answer what the SQL model answers, and must be indistinguishable,
// on every surface the paper's attacker reads, from its row-path
// twin: the projection of the same column over the same WHERE, which
// decodes and hands up every row. Same pages in the same order, the
// same examined count, the same stage triples below the top operator,
// the same deadline checks and the same errors.

// foldFixture is a (id INT PRIMARY KEY, k INT, v TEXT) table of n rows
// inserted in shuffled order in 50-row INSERTs, with k in [0, 10) and
// text of varying length, so leaves split unevenly and slots lie out of
// key order.
func foldFixture(rng *rand.Rand, n int) []string {
	stmts := []string{"CREATE TABLE t (id INT PRIMARY KEY, k INT, v TEXT)"}
	ids := rng.Perm(n)
	for lo := 0; lo < n; lo += 50 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t (id, k, v) VALUES ")
		for i, id := range ids[lo:min(lo+50, n)] {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, 'v%05d-%s')", id, rng.Intn(10), id, strings.Repeat("x", rng.Intn(80)))
		}
		stmts = append(stmts, sb.String())
	}
	return stmts
}

// foldedBy instantiates q's plan on s as runScan does, drains it, and
// reports whether its Aggregate folded at the leaf.
func foldedBy(t *testing.T, e *Engine, s *Session, q string) bool {
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
	pi.drain()
	return pi.agg.Folded()
}

// foldPair is an aggregate and its row-path twin: the same WHERE,
// projecting the column the aggregate folds (id for a COUNT).
type foldPair struct {
	agg, twin string
	sum       bool
}

func foldPairs(rng *rand.Rand) []foldPair {
	lo := rng.Intn(1800) - 150
	hi := lo + rng.Intn(900)
	k := rng.Intn(12) - 1
	where := func(w string, args ...any) string { return fmt.Sprintf(w, args...) }
	mk := func(sum bool, agg, col, w string) foldPair {
		if w != "" {
			w = " WHERE " + w
		}
		return foldPair{"SELECT " + agg + " FROM t" + w, "SELECT " + col + " FROM t" + w, sum}
	}
	return []foldPair{
		mk(false, "COUNT(*)", "id", where("k = %d AND id >= %d", k, lo)), // scan_analytic's
		mk(false, "COUNT(*)", "id", ""),
		mk(false, "COUNT(*)", "id", where("id >= %d AND id <= %d", lo, hi)), // bounds only: nothing pushed down
		mk(false, "COUNT(k)", "id", where("id > %d AND id < %d AND v >= 'v0%d'", lo, hi, k)),
		mk(true, "SUM(k)", "k", where("id >= %d AND id <= %d AND k != %d", lo, hi, k)),
		mk(true, "SUM(id)", "id", where("k >= %d", k)),
		mk(true, "SUM(id)", "id", where("id = %d", lo+hi/2)),
	}
}

// TestLeafFoldMatchesRowPath: over random bounds and k values, every
// folded aggregate answers what the SQL model answers, fetches the
// pages the trace rule names, and matches its row-path twin: the same
// fetch trace, the same examined count, the same stage rows below the
// top operator (whose examined count and fetches equal the twin
// Project's), and a value that is the twin's row count or column sum.
func TestLeafFoldMatchesRowPath(t *testing.T) {
	cfg := Defaults()
	cfg.EnableQueryCache = false // every statement really scans
	cfg.BufferPoolPages = 16     // small enough that fetches miss and evict
	e, _ := newEngine(t, cfg)
	m := newSQLModel(cfg)
	s := e.Connect("app")
	defer s.Close()
	rng := rand.New(rand.NewSource(44))
	for _, q := range foldFixture(rng, 1500) {
		m.step(t, e, 0, s, q)
	}
	for round := 0; round < 12; round++ {
		for _, p := range foldPairs(rng) {
			if !foldedBy(t, e, s, p.agg) {
				t.Fatalf("%s: did not fold at the leaf", p.agg)
			}
			agg := surfacesOf(t, e, m, 0, s, p.agg, btree.RecycleNormal)
			twin := surfacesOf(t, e, m, 0, s, p.twin, btree.RecycleNormal)
			checkFoldTwin(t, e, s, p, agg, twin)
		}
	}
}

// checkFoldTwin holds an aggregate's surfaces to its twin's.
func checkFoldTwin(t *testing.T, e *Engine, s *Session, p foldPair, agg, twin stmtSurfaces) {
	t.Helper()
	if !slicesEqual(agg.trace, twin.trace) {
		t.Fatalf("%s fetched %v; its twin %v", p.agg, agg.trace, twin.trace)
	}
	if len(agg.stages) != len(twin.stages) {
		t.Fatalf("%s: stages %s; twin %s", p.agg, triples(agg.stages), triples(twin.stages))
	}
	for i := range agg.stages {
		a, w := agg.stages[i], twin.stages[i]
		if i == 0 {
			// Aggregate(C, 1) against Project(C, C).
			a.Operator, a.RowsReturned = w.Operator, w.RowsReturned
		}
		if a != w {
			t.Fatalf("%s: stage %d is %+v; twin's %+v", p.agg, i, agg.stages[i], w)
		}
	}
	ar, err := s.Execute(p.agg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Execute(p.twin)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(tr.Rows))
	if p.sum {
		want = 0
		for _, r := range tr.Rows {
			want += r[0].Int
		}
	}
	if got := ar.Rows[0][0]; ar.RowsExamined != tr.RowsExamined || got.Int != want {
		t.Fatalf("%s = %v examining %d; twin says %d examining %d", p.agg, got, ar.RowsExamined, want, tr.RowsExamined)
	}
}

func slicesEqual(a, b []storage.PageID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cleanRange reports whether q reads a primary-key range — a point or
// both bounds on id, as the model's first-match rule finds them — that
// holds none of keys: the range in which a statement resolves version
// chains.
func cleanRange(t *testing.T, q string, keys []int64) bool {
	t.Helper()
	st, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := bounds("id", st.(*sqlparse.Select).Where)
	if !ok {
		return false
	}
	for _, k := range keys {
		if v := sqlparse.IntValue(k); v.Compare(lo) >= 0 && v.Compare(hi) <= 0 {
			return false
		}
	}
	return true
}

// edgePairs are aggregates whose primary-key range ends just short of
// or just on each run [a, b] of chained keys: a range up to a-1 and
// one up to a, one from b+1 and one from b, and the points a-1 and b.
// The far bound is random but stays clear of the neighbouring runs.
func edgePairs(rng *rand.Rand, runs [][2]int) []foldPair {
	var out []foldPair
	for i, r := range runs {
		a, b := r[0], r[1]
		below, above := -1000, 100000
		if i > 0 {
			below = runs[i-1][1] + 1
		}
		if i < len(runs)-1 {
			above = runs[i+1][0] - 1
		}
		lo := below + rng.Intn(a-below)
		hi := b + 1 + rng.Intn(above-b)
		for _, q := range []string{
			fmt.Sprintf("SELECT COUNT(*) FROM t WHERE id >= %d AND id <= %d", lo, a-1),
			fmt.Sprintf("SELECT COUNT(*) FROM t WHERE id >= %d AND id <= %d", lo, a),
			fmt.Sprintf("SELECT SUM(k) FROM t WHERE id >= %d AND id <= %d AND k != 2", b+1, hi),
			fmt.Sprintf("SELECT SUM(k) FROM t WHERE id >= %d AND id <= %d AND k != 2", b, hi),
			fmt.Sprintf("SELECT SUM(id) FROM t WHERE id = %d", a-1),
			fmt.Sprintf("SELECT SUM(id) FROM t WHERE id = %d", b),
		} {
			out = append(out, foldPair{agg: q})
		}
	}
	return out
}

// TestLeafFoldYieldsToViews: while another session's open transaction
// has live version chains on the table, a reader's aggregate folds
// exactly when no chain it cannot see lies in the statement's
// primary-key range; where one does, its tree rows are not the rows it
// sees there, so it runs the row path. Either way it answers what the
// model answers. Every round reads both ways around each of the
// writer's runs of keys (10–12, 300–320, 5000). Once the writer
// commits, every aggregate folds again.
func TestLeafFoldYieldsToViews(t *testing.T) {
	cfg := Defaults()
	cfg.EnableQueryCache = false
	e, _ := newEngine(t, cfg)
	m := newSQLModel(cfg)
	s, writer := e.Connect("app"), e.Connect("writer")
	defer s.Close()
	defer writer.Close()
	rng := rand.New(rand.NewSource(45))
	for _, q := range foldFixture(rng, 600) {
		m.step(t, e, 0, s, q)
	}
	for _, q := range []string{
		"BEGIN",
		"UPDATE t SET k = 3 WHERE id = 10",
		"UPDATE t SET k = 4 WHERE id = 11",
		"DELETE FROM t WHERE id = 12",
		"DELETE FROM t WHERE id >= 300 AND id <= 320",
		"INSERT INTO t (id, k, v) VALUES (5000, 3, 'late')",
	} {
		m.step(t, e, 1, writer, q)
	}
	runs := [][2]int{{10, 12}, {300, 320}, {5000, 5000}}
	var chained []int64
	for _, r := range runs {
		for k := r[0]; k <= r[1]; k++ {
			chained = append(chained, int64(k))
		}
	}
	reads := func(committed bool) {
		for round := 0; round < 4; round++ {
			arms := make(map[bool]int)
			for _, p := range append(foldPairs(rng), edgePairs(rng, runs)...) {
				want := committed || cleanRange(t, p.agg, chained)
				if got := foldedBy(t, e, s, p.agg); got != want {
					t.Fatalf("%s: folded %v, want %v", p.agg, got, want)
				}
				arms[want]++
				m.step(t, e, 0, s, p.agg)
			}
			if !committed && (arms[true] == 0 || arms[false] == 0) {
				t.Fatalf("round %d: %d folded and %d not: want both", round, arms[true], arms[false])
			}
		}
	}
	reads(false)
	m.step(t, e, 1, writer, "COMMIT")
	reads(true)
}

// TestLeafFoldDeadline: a folded COUNT reads the statement clock
// exactly as often as its row-path twin — at the leaf's Open and at
// every 64th examined row — and a clock that trips at any of those
// readings fails both with ErrStatementTimeout.
func TestLeafFoldDeadline(t *testing.T) {
	cfg := Defaults()
	cfg.StatementTimeout = 50 * time.Millisecond
	cfg.EnableQueryCache = false
	e, _ := newEngine(t, cfg)
	readings, tripAt := 0, 0
	e.ExecClock = func() time.Time {
		readings++
		if tripAt > 0 && readings >= tripAt {
			return time.Unix(3600, 0)
		}
		return time.Unix(0, 0)
	}
	s := e.Connect("app")
	defer s.Close()
	for _, q := range foldFixture(rand.New(rand.NewSource(46)), 700) {
		mustExec(t, s, q)
	}
	for _, p := range []foldPair{
		{"SELECT COUNT(*) FROM t WHERE k = 3 AND id >= 100", "SELECT id FROM t WHERE k = 3 AND id >= 100", false},
		{"SELECT COUNT(*) FROM t", "SELECT id FROM t", false},
		{"SELECT SUM(k) FROM t WHERE id >= 5 AND id <= 650", "SELECT k FROM t WHERE id >= 5 AND id <= 650", true},
	} {
		if !foldedBy(t, e, s, p.agg) {
			t.Fatalf("%s: did not fold at the leaf", p.agg)
		}
		count := func(q string) int {
			readings, tripAt = 0, 0
			mustExec(t, s, q)
			return readings
		}
		n := count(p.agg)
		if w := count(p.twin); n != w || n < 8 {
			t.Fatalf("%s reads the clock %d times; its twin %d (want the same, and a reading per 64 rows)", p.agg, n, w)
		}
		// Reading 1 is the statement start and the last its end: every
		// one between is a deadline check of the leaf.
		for trip := 2; trip < n; trip++ {
			for _, q := range []string{p.agg, p.twin} {
				readings, tripAt = 0, trip
				if _, err := s.Execute(q); !errors.Is(err, ErrStatementTimeout) {
					t.Fatalf("%s with the clock tripping at reading %d of %d: err = %v, want ErrStatementTimeout", q, trip, n, err)
				}
			}
		}
		tripAt = 0
	}
}

// TestLeafFoldCorruptSlot: a record with a forged field tag fails a
// folded aggregate with the *storage.SlotError its row-path twin fails
// with — same page, same slot, same text — whether or not the corrupt
// record would have passed the predicates.
func TestLeafFoldCorruptSlot(t *testing.T) {
	cfg := Defaults()
	cfg.EnableQueryCache = false
	e, _ := newEngine(t, cfg)
	s := e.Connect("app")
	defer s.Close()
	for _, q := range foldFixture(rand.New(rand.NewSource(47)), 300) {
		mustExec(t, s, q)
	}
	// The third field's tag of the record in the middle of t's first
	// leaf of several records, in key order: the key and k stay
	// readable, and records before it in the leaf are judged first.
	corrupted := false
	for id := storage.PageID(0); int(id) < e.ts.NumPages() && !corrupted; id++ {
		p, err := e.ts.Get(id)
		if err != nil || p.Type() != storage.PageBTreeLeaf {
			continue
		}
		if ix, err := p.Keys(); err == nil && len(ix) >= 8 {
			p.SlotBytes(int(ix[len(ix)/2]))[2+9+9] = 0x7f
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no leaf to corrupt")
	}
	for _, p := range []foldPair{
		{"SELECT COUNT(*) FROM t", "SELECT id FROM t", false},
		{"SELECT COUNT(*) FROM t WHERE k = 3 AND id >= 0", "SELECT id FROM t WHERE k = 3 AND id >= 0", false},
		{"SELECT COUNT(*) FROM t WHERE k != 3 AND id >= 0", "SELECT id FROM t WHERE k != 3 AND id >= 0", false},
		{"SELECT SUM(k) FROM t WHERE id >= 0 AND id <= 299", "SELECT k FROM t WHERE id >= 0 AND id <= 299", true},
	} {
		if !foldedBy(t, e, s, p.agg) {
			t.Fatalf("%s: did not fold at the leaf", p.agg)
		}
		_, aerr := s.Execute(p.agg)
		_, terr := s.Execute(p.twin)
		var ase, tse *storage.SlotError
		if !errors.As(aerr, &ase) || !errors.As(terr, &tse) {
			t.Fatalf("%s: err %v; twin %v; want *storage.SlotError from both", p.agg, aerr, terr)
		}
		if ase.Page != tse.Page || ase.Slot != tse.Slot || aerr.Error() != terr.Error() {
			t.Fatalf("%s: %v; twin %v", p.agg, aerr, terr)
		}
	}
}

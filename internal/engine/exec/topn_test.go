package exec

import (
	"fmt"
	"sort"
	"testing"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// refTopN is the specification TopN must match: a stable sort on the
// column followed by truncation to n rows.
func refTopN(rows []storage.Record, col int, desc bool, n int) []storage.Record {
	out := make([]storage.Record, len(rows))
	copy(out, rows)
	sort.SliceStable(out, func(a, b int) bool {
		c := out[a][col].Compare(out[b][col])
		if desc {
			return c > 0
		}
		return c < 0
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// keyedRows builds two-column records (key, unique marker) so tests can
// detect any deviation from stable ordering among duplicate keys.
func keyedRows(keys ...int64) []storage.Record {
	out := make([]storage.Record, len(keys))
	for i, k := range keys {
		out[i] = storage.Record{sqlparse.IntValue(k), sqlparse.IntValue(int64(i))}
	}
	return out
}

func recordsEqual(a, b []storage.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TopN must be indistinguishable from stable-sort-then-truncate for
// every n, in both directions, including duplicate sort keys.
func TestTopNMatchesStableSortTruncate(t *testing.T) {
	rows := keyedRows(5, 2, 9, 2, 7, 5, 1, 9, 2, 4)
	for _, desc := range []bool{false, true} {
		for n := 0; n <= len(rows)+2; n++ {
			src := &rowSource{rows: rows}
			op := new(TopN)
			op.Init(src, 0, desc, n, fmt.Sprintf("Top-N sort: k (limit %d)", n))
			got := drainAll(t, op)
			want := refTopN(rows, 0, desc, n)
			if !recordsEqual(got, want) {
				t.Errorf("desc=%v n=%d: got %v, want %v", desc, n, got, want)
			}
			if !src.closed {
				t.Errorf("desc=%v n=%d: input not closed", desc, n)
			}
		}
	}
}

// TopN may sit over a leaf that lends its rows: what it keeps it must
// have copied, also when an admission evicts a kept row.
func TestTopNOverLentRows(t *testing.T) {
	rows := keyedRows(5, 2, 9, 2, 7, 5, 1, 9, 2, 4, 0, 8, 3, 3, 6)
	for _, desc := range []bool{false, true} {
		for n := 0; n <= len(rows)+1; n++ {
			op := new(TopN)
			op.Init(&rowSource{rows: rows, lend: true}, 0, desc, n, "Top-N sort: k")
			if got, want := drainAll(t, op), refTopN(rows, 0, desc, n); !recordsEqual(got, want) {
				t.Errorf("desc=%v n=%d: got %v, want %v", desc, n, got, want)
			}
		}
	}
}

// Even with n = 0, TopN must drain its input to exhaustion: the scan
// leaves below have already fetched their pages, and the examined-rows
// accounting must not depend on the limit.
func TestTopNZeroDrainsInput(t *testing.T) {
	src := &rowSource{rows: intRows(3, 1, 2)}
	op := new(TopN)
	op.Init(src, 0, false, 0, "Top-N sort: k (limit 0)")
	out := drainAll(t, op)
	if len(out) != 0 {
		t.Fatalf("emitted %d rows, want 0", len(out))
	}
	if src.pos != 3 {
		t.Errorf("pulled %d input rows, want all 3", src.pos)
	}
	st := op.Stats()
	if st.RowsExamined != 3 || st.RowsReturned != 0 {
		t.Errorf("stats = %+v, want 3 examined / 0 returned", st)
	}
}

func TestTopNStats(t *testing.T) {
	op := new(TopN)
	op.Init(&rowSource{rows: intRows(4, 1, 3, 2, 5)}, 0, false, 2, "Top-N sort: k (limit 2)")
	out := drainAll(t, op)
	if len(out) != 2 || out[0][0].Int != 1 || out[1][0].Int != 2 {
		t.Fatalf("top-2 = %v, want [1 2]", out)
	}
	st := op.Stats()
	if st.RowsExamined != 5 || st.RowsReturned != 2 {
		t.Errorf("stats = %+v, want 5 examined / 2 returned", st)
	}
}

// benchRows builds count single-column records whose keys are a
// deterministic pseudo-shuffle (LCG) of 0..count-1.
func benchRows(count int) []storage.Record {
	out := make([]storage.Record, count)
	state := int64(42)
	for i := range out {
		state = (state*1103515245 + 12345) % (1 << 31)
		out[i] = storage.Record{sqlparse.IntValue(state % int64(count))}
	}
	return out
}

// BenchmarkTopN pits the bounded-heap TopN against the Sort+Limit stack
// it replaces on the workload the planner folds: 10k rows, LIMIT 10.
// TopN does O(rows · log n) comparisons and retains O(n) rows; the Sort
// stack does O(rows · log rows) and retains everything.
func BenchmarkTopN(b *testing.B) {
	rows := benchRows(10000)
	const n = 10
	b.Run("TopN", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			op := new(TopN)
			op.Init(&rowSource{rows: rows}, 0, false, n, "Top-N")
			if err := op.Open(); err != nil {
				b.Fatal(err)
			}
			for {
				_, ok, err := op.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
			}
			op.Close()
		}
	})
	b.Run("SortLimit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			srt, op := new(Sort), new(Limit)
			srt.Init(&rowSource{rows: rows}, 0, false, "Sort")
			op.Init(srt, n, "Limit")
			if err := op.Open(); err != nil {
				b.Fatal(err)
			}
			for {
				_, ok, err := op.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
			}
			op.Close()
		}
	})
}

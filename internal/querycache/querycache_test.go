package querycache

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

func result(vals ...int64) []storage.Record {
	out := make([]storage.Record, len(vals))
	for i, v := range vals {
		out[i] = storage.Record{sqlparse.IntValue(v)}
	}
	return out
}

func TestPutGet(t *testing.T) {
	c := New(8)
	c.Put("SELECT * FROM t WHERE a = 1", "t", result(1, 2))
	got, ok := c.Get("SELECT * FROM t WHERE a = 1")
	if !ok || len(got) != 2 {
		t.Fatalf("Get: ok=%v len=%d", ok, len(got))
	}
	if _, ok := c.Get("SELECT * FROM t WHERE a = 2"); ok {
		t.Error("different literal hit the cache (cache must be exact-text keyed)")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestInvalidateTable(t *testing.T) {
	c := New(8)
	c.Put("SELECT * FROM a", "a", result(1))
	c.Put("SELECT * FROM b", "b", result(2))
	c.InvalidateTable("a")
	if _, ok := c.Get("SELECT * FROM a"); ok {
		t.Error("invalidated entry still cached")
	}
	if _, ok := c.Get("SELECT * FROM b"); !ok {
		t.Error("unrelated entry invalidated")
	}
	if _, _, inv := c.Stats(); inv != 1 {
		t.Errorf("invalidations = %d", inv)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("q1", "t", result(1))
	c.Put("q2", "t", result(2))
	if _, ok := c.Get("q1"); !ok {
		t.Fatal("q1 missing")
	}
	c.Put("q3", "t", result(3)) // evicts q2 (least recently used)
	if _, ok := c.Get("q2"); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := c.Get("q1"); !ok {
		t.Error("recently used entry evicted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestDisabled(t *testing.T) {
	c := New(8)
	c.Enabled = false
	c.Put("q", "t", result(1))
	if _, ok := c.Get("q"); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Error("disabled cache stored an entry")
	}
}

func TestPutOverwrites(t *testing.T) {
	c := New(8)
	c.Put("q", "t", result(1))
	c.Put("q", "t", result(1, 2, 3))
	got, ok := c.Get("q")
	if !ok || len(got) != 3 {
		t.Errorf("overwrite: ok=%v len=%d", ok, len(got))
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after overwrite", c.Len())
	}
}

func TestEntriesExposeQueryText(t *testing.T) {
	c := New(8)
	secret := "SELECT * FROM patients WHERE diagnosis = 'hiv'"
	c.Put(secret, "patients", result(12))
	entries := c.Entries()
	if len(entries) != 1 || entries[0].Query != secret {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Result[0][0].Int != 12 {
		t.Error("result rows not exposed")
	}
}

func TestEntriesOrderMostRecentFirst(t *testing.T) {
	c := New(8)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("q%d", i), "t", result(int64(i)))
	}
	_, _ = c.Get("q0")
	entries := c.Entries()
	if entries[0].Query != "q0" {
		t.Errorf("most recent = %q", entries[0].Query)
	}
}

func TestZeroCapacityUsesDefault(t *testing.T) {
	c := New(0)
	for i := 0; i < DefaultCapacity+10; i++ {
		c.Put(fmt.Sprintf("q%d", i), "t", nil)
	}
	if c.Len() != DefaultCapacity {
		t.Errorf("Len = %d, want %d", c.Len(), DefaultCapacity)
	}
}

// randomResult is a result set for the round trip: 0, 1 or 500 rows
// of one to four fields each, every field an int (MinInt64 and 0
// among them), a text (empty among them) or the zero Value.
type randomResult []storage.Record

func (randomResult) Generate(r *rand.Rand, _ int) reflect.Value {
	out := make(randomResult, []int{0, 1, 500}[r.Intn(3)])
	for i := range out {
		rec := make(storage.Record, 1+r.Intn(4))
		for j := range rec {
			switch r.Intn(6) {
			case 0:
				rec[j] = sqlparse.IntValue(math.MinInt64)
			case 1:
				rec[j] = sqlparse.IntValue(0)
			case 2:
				rec[j] = sqlparse.IntValue(r.Int63() - r.Int63())
			case 3:
				rec[j] = sqlparse.StrValue("")
			case 4:
				rec[j] = sqlparse.Value{}
			default:
				b := make([]byte, r.Intn(40))
				r.Read(b)
				rec[j] = sqlparse.StrValue(string(b))
			}
		}
		out[i] = rec
	}
	return reflect.ValueOf(out)
}

// sameRows reports whether got holds exactly want's values, row by row
// and field by field.
func sameRows(got, want []storage.Record) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}

// TestRoundTrip holds Get and Entries to what was Put, value for value.
// A zero-row result comes back nil, as the executor hands it over, so a
// cached empty result renders the reply an uncached one does.
func TestRoundTrip(t *testing.T) {
	c := New(8)
	roundTrip := func(res randomResult) bool {
		c.Put("q", "t", res)
		got, ok := c.Get("q")
		if !ok || !sameRows(got, res) || (len(res) == 0) != (got == nil) {
			return false
		}
		entries := c.Entries()
		return len(entries) == 1 && sameRows(entries[0].Result, res)
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestResultsAreCopies edits what Put was given and what Get returned;
// neither edit reaches the next Get.
func TestResultsAreCopies(t *testing.T) {
	c := New(8)
	res := []storage.Record{{sqlparse.IntValue(1), sqlparse.StrValue("alice")}}
	c.Put("q", "t", res)
	res[0][1] = sqlparse.StrValue("put-side edit")
	got, _ := c.Get("q")
	got[0][1] = sqlparse.StrValue("get-side edit")
	if again, _ := c.Get("q"); again[0][1] != sqlparse.StrValue("alice") {
		t.Errorf("cached value = %v, want alice", again[0][1])
	}
}

// TestGetAllocations: a hit allocates the row slice, one value slab and
// one text slab, however many rows it decodes.
func TestGetAllocations(t *testing.T) {
	for _, n := range []int{1, 500} {
		res := make([]storage.Record, n)
		for i := range res {
			res[i] = storage.Record{sqlparse.IntValue(int64(i)), sqlparse.StrValue("value")}
		}
		c := New(8)
		c.Put("q", "t", res)
		if allocs := testing.AllocsPerRun(20, func() { c.Get("q") }); allocs > 3 {
			t.Errorf("Get of %d rows: %.0f allocations, want at most 3", n, allocs)
		}
	}
}

// TestCachedRowsPinNoBacking fills the cache with results whose strings
// are short substrings of 64 KiB strings, as a leaf's text slab backs
// the rows a scan decodes. Holding those rows would keep all 64 MiB of
// backing alive; the encoded entries hold only their own bytes.
func TestCachedRowsPinNoBacking(t *testing.T) {
	const results, rowsEach, backing = 1024, 10, 64 << 10
	c := New(results)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < results; i++ {
		slab := strings.Repeat(string(rune('a'+i%26)), backing)
		res := make([]storage.Record, rowsEach)
		for j := range res {
			res[j] = storage.Record{sqlparse.IntValue(int64(j)), sqlparse.StrValue(slab[j*8 : j*8+8])}
		}
		c.Put(fmt.Sprintf("q%d", i), "t", res)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if c.Len() != results {
		t.Fatalf("Len = %d, want %d", c.Len(), results)
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 4<<20 {
		t.Errorf("live heap grew %.1f MiB holding %d ten-row results; cached rows pin their backing",
			float64(grew)/(1<<20), results)
	}
	runtime.KeepAlive(c)
}

// TestConcurrentUse runs Get, Put, InvalidateTable and Entries from
// several goroutines on a cache small enough to evict. Each query has
// one result, so every hit and every entry must decode to exactly it.
// ci.sh repeats it under -race.
func TestConcurrentUse(t *testing.T) {
	c := New(16)
	want := func(q int) []storage.Record {
		return []storage.Record{
			{sqlparse.IntValue(int64(q)), sqlparse.StrValue(strings.Repeat("x", q))},
			{sqlparse.IntValue(-int64(q)), sqlparse.StrValue("")},
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				q := r.Intn(32)
				query, table := fmt.Sprintf("q%d", q), fmt.Sprintf("t%d", q%4)
				switch r.Intn(8) {
				case 0:
					c.InvalidateTable(table)
				case 1:
					for _, e := range c.Entries() {
						var n int
						if _, err := fmt.Sscanf(e.Query, "q%d", &n); err != nil || !sameRows(e.Result, want(n)) {
							t.Errorf("entry %q holds %v", e.Query, e.Result)
							return
						}
					}
				case 2, 3:
					c.Put(query, table, want(q))
				default:
					if got, ok := c.Get(query); ok && !sameRows(got, want(q)) {
						t.Errorf("Get(%q) = %v", query, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, misses, _ := c.Stats(); hits+misses == 0 {
		t.Error("no Get was counted")
	}
}

// TestInvalidateLeavesOtherTables: dropping table A's entries leaves
// every entry of B where it was in the LRU order, and a table with no
// entries drops nothing.
func TestInvalidateLeavesOtherTables(t *testing.T) {
	c := New(16)
	for i := 0; i < 8; i++ {
		table := []string{"a", "b"}[i%2]
		c.Put(fmt.Sprintf("q%d", i), table, result(int64(i)))
	}
	c.Get("q2") // an a entry moves to the front
	c.Get("q1") // and a b entry ahead of it
	queries := func() (all, bOnly []string) {
		for _, e := range c.Entries() {
			all = append(all, e.Query)
			if e.Table == "b" {
				bOnly = append(bOnly, e.Query)
			}
		}
		return all, bOnly
	}
	_, before := queries()
	c.InvalidateTable("a")
	after, _ := queries()
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("after invalidating a: %v, want b's entries in their order %v", after, before)
	}
	c.InvalidateTable("none")
	if again, _ := queries(); !reflect.DeepEqual(again, before) {
		t.Fatalf("invalidating a table with no entries left %v, want %v", again, before)
	}
	if _, _, inv := c.Stats(); inv != 4 {
		t.Fatalf("invalidations = %d, want 4", inv)
	}
}

// TestMatchesWalkingLRU holds the cache to the list it was before the
// per-table index: a most-recent-first slice that Put, Get and
// InvalidateTable walk in full. Random operations over few queries and
// tables — re-Puts that move a query to another table, evictions from a
// small capacity — leave the same entries in the same order with the
// same hit, miss and invalidation counts.
func TestMatchesWalkingLRU(t *testing.T) {
	type ref struct{ query, table string }
	const capacity = 6
	rng := rand.New(rand.NewSource(43))
	c := New(capacity)
	var want []ref
	var hits, misses, invalidations uint64
	find := func(q string) int {
		for i, r := range want {
			if r.query == q {
				return i
			}
		}
		return -1
	}
	for step := 0; step < 5000; step++ {
		q, table := fmt.Sprintf("q%d", rng.Intn(10)), fmt.Sprintf("t%d", rng.Intn(3))
		switch rng.Intn(4) {
		case 0:
			c.InvalidateTable(table)
			kept := want[:0]
			for _, r := range want {
				if r.table == table {
					invalidations++
				} else {
					kept = append(kept, r)
				}
			}
			want = kept
		case 1:
			_, ok := c.Get(q)
			if i := find(q); i >= 0 {
				hits++
				r := want[i]
				want = append([]ref{r}, append(want[:i:i], want[i+1:]...)...)
			} else {
				misses++
			}
			if ok != (find(q) >= 0) {
				t.Fatalf("step %d: Get(%s) ok = %v", step, q, ok)
			}
		default:
			c.Put(q, table, result(int64(step)))
			if i := find(q); i >= 0 {
				want = append(want[:i:i], want[i+1:]...)
			}
			want = append([]ref{{q, table}}, want...)
			if len(want) > capacity {
				want = want[:capacity]
			}
		}
		var got []ref
		for _, e := range c.Entries() {
			got = append(got, ref{e.Query, e.Table})
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) || c.Len() != len(want) {
			t.Fatalf("step %d: entries %v, want %v", step, got, want)
		}
		if h, m, inv := c.Stats(); h != hits || m != misses || inv != invalidations {
			t.Fatalf("step %d: stats %d/%d/%d, want %d/%d/%d", step, h, m, inv, hits, misses, invalidations)
		}
	}
}

// BenchmarkQueryCache prices a Put (a miss filling its entry) and a Get
// (a hit decoding it) for oltp_point's point read — one 48-byte text —
// and for scan_analytic's range read — 500 rows of (id, 48-byte text);
// and an InvalidateTable that finds nothing to drop in a full cache.
func BenchmarkQueryCache(b *testing.B) {
	v := strings.Repeat("v", 48)
	for _, n := range []int{1, 500} {
		res := make([]storage.Record, n)
		for i := range res {
			res[i] = storage.Record{sqlparse.IntValue(int64(i)), sqlparse.StrValue(v)}
		}
		if n == 1 {
			res[0] = storage.Record{sqlparse.StrValue(v)}
		}
		b.Run(fmt.Sprintf("Put/rows=%d", n), func(b *testing.B) {
			c := New(64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Put("q", "t", res)
			}
		})
		b.Run(fmt.Sprintf("Get/rows=%d", n), func(b *testing.B) {
			c := New(64)
			c.Put("q", "t", res)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := c.Get("q"); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
	// Every write statement invalidates its table: on a full cache
	// whose entries all read other tables, that should drop nothing and
	// cost nothing like a walk of the cache.
	b.Run("InvalidateTable/miss", func(b *testing.B) {
		c := New(DefaultCapacity)
		for i := 0; i < DefaultCapacity; i++ {
			c.Put(fmt.Sprintf("q%d", i), fmt.Sprintf("t%d", i%4), nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.InvalidateTable("written")
		}
		if c.Len() != DefaultCapacity {
			b.Fatalf("%d entries left", c.Len())
		}
	})
}

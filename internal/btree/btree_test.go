package btree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"snapdb/internal/bufpool"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

func newTree(t testing.TB) (*Tree, *bufpool.Pool, *storage.Tablespace) {
	t.Helper()
	ts := storage.NewTablespace()
	pool, err := bufpool.New(ts, 64)
	if err != nil {
		t.Fatal(err)
	}
	return New(ts, pool), pool, ts
}

func intRec(k int64, payload string) storage.Record {
	return storage.Record{sqlparse.IntValue(k), sqlparse.StrValue(payload)}
}

func TestInsertSearch(t *testing.T) {
	tr, _, _ := newTree(t)
	if err := tr.Insert(intRec(5, "five")); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := tr.Search(sqlparse.IntValue(5))
	if err != nil || !ok {
		t.Fatalf("Search: ok=%v err=%v", ok, err)
	}
	if rec[1].Str != "five" {
		t.Errorf("payload = %q", rec[1].Str)
	}
	if _, ok, _ := tr.Search(sqlparse.IntValue(6)); ok {
		t.Error("found missing key")
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	tr, _, _ := newTree(t)
	if err := tr.Insert(intRec(1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(intRec(1, "b")); err == nil {
		t.Error("duplicate key accepted")
	}
}

func TestInsertEmptyRecordRejected(t *testing.T) {
	tr, _, _ := newTree(t)
	if err := tr.Insert(storage.Record{}); err == nil {
		t.Error("empty record accepted")
	}
}

func TestManyInsertsSplitAndStaySorted(t *testing.T) {
	tr, _, _ := newTree(t)
	const n = 2000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		if err := tr.Insert(intRec(int64(k), fmt.Sprintf("payload-%d", k))); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Errorf("height = %d; expected the tree to have split", h)
	}
	var keys []int64
	if err := tr.Scan(func(r storage.Record) bool {
		keys = append(keys, r[0].Int)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("scan returned %d records, want %d", len(keys), n)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Error("scan not in key order")
	}
	// Every key is findable after splits.
	for _, k := range []int64{0, 1, n / 2, n - 1} {
		if _, ok, err := tr.Search(sqlparse.IntValue(k)); err != nil || !ok {
			t.Errorf("Search(%d) after splits: ok=%v err=%v", k, ok, err)
		}
	}
}

func TestStringKeys(t *testing.T) {
	tr, _, _ := newTree(t)
	words := []string{"mango", "apple", "cherry", "banana", "elderberry", "date"}
	for _, w := range words {
		if err := tr.Insert(storage.Record{sqlparse.StrValue(w), sqlparse.IntValue(int64(len(w)))}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := tr.Scan(func(r storage.Record) bool { got = append(got, r[0].Str); return true }); err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), words...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order %v, want %v", got, want)
		}
	}
}

func TestDelete(t *testing.T) {
	tr, _, _ := newTree(t)
	for k := int64(0); k < 100; k++ {
		if err := tr.Insert(intRec(k, "x")); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := tr.Delete(sqlparse.IntValue(50))
	if err != nil || !ok {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	if _, found, _ := tr.Search(sqlparse.IntValue(50)); found {
		t.Error("deleted key still found")
	}
	if ok, _ := tr.Delete(sqlparse.IntValue(50)); ok {
		t.Error("double delete reported success")
	}
	n, err := tr.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 99 {
		t.Errorf("Len = %d, want 99", n)
	}
}

func TestUpdate(t *testing.T) {
	tr, _, _ := newTree(t)
	if err := tr.Insert(intRec(7, "before")); err != nil {
		t.Fatal(err)
	}
	ok, err := tr.Update(sqlparse.IntValue(7), intRec(7, "after"))
	if err != nil || !ok {
		t.Fatalf("Update: ok=%v err=%v", ok, err)
	}
	rec, _, _ := tr.Search(sqlparse.IntValue(7))
	if rec[1].Str != "after" {
		t.Errorf("payload = %q", rec[1].Str)
	}
	if ok, _ := tr.Update(sqlparse.IntValue(8), intRec(8, "x")); ok {
		t.Error("update of missing key reported success")
	}
	if _, err := tr.Update(sqlparse.IntValue(7), intRec(9, "bad")); err == nil {
		t.Error("key-mismatched update accepted")
	}
}

func TestUpdateGrowingRecordAcrossPages(t *testing.T) {
	tr, _, _ := newTree(t)
	// Fill a leaf nearly full, then grow one record beyond page space so
	// Update must take the delete+reinsert path.
	big := make([]byte, 300)
	for i := range big {
		big[i] = 'x'
	}
	for k := int64(0); k < 12; k++ {
		if err := tr.Insert(intRec(k, string(big))); err != nil {
			t.Fatal(err)
		}
	}
	huge := make([]byte, 1500)
	for i := range huge {
		huge[i] = 'y'
	}
	ok, err := tr.Update(sqlparse.IntValue(3), intRec(3, string(huge)))
	if err != nil || !ok {
		t.Fatalf("growing update: ok=%v err=%v", ok, err)
	}
	rec, found, err := tr.Search(sqlparse.IntValue(3))
	if err != nil || !found {
		t.Fatalf("Search after growing update: %v", err)
	}
	if len(rec[1].Str) != 1500 {
		t.Errorf("payload length = %d", len(rec[1].Str))
	}
}

func TestRange(t *testing.T) {
	tr, _, _ := newTree(t)
	for k := int64(0); k < 500; k++ {
		if err := tr.Insert(intRec(k, "x")); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	err := tr.Range(sqlparse.IntValue(100), sqlparse.IntValue(110), func(r storage.Record) bool {
		got = append(got, r[0].Int)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 || got[0] != 100 || got[10] != 110 {
		t.Errorf("range = %v", got)
	}
}

func TestRangeEmptyAndSingle(t *testing.T) {
	tr, _, _ := newTree(t)
	if err := tr.Range(sqlparse.IntValue(0), sqlparse.IntValue(10), func(storage.Record) bool { return true }); err != nil {
		t.Fatalf("range on empty tree: %v", err)
	}
	if err := tr.Insert(intRec(5, "only")); err != nil {
		t.Fatal(err)
	}
	count := 0
	_ = tr.Range(sqlparse.IntValue(5), sqlparse.IntValue(5), func(storage.Record) bool { count++; return true })
	if count != 1 {
		t.Errorf("point range hit %d records", count)
	}
	count = 0
	_ = tr.Range(sqlparse.IntValue(6), sqlparse.IntValue(9), func(storage.Record) bool { count++; return true })
	if count != 0 {
		t.Errorf("empty range hit %d records", count)
	}
}

func TestTraversalPathTouchesBufferPool(t *testing.T) {
	tr, pool, _ := newTree(t)
	for k := int64(0); k < 2000; k++ {
		if err := tr.Insert(intRec(k, "x")); err != nil {
			t.Fatal(err)
		}
	}
	path, err := tr.TraversalPath(sqlparse.IntValue(1234))
	if err != nil {
		t.Fatal(err)
	}
	if len(path) < 2 {
		t.Fatalf("path too short: %v", path)
	}
	if path[0] != tr.Root() {
		t.Errorf("path does not start at root")
	}
	// The traversal must be visible in the LRU: the leaf is the most
	// recently used page.
	order := pool.LRUOrder()
	if order[0] != path[len(path)-1] {
		t.Errorf("most recent LRU page = %d, want traversed leaf %d", order[0], path[len(path)-1])
	}
}

func TestOpenExistingTree(t *testing.T) {
	tr, pool, ts := newTree(t)
	for k := int64(0); k < 300; k++ {
		if err := tr.Insert(intRec(k, "x")); err != nil {
			t.Fatal(err)
		}
	}
	reopened := Open(ts, pool, tr.Root())
	rec, ok, err := reopened.Search(sqlparse.IntValue(250))
	if err != nil || !ok {
		t.Fatalf("reopened search: ok=%v err=%v", ok, err)
	}
	if rec[0].Int != 250 {
		t.Errorf("key = %d", rec[0].Int)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	tr, _, _ := newTree(t)
	huge := make([]byte, storage.PageSize)
	if err := tr.Insert(intRec(1, string(huge))); err == nil {
		t.Error("oversize record accepted")
	}
}

func TestLenAndHeightEmptyTree(t *testing.T) {
	tr, _, _ := newTree(t)
	n, err := tr.Len()
	if err != nil || n != 0 {
		t.Errorf("Len = %d err=%v", n, err)
	}
	h, err := tr.Height()
	if err != nil || h != 1 {
		t.Errorf("Height = %d err=%v", h, err)
	}
}

// benchTree builds a tree of n int keys (the even numbers from 0),
// arriving in key order — every page ordered, so lookups bisect — or
// shuffled after the smallest — nearly every page out of order, so
// lookups take the linear pass. 40 000 keys make three levels.
func benchTree(tb testing.TB, n int, shuffled bool) *Tree {
	tb.Helper()
	tr, _, _ := newTree(tb)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if shuffled {
		rand.New(rand.NewSource(1)).Shuffle(n-1, func(i, j int) { order[i+1], order[j+1] = order[j+1], order[i+1] })
	}
	for _, i := range order {
		if err := tr.Insert(intRec(int64(i)*2, "benchmark payload")); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

const benchKeys = 40000

func BenchmarkInsert(b *testing.B) {
	for _, shuffled := range []bool{false, true} {
		name := "ascending"
		if shuffled {
			name = "shuffled"
		}
		b.Run(name, func(b *testing.B) {
			tr := benchTree(b, benchKeys, shuffled)
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := int64(benchKeys+i) * 2
				if shuffled {
					key = rng.Int63n(1<<40)*2 + 1
				}
				if err := tr.Insert(intRec(key, "benchmark payload")); err != nil && !errors.Is(err, ErrDuplicateKey) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearch prices a point lookup at height 3 on ordered pages
// (bisection), on unordered ones (the linear fallback), and on ordered
// pages where every other slot is dead (bisection stepping over them).
func BenchmarkSearch(b *testing.B) {
	for _, variant := range []string{"ordered", "unordered", "tombstoned"} {
		b.Run(variant, func(b *testing.B) {
			tr := benchTree(b, benchKeys, variant == "unordered")
			if h, err := tr.Height(); err != nil || h != 3 {
				b.Fatalf("height = %d (%v), want 3", h, err)
			}
			stride := int64(2)
			if variant == "tombstoned" {
				stride = 4
				for k := int64(2); k < benchKeys*2; k += 4 {
					if ok, err := tr.Delete(sqlparse.IntValue(k)); err != nil || !ok {
						b.Fatalf("Delete(%d) = %v, %v", k, ok, err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := int64(i) * 7919 * stride % (benchKeys * 2)
				if _, ok, err := tr.Search(sqlparse.IntValue(key)); err != nil || !ok {
					b.Fatalf("Search(%d) = %v, %v", key, ok, err)
				}
			}
		})
	}
}

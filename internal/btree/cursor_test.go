package btree

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// buildCursorFixture grows a tree by seeded random insert / update /
// delete over a key space of n keys. Records have four fields (key,
// TEXT, INT, TEXT) with payload sizes that force leaf splits; makeKey
// decides the key type — long TEXT keys make the separators big enough
// that internal nodes split too, so a few dozen keys build three
// levels. Random arrival order leaves pages unsorted, deletes leave dead
// slots, and updates that outgrow their slot are re-inserted.
func buildCursorFixture(t *testing.T, seed int64, n, ops int, makeKey func(i int) sqlparse.Value) *modelTree {
	t.Helper()
	m := newModelTree(t)
	rng := rand.New(rand.NewSource(seed))
	rec := func(k sqlparse.Value) storage.Record {
		return storage.Record{k,
			sqlparse.StrValue(fmt.Sprintf("a-%s-%s", k, strings.Repeat("p", rng.Intn(300)))),
			sqlparse.IntValue(rng.Int63n(1000) - 500),
			sqlparse.StrValue(strings.Repeat("q", rng.Intn(40)))}
	}
	for op := 0; op < ops; op++ {
		k := makeKey(rng.Intn(n))
		switch _, exists := m.model[k]; {
		case !exists:
			m.insert(rec(k))
		case rng.Intn(3) == 0:
			m.delete(k)
		default:
			m.update(rec(k))
		}
	}
	for i := -1; i <= n; i++ {
		m.keys = append(m.keys, makeKey(i))
	}
	sort.Slice(m.keys, func(i, j int) bool { return m.keys[i].Compare(m.keys[j]) < 0 })
	return m
}

func intKey(i int) sqlparse.Value { return sqlparse.IntValue(int64(i) * 3) }

func textKey(i int) sqlparse.Value {
	if i < 0 {
		return sqlparse.StrValue("") // sorts before every real key
	}
	return sqlparse.StrValue(fmt.Sprintf("%s-%04d", strings.Repeat("k", 700), i*3))
}

// cursorMasks is every need mask over the fixtures' four fields, plus
// nil (all) and a mask shorter than the record (the uncovered tail is
// needed).
func cursorMasks() [][]bool {
	masks := [][]bool{nil, {true, false}}
	for m := 0; m < 16; m++ {
		masks = append(masks, []bool{m&1 != 0, m&2 != 0, m&4 != 0, m&8 != 0})
	}
	return masks
}

// masked is what a cursor with mask need must return for full record r.
func masked(r storage.Record, need []bool) storage.Record {
	out := make(storage.Record, len(r))
	for i, v := range r {
		if i >= len(need) || need[i] {
			out[i] = v
		}
	}
	return out
}

// checkCursor holds one (bounds, mask) to the model — the same rows in
// key order — and to the fetch sequence the tree's shape implies, from
// every way of driving the cursor.
func checkCursor(t *testing.T, f *modelTree, sh *shape, bounded bool, lo, hi sqlparse.Value, need []bool) {
	t.Helper()
	label := fmt.Sprintf("bounded=%v lo=%.12s hi=%.12s need=%v", bounded, lo, hi, need)
	full := f.expected(bounded, lo, hi)
	var want []storage.Record
	for _, r := range full {
		want = append(want, masked(r, need))
	}
	wantTrace := sh.walk(bounded, lo, hi)

	// Next all the way.
	var c Cursor
	var got []storage.Record
	trace := f.traced(func() {
		c.Init(f.tree, bounded, lo, hi, need)
		for {
			rows, ok, err := c.Next()
			if err != nil {
				t.Fatalf("%s: Next: %v", label, err)
			}
			if !ok {
				return
			}
			got = append(got, rows...)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Next rows differ:\n got %v\nwant %v", label, got, want)
	}
	if !slices.Equal(trace, wantTrace) {
		t.Fatalf("%s: Next fetched %v, the shape walks %v", label, trace, wantTrace)
	}
	if c.Fetches() != uint64(len(trace)) {
		t.Fatalf("%s: Fetches() = %d, trace has %d", label, c.Fetches(), len(trace))
	}
	if _, ok, err := c.Next(); ok || err != nil {
		t.Fatalf("%s: Next after the end = %v, %v", label, ok, err)
	}

	// Skip all the way, and Skip after one Next: same pages, same count.
	for _, first := range []bool{false, true} {
		total := 0
		trace = f.traced(func() {
			c.Init(f.tree, bounded, lo, hi, need)
			if first {
				rows, _, err := c.Next()
				if err != nil {
					t.Fatalf("%s: Next: %v", label, err)
				}
				total = len(rows)
			}
			for {
				n, ok, err := c.Skip()
				if err != nil {
					t.Fatalf("%s: Skip: %v", label, err)
				}
				if !ok {
					return
				}
				total += n
			}
		})
		if total != len(want) || !slices.Equal(trace, wantTrace) {
			t.Fatalf("%s: Skip (after Next: %v) counted %d rows over %v, the model has %d, the shape walks %v",
				label, first, total, trace, len(want), wantTrace)
		}
	}

	// The callback wrappers, complete and stopped after the first row:
	// stopped, the walk fetches no leaf past the one holding that row.
	walk := func(fn func(storage.Record) bool) error { return f.tree.Scan(fn) }
	if bounded {
		walk = func(fn func(storage.Record) bool) error { return f.tree.Range(lo, hi, fn) }
	}
	for _, stopAfter := range []int{-1, 1} {
		wantRows, stopTrace := full, wantTrace
		if stopAfter == 1 && len(full) > 0 {
			wantRows = full[:1]
			for i, id := range wantTrace {
				if j, ok := sh.leafAt[id]; ok && slices.ContainsFunc(sh.leaves[j].keys, full[0][0].Equal) {
					stopTrace = wantTrace[:i+1]
					break
				}
			}
		}
		var rows []storage.Record
		trace := f.traced(func() {
			err := walk(func(r storage.Record) bool {
				rows = append(rows, r)
				return len(rows) != stopAfter
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		})
		if !reflect.DeepEqual(rows, wantRows) || !slices.Equal(trace, stopTrace) {
			t.Fatalf("%s: wrapper (stop after %d) returned %d rows over %v, the model has %d, the shape walks %v",
				label, stopAfter, len(rows), trace, len(wantRows), stopTrace)
		}
	}
}

// TestCursorMatchesReferenceWalk is the cursor's property test: over
// trees grown by random insert/update/delete — unsorted pages, dead
// slots, re-inserted updates, one to three levels, and the empty tree —
// every (lo, hi) over the key space and one key beyond each end
// (lo == hi, lo > hi included) and every need mask yields the model's
// rows in order and the page sequence the tree's shape implies.
func TestCursorMatchesReferenceWalk(t *testing.T) {
	masks := cursorMasks()
	for _, tc := range []struct {
		name    string
		seed    int64
		n, ops  int
		makeKey func(int) sqlparse.Value
		levels  int
	}{
		{"empty", 1, 4, 0, intKey, 1},
		{"one-leaf", 2, 6, 8, intKey, 1},
		{"int-keys", 3, 60, 400, intKey, 2},
		{"int-keys-churn", 4, 40, 1500, intKey, 2},
		{"text-keys", 5, 48, 300, textKey, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := buildCursorFixture(t, tc.seed, tc.n, tc.ops, tc.makeKey)
			if h, err := f.tree.Height(); err != nil || h < tc.levels {
				t.Fatalf("height = %d (%v), fixture is meant to reach %d levels", h, err, tc.levels)
			}
			sh := checkShape(t, f.tree)
			for _, need := range masks {
				checkCursor(t, f, sh, false, sqlparse.Value{}, sqlparse.Value{}, need)
			}
			// Every pair of bounds; the masks rotate through them, so each
			// mask meets ranges of every shape.
			i := 0
			for _, lo := range f.keys {
				for _, hi := range f.keys {
					checkCursor(t, f, sh, true, lo, hi, masks[i%len(masks)])
					i++
				}
			}
		})
	}
}

// TestCursorRowsSurvivePageMutation pins the slab contract: a decoded
// batch owns its memory. Overwriting, deleting and compacting the page
// it came from must not show through the batch's TEXT values.
func TestCursorRowsSurvivePageMutation(t *testing.T) {
	tr, _, _ := newTree(t)
	for k := int64(0); k < 8; k++ {
		if err := tr.Insert(intRec(k, fmt.Sprintf("payload-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	var c Cursor
	c.Init(tr, false, sqlparse.Value{}, sqlparse.Value{}, []bool{true, true})
	rows, ok, err := c.Next()
	if err != nil || !ok || len(rows) != 8 {
		t.Fatalf("Next = %d rows, %v, %v", len(rows), ok, err)
	}
	rows = append([]storage.Record(nil), rows...) // the slice is the cursor's; the records are ours
	for k := int64(0); k < 8; k++ {
		if _, err := tr.Update(sqlparse.IntValue(k), intRec(k, fmt.Sprintf("PAYLOAD:%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < 8; k += 2 {
		if _, err := tr.Delete(sqlparse.IntValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	leaf, _, err := tr.findLeaf(sqlparse.IntValue(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf.Compact()
	for k, r := range rows {
		if want := fmt.Sprintf("payload-%d", k); r[0].Int != int64(k) || r[1].Str != want {
			t.Errorf("row %d reads %v after the page changed, want %q", k, r, want)
		}
	}
}

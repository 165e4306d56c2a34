package btree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"snapdb/internal/bufpool"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// nodeArm is one key space and the order its keys first arrive in.
type nodeArm struct {
	name    string
	n       int
	makeKey func(i int) sqlparse.Value
	payload int    // least payload size; sizes span the 900 bytes above it
	order   string // ascending, descending or shuffled
	levels  int
}

func mixedKey(i int) sqlparse.Value {
	if i%2 == 0 {
		return sqlparse.IntValue(int64(i) * 3)
	}
	return sqlparse.StrValue(fmt.Sprintf("%s-%04d", strings.Repeat("m", 300), i))
}

// TestNodeSearchMatchesReference is the tree's property test. Each arm
// applies one operation list to a tree — first arrivals ascending,
// descending or shuffled, then deletes that leave dead slots at both
// ends and in the middle of pages, updates that outgrow their slot
// (relocated inside the page or re-inserted), a forced Compact,
// re-inserts over the dead slots, and a Serialize → LoadTablespace round
// trip that forgets every key index — and after every stage holds the
// tree to the map-backed model, to checkShape, and to the fetch
// sequences its shape implies, for every key of the key space and one
// beyond each end. Every arm reaches all of its keys, whatever order
// they arrived in.
func TestNodeSearchMatchesReference(t *testing.T) {
	// Large payloads make enough leaves that int-keyed internal nodes
	// split too; the dense arms pack dozens of slots into each leaf.
	for _, arm := range []nodeArm{
		{"int-ascending", 400, intKey, 1000, "ascending", 3},
		{"int-descending", 400, intKey, 1000, "descending", 3},
		{"int-shuffled", 400, intKey, 1000, "shuffled", 3},
		{"int-dense-ascending", 601, intKey, -1, "ascending", 2},
		{"int-dense-descending", 601, intKey, -1, "descending", 2},
		{"int-dense-shuffled", 601, intKey, -1, "shuffled", 2},
		{"text-ascending", 60, textKey, 300, "ascending", 3},
		{"text-descending", 60, textKey, 300, "descending", 3},
		{"text-shuffled", 60, textKey, 300, "shuffled", 3},
		{"mixed-ascending", 120, mixedKey, 700, "ascending", 3},
		{"mixed-descending", 120, mixedKey, 700, "descending", 3},
		{"mixed-shuffled", 120, mixedKey, 700, "shuffled", 3},
	} {
		t.Run(arm.name, func(t *testing.T) { runNodeArm(t, arm) })
	}
}

func runNodeArm(t *testing.T, arm nodeArm) {
	rng := rand.New(rand.NewSource(int64(len(arm.name)) + int64(arm.n)))
	keys := make([]sqlparse.Value, arm.n)
	for i := range keys {
		keys[i] = arm.makeKey(i)
	}
	m := newModelTree(t)
	m.setKeys(keys)
	// Sizes are independent of the key, within one band per arm: split
	// halves a node by count, and a page of small records below large
	// ones would not fit its upper half into the sibling. A dense arm's
	// updates leave its band upwards, so they relocate.
	rec := func(i int, update bool) storage.Record {
		size := arm.payload + rng.Intn(900)
		if arm.payload < 0 {
			size = rng.Intn(60)
			if update {
				size = 150 + rng.Intn(400)
			}
		}
		return storage.Record{arm.makeKey(i), sqlparse.StrValue(strings.Repeat("p", size)), sqlparse.IntValue(rng.Int63n(1000))}
	}
	arrival := rand.New(rand.NewSource(1)).Perm(arm.n)
	switch arm.order {
	case "ascending":
		sort.Ints(arrival)
	case "descending":
		sort.Sort(sort.Reverse(sort.IntSlice(arrival)))
	}
	for _, i := range arrival {
		m.insert(rec(i, false))
	}
	if h, err := m.tree.Height(); err != nil || h < arm.levels {
		t.Fatalf("height = %d (%v), the arm is meant to reach %d levels", h, err, arm.levels)
	}
	m.check("after inserts")

	// Dead slots: the first and last keys (page ends, wherever they
	// sit), a band in the middle, and every seventh key. Key i of every
	// arm's makeKey is the i-th in key order.
	var dead []int
	for i := 0; i < arm.n; i++ {
		if i < 5 || i >= arm.n-5 || (i >= arm.n/8 && i < arm.n/8+9) || i%7 == 3 {
			m.delete(keys[i])
			dead = append(dead, i)
		}
	}
	m.insert(rec(arm.n/3, false)) // a live key: the duplicate is refused
	m.check("after deletes")

	for i := 1; i < arm.n; i += 5 {
		m.update(rec(i, true))
	}
	m.check("after updates")

	m.compact()
	for _, i := range dead {
		if rng.Intn(2) == 0 {
			m.insert(rec(i, false))
		}
	}
	m.check("after compact and re-inserts")

	m.reload()
	m.check("after reload")
	for _, i := range dead {
		m.insert(rec(i, false)) // duplicates among them
	}
	for i := 2; i < arm.n; i += 11 {
		m.delete(keys[i])
	}
	m.check("after writes on the reloaded tree")
}

// check holds m's tree to its shape, the model and the fetch sequences
// the shape implies: a lookup of every probe, a scan, and ranges from
// every probe to its near neighbours, to itself, one inverted, and — for
// every eighth — to the far end.
func (m *modelTree) check(stage string) {
	m.t.Helper()
	sh := checkShape(m.t, m.tree)
	for _, k := range m.keys {
		m.checkLookup(sh, k)
	}
	m.checkWalk(sh, false, sqlparse.Value{}, sqlparse.Value{})
	last := len(m.keys) - 1
	for i, lo := range m.keys {
		his := []int{i - 1, i, i + 1, i + 7}
		if i%8 == 0 {
			his = append(his, last)
		}
		for _, j := range his {
			if j >= 0 && j <= last {
				m.checkWalk(sh, true, lo, m.keys[j])
			}
		}
	}
	m.checkHints(stage)
}

// compact forces the compaction an overflowing insert would run, on
// every leaf.
func (m *modelTree) compact() {
	for id := 1; id < m.tree.ts.NumPages(); id++ {
		if p, _ := m.tree.ts.Get(storage.PageID(id)); p.Type() == storage.PageBTreeLeaf {
			p.Compact()
		}
	}
}

// checkHints holds every page's key index — kept through the writes
// since the page was last loaded or formatted, or derived now — to the
// one a fresh load of the same bytes derives.
func (m *modelTree) checkHints(stage string) {
	m.t.Helper()
	for id := 1; id < m.tree.ts.NumPages(); id++ {
		p, _ := m.tree.ts.Get(storage.PageID(id))
		if p.Type() != storage.PageBTreeLeaf && p.Type() != storage.PageBTreeInternal {
			continue
		}
		kept, err := p.Keys()
		if err != nil {
			m.t.Fatal(err)
		}
		if fresh := freshKeys(m.t, p); !slices.Equal(kept, fresh) {
			m.t.Fatalf("%s: page %d's key index is %v, a fresh derivation %v", stage, id, kept, fresh)
		}
	}
}

// freshKeys is the key index derived from a copy of p's bytes.
func freshKeys(t testing.TB, p *storage.Page) []uint16 {
	t.Helper()
	q, err := storage.LoadPage(p.CloneBytes())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := q.Keys()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestNodeSearchOnBuiltPages covers what no tree produces today but the
// lookup must still get right: internal nodes with dead slots and with
// duplicate separators (ties go the way the linear passes send them),
// every slot dead, and key indexes kept from before the appends, kept
// from before the deletes, or derived only at the first lookup.
func TestNodeSearchOnBuiltPages(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	probes := []sqlparse.Value{sqlparse.IntValue(-1), sqlparse.StrValue("")}
	for k := 0; k < 24; k++ {
		probes = append(probes, sqlparse.IntValue(int64(k)), sqlparse.StrValue(fmt.Sprintf("t%02d", k)))
	}
	for round := 0; round < 400; round++ {
		n := rng.Intn(40)
		keys := make([]sqlparse.Value, n)
		for i := range keys {
			keys[i] = probes[rng.Intn(len(probes))] // duplicates likely
		}
		if round%2 == 0 {
			sort.SliceStable(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
		}
		p := storage.NewPage(7, storage.PageBTreeInternal)
		if round%4 < 2 {
			p.Keys() // empty: the index is kept from here on, not derived
		}
		for i, k := range keys {
			if _, err := p.InsertBytes(storage.EncodeRecord(storage.Record{k, sqlparse.IntValue(int64(100 + i))})); err != nil {
				t.Fatal(err)
			}
		}
		if round%8 >= 4 {
			p.Keys() // the deletes edit an index derived over every slot
		}
		switch round % 3 {
		case 0: // dead slots at both ends and in the middle
			for _, i := range []int{0, 1, n / 2, n/2 + 1, n - 2, n - 1} {
				if i >= 0 && i < n {
					p.DeleteSlot(i)
				}
			}
		case 1:
			for i := 0; i < n; i++ {
				if rng.Intn(4) > 0 || round%5 == 1 {
					p.DeleteSlot(i)
				}
			}
		}
		lowest, err := lowestSlot(p)
		if want, _ := linearLowestSlot(p); err != nil || lowest != want {
			t.Fatalf("round %d: lowestSlot = %d (%v), linear %d", round, lowest, err, want)
		}
		for _, k := range probes {
			want, _ := linearRouteSlot(p, k)
			if got, err := routeSlot(p, k); err != nil || got != want {
				t.Fatalf("round %d: key %s routes to slot %d (%v), linear %d", round, k, got, err, want)
			}
			wantSlot, wantOK, _ := linearFindSlot(p, k)
			if slot, ok, err := findSlot(p, k); err != nil || ok != wantOK || slot != wantSlot {
				t.Fatalf("round %d: findSlot(%s) = %d, %v (%v), linear %d, %v", round, k, slot, ok, err, wantSlot, wantOK)
			}
		}
	}
}

// TestCorruptKeyIsAnError: a slot whose key does not decode fails the
// lookup that meets the page, whichever slot the lookup was after.
func TestCorruptKeyIsAnError(t *testing.T) {
	tr, _, ts := newTree(t)
	for k := int64(0); k < 50; k++ {
		if err := tr.Insert(intRec(k, "payload")); err != nil {
			t.Fatal(err)
		}
	}
	leaf, _, err := tr.findLeaf(sqlparse.IntValue(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := leaf.UpdateSlot(40, []byte{0, 2, 0x7f}); err != nil { // two fields, unknown tag
		t.Fatal(err)
	}
	loaded, err := storage.LoadTablespace(ts.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := bufpool.New(loaded, 8)
	if err != nil {
		t.Fatal(err)
	}
	tr = Open(loaded, pool, tr.Root())
	_, _, searchErr := tr.Search(sqlparse.IntValue(3))
	_, lenErr := tr.Len()
	for what, err := range map[string]error{"Search": searchErr, "Len": lenErr, "Insert": tr.Insert(intRec(99, "x"))} {
		if err == nil || !strings.Contains(err.Error(), "slot 40: storage: unknown field tag") {
			t.Errorf("%s = %v, want the slot's decode error", what, err)
		}
	}
}

// TestCorruptChildPointer: an internal record without a decodable child
// pointer is an error from every descent, not a panic.
func TestCorruptChildPointer(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  storage.Record
	}{
		{"one-field record", storage.Record{sqlparse.IntValue(0)}},
		{"text child", storage.Record{sqlparse.IntValue(0), sqlparse.StrValue("7")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, _, ts := newTree(t)
			root := ts.Allocate(storage.PageBTreeInternal)
			if _, err := root.InsertBytes(storage.EncodeRecord(tc.rec)); err != nil {
				t.Fatal(err)
			}
			tr = Open(ts, tr.pool, root.ID())
			_, _, searchErr := tr.Search(sqlparse.IntValue(1))
			_, heightErr := tr.Height()
			for what, err := range map[string]error{
				"Search": searchErr,
				"Scan":   tr.Scan(func(storage.Record) bool { return true }),
				"Height": heightErr,
				"Insert": tr.Insert(intRec(1, "x")),
			} {
				if err == nil || !strings.Contains(err.Error(), "btree: corrupt child pointer") {
					t.Errorf("%s = %v, want btree: corrupt child pointer", what, err)
				}
			}
		})
	}
}

// lookupFixture is an int-keyed and a text-keyed tree of three or more
// levels, built in key order so every page is ordered.
func lookupFixture(t *testing.T) (ints, texts *Tree) {
	t.Helper()
	ints = benchTree(t, benchKeys, false)
	texts, _, _ = newTree(t)
	for i := 0; i < 60; i++ {
		if err := texts.Insert(storage.Record{textKey(i), sqlparse.StrValue(strings.Repeat("p", 900))}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range []*Tree{ints, texts} {
		if h, err := tr.Height(); err != nil || h < 3 {
			t.Fatalf("height = %d (%v), want 3 or more", h, err)
		}
	}
	return ints, texts
}

// TestLookupAllocations is the allocation gate: finding a key costs no
// allocation at all — int or text, ordered page or not — so Search
// allocates only the record it returns and Update and Delete only what
// they write.
func TestLookupAllocations(t *testing.T) {
	ints, texts := lookupFixture(t)
	lookup := func(tr *Tree, key sqlparse.Value) func() {
		return func() {
			leaf, _, err := tr.findLeaf(key, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, found, err := findSlot(leaf, key); err != nil || !found {
				t.Fatalf("findSlot(%.12s) = %v, %v", key, found, err)
			}
		}
	}
	// Shuffled arrivals: a tree whose pages are out of key order. Probe a
	// key that sits in one.
	unordered, _, _ := newTree(t)
	var scattered sqlparse.Value
	for _, i := range rand.New(rand.NewSource(1)).Perm(40) {
		if err := unordered.Insert(storage.Record{textKey(i), sqlparse.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40 && scattered.Str == ""; i++ {
		if leaf, _, err := unordered.findLeaf(textKey(i), nil); err != nil {
			t.Fatal(err)
		} else if ix, _ := keysOf(leaf); !slices.IsSorted(ix) {
			scattered = textKey(i)
		}
	}
	if scattered.Str == "" {
		t.Fatal("no leaf of the shuffled tree is out of key order")
	}

	ik, tk := sqlparse.IntValue(23456), textKey(37)
	rec := intRec(23456, "BENCHMARK PAYLOAD")
	deleted := int64(0)
	for _, tc := range []struct {
		name string
		fn   func()
		want float64
	}{
		{"descent+findSlot int", lookup(ints, ik), 0},
		{"descent+findSlot text", lookup(texts, tk), 0},
		{"descent+findSlot text, unordered leaf", lookup(unordered, scattered), 0},
		// The record: one value slab and one string.
		{"Search int", func() { ints.Search(ik) }, 2},
		// The encoded record.
		{"Update int", func() { ints.Update(ik, rec) }, 1},
		{"Delete int", func() {
			if ok, err := ints.Delete(sqlparse.IntValue(deleted)); err != nil || !ok {
				t.Fatalf("Delete(%d) = %v, %v", deleted, ok, err)
			}
			deleted += 2
		}, 0},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocations per run, want %v", tc.name, got, tc.want)
		}
	}
}

// TestLazyHintUnderConcurrentReaders: readers that share a table's read
// latch may all derive the same page's key index at once, while a
// writer — alone under the write latch, as the engine runs it —
// appends. Run under -race (scripts/ci.sh does).
func TestLazyHintUnderConcurrentReaders(t *testing.T) {
	t.Run("tree", lazyHintTree)
	t.Run("one unordered page", lazyHintOnePage)
}

// lazyHintOnePage starts four readers at once on one unordered page
// fresh from LoadPage, round after round, so that they derive its key
// index together and each reads through whichever index was stored.
func lazyHintOnePage(t *testing.T) {
	src := storage.NewPage(9, storage.PageBTreeLeaf)
	for _, i := range rand.New(rand.NewSource(3)).Perm(60) {
		if _, err := src.InsertBytes(storage.EncodeRecord(intRec(int64(i)*2, "payload"))); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 50; round++ {
		p, err := storage.LoadPage(src.CloneBytes())
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for k := int64(g); k < 120; k += 4 {
					slot, found, err := findSlot(p, sqlparse.IntValue(k))
					wantSlot, wantFound, _ := linearFindSlot(p, sqlparse.IntValue(k))
					if err != nil || found != wantFound || slot != wantSlot {
						t.Errorf("round %d, reader %d: findSlot(%d) = %d, %v (%v), linear %d, %v", round, g, k, slot, found, err, wantSlot, wantFound)
						return
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if ix, err := p.Keys(); err != nil || slices.IsSorted(ix) || !slices.Equal(ix, freshKeys(t, p)) {
			t.Fatalf("round %d: key index %v (%v) after the readers, want the unordered %v", round, ix, err, freshKeys(t, p))
		}
	}
}

// lazyHintTree runs readers and a latched writer over a reloaded tree
// whose pages are out of key order.
func lazyHintTree(t *testing.T) {
	src, _, srcTS := newTree(t)
	const n = 3000
	for _, i := range rand.New(rand.NewSource(2)).Perm(n) {
		if err := src.Insert(intRec(int64(i)*2, "payload")); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := storage.LoadTablespace(srcTS.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := bufpool.New(ts, 64)
	if err != nil {
		t.Fatal(err)
	}
	tr := Open(ts, pool, src.Root())

	var latch sync.RWMutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				k := int64(rng.Intn(n)) * 2
				latch.RLock()
				_, ok, err := tr.Search(sqlparse.IntValue(k))
				rows := 0
				rerr := tr.Range(sqlparse.IntValue(k), sqlparse.IntValue(k+20), func(storage.Record) bool { rows++; return true })
				latch.RUnlock()
				if err != nil || !ok || rerr != nil || rows < 11 && k+20 < 2*n {
					t.Errorf("reader %d: Search(%d) = %v, %v; Range saw %d rows (%v)", g, k, ok, err, rows, rerr)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 400; i++ {
		latch.Lock()
		err := tr.Insert(intRec(int64(i)*2+1, "written under the latch"))
		latch.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

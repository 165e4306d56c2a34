package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"snapdb/internal/bufpool"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// The reference: node lookup and the write path above it exactly as
// they stood before in-page search — every node fully decoded and
// stable-sorted, the child picked by a walk over the decoded entries,
// leaf slots found by decoding each key in slot order, records appended
// with no order hint. Frozen here so the tests below can hold the
// bisecting lookup to its page-fetch sequence and its page bytes, not
// merely to its results. split is shared: it still needs every record
// and did not change.

func childFor(entries []entry, key sqlparse.Value) (storage.PageID, error) {
	if len(entries) == 0 {
		return storage.InvalidPage, fmt.Errorf("btree: internal node with no children")
	}
	idx := 0
	for i, e := range entries {
		if e.key.Compare(key) <= 0 {
			idx = i
		} else {
			break
		}
	}
	child := entries[idx].rec[1]
	if !child.IsInt {
		return storage.InvalidPage, fmt.Errorf("btree: corrupt child pointer")
	}
	return storage.PageID(child.Int), nil
}

func refChildIn(p *storage.Page, key sqlparse.Value) (storage.PageID, error) {
	entries, err := decodeEntries(p)
	if err != nil {
		return storage.InvalidPage, err
	}
	return childFor(entries, key)
}

func refFindLeaf(t *Tree, key sqlparse.Value) (*storage.Page, []storage.PageID, error) {
	var path []storage.PageID
	id := t.root
	for {
		p, err := t.pool.Fetch(id)
		if err != nil {
			return nil, nil, err
		}
		path = append(path, id)
		if p.Type() == storage.PageBTreeLeaf {
			return p, path, nil
		}
		if id, err = refChildIn(p, key); err != nil {
			return nil, nil, err
		}
	}
}

func refFindSlot(p *storage.Page, key sqlparse.Value) (int, bool, error) {
	for i := 0; i < p.SlotCount(); i++ {
		b := p.SlotBytes(i)
		if b == nil {
			continue
		}
		k, err := storage.DecodeKey(b)
		if err != nil {
			return 0, false, err
		}
		if k.Equal(key) {
			return i, true, nil
		}
	}
	return 0, false, nil
}

func refInsert(t *Tree, rec storage.Record) error {
	split, err := refInsertInto(t, t.root, rec)
	if err != nil || split == nil {
		return err
	}
	p, err := t.ts.Get(t.root)
	if err != nil {
		return err
	}
	entries, err := decodeEntries(p)
	if err != nil {
		return err
	}
	newRoot := t.ts.Allocate(storage.PageBTreeInternal)
	for _, r := range []storage.Record{
		{entries[0].key, sqlparse.IntValue(int64(t.root))},
		{split.key, sqlparse.IntValue(int64(split.page))},
	} {
		if _, err := newRoot.InsertBytes(storage.EncodeRecord(r)); err != nil {
			return err
		}
	}
	t.root = newRoot.ID()
	return nil
}

func refInsertInto(t *Tree, id storage.PageID, rec storage.Record) (*splitResult, error) {
	p, err := t.pool.Fetch(id)
	if err != nil {
		return nil, err
	}
	if p.Type() == storage.PageBTreeLeaf {
		if _, dup, err := refFindSlot(p, rec[0]); err != nil {
			return nil, err
		} else if dup {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateKey, rec[0])
		}
		return refInsertNodeEntry(t, p, rec)
	}
	child, err := refChildIn(p, rec[0])
	if err != nil {
		return nil, err
	}
	split, err := refInsertInto(t, child, rec)
	if err != nil || split == nil {
		return nil, err
	}
	return refInsertNodeEntry(t, p, storage.Record{split.key, sqlparse.IntValue(int64(split.page))})
}

func refInsertNodeEntry(t *Tree, p *storage.Page, rec storage.Record) (*splitResult, error) {
	enc := storage.EncodeRecord(rec)
	if len(enc) > storage.PageSize/2 {
		return nil, fmt.Errorf("btree: record of %d bytes exceeds half a page", len(enc))
	}
	if _, err := p.InsertBytes(enc); err == nil {
		return nil, nil
	}
	p.Compact()
	if _, err := p.InsertBytes(enc); err == nil {
		return nil, nil
	}
	return t.split(p, rec)
}

func refSearch(t *Tree, key sqlparse.Value) (storage.Record, bool, error) {
	leaf, _, err := refFindLeaf(t, key)
	if err != nil {
		return nil, false, err
	}
	slot, found, err := refFindSlot(leaf, key)
	if err != nil || !found {
		return nil, false, err
	}
	rec, err := decodeSlot(leaf, slot)
	return rec, err == nil, err
}

func refDelete(t *Tree, key sqlparse.Value) (bool, error) {
	leaf, _, err := refFindLeaf(t, key)
	if err != nil {
		return false, err
	}
	slot, found, err := refFindSlot(leaf, key)
	if err != nil || !found {
		return false, err
	}
	return true, leaf.DeleteSlot(slot)
}

func refUpdate(t *Tree, key sqlparse.Value, rec storage.Record) (bool, error) {
	leaf, _, err := refFindLeaf(t, key)
	if err != nil {
		return false, err
	}
	slot, found, err := refFindSlot(leaf, key)
	if err != nil || !found {
		return false, err
	}
	if err := leaf.UpdateSlot(slot, storage.EncodeRecord(rec)); err == storage.ErrPageFull {
		if err := leaf.DeleteSlot(slot); err != nil {
			return false, err
		}
		return true, refInsert(t, rec)
	} else if err != nil {
		return false, err
	}
	return true, nil
}

// refCollect is the leaf filter of the pre-bisection Cursor.advance: the
// live in-bounds slots in key order, and whether a key lies beyond hi.
func refCollect(leaf *storage.Page, bounded bool, lo, hi sqlparse.Value) (slots []int, beyond bool, err error) {
	var keys []keyRef
	for i := 0; i < leaf.SlotCount(); i++ {
		b := leaf.SlotBytes(i)
		if b == nil {
			continue
		}
		k, err := storage.DecodeKey(b)
		if err != nil {
			return nil, false, err
		}
		if bounded {
			if k.Compare(lo) < 0 {
				continue
			}
			if k.Compare(hi) > 0 {
				beyond = true
				continue
			}
		}
		keys = append(keys, keyRef{key: k, slot: i})
	}
	sort.SliceStable(keys, func(i, j int) bool { return keys[i].key.Compare(keys[j].key) < 0 })
	for _, k := range keys {
		slots = append(slots, k.slot)
	}
	return slots, beyond, nil
}

// twin is one operation list applied to two trees — ref through the
// reference above, got through the Tree — each over its own tablespace
// and traced pool. Page ids are handed out in allocation order, so equal
// behaviour means equal ids, equal fetch traces and equal page bytes.
type twin struct {
	t                  *testing.T
	ref, got           *Tree
	refTrace, gotTrace []storage.PageID
	keys               []sqlparse.Value // every key the arm uses, in key order
	probes             []sqlparse.Value // keys plus one beyond each end of each kind
	live               map[string]bool  // keys the reference can currently find
}

func tracedTree(ts *storage.Tablespace, root storage.PageID, trace *[]storage.PageID) (*Tree, error) {
	pool, err := bufpool.New(ts, 64)
	if err != nil {
		return nil, err
	}
	pool.SetTraceFunc(func(id storage.PageID) { *trace = append(*trace, id) })
	if root == storage.InvalidPage {
		return New(ts, pool), nil
	}
	return Open(ts, pool, root), nil
}

func newTwin(t *testing.T, keys []sqlparse.Value) *twin {
	t.Helper()
	w := &twin{t: t, live: make(map[string]bool)}
	var err error
	if w.ref, err = tracedTree(storage.NewTablespace(), storage.InvalidPage, &w.refTrace); err != nil {
		t.Fatal(err)
	}
	if w.got, err = tracedTree(storage.NewTablespace(), storage.InvalidPage, &w.gotTrace); err != nil {
		t.Fatal(err)
	}
	w.keys = append(w.keys, keys...)
	sort.Slice(w.keys, func(i, j int) bool { return w.keys[i].Compare(w.keys[j]) < 0 })
	w.probes = append([]sqlparse.Value{sqlparse.IntValue(math.MinInt64), sqlparse.StrValue("")}, w.keys...)
	w.probes = append(w.probes, sqlparse.IntValue(math.MaxInt64), sqlparse.StrValue("\xff"))
	return w
}

// same fails the test unless both sides of one operation agree: result,
// error and page-fetch sequence.
func (w *twin) same(what string, refRes, gotRes any, refErr, gotErr error) {
	w.t.Helper()
	if (refErr == nil) != (gotErr == nil) || errors.Is(refErr, ErrDuplicateKey) != errors.Is(gotErr, ErrDuplicateKey) {
		w.t.Fatalf("%s: error %v, reference %v", what, gotErr, refErr)
	}
	if !reflect.DeepEqual(gotRes, refRes) {
		w.t.Fatalf("%s: got %v, reference %v", what, gotRes, refRes)
	}
	if !reflect.DeepEqual(w.gotTrace, w.refTrace) {
		w.t.Fatalf("%s: fetched %v, reference %v", what, w.gotTrace, w.refTrace)
	}
	w.refTrace, w.gotTrace = w.refTrace[:0], w.gotTrace[:0]
}

func (w *twin) insert(rec storage.Record) {
	w.t.Helper()
	refErr := refInsert(w.ref, rec)
	if refErr != nil && !errors.Is(refErr, ErrDuplicateKey) {
		w.t.Fatalf("Insert(%.12s): reference: %v", rec[0], refErr)
	}
	w.same(fmt.Sprintf("Insert(%.12s)", rec[0]), nil, nil, refErr, w.got.Insert(rec))
	if w.got.Root() != w.ref.Root() {
		w.t.Fatalf("Insert(%.12s): root %d, reference %d", rec[0], w.got.Root(), w.ref.Root())
	}
}

func (w *twin) update(rec storage.Record) {
	w.t.Helper()
	refOK, refErr := refUpdate(w.ref, rec[0], rec)
	gotOK, gotErr := w.got.Update(rec[0], rec)
	w.same(fmt.Sprintf("Update(%.12s)", rec[0]), refOK, gotOK, refErr, gotErr)
}

func (w *twin) delete(key sqlparse.Value) {
	w.t.Helper()
	refOK, refErr := refDelete(w.ref, key)
	gotOK, gotErr := w.got.Delete(key)
	w.same(fmt.Sprintf("Delete(%.12s)", key), refOK, gotOK, refErr, gotErr)
}

// compact forces the compaction an overflowing insert would run, on
// every leaf of both trees.
func (w *twin) compact() {
	for _, t := range []*Tree{w.ref, w.got} {
		for id := 1; id < t.ts.NumPages(); id++ {
			if p, _ := t.ts.Get(storage.PageID(id)); p.Type() == storage.PageBTreeLeaf {
				p.Compact()
			}
		}
	}
}

// reload swaps got for what a restart would open: the same bytes
// through Serialize and LoadTablespace, every order hint unknown again.
func (w *twin) reload() {
	w.t.Helper()
	ts, err := storage.LoadTablespace(w.got.ts.Serialize())
	if err != nil {
		w.t.Fatal(err)
	}
	if w.got, err = tracedTree(ts, w.got.Root(), &w.gotTrace); err != nil {
		w.t.Fatal(err)
	}
}

// pages returns got's pages of type typ.
func (w *twin) pages(typ storage.PageType) []*storage.Page {
	var out []*storage.Page
	for id := 1; id < w.got.ts.NumPages(); id++ {
		if p, _ := w.got.ts.Get(storage.PageID(id)); p.Type() == typ {
			out = append(out, p)
		}
	}
	return out
}

// check holds got to the reference everywhere a lookup can differ: on
// every node for every probe key, and through every read entry point.
func (w *twin) check(stage string) {
	w.t.Helper()
	if !bytes.Equal(w.got.ts.Serialize(), w.ref.ts.Serialize()) {
		w.t.Fatalf("%s: tablespace image differs from the reference's", stage)
	}
	internals, leaves := w.pages(storage.PageBTreeInternal), w.pages(storage.PageBTreeLeaf)
	w.live = make(map[string]bool)
	for _, k := range w.probes {
		what := fmt.Sprintf("%s: key %.12s", stage, k)
		for _, p := range internals {
			want, err := refChildIn(p, k)
			if err != nil {
				w.t.Fatal(err)
			}
			if got, err := childIn(p, k); err != nil || got != want {
				w.t.Fatalf("%s: node %d routes to %d (%v), reference %d", what, p.ID(), got, err, want)
			}
		}
		for _, p := range leaves {
			wantSlot, wantOK, err := refFindSlot(p, k)
			if err != nil {
				w.t.Fatal(err)
			}
			if slot, ok, err := findSlot(p, k); err != nil || ok != wantOK || slot != wantSlot {
				w.t.Fatalf("%s: findSlot in leaf %d = %d, %v (%v), reference %d, %v", what, p.ID(), slot, ok, err, wantSlot, wantOK)
			}
		}
		_, refPath, refErr := refFindLeaf(w.ref, k)
		gotPath, gotErr := w.got.TraversalPath(k)
		w.same(what+": TraversalPath", refPath, gotPath, refErr, gotErr)

		refRec, refOK, refErr := refSearch(w.ref, k)
		gotRec, gotOK, gotErr := w.got.Search(k)
		w.same(what+": Search", refRec, gotRec, refErr, gotErr)
		if refOK != gotOK {
			w.t.Fatalf("%s: Search found = %v, reference %v", what, gotOK, refOK)
		}
		if refOK {
			w.live[k.String()] = true
		}
	}
	// Bounds: every point, every key against its near neighbours, and
	// one inverted range per key.
	check := func(bounded bool, lo, hi sqlparse.Value, everyLeaf bool) {
		what := fmt.Sprintf("%s: bounded=%v [%.12s, %.12s]", stage, bounded, lo, hi)
		for _, p := range leaves {
			if !everyLeaf {
				break
			}
			wantSlots, wantBeyond, err := refCollect(p, bounded, lo, hi)
			if err != nil {
				w.t.Fatal(err)
			}
			var c Cursor
			c.Init(w.got, bounded, lo, hi, nil)
			beyond, err := c.collect(p)
			if err != nil || beyond != wantBeyond || !reflect.DeepEqual(append([]int(nil), c.slots...), wantSlots) {
				w.t.Fatalf("%s: leaf %d collects %v beyond=%v (%v), reference %v beyond=%v",
					what, p.ID(), c.slots, beyond, err, wantSlots, wantBeyond)
			}
		}
		var refRows, gotRows []storage.Record
		refFn := func(r storage.Record) bool { refRows = append(refRows, r); return true }
		gotFn := func(r storage.Record) bool { gotRows = append(gotRows, r); return true }
		if bounded {
			w.same(what+": Range", nil, nil, refRange(w.ref, lo, hi, refFn), w.got.Range(lo, hi, gotFn))
		} else {
			w.same(what+": Scan", nil, nil, refScan(w.ref, refFn), w.got.Scan(gotFn))
		}
		if !reflect.DeepEqual(gotRows, refRows) {
			w.t.Fatalf("%s: walk returned %d rows, reference %d", what, len(gotRows), len(refRows))
		}
	}
	check(false, sqlparse.Value{}, sqlparse.Value{}, true)
	last := len(w.probes) - 1
	for i, lo := range w.probes {
		// The walk itself holds every leaf it visits to the reference
		// (rows and where it stops); every eighth lo also holds the
		// leaves it does not, and walks to the far end.
		his := []int{i - 1, i, i + 1, i + 7}
		if i%8 == 0 {
			his = append(his, last)
		}
		for _, j := range his {
			if j >= 0 && j <= last {
				check(true, lo, w.probes[j], i%8 == 0)
			}
		}
	}
	w.checkHints(stage)
}

// checkHints holds every derived order hint to the slots it describes,
// and the hint to never having reached a page byte.
func (w *twin) checkHints(stage string) {
	w.t.Helper()
	for id := 1; id < w.got.ts.NumPages(); id++ {
		p, _ := w.got.ts.Get(storage.PageID(id))
		if p.Type() != storage.PageBTreeLeaf && p.Type() != storage.PageBTreeInternal {
			continue
		}
		want := storage.KeysOrdered
		var prev sqlparse.Value
		for i, first := 0, true; i < p.SlotCount(); i++ {
			if b := p.SlotBytes(i); b != nil {
				k, err := storage.DecodeKey(b)
				if err != nil {
					w.t.Fatal(err)
				}
				if !first && k.Compare(prev) < 0 {
					want = storage.KeysUnordered
				}
				prev, first = k, false
			}
		}
		// A delete may leave an unordered page's survivors in order; the
		// hint is allowed to go on saying unordered.
		if o := p.KeyOrder(); o == storage.KeysOrdered && want != o {
			w.t.Fatalf("%s: page %d is hinted ordered, its slots are not", stage, id)
		}
	}
}

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

// TestNodeSearchMatchesReference is the in-page search's property test.
// Each arm applies one operation list to a tree and to the frozen
// reference — first arrivals ascending, descending or shuffled, then
// deletes that leave dead slots at both ends and in the middle of
// pages, updates that outgrow their slot (relocated inside the page or
// re-inserted), a forced Compact, re-inserts over the dead slots, and a
// Serialize → LoadTablespace round trip that forgets every order hint —
// and after every stage holds each node, each leaf and each read entry
// point to the reference for every key of the key space and one beyond
// each end: same child, same slot, same cursor batch and done, same
// fetch trace, same tablespace bytes.
//
// The descending arms build the malformed tree ROADMAP records (a node's
// first separator stays at the first key it ever held, so a leftmost
// leaf that splits below it files its sibling out of reach): there the
// assertion is equality with what the *reference* can reach, which is
// fewer keys than were inserted. This change neither fixes nor moves
// that bug.
func TestNodeSearchMatchesReference(t *testing.T) {
	// Large payloads make enough leaves that int-keyed internal nodes
	// split too; the dense arms pack dozens of slots into each leaf.
	for _, arm := range []nodeArm{
		{"int-ascending", 331, intKey, 1000, "ascending", 3},
		{"int-descending", 331, intKey, 1000, "descending", 3},
		{"int-shuffled", 331, intKey, 1000, "shuffled", 3},
		{"int-dense-ascending", 601, intKey, -1, "ascending", 2},
		{"int-dense-descending", 601, intKey, -1, "descending", 2},
		{"int-dense-shuffled", 601, intKey, -1, "shuffled", 2},
		{"text-ascending", 60, textKey, 300, "ascending", 3},
		{"text-descending", 60, textKey, 300, "descending", 2},
		{"text-shuffled", 60, textKey, 300, "shuffled", 3},
		{"mixed-ascending", 120, mixedKey, 700, "ascending", 3},
		{"mixed-descending", 120, mixedKey, 700, "descending", 2},
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
	w := newTwin(t, keys)
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
	// Shuffled arrivals start with the smallest key, which keeps clear
	// of the malformed tree (see buildCursorFixture); descending ones
	// walk straight into it.
	arrival := rand.New(rand.NewSource(1)).Perm(arm.n)
	switch arm.order {
	case "ascending":
		sort.Ints(arrival)
	case "descending":
		sort.Sort(sort.Reverse(sort.IntSlice(arrival)))
	default:
		arrival = append([]int{0}, arrival...) // its second arrival is a duplicate
	}
	for _, i := range arrival {
		w.insert(rec(i, false))
	}
	h, err := w.got.Height()
	if err != nil || h < arm.levels {
		t.Fatalf("height = %d (%v), the arm is meant to reach %d levels", h, err, arm.levels)
	}
	w.check("after inserts")
	reachable := len(w.live)
	if arm.order == "descending" {
		if reachable >= arm.n {
			t.Fatalf("descending inserts left all %d keys reachable: the arm no longer builds the malformed tree", arm.n)
		}
		t.Logf("reference reaches %d of %d keys", reachable, arm.n)
	} else if reachable != arm.n {
		t.Fatalf("reference reaches %d of %d keys on a well-formed tree", reachable, arm.n)
	}

	// Dead slots: the first and last keys (page ends, wherever they
	// sit), a band in the middle, and every seventh key. Key i of every
	// arm's makeKey is the i-th in key order.
	var dead []int
	for i := 0; i < arm.n; i++ {
		if i < 5 || i >= arm.n-5 || (i >= arm.n/8 && i < arm.n/8+9) || i%7 == 3 {
			w.delete(keys[i])
			dead = append(dead, i)
		}
	}
	w.insert(rec(arm.n/3, false)) // a live key: both sides report the duplicate
	w.check("after deletes")

	for i := 1; i < arm.n; i += 5 {
		w.update(rec(i, true))
	}
	w.check("after updates")

	w.compact()
	for _, i := range dead {
		if rng.Intn(2) == 0 {
			w.insert(rec(i, false))
		}
	}
	w.check("after compact and re-inserts")

	w.reload()
	w.check("after reload")
	for _, p := range append(w.pages(storage.PageBTreeInternal), w.pages(storage.PageBTreeLeaf)...) {
		if p.KeyOrder() == storage.KeyOrderUnknown {
			t.Fatalf("page %d: a full read pass left its order hint underived", p.ID())
		}
	}
	for _, i := range dead {
		w.insert(rec(i, false)) // duplicates among them
	}
	for i := 2; i < arm.n; i += 11 {
		w.delete(keys[i])
	}
	w.check("after writes on the reloaded tree")
}

// TestNodeSearchOnBuiltPages covers what no tree produces today but the
// lookup must still get right: internal nodes with dead slots and with
// duplicate separators (ties go the way the stable sort sent them),
// every slot dead, and pages whose hint is derived rather than kept.
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
			ordered(p) // empty: the hint is kept from here on, not derived
		}
		for i, k := range keys {
			if err := appendEntry(p, storage.EncodeRecord(storage.Record{k, sqlparse.IntValue(int64(100 + i))})); err != nil {
				t.Fatal(err)
			}
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
		entries, err := decodeEntries(p)
		if err != nil {
			t.Fatal(err)
		}
		lowest, err := lowestSlot(p)
		if want := append(entries, entry{slot: -1})[0].slot; err != nil || lowest != want {
			t.Fatalf("round %d: lowestSlot = %d (%v), reference %d", round, lowest, err, want)
		}
		for _, k := range probes {
			want, wantErr := childFor(entries, k)
			if got, err := childIn(p, k); got != want || (err == nil) != (wantErr == nil) {
				t.Fatalf("round %d: key %s routes to %d (%v), reference %d (%v)", round, k, got, err, want, wantErr)
			}
			wantSlot, wantOK, _ := refFindSlot(p, k)
			if slot, ok, err := findSlot(p, k); err != nil || ok != wantOK || slot != wantSlot {
				t.Fatalf("round %d: findSlot(%s) = %d, %v (%v), reference %d, %v", round, k, slot, ok, err, wantSlot, wantOK)
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
	// Shuffled arrivals after the smallest key (see buildCursorFixture):
	// a well-formed tree whose pages are out of key order. Probe a key
	// that sits in one.
	unordered, _, _ := newTree(t)
	var scattered sqlparse.Value
	for _, i := range append([]int{0}, rand.New(rand.NewSource(1)).Perm(40)...) {
		if err := unordered.Insert(storage.Record{textKey(i), sqlparse.IntValue(int64(i))}); err != nil && !errors.Is(err, ErrDuplicateKey) {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40 && scattered.Str == ""; i++ {
		if leaf, _, err := unordered.findLeaf(textKey(i), nil); err != nil {
			t.Fatal(err)
		} else if inOrder, _ := ordered(leaf); !inOrder {
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
// latch may all derive the same page's hint at once, while a writer —
// alone under the write latch, as the engine runs it — appends. Run
// under -race (scripts/ci.sh does).
func TestLazyHintUnderConcurrentReaders(t *testing.T) {
	src, _, srcTS := newTree(t)
	const n = 3000
	for _, i := range append([]int{0}, rand.New(rand.NewSource(2)).Perm(n)...) {
		if err := src.Insert(intRec(int64(i)*2, "payload")); err != nil && !errors.Is(err, ErrDuplicateKey) {
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

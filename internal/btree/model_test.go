package btree

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"snapdb/internal/bufpool"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// The tree's reference is a map: every answer the tree gives — a point
// lookup, a range, a scan — must be the model's. How the tree fetches
// pages is held to its shape instead: checkShape reads the tablespace
// directly and fails unless the tree is a well-formed B+ tree, and the
// fetch sequence of every lookup and walk follows from that shape.

// minusInf is the separator a root split files the old root under.
var minusInf = sqlparse.IntValue(math.MinInt64)

// modelTree is one tree under test, the map it must agree with, and its
// pool's fetch trace.
type modelTree struct {
	t     testing.TB
	tree  *Tree
	model map[sqlparse.Value]storage.Record
	trace []storage.PageID
	keys  []sqlparse.Value // the probes: the key space in key order, plus keys beyond each end
}

func newModelTree(t testing.TB) *modelTree {
	t.Helper()
	m := &modelTree{t: t, model: make(map[sqlparse.Value]storage.Record)}
	m.open(storage.NewTablespace(), storage.InvalidPage)
	return m
}

// open points m at the tree rooted at root in ts (a new one for
// InvalidPage) through a fresh traced pool.
func (m *modelTree) open(ts *storage.Tablespace, root storage.PageID) {
	m.t.Helper()
	pool, err := bufpool.New(ts, 64)
	if err != nil {
		m.t.Fatal(err)
	}
	pool.SetTraceFunc(func(id storage.PageID) { m.trace = append(m.trace, id) })
	if root == storage.InvalidPage {
		m.tree = New(ts, pool)
	} else {
		m.tree = Open(ts, pool, root)
	}
}

// setKeys makes keys, sorted, plus the smallest and a very large key of
// each kind, m's probes.
func (m *modelTree) setKeys(keys []sqlparse.Value) {
	m.keys = append([]sqlparse.Value{minusInf, sqlparse.StrValue("")}, keys...)
	m.keys = append(m.keys, sqlparse.IntValue(math.MaxInt64), sqlparse.StrValue("\xff"))
	sort.Slice(m.keys, func(i, j int) bool { return m.keys[i].Compare(m.keys[j]) < 0 })
}

// traced runs fn and returns the pages it fetched, in order.
func (m *modelTree) traced(fn func()) []storage.PageID {
	m.trace = nil
	fn()
	return m.trace
}

func (m *modelTree) insert(rec storage.Record) {
	m.t.Helper()
	err := m.tree.Insert(rec)
	if _, dup := m.model[rec[0]]; dup {
		if !errors.Is(err, ErrDuplicateKey) {
			m.t.Fatalf("Insert(%.12s) over a live key = %v, want ErrDuplicateKey", rec[0], err)
		}
		return
	}
	if err != nil {
		m.t.Fatalf("Insert(%.12s): %v", rec[0], err)
	}
	m.model[rec[0]] = rec
}

func (m *modelTree) update(rec storage.Record) {
	m.t.Helper()
	ok, err := m.tree.Update(rec[0], rec)
	_, want := m.model[rec[0]]
	if err != nil || ok != want {
		m.t.Fatalf("Update(%.12s) = %v, %v; the model holds it: %v", rec[0], ok, err, want)
	}
	if ok {
		m.model[rec[0]] = rec
	}
}

func (m *modelTree) delete(key sqlparse.Value) {
	m.t.Helper()
	ok, err := m.tree.Delete(key)
	_, want := m.model[key]
	if err != nil || ok != want {
		m.t.Fatalf("Delete(%.12s) = %v, %v; the model holds it: %v", key, ok, err, want)
	}
	delete(m.model, key)
}

// reload reopens m's tree as a restart would: the same bytes through
// Serialize and LoadTablespace, every key index underived again.
func (m *modelTree) reload() {
	m.t.Helper()
	ts, err := storage.LoadTablespace(m.tree.ts.Serialize())
	if err != nil {
		m.t.Fatal(err)
	}
	m.open(ts, m.tree.Root())
}

// expected is the model's records within [lo, hi] (all of them when
// unbounded), in key order.
func (m *modelTree) expected(bounded bool, lo, hi sqlparse.Value) []storage.Record {
	var out []storage.Record
	for k, r := range m.model {
		if !bounded || (k.Compare(lo) >= 0 && k.Compare(hi) <= 0) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Compare(out[j][0]) < 0 })
	return out
}

// checkLookup holds Lookup (Search with its fetch count) and
// TraversalPath of key to the model and to the descent the shape routes
// it down.
func (m *modelTree) checkLookup(sh *shape, key sqlparse.Value) {
	m.t.Helper()
	want := sh.path(key)
	var rec storage.Record
	var found bool
	var fetches int
	var err error
	if trace := m.traced(func() { rec, found, fetches, err = m.tree.Lookup(key) }); err != nil || !slices.Equal(trace, want) {
		m.t.Fatalf("Lookup(%.12s) fetched %v (%v), the shape routes %v", key, trace, err, want)
	}
	if fetches != len(want) {
		m.t.Fatalf("Lookup(%.12s) counts %d fetches, the shape routes %v", key, fetches, want)
	}
	if model, ok := m.model[key]; found != ok || !reflect.DeepEqual(rec, model) {
		m.t.Fatalf("Lookup(%.12s) = %v, %v; the model holds %v, %v", key, rec, found, model, ok)
	}
	if path, err := m.tree.TraversalPath(key); err != nil || !slices.Equal(path, want) {
		m.t.Fatalf("TraversalPath(%.12s) = %v (%v), the shape routes %v", key, path, err, want)
	}
}

// checkKeys holds the keys checkShape found in the leaves to the
// model's.
func (m *modelTree) checkKeys(sh *shape) {
	m.t.Helper()
	n := 0
	for _, l := range sh.leaves {
		for _, k := range l.keys {
			if _, ok := m.model[k]; !ok {
				m.t.Fatalf("leaf %d holds %.12s, which the model does not", l.id, k)
			}
		}
		n += len(l.keys)
	}
	if n != len(m.model) {
		m.t.Fatalf("the leaves hold %d keys, the model %d", n, len(m.model))
	}
}

// checkWalk holds a Range over [lo, hi] (Scan, unbounded) to the
// model's rows and the shape's fetch sequence.
func (m *modelTree) checkWalk(sh *shape, bounded bool, lo, hi sqlparse.Value) {
	m.t.Helper()
	var rows []storage.Record
	collect := func(r storage.Record) bool { rows = append(rows, r); return true }
	var err error
	trace := m.traced(func() {
		if bounded {
			err = m.tree.Range(lo, hi, collect)
		} else {
			err = m.tree.Scan(collect)
		}
	})
	what := fmt.Sprintf("bounded=%v [%.12s, %.12s]", bounded, lo, hi)
	if want := sh.walk(bounded, lo, hi); err != nil || !slices.Equal(trace, want) {
		m.t.Fatalf("%s: fetched %v (%v), the shape walks %v", what, trace, err, want)
	}
	if want := m.expected(bounded, lo, hi); !reflect.DeepEqual(rows, want) {
		m.t.Fatalf("%s: %d rows, the model has %d", what, len(rows), len(want))
	}
}

// shape is a tree as checkShape read it.
type shape struct {
	root   storage.PageID
	height int
	nodes  map[storage.PageID][]separator // internal nodes' live entries, in key order
	leaves []leafShape                    // in key order, which is chain order
	leafAt map[storage.PageID]int         // index into leaves
}

type separator struct {
	key   sqlparse.Value
	child storage.PageID
}

// leafShape is a leaf's live keys, in key order.
type leafShape struct {
	id   storage.PageID
	keys []sqlparse.Value
}

// checkShape reads tr from its root, page by page out of the
// tablespace (no buffer-pool fetch), and fails unless it is a
// well-formed B+ tree: every node's keys strictly increasing and inside
// the bounds its parent's separators set — each separator at or below
// its child's keys, below its right neighbour's separator — the leftmost
// spine filed under −∞, every leaf at one depth, and the leaf chain
// linking exactly the leaves, in key order, once each.
func checkShape(t testing.TB, tr *Tree) *shape {
	t.Helper()
	sh := &shape{root: tr.Root(), nodes: make(map[storage.PageID][]separator), leafAt: make(map[storage.PageID]int)}
	limit := tr.ts.NumPages()
	var visit func(id storage.PageID, depth int, lo, hi *sqlparse.Value, spine bool)
	visit = func(id storage.PageID, depth int, lo, hi *sqlparse.Value, spine bool) {
		if depth > limit {
			t.Fatalf("shape: page %d: child links loop", id)
		}
		p, err := tr.ts.Get(id)
		if err != nil {
			t.Fatalf("shape: %v", err)
		}
		type entry struct {
			key  sqlparse.Value
			slot int
		}
		var live []entry
		for i := 0; i < p.SlotCount(); i++ {
			if b := p.SlotBytes(i); b != nil {
				k, err := storage.DecodeKey(b)
				if err != nil {
					t.Fatalf("shape: page %d slot %d: %v", id, i, err)
				}
				live = append(live, entry{k, i})
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i].key.Compare(live[j].key) < 0 })
		keys := make([]sqlparse.Value, len(live))
		for i, e := range live {
			keys[i] = e.key
			if i > 0 && keys[i-1].Compare(e.key) >= 0 {
				t.Fatalf("shape: page %d holds %.12s twice", id, e.key)
			}
			if (lo != nil && e.key.Compare(*lo) < 0) || (hi != nil && e.key.Compare(*hi) >= 0) {
				t.Fatalf("shape: page %d holds %.12s, outside the bounds its parent files it under", id, e.key)
			}
		}
		switch p.Type() {
		case storage.PageBTreeLeaf:
			if sh.height == 0 {
				sh.height = depth
			} else if depth != sh.height {
				t.Fatalf("shape: leaf %d at depth %d, another at %d", id, depth, sh.height)
			}
			sh.leafAt[id] = len(sh.leaves)
			sh.leaves = append(sh.leaves, leafShape{id, keys})
		case storage.PageBTreeInternal:
			if len(keys) == 0 {
				t.Fatalf("shape: internal node %d has no children", id)
			}
			if spine && !keys[0].Equal(minusInf) {
				t.Fatalf("shape: node %d on the leftmost spine is filed under %.12s, not −∞", id, keys[0])
			}
			seps := make([]separator, len(live))
			for i, e := range live {
				rec, _, err := storage.DecodeRecord(p.SlotBytes(e.slot))
				if err != nil || len(rec) != 2 || !rec[1].IsInt {
					t.Fatalf("shape: node %d slot %d is no {separator, child} entry (%v)", id, e.slot, err)
				}
				seps[i] = separator{e.key, storage.PageID(rec[1].Int)}
			}
			sh.nodes[id] = seps
			for i, s := range seps {
				childHi := hi
				if i+1 < len(seps) {
					childHi = &seps[i+1].key
				}
				visit(s.child, depth+1, &s.key, childHi, spine && i == 0)
			}
		default:
			t.Fatalf("shape: page %d is not a tree page", id)
		}
	}
	visit(sh.root, 1, nil, nil, true)
	id := sh.leaves[0].id
	for _, l := range sh.leaves {
		if id != l.id {
			t.Fatalf("shape: the leaf chain reaches %d where key order has leaf %d", id, l.id)
		}
		p, _ := tr.ts.Get(id)
		id = p.Next()
	}
	if id != storage.InvalidPage {
		t.Fatalf("shape: the leaf chain runs on past the last leaf, to %d", id)
	}
	if h, err := tr.Height(); err != nil || h != sh.height {
		t.Fatalf("shape: Height() = %d (%v), the leaves sit at depth %d", h, err, sh.height)
	}
	return sh
}

// path is the pages a descent to key fetches, root first: at each node
// the child under the largest separator <= key. −∞ routes down the
// leftmost spine.
func (sh *shape) path(key sqlparse.Value) []storage.PageID {
	out := []storage.PageID{sh.root}
	for seps, ok := sh.nodes[sh.root]; ok; {
		i := 0
		for i+1 < len(seps) && seps[i+1].key.Compare(key) <= 0 {
			i++
		}
		out = append(out, seps[i].child)
		seps, ok = sh.nodes[seps[i].child]
	}
	return out
}

// walk is the pages a Range over [lo, hi] fetches — or, unbounded, a
// Scan: the descent to lo (down the leftmost spine, unbounded), then
// the leaf chain up to the first leaf holding a key beyond the window,
// one > hi and >= lo, or to the chain's end.
func (sh *shape) walk(bounded bool, lo, hi sqlparse.Value) []storage.PageID {
	if !bounded {
		lo = minusInf
	}
	out := sh.path(lo)
	for i := sh.leafAt[out[len(out)-1]]; i+1 < len(sh.leaves); i++ {
		if bounded && sh.leaves[i].beyond(lo, hi) {
			break
		}
		out = append(out, sh.leaves[i+1].id)
	}
	return out
}

// beyond reports whether l holds a key > hi and >= lo.
func (l *leafShape) beyond(lo, hi sqlparse.Value) bool {
	for _, k := range l.keys {
		if k.Compare(hi) > 0 && k.Compare(lo) >= 0 {
			return true
		}
	}
	return false
}

// FuzzTreeMatchesModel decodes its input into a write and read sequence
// over int or text keys — three bytes a step: inserts, deletes, updates
// that resize a record, ranges, and Serialize → LoadTablespace reloads —
// and after every step requires the tree to pass checkShape, to hold
// the model's keys in its leaves, and to answer the step's lookup —
// and its range, or after a reload a scan — as the model does, over the
// pages its shape implies. Text keys are long enough that a few dozen
// of them split internal nodes.
func FuzzTreeMatchesModel(f *testing.F) {
	descending := func(n int) []byte {
		var ops []byte
		for i := n - 1; i >= 0; i-- {
			ops = append(ops, 0, byte(i), byte(i*7))
		}
		return append(ops, 3, 0, 255, 4, 0, 0, 3, byte(n/2), byte(n/2))
	}
	f.Add(false, descending(190))
	f.Add(true, descending(80))
	churn := make([]byte, 0, 600)
	for i := 0; i < 200; i++ {
		churn = append(churn, byte(i*13%5), byte(255-i*3), byte(i*37))
	}
	f.Add(false, churn)
	f.Add(true, churn)
	f.Fuzz(func(t *testing.T, text bool, ops []byte) {
		key, pad := intKey, 1000
		if text {
			key, pad = textKey, 300
		}
		rec := func(k sqlparse.Value, size byte) storage.Record {
			return storage.Record{k, sqlparse.StrValue(strings.Repeat("p", pad+int(size)*900/256))}
		}
		m := newModelTree(t)
		for i := 0; i+2 < len(ops) && i < 3*200; i += 3 {
			op, k, arg := ops[i]%5, key(int(ops[i+1])), ops[i+2]
			switch op {
			case 0:
				m.insert(rec(k, arg))
			case 1:
				m.delete(k)
			case 2:
				m.update(rec(k, arg))
			case 4:
				m.reload()
			}
			sh := checkShape(t, m.tree)
			m.checkKeys(sh)
			m.checkLookup(sh, k)
			switch op {
			case 3:
				m.checkWalk(sh, true, k, key(int(arg)))
			case 4:
				m.checkWalk(sh, false, sqlparse.Value{}, sqlparse.Value{})
			}
		}
	})
}

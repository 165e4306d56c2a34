package btree

import (
	"fmt"
	"sort"
	"strings"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// Cursor is the tree's one read traversal: it walks the leaf chain a
// leaf at a time, in key order, over every key or over [lo, hi]. Each
// Next or Skip fetches exactly one more leaf through the buffer pool
// (the first one also descends from the root), and the walk ends after
// the first leaf that holds a key beyond hi, or at the end of the
// chain — so the page-fetch sequence, the state a snapshot attacker
// reads back out of the pool, is a function of the tree and the bounds
// alone. How many records a caller takes from each leaf, or whether it
// decodes them at all, never changes it.
//
// The zero Cursor is unusable; Init it. A Cursor holds no page between
// calls, so it is safe to embed by value and to abandon half-way.
type Cursor struct {
	t       *Tree
	bounded bool
	lo, hi  sqlparse.Value
	need    []bool

	started, done bool
	next          storage.PageID // leaf the following advance fetches
	fetches       uint64

	// Per-leaf scratch, reused from leaf to leaf. The one-element
	// arrays back them until a leaf yields a second record, so a point
	// read allocates nothing here.
	keys   []keyRef
	rows   []storage.Record
	keyBuf [1]keyRef
	rowBuf [1]storage.Record
}

// keyRef is a key-only view of a live slot: enough to filter and sort,
// and to decide which slots deserve a full decode.
type keyRef struct {
	key  sqlparse.Value
	slot int
}

// Init points c at t without touching a page. Unbounded, the walk
// starts at the leftmost leaf and lo/hi are ignored; bounded, it starts
// at the leaf covering lo (lo == hi is a point read; lo > hi matches
// nothing but still walks as far as a key >= lo). need selects the
// record fields Next materializes, by position; nil means all.
func (c *Cursor) Init(t *Tree, bounded bool, lo, hi sqlparse.Value, need []bool) {
	*c = Cursor{t: t, bounded: bounded, lo: lo, hi: hi, need: need}
	c.keys, c.rows = c.keyBuf[:0], c.rowBuf[:0]
}

// Next fetches the walk's next leaf and returns its live in-bounds
// records in key order — possibly none — with ok=false once the walk is
// over. Fields outside need come back as zero Values. The records of
// one leaf share one value slab and one string slab, freshly allocated
// and never aliasing page bytes, so callers may retain them; the
// returned slice itself is reused by the following call.
func (c *Cursor) Next() ([]storage.Record, bool, error) {
	leaf, err := c.advance()
	if leaf == nil {
		return nil, false, err
	}
	fields, textBytes := 0, 0
	for _, k := range c.keys {
		n, tb := storage.DecodedSize(leaf.SlotBytes(k.slot), c.need)
		fields += n
		textBytes += tb
	}
	slab := make(storage.Record, 0, fields)
	var text strings.Builder
	text.Grow(textBytes)
	c.rows = c.rows[:0]
	for _, k := range c.keys {
		start := len(slab)
		slab, _, err = storage.AppendDecoded(slab, leaf.SlotBytes(k.slot), c.need, &text)
		if err != nil {
			return nil, false, c.fail(leaf, k.slot, err)
		}
		c.rows = append(c.rows, slab[start:len(slab):len(slab)])
	}
	return c.rows, true, nil
}

// Fetches returns how many pages the walk has fetched through the
// buffer pool so far. It is the cursor's own count, not a sample of the
// pool's shared one: exact under concurrent sessions, and free of the
// pool lock.
func (c *Cursor) Fetches() uint64 { return c.fetches }

// Skip is Next without the decode: it fetches the same leaf and returns
// how many records Next would have.
func (c *Cursor) Skip() (int, bool, error) {
	leaf, err := c.advance()
	if leaf == nil {
		return 0, false, err
	}
	return len(c.keys), true, nil
}

// advance fetches the walk's next leaf, leaves its live in-bounds
// slots in c.keys in key order, and decides whether the walk goes on.
// A nil page with a nil error means the walk is over.
func (c *Cursor) advance() (*storage.Page, error) {
	if c.done {
		return nil, nil
	}
	var leaf *storage.Page
	var err error
	levels := 1
	switch {
	case c.started:
		leaf, err = c.t.pool.Fetch(c.next)
	case c.bounded:
		var path []storage.PageID
		leaf, path, err = c.t.findLeaf(c.lo)
		levels = len(path)
	default:
		leaf, levels, err = c.t.leftmostLeaf()
	}
	c.started = true
	if err != nil {
		c.done = true
		return nil, err
	}
	c.fetches += uint64(levels)
	// Filter before sorting: keys are unique, so the order of the
	// survivors is the same, and a point read never sorts at all.
	c.keys = c.keys[:0]
	beyond, sorted := false, true
	for i := 0; i < leaf.SlotCount(); i++ {
		b := leaf.SlotBytes(i)
		if b == nil {
			continue
		}
		k, err := storage.DecodeKey(b)
		if err != nil {
			return nil, c.fail(leaf, i, err)
		}
		if c.bounded {
			if k.Compare(c.lo) < 0 {
				continue
			}
			if k.Compare(c.hi) > 0 {
				beyond = true
				continue
			}
		}
		if n := len(c.keys); n > 0 && k.Compare(c.keys[n-1].key) < 0 {
			sorted = false
		}
		c.keys = append(c.keys, keyRef{key: k, slot: i})
	}
	if !sorted {
		sort.SliceStable(c.keys, func(i, j int) bool { return c.keys[i].key.Compare(c.keys[j].key) < 0 })
	}
	c.next = leaf.Next()
	c.done = beyond || c.next == storage.InvalidPage
	return leaf, nil
}

// fail ends the walk on an undecodable slot.
func (c *Cursor) fail(p *storage.Page, slot int, err error) error {
	c.done = true
	return fmt.Errorf("btree: page %d slot %d: %w", p.ID(), slot, err)
}

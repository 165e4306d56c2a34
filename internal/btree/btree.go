// Package btree implements the clustered B+ tree index used by the
// snapdb engine, one tree per table, keyed by primary key.
//
// Node contents live in storage pages fetched through the buffer pool,
// so every traversal updates the pool's LRU order and access counters —
// the in-memory state that §5 of the paper shows a snapshot attacker
// reads back out. Inserts append into slotted pages and deletes only
// mark slots, so page images retain dead-record residue like production
// engines do.
package btree

import (
	"fmt"
	"sort"

	"snapdb/internal/bufpool"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// Tree is a B+ tree whose leaf entries are full records with the key in
// column 0.
type Tree struct {
	pool *bufpool.Pool
	ts   *storage.Tablespace
	root storage.PageID
}

// New creates an empty tree with a single leaf root.
func New(ts *storage.Tablespace, pool *bufpool.Pool) *Tree {
	leaf := ts.Allocate(storage.PageBTreeLeaf)
	return &Tree{pool: pool, ts: ts, root: leaf.ID()}
}

// Open attaches to an existing tree rooted at root.
func Open(ts *storage.Tablespace, pool *bufpool.Pool, root storage.PageID) *Tree {
	return &Tree{pool: pool, ts: ts, root: root}
}

// Root returns the current root page id (it changes when the root
// splits), for catalog persistence.
func (t *Tree) Root() storage.PageID { return t.root }

// entry is one decoded node entry. In a leaf, rec is the full record
// (rec[0] is the key). In an internal node, rec is {separatorKey,
// childPageID}.
type entry struct {
	key  sqlparse.Value
	rec  storage.Record
	slot int
}

func decodeEntries(p *storage.Page) ([]entry, error) {
	out := make([]entry, 0, p.SlotCount())
	for i := 0; i < p.SlotCount(); i++ {
		b := p.SlotBytes(i)
		if b == nil {
			continue
		}
		rec, _, err := storage.DecodeRecord(b)
		if err != nil {
			return nil, slotErr(p, i, err)
		}
		if len(rec) == 0 {
			return nil, fmt.Errorf("btree: page %d slot %d: empty record", p.ID(), i)
		}
		out = append(out, entry{key: rec[0], rec: rec, slot: i})
	}
	if !entriesSorted(out) {
		sort.SliceStable(out, func(i, j int) bool { return out[i].key.Compare(out[j].key) < 0 })
	}
	return out, nil
}

// entriesSorted reports whether entries are already in key order. Slots
// are appended in insert order, which for monotonic keys (and for any
// page rebuilt by a split) is already sorted — checking first keeps the
// steady state free of sort.SliceStable's reflective swapper
// allocation.
func entriesSorted(es []entry) bool {
	for i := 1; i < len(es); i++ {
		if es[i].key.Compare(es[i-1].key) < 0 {
			return false
		}
	}
	return true
}

// decodeSlot fully decodes the record in slot i of p.
func decodeSlot(p *storage.Page, i int) (storage.Record, error) {
	rec, _, err := storage.DecodeRecord(p.SlotBytes(i))
	if err != nil {
		return nil, slotErr(p, i, err)
	}
	if len(rec) == 0 {
		return nil, fmt.Errorf("btree: page %d slot %d: empty record", p.ID(), i)
	}
	return rec, nil
}

// findLeaf walks from the root to the leaf covering key, returning the
// leaf and the number of pages fetched on the way (the leaf included).
// A non-nil path collects their ids, root first.
func (t *Tree) findLeaf(key sqlparse.Value, path *[]storage.PageID) (*storage.Page, int, error) {
	id := t.root
	for levels := 1; ; levels++ {
		p, err := t.pool.Fetch(id)
		if err != nil {
			return nil, 0, err
		}
		if path != nil {
			*path = append(*path, id)
		}
		if p.Type() == storage.PageBTreeLeaf {
			return p, levels, nil
		}
		if id, err = childIn(p, key); err != nil {
			return nil, 0, err
		}
	}
}

// TraversalPath returns the page ids a lookup of key touches, root
// first. The leakage analysis uses it to interpret buffer-pool dumps.
func (t *Tree) TraversalPath(key sqlparse.Value) ([]storage.PageID, error) {
	var path []storage.PageID
	if _, _, err := t.findLeaf(key, &path); err != nil {
		return nil, err
	}
	return path, nil
}

// ErrDuplicateKey is returned by Insert when the key already exists.
var ErrDuplicateKey = fmt.Errorf("btree: duplicate key")

// Insert adds a record; rec[0] is the key.
func (t *Tree) Insert(rec storage.Record) error {
	if len(rec) == 0 {
		return fmt.Errorf("btree: inserting empty record")
	}
	split, err := t.insertInto(t.root, rec)
	if err != nil {
		return err
	}
	if split != nil {
		// Root split: build a new internal root over old root and the
		// new sibling.
		oldRootFirst, err := t.firstKeyOf(t.root)
		if err != nil {
			return err
		}
		newRoot := t.ts.Allocate(storage.PageBTreeInternal)
		left := storage.EncodeRecord(storage.Record{oldRootFirst, sqlparse.IntValue(int64(t.root))})
		right := storage.EncodeRecord(storage.Record{split.key, sqlparse.IntValue(int64(split.page))})
		if err := appendEntry(newRoot, left); err != nil {
			return err
		}
		if err := appendEntry(newRoot, right); err != nil {
			return err
		}
		t.root = newRoot.ID()
	}
	return nil
}

func (t *Tree) firstKeyOf(id storage.PageID) (sqlparse.Value, error) {
	p, err := t.ts.Get(id)
	if err != nil {
		return sqlparse.Value{}, err
	}
	slot, err := lowestSlot(p)
	if err != nil {
		return sqlparse.Value{}, err
	}
	if slot < 0 {
		return sqlparse.Value{}, fmt.Errorf("btree: page %d is empty", id)
	}
	key, err := storage.DecodeKey(p.SlotBytes(slot))
	if err != nil {
		return sqlparse.Value{}, slotErr(p, slot, err)
	}
	return key, nil
}

// splitResult describes an upward-propagating split.
type splitResult struct {
	key  sqlparse.Value // first key of the new right sibling
	page storage.PageID
}

func (t *Tree) insertInto(id storage.PageID, rec storage.Record) (*splitResult, error) {
	p, err := t.pool.Fetch(id)
	if err != nil {
		return nil, err
	}
	if p.Type() == storage.PageBTreeLeaf {
		return t.insertLeaf(p, rec)
	}
	child, err := childIn(p, rec[0])
	if err != nil {
		return nil, err
	}
	split, err := t.insertInto(child, rec)
	if err != nil || split == nil {
		return nil, err
	}
	sep := storage.Record{split.key, sqlparse.IntValue(int64(split.page))}
	return t.insertNodeEntry(p, sep)
}

func (t *Tree) insertLeaf(p *storage.Page, rec storage.Record) (*splitResult, error) {
	_, dup, err := findSlot(p, rec[0])
	if err != nil {
		return nil, err
	}
	if dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateKey, rec[0])
	}
	return t.insertNodeEntry(p, rec)
}

// insertNodeEntry appends rec into node p, splitting if necessary.
func (t *Tree) insertNodeEntry(p *storage.Page, rec storage.Record) (*splitResult, error) {
	enc := storage.EncodeRecord(rec)
	if len(enc) > storage.PageSize/2 {
		return nil, fmt.Errorf("btree: record of %d bytes exceeds half a page", len(enc))
	}
	if err := appendEntry(p, enc); err == nil {
		return nil, nil
	}
	// Reclaim deleted-slot space before splitting.
	p.Compact()
	if err := appendEntry(p, enc); err == nil {
		return nil, nil
	}
	return t.split(p, rec)
}

// split divides node p around its median, moving the upper half (plus
// rec wherever it belongs) into a fresh sibling.
func (t *Tree) split(p *storage.Page, rec storage.Record) (*splitResult, error) {
	entries, err := decodeEntries(p)
	if err != nil {
		return nil, err
	}
	all := make([]storage.Record, 0, len(entries)+1)
	for _, e := range entries {
		all = append(all, e.rec)
	}
	all = append(all, rec)
	sort.SliceStable(all, func(i, j int) bool { return all[i][0].Compare(all[j][0]) < 0 })
	mid := len(all) / 2

	sibling := t.ts.Allocate(p.Type())
	if p.Type() == storage.PageBTreeLeaf {
		sibling.SetNext(p.Next())
		p.SetNext(sibling.ID())
	}
	oldNext := p.Next()
	p.Format(p.ID(), p.Type())
	if p.Type() == storage.PageBTreeLeaf {
		p.SetNext(oldNext)
	}
	for i, r := range all {
		target := p
		if i >= mid {
			target = sibling
		}
		if _, err := target.InsertBytes(storage.EncodeRecord(r)); err != nil {
			return nil, fmt.Errorf("btree: split re-insert failed: %w", err)
		}
	}
	return &splitResult{key: all[mid][0], page: sibling.ID()}, nil
}

// Search returns the record with the given key. Only the matching
// slot is decoded.
func (t *Tree) Search(key sqlparse.Value) (storage.Record, bool, error) {
	leaf, _, err := t.findLeaf(key, nil)
	if err != nil {
		return nil, false, err
	}
	slot, found, err := findSlot(leaf, key)
	if err != nil || !found {
		return nil, false, err
	}
	rec, err := decodeSlot(leaf, slot)
	if err != nil {
		return nil, false, err
	}
	return rec, true, nil
}

// Delete removes the record with the given key, reporting whether it
// existed. The slot is only marked deleted; bytes remain in the page.
func (t *Tree) Delete(key sqlparse.Value) (bool, error) {
	leaf, _, err := t.findLeaf(key, nil)
	if err != nil {
		return false, err
	}
	slot, found, err := findSlot(leaf, key)
	if err != nil || !found {
		return false, err
	}
	return true, leaf.DeleteSlot(slot)
}

// Update replaces the record stored under key (rec[0] must equal key).
func (t *Tree) Update(key sqlparse.Value, rec storage.Record) (bool, error) {
	if len(rec) == 0 || !rec[0].Equal(key) {
		return false, fmt.Errorf("btree: update record key mismatch")
	}
	leaf, _, err := t.findLeaf(key, nil)
	if err != nil {
		return false, err
	}
	slot, found, err := findSlot(leaf, key)
	if err != nil || !found {
		return false, err
	}
	enc := storage.EncodeRecord(rec)
	if err := leaf.UpdateSlot(slot, enc); err == storage.ErrPageFull {
		// Delete + re-insert through the normal split path.
		if err := leaf.DeleteSlot(slot); err != nil {
			return false, err
		}
		return true, t.Insert(rec)
	} else if err != nil {
		return false, err
	}
	return true, nil
}

// Scan calls fn for every record in key order. fn returns false to stop.
func (t *Tree) Scan(fn func(storage.Record) bool) error {
	return t.walk(false, sqlparse.Value{}, sqlparse.Value{}, fn)
}

// Range calls fn for records with lo <= key <= hi in key order.
func (t *Tree) Range(lo, hi sqlparse.Value, fn func(storage.Record) bool) error {
	return t.walk(true, lo, hi, fn)
}

// walk drives a Cursor for the callback API, stopping — without
// fetching another leaf — as soon as fn declines a record.
func (t *Tree) walk(bounded bool, lo, hi sqlparse.Value, fn func(storage.Record) bool) error {
	var c Cursor
	c.Init(t, bounded, lo, hi, nil)
	for {
		rows, ok, err := c.Next()
		if err != nil || !ok {
			return err
		}
		for _, r := range rows {
			if !fn(r) {
				return nil
			}
		}
	}
}

// leftmostLeaf walks from the root to the first leaf of the chain,
// returning it and the number of pages fetched on the way (the leaf
// included).
func (t *Tree) leftmostLeaf() (*storage.Page, int, error) {
	id := t.root
	for levels := 1; ; levels++ {
		p, err := t.pool.Fetch(id)
		if err != nil {
			return nil, 0, err
		}
		if p.Type() == storage.PageBTreeLeaf {
			return p, levels, nil
		}
		if id, err = firstChild(p); err != nil {
			return nil, 0, err
		}
	}
}

// Len counts the records in the tree (full scan).
func (t *Tree) Len() (int, error) {
	var c Cursor
	c.Init(t, false, sqlparse.Value{}, sqlparse.Value{}, nil)
	total := 0
	for {
		n, ok, err := c.Skip()
		if err != nil || !ok {
			return total, err
		}
		total += n
	}
}

// Height returns the number of levels from root to leaf.
func (t *Tree) Height() (int, error) {
	h := 1
	id := t.root
	for {
		p, err := t.ts.Get(id)
		if err != nil {
			return 0, err
		}
		if p.Type() == storage.PageBTreeLeaf {
			return h, nil
		}
		if id, err = firstChild(p); err != nil {
			return 0, err
		}
		h++
	}
}

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
	"math"
	"slices"

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
	id, limit := t.root, t.ts.NumPages()
	for levels := 1; ; levels++ {
		if levels > limit {
			return nil, 0, t.loopErr(id, limit)
		}
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

// loopErr is the error of a descent that reached page id after passing
// more pages than the tablespace holds: a forged tree whose child links
// loop, which would otherwise descend forever.
func (t *Tree) loopErr(id storage.PageID, limit int) error {
	return fmt.Errorf("btree: page %d: descent from root %d passes more than the tablespace's %d pages: child links loop", id, t.root, limit)
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
	split, err := t.insertInto(t.root, rec, t.ts.NumPages())
	if err != nil {
		return err
	}
	if split != nil {
		// Root split: a new internal root over the old root, filed under
		// −∞ (MinInt64 sorts below every int and every text key), and
		// the new sibling. A split's left half keeps the −∞ entry and
		// every other separator is a split median, so each separator
		// bounds its child from below whatever order keys arrive in.
		newRoot := t.ts.Allocate(storage.PageBTreeInternal)
		left := storage.EncodeRecord(storage.Record{sqlparse.IntValue(math.MinInt64), sqlparse.IntValue(int64(t.root))})
		right := storage.EncodeRecord(storage.Record{split.key, sqlparse.IntValue(int64(split.page))})
		if _, err := newRoot.InsertBytes(left); err != nil {
			return err
		}
		if _, err := newRoot.InsertBytes(right); err != nil {
			return err
		}
		t.root = newRoot.ID()
	}
	return nil
}

// splitResult describes an upward-propagating split.
type splitResult struct {
	key  sqlparse.Value // first key of the new right sibling
	page storage.PageID
}

// insertInto inserts rec into the subtree rooted at page id; left is
// how many more pages the descent may pass before it must have looped.
func (t *Tree) insertInto(id storage.PageID, rec storage.Record, left int) (*splitResult, error) {
	if left <= 0 {
		return nil, t.loopErr(id, t.ts.NumPages())
	}
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
	split, err := t.insertInto(child, rec, left-1)
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
	if _, err := p.InsertBytes(enc); err == nil {
		return nil, nil
	}
	// Reclaim deleted-slot space before splitting.
	p.Compact()
	if _, err := p.InsertBytes(enc); err == nil {
		return nil, nil
	}
	return t.split(p, rec[0], enc)
}

// split divides node p around its median, moving the upper half (plus
// enc, the record under key, after every key <= its own) into a fresh
// sibling.
func (t *Tree) split(p *storage.Page, key sqlparse.Value, enc []byte) (*splitResult, error) {
	ix, err := keysOf(p)
	if err != nil {
		return nil, err
	}
	pos, err := bisect(p, ix, key, true)
	if err != nil {
		return nil, err
	}
	all := make([][]byte, 0, len(ix)+1)
	for _, slot := range ix {
		all = append(all, slices.Clone(p.SlotBytes(int(slot))))
	}
	all = slices.Insert(all, pos, enc)
	// The median by count balances records of one size. With sizes
	// skewed it can leave a half more than a page holds, so the split
	// point moves toward that half until both fit — decided before p is
	// rewritten, so a split that cannot succeed changes nothing.
	mid := len(all) / 2
	for mid < len(all)-1 && !storage.Fits(all[mid:]) {
		mid++
	}
	for mid > 1 && !storage.Fits(all[:mid]) {
		mid--
	}
	if !storage.Fits(all[:mid]) || !storage.Fits(all[mid:]) {
		return nil, fmt.Errorf("btree: page %d: no split point leaves both halves a page", p.ID())
	}
	midKey, err := storage.DecodeKey(all[mid])
	if err != nil {
		return nil, err
	}

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
	for i, b := range all {
		target := p
		if i >= mid {
			target = sibling
		}
		if _, err := target.InsertBytes(b); err != nil {
			return nil, fmt.Errorf("btree: split re-insert failed: %w", err)
		}
	}
	return &splitResult{key: midKey, page: sibling.ID()}, nil
}

// locate finds the leaf and live slot holding key, in one descent.
func (t *Tree) locate(key sqlparse.Value) (*storage.Page, int, bool, error) {
	leaf, _, err := t.findLeaf(key, nil)
	if err != nil {
		return nil, 0, false, err
	}
	slot, found, err := findSlot(leaf, key)
	return leaf, slot, found, err
}

// Search returns the record with the given key. Only the matching
// slot is decoded.
func (t *Tree) Search(key sqlparse.Value) (storage.Record, bool, error) {
	rec, found, _, err := t.Lookup(key)
	return rec, found, err
}

// Lookup is Search that also reports how many pages its descent fetched
// through the buffer pool, the leaf included. It is the lookup's own
// count, not a sample of the pool's shared one, so no other session's
// fetches can land in it.
func (t *Tree) Lookup(key sqlparse.Value) (rec storage.Record, found bool, fetches int, err error) {
	leaf, fetches, err := t.findLeaf(key, nil)
	if err != nil {
		return nil, false, 0, err
	}
	slot, found, err := findSlot(leaf, key)
	if err != nil || !found {
		return nil, false, fetches, err
	}
	if rec, err = decodeSlot(leaf, slot); err != nil {
		return nil, false, fetches, err
	}
	return rec, true, fetches, nil
}

// Delete removes the record with the given key, reporting whether it
// existed. The slot is only marked deleted; bytes remain in the page.
func (t *Tree) Delete(key sqlparse.Value) (bool, error) {
	leaf, slot, found, err := t.locate(key)
	if err != nil || !found {
		return false, err
	}
	return true, leaf.DeleteSlot(slot)
}

// Take is Search and Delete in one descent: it removes the record with
// the given key and returns it.
func (t *Tree) Take(key sqlparse.Value) (storage.Record, bool, error) {
	leaf, slot, found, err := t.locate(key)
	if err != nil || !found {
		return nil, false, err
	}
	rec, err := decodeSlot(leaf, slot)
	if err != nil {
		return nil, false, err
	}
	return rec, true, leaf.DeleteSlot(slot)
}

// Update replaces the record stored under key (rec[0] must equal key).
func (t *Tree) Update(key sqlparse.Value, rec storage.Record) (bool, error) {
	if err := sameKey(key, rec); err != nil {
		return false, err
	}
	leaf, slot, found, err := t.locate(key)
	if err != nil || !found {
		return false, err
	}
	return true, t.rewrite(leaf, slot, rec)
}

// Modify is Search and Update in one descent: fn receives the record
// stored under key — decoded, the caller's to keep — and returns the
// record to store in its place (rec[0] must equal key), or nil to leave
// the slot as it is. found reports whether key was stored at all.
func (t *Tree) Modify(key sqlparse.Value, fn func(cur storage.Record) (storage.Record, error)) (found bool, err error) {
	leaf, slot, found, err := t.locate(key)
	if err != nil || !found {
		return false, err
	}
	cur, err := decodeSlot(leaf, slot)
	if err != nil {
		return false, err
	}
	rec, err := fn(cur)
	if err != nil || rec == nil {
		return true, err
	}
	if err := sameKey(key, rec); err != nil {
		return true, err
	}
	return true, t.rewrite(leaf, slot, rec)
}

// sameKey checks that rec is stored under key.
func sameKey(key sqlparse.Value, rec storage.Record) error {
	if len(rec) == 0 || !rec[0].Equal(key) {
		return fmt.Errorf("btree: update record key mismatch")
	}
	return nil
}

// rewrite replaces the record in slot of leaf with rec, which keeps the
// slot's key: in place if the page has room, else by deleting the slot
// and inserting rec through the normal split path.
func (t *Tree) rewrite(leaf *storage.Page, slot int, rec storage.Record) error {
	err := leaf.UpdateSlot(slot, storage.EncodeRecord(rec))
	if err != storage.ErrPageFull {
		return err
	}
	if err := leaf.DeleteSlot(slot); err != nil {
		return err
	}
	return t.Insert(rec)
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
	id, limit := t.root, t.ts.NumPages()
	for levels := 1; ; levels++ {
		if levels > limit {
			return nil, 0, t.loopErr(id, limit)
		}
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
	id, limit := t.root, t.ts.NumPages()
	for h := 1; ; h++ {
		if h > limit {
			return 0, t.loopErr(id, limit)
		}
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
	}
}

package btree

import (
	"fmt"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// In-page search. Every descent and point lookup finds its slot here,
// comparing the probe key against the encoded records where they lie
// (storage.CompareKey): nothing is decoded and nothing is allocated.
// Slots are appended in arrival order, so lookups bisect the page's key
// index (storage.Page.Keys) instead: its live slots sorted by key, ties
// in slot order, which the page's own mutators keep. Which page a
// descent fetches next therefore never depends on the order a page's
// slots arrived in.

// keysOf returns p's key index, deriving it if p has none yet.
func keysOf(p *storage.Page) ([]uint16, error) {
	ix, err := p.Keys()
	if err != nil {
		return nil, fmt.Errorf("btree: %w", err)
	}
	return ix, nil
}

// bisect returns the position in ix, p's key index, that splits its
// slots around key: those before it hold keys < key (<= key when after
// is set), those at or after it the rest.
func bisect(p *storage.Page, ix []uint16, key sqlparse.Value, after bool) (int, error) {
	lo, hi := 0, len(ix)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c, err := storage.CompareKey(p.SlotBytes(int(ix[mid])), key)
		if err != nil {
			return 0, slotErr(p, int(ix[mid]), err)
		}
		if c < 0 || (after && c == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// findSlot locates the live slot holding key in p: the first such slot
// in slot order.
func findSlot(p *storage.Page, key sqlparse.Value) (int, bool, error) {
	ix, err := keysOf(p)
	if err != nil {
		return 0, false, err
	}
	pos, err := bisect(p, ix, key, false)
	if err != nil || pos == len(ix) {
		return 0, false, err
	}
	// The first key at or above key either is key or is not there.
	slot := int(ix[pos])
	c, err := storage.CompareKey(p.SlotBytes(slot), key)
	if err != nil || c != 0 {
		return 0, false, err
	}
	return slot, true, nil
}

// lowestSlot returns the live slot holding p's smallest key — the
// earliest one in slot order if several do — or -1 when no slot is live.
func lowestSlot(p *storage.Page) (int, error) {
	ix, err := keysOf(p)
	if err != nil || len(ix) == 0 {
		return -1, err
	}
	return int(ix[0]), nil
}

// routeSlot returns the slot of internal node p that routes key: the
// one holding the largest separator <= key — the latest in slot order
// if several hold it — or, when key precedes every separator,
// lowestSlot. -1 means p has no live slot. A node this package writes
// files its first child under −∞ (Insert), so every key has a separator
// <= it; the fallback is for trees written before that, whose first
// separator is the first key the node ever held.
func routeSlot(p *storage.Page, key sqlparse.Value) (int, error) {
	ix, err := keysOf(p)
	if err != nil {
		return 0, err
	}
	above, err := bisect(p, ix, key, true)
	switch {
	case err != nil:
		return 0, err
	case above > 0:
		return int(ix[above-1]), nil
	case len(ix) > 0:
		return int(ix[0]), nil
	}
	return -1, nil
}

// childIn returns the child of internal node p that covers key.
func childIn(p *storage.Page, key sqlparse.Value) (storage.PageID, error) {
	slot, err := routeSlot(p, key)
	if err != nil {
		return storage.InvalidPage, err
	}
	return childAt(p, slot)
}

// firstChild returns the child of internal node p that covers the
// smallest keys.
func firstChild(p *storage.Page) (storage.PageID, error) {
	slot, err := lowestSlot(p)
	if err != nil {
		return storage.InvalidPage, err
	}
	return childAt(p, slot)
}

// needChild selects the child pointer of a {separator, child} record.
var needChild = []bool{false, true}

// childAt decodes the child pointer in slot of internal node p (-1: p
// has no live slot), skipping over the separator.
func childAt(p *storage.Page, slot int) (storage.PageID, error) {
	if slot < 0 {
		return storage.InvalidPage, fmt.Errorf("btree: internal node %d has no children", p.ID())
	}
	var buf [2]sqlparse.Value
	rec, _, err := storage.AppendDecoded(buf[:0], p.SlotBytes(slot), needChild, nil)
	if err != nil {
		return storage.InvalidPage, slotErr(p, slot, err)
	}
	if len(rec) < 2 || !rec[1].IsInt {
		return storage.InvalidPage, fmt.Errorf("btree: corrupt child pointer in page %d slot %d", p.ID(), slot)
	}
	return storage.PageID(rec[1].Int), nil
}

// slotErr places a record-decoding error.
func slotErr(p *storage.Page, slot int, err error) error {
	return fmt.Errorf("btree: %w", &storage.SlotError{Page: p.ID(), Slot: slot, Err: err})
}

package btree

import (
	"fmt"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// In-page search. Every descent and point lookup finds its slot here,
// comparing the probe key against the encoded records where they lie
// (storage.CompareKey): nothing is decoded and nothing is allocated.
// Slots are appended in arrival order, so a page's slot directory is in
// key order only when its keys arrived that way — monotonic inserts, or
// a page a split rebuilt. Where it is, lookups bisect the directory;
// where it is not, they make one linear pass over it. Both give the
// answer the old decode-everything-and-stable-sort lookup gave, on
// well-formed and on malformed trees alike, so which page a descent
// fetches next never depends on which of the two ran.

// ordered reports whether p's live slots are in key order. The answer
// is p's KeyOrder hint; a page that has none yet (fresh from Format or
// LoadTablespace) gets it here, from one pass that also proves every
// live key decodable — the one place a lookup learns that, since
// bisection visits few slots. Readers may race to derive it: they
// store the same value.
func ordered(p *storage.Page) (bool, error) {
	if o := p.KeyOrder(); o != storage.KeyOrderUnknown {
		return o == storage.KeysOrdered, nil
	}
	order := storage.KeysOrdered
	var prev []byte
	for i := 0; i < p.SlotCount(); i++ {
		b := p.SlotBytes(i)
		if b == nil {
			continue
		}
		if prev == nil {
			prev = b // the first key is checked against itself
		}
		c, err := storage.CompareKeys(prev, b)
		if err != nil {
			return false, slotErr(p, i, err)
		}
		if c > 0 {
			order = storage.KeysUnordered
		}
		prev = b
	}
	p.SetKeyOrder(order)
	return order == storage.KeysOrdered, nil
}

// appendEntry appends the encoded record enc to p and keeps p's
// key-order hint true: an ordered page stays ordered only if enc's key
// is not below its last live key. Deleting a slot, rewriting one under
// the same key and compacting cannot break the order, so those go to
// the page directly.
func appendEntry(p *storage.Page, enc []byte) error {
	order := p.KeyOrder()
	if order == storage.KeysOrdered {
		for i := p.SlotCount() - 1; i >= 0; i-- {
			b := p.SlotBytes(i)
			if b == nil {
				continue
			}
			c, err := storage.CompareKeys(b, enc)
			if err != nil {
				return slotErr(p, i, err)
			}
			if c > 0 {
				order = storage.KeysUnordered
			}
			break
		}
	}
	if _, err := p.InsertBytes(enc); err != nil {
		return err
	}
	p.SetKeyOrder(order)
	return nil
}

// bisect returns, for an ordered page, the index that splits its live
// slots around key: those below it hold keys < key (<= key when after is
// set), those at or above it the rest. The index itself may be a dead
// slot or SlotCount. Dead slots carry no key; a probe that lands on one
// moves up to the next live slot of its interval.
func bisect(p *storage.Page, key sqlparse.Value, after bool) (int, error) {
	lo, hi := 0, p.SlotCount()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m, b := mid, []byte(nil)
		for ; m < hi; m++ {
			if b = p.SlotBytes(m); b != nil {
				break
			}
		}
		if b == nil {
			hi = mid
			continue
		}
		c, err := storage.CompareKey(b, key)
		if err != nil {
			return 0, slotErr(p, m, err)
		}
		if c < 0 || (after && c == 0) {
			lo = m + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// findSlot locates the live slot holding key in p: the first such slot
// in slot order.
func findSlot(p *storage.Page, key sqlparse.Value) (int, bool, error) {
	inOrder, err := ordered(p)
	if err != nil {
		return 0, false, err
	}
	start := 0
	if inOrder {
		if start, err = bisect(p, key, false); err != nil {
			return 0, false, err
		}
	}
	for i := start; i < p.SlotCount(); i++ {
		b := p.SlotBytes(i)
		if b == nil {
			continue
		}
		c, err := storage.CompareKey(b, key)
		if err != nil {
			return 0, false, slotErr(p, i, err)
		}
		if c == 0 {
			return i, true, nil
		}
		if inOrder {
			break // the first live key at or above key is not key
		}
	}
	return 0, false, nil
}

// lowestSlot returns the live slot holding p's smallest key — the
// earliest one in slot order if several do — or -1 when no slot is live.
func lowestSlot(p *storage.Page) (int, error) {
	inOrder, err := ordered(p)
	if err != nil {
		return 0, err
	}
	low := -1
	for i := 0; i < p.SlotCount(); i++ {
		b := p.SlotBytes(i)
		if b == nil {
			continue
		}
		if low >= 0 {
			c, err := storage.CompareKeys(b, p.SlotBytes(low))
			if err != nil {
				return 0, slotErr(p, i, err)
			}
			if c >= 0 {
				continue
			}
		}
		low = i
		if inOrder {
			break
		}
	}
	return low, nil
}

// routeSlot returns the slot of internal node p that routes key: the
// one holding the largest separator <= key — the latest in slot order
// if several hold it — or, when key precedes every separator,
// lowestSlot. -1 means p has no live slot.
func routeSlot(p *storage.Page, key sqlparse.Value) (int, error) {
	inOrder, err := ordered(p)
	if err != nil {
		return 0, err
	}
	if inOrder {
		above, err := bisect(p, key, true)
		if err != nil {
			return 0, err
		}
		for i := above - 1; i >= 0; i-- {
			if p.SlotBytes(i) != nil {
				return i, nil
			}
		}
		return lowestSlot(p)
	}
	best := -1
	for i := 0; i < p.SlotCount(); i++ {
		b := p.SlotBytes(i)
		if b == nil {
			continue
		}
		c, err := storage.CompareKey(b, key)
		if err != nil {
			return 0, slotErr(p, i, err)
		}
		if c > 0 {
			continue
		}
		if best >= 0 {
			if c, err = storage.CompareKeys(b, p.SlotBytes(best)); err != nil {
				return 0, slotErr(p, i, err)
			}
			if c < 0 {
				continue
			}
		}
		best = i
	}
	if best < 0 {
		return lowestSlot(p)
	}
	return best, nil
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
	return fmt.Errorf("btree: page %d slot %d: %w", p.ID(), slot, err)
}

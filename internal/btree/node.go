package btree

import (
	"fmt"
	"slices"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// In-page search. Every descent and point lookup finds its slot here,
// comparing the probe key against the encoded records where they lie
// (storage.CompareKey): nothing is decoded and nothing is allocated.
// Slots are appended in arrival order, so a page's slot directory is in
// key order only when its keys arrived that way — monotonic inserts, or
// a page a split rebuilt. Where it is, lookups bisect the directory;
// where it is not, they bisect the page's key index (storage.KeyIndex):
// its live slots sorted by key, ties in slot order, kept beside the page
// by the writes below. Either way a lookup reads a page's keys in the
// order the old decode-everything-and-stable-sort lookup did and gives
// the answer it gave, on well-formed and on malformed trees alike, so
// which page a descent fetches next never depends on the page's order.

// A page's live slots in (key, slot) order are its positions 0..n-1,
// which keysOf returns: with ix nil, position i is slot i of a directory
// already in key order; otherwise position i is slot ix[i] of the
// page's key index. A position may name a dead slot — a directory's
// deleted one, or an index entry deleted behind the tree's back — which
// carries no key and is stepped over.

// slotAt returns the slot at position i.
func slotAt(ix []uint16, i int) int {
	if ix == nil {
		return i
	}
	return int(ix[i])
}

// keysOf returns p's positions. A page whose hint is unknown (fresh
// from Format or LoadTablespace) gets it here, from one pass that also
// proves every live key decodable — the one place a lookup learns that,
// since bisection visits few slots — and, if its slots are out of key
// order, a key index, sorted once. Readers may race to derive it: each
// stores an equal one.
func keysOf(p *storage.Page) (ix []uint16, n int, err error) {
	switch order, kix := p.Keys(); order {
	case storage.KeysOrdered:
		return nil, p.SlotCount(), nil
	case storage.KeysUnordered:
		return kix.Slots, len(kix.Slots), nil
	}
	inOrder, live := true, 0
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
			return nil, 0, slotErr(p, i, err)
		}
		if c > 0 {
			inOrder = false
		}
		prev = b
		live++
	}
	if inOrder {
		p.SetKeyOrder(storage.KeysOrdered)
		return nil, p.SlotCount(), nil
	}
	kix := &storage.KeyIndex{Slots: liveSlots(p, live)}
	slices.SortStableFunc(kix.Slots, func(a, b uint16) int {
		// Every live key decoded in the pass above.
		c, _ := storage.CompareKeys(p.SlotBytes(int(a)), p.SlotBytes(int(b)))
		return c
	})
	p.SetKeyIndex(kix)
	return kix.Slots, len(kix.Slots), nil
}

// liveSlots returns p's live slots in slot order; n sizes the result.
func liveSlots(p *storage.Page, n int) []uint16 {
	out := make([]uint16, 0, n)
	for i := 0; i < p.SlotCount(); i++ {
		if p.SlotBytes(i) != nil {
			out = append(out, uint16(i))
		}
	}
	return out
}

// appendEntry appends enc, the encoded record whose key is key, to p
// and keeps p's hint true: an ordered page stays ordered only if key is
// not below its last live key, and otherwise gets a key index; an
// unordered page's index takes the new slot after every key <= key.
// Rewriting a slot under the same key and compacting leave the hint as
// it is, so those go to the page directly; deletes go through
// deleteSlot.
func appendEntry(p *storage.Page, key sqlparse.Value, enc []byte) error {
	order, kix := p.Keys()
	if order == storage.KeysOrdered {
		for i := p.SlotCount() - 1; i >= 0; i-- {
			b := p.SlotBytes(i)
			if b == nil {
				continue
			}
			c, err := storage.CompareKey(b, key)
			if err != nil {
				return slotErr(p, i, err)
			}
			if c > 0 {
				kix = &storage.KeyIndex{Slots: liveSlots(p, p.SlotCount())}
			}
			break
		}
	}
	pos := 0
	if kix != nil {
		var err error
		if pos, err = bisect(p, kix.Slots, len(kix.Slots), key, true); err != nil {
			return err
		}
	}
	slot, err := p.InsertBytes(enc)
	if err != nil || kix == nil {
		return err
	}
	kix.Slots = slices.Insert(kix.Slots, pos, uint16(slot))
	if order == storage.KeysOrdered {
		p.SetKeyIndex(kix)
	}
	return nil
}

// deleteSlot deletes slot from p, and from p's key index if it has one.
func deleteSlot(p *storage.Page, slot int) error {
	if err := p.DeleteSlot(slot); err != nil {
		return err
	}
	if _, kix := p.Keys(); kix != nil {
		if i := slices.Index(kix.Slots, uint16(slot)); i >= 0 {
			kix.Slots = slices.Delete(kix.Slots, i, i+1)
		}
	}
	return nil
}

// bisect returns the position of p (see keysOf) that splits its live
// slots around key: those before it hold keys < key (<= key when after
// is set), those at or after it the rest. The position itself may name
// a dead slot or be n. A probe that lands on a dead slot moves up to
// the next live one of its interval.
func bisect(p *storage.Page, ix []uint16, n int, key sqlparse.Value, after bool) (int, error) {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m, b := mid, []byte(nil)
		for ; m < hi; m++ {
			if b = p.SlotBytes(slotAt(ix, m)); b != nil {
				break
			}
		}
		if b == nil {
			hi = mid
			continue
		}
		c, err := storage.CompareKey(b, key)
		if err != nil {
			return 0, slotErr(p, slotAt(ix, m), err)
		}
		if c < 0 || (after && c == 0) {
			lo = m + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// firstLive returns the slot at the first live position of p from i
// on, or -1.
func firstLive(p *storage.Page, ix []uint16, n, i int) int {
	for ; i < n; i++ {
		if s := slotAt(ix, i); p.SlotBytes(s) != nil {
			return s
		}
	}
	return -1
}

// findSlot locates the live slot holding key in p: the first such slot
// in slot order.
func findSlot(p *storage.Page, key sqlparse.Value) (int, bool, error) {
	ix, n, err := keysOf(p)
	if err != nil {
		return 0, false, err
	}
	pos, err := bisect(p, ix, n, key, false)
	if err != nil {
		return 0, false, err
	}
	slot := firstLive(p, ix, n, pos)
	if slot < 0 {
		return 0, false, nil
	}
	// The first live key at or above key either is key or is not there.
	c, err := storage.CompareKey(p.SlotBytes(slot), key)
	if err != nil || c != 0 {
		return 0, false, err
	}
	return slot, true, nil
}

// lowestSlot returns the live slot holding p's smallest key — the
// earliest one in slot order if several do — or -1 when no slot is live.
func lowestSlot(p *storage.Page) (int, error) {
	ix, n, err := keysOf(p)
	if err != nil {
		return 0, err
	}
	return firstLive(p, ix, n, 0), nil
}

// routeSlot returns the slot of internal node p that routes key: the
// one holding the largest separator <= key — the latest in slot order
// if several hold it — or, when key precedes every separator,
// lowestSlot. -1 means p has no live slot.
func routeSlot(p *storage.Page, key sqlparse.Value) (int, error) {
	ix, n, err := keysOf(p)
	if err != nil {
		return 0, err
	}
	above, err := bisect(p, ix, n, key, true)
	if err != nil {
		return 0, err
	}
	for i := above - 1; i >= 0; i-- {
		if s := slotAt(ix, i); p.SlotBytes(s) != nil {
			return s, nil
		}
	}
	return firstLive(p, ix, n, above), nil
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

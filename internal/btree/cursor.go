package btree

import (
	"sort"
	"strings"
	"sync/atomic"

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

	// How Next materializes a leaf (see Lend and Reject): lend recycles
	// one value slab for the whole walk, textFree says need keeps no text
	// field, preds are evaluated on the slot bytes before any decode.
	lend, textFree bool
	preds          []storage.Pred
	slab           storage.Record

	started, done bool
	next          storage.PageID // leaf the following advance fetches
	fetches       uint64

	// Per-leaf scratch, reused from leaf to leaf. The one-element
	// arrays back them until a leaf yields a second record, so a point
	// read allocates nothing here.
	slots   []int // the leaf's live in-bounds slots, in key order
	rows    []storage.Record
	slotBuf [1]int
	rowBuf  [1]storage.Record
}

// Init points c at t without touching a page. Unbounded, the walk
// starts at the leftmost leaf and lo/hi are ignored; bounded, it starts
// at the leaf covering lo (lo == hi is a point read; lo > hi matches
// nothing but still walks as far as a key >= lo). need selects the
// record fields Next materializes, by position; nil means all.
func (c *Cursor) Init(t *Tree, bounded bool, lo, hi sqlparse.Value, need []bool) {
	*c = Cursor{t: t, bounded: bounded, lo: lo, hi: hi, need: need}
	c.slots, c.rows = c.slotBuf[:0], c.rowBuf[:0]
}

// Lend makes the records Next returns a loan: every leaf is decoded
// into one value slab the cursor recycles, so a record is good only
// until the following Next. It is for callers that consume each record
// — copy it, fold it, drop it — before they ask for more; a walk that
// rejects most of what it reads then costs no allocation per leaf.
// textFree promises that need keeps no text field, which spares Next
// its sizing pass; text met anyway is still decoded, into a string slab
// that then grows as it goes. Strings are never recycled: the string
// slab stays a fresh allocation per leaf. Call Lend before the first
// Next.
func (c *Cursor) Lend(textFree bool) {
	if RecycleMode(recycleMode.Load()) != RecycleNever {
		c.lend, c.textFree = true, textFree
	}
}

// Reject makes Next evaluate preds on each record's slot bytes
// (storage.Match) and decode only the records that satisfy them all.
// A rejected record still takes its place in what Next returns, as a
// nil Record, and is still validated field by field: a leaf with a
// corrupt record fails Next exactly as it does without Reject. Call it
// before the first Next.
func (c *Cursor) Reject(preds []storage.Pred) { c.preds = preds }

// RecycleMode is a test seam over Lend. Borrowed records that a caller
// wrongly keeps usually go on reading right for a while; the modes
// below make such a bug show, and give the comparison its other arm.
type RecycleMode int32

const (
	RecycleNormal RecycleMode = iota
	// RecyclePoison overwrites everything a lending cursor handed out
	// last time with a sentinel no table holds, before every Next.
	RecyclePoison
	// RecycleNever makes Lend a no-op: every cursor owns its records.
	RecycleNever
)

var recycleMode atomic.Int32

// SetRecycleMode switches the seam, for cursors initialised from now
// on, and returns the mode it replaced. Only tests call it.
func SetRecycleMode(m RecycleMode) RecycleMode {
	return RecycleMode(recycleMode.Swap(int32(m)))
}

// Poison is what RecyclePoison leaves in place of a record's values.
var Poison = sqlparse.StrValue("\x00recycled\x00")

// Next fetches the walk's next leaf and returns its live in-bounds
// records in key order — possibly none — with ok=false once the walk is
// over. Fields outside need come back as zero Values, and a record
// Reject's preds turn down comes back nil. The records of one leaf
// share one value slab and one string slab that never alias page bytes.
// Unless the cursor lends (see Lend) both are freshly allocated, so
// callers may retain the records; the returned slice itself is reused
// by the following call either way.
func (c *Cursor) Next() ([]storage.Record, bool, error) {
	if c.lend && RecycleMode(recycleMode.Load()) == RecyclePoison {
		lent := c.slab[:cap(c.slab)]
		for i := range lent {
			lent[i] = Poison
		}
	}
	leaf, err := c.advance()
	if leaf == nil {
		return nil, false, err
	}
	// First the verdicts, with every record validated; a surviving
	// record's place holds a non-nil marker until the decode below.
	fields, textBytes := 0, 0
	c.rows = c.rows[:0]
	for _, slot := range c.slots {
		b := leaf.SlotBytes(slot)
		if c.preds != nil {
			ok, err := storage.Match(b, c.preds)
			if err != nil {
				return nil, false, c.fail(leaf, slot, err)
			}
			if !ok {
				c.rows = append(c.rows, nil)
				continue
			}
		}
		c.rows = append(c.rows, survivor)
		if c.textFree {
			fields += storage.FieldCount(b)
		} else {
			n, tb := storage.DecodedSize(b, c.need)
			fields += n
			textBytes += tb
		}
	}
	slab := c.slab[:0]
	if !c.lend || slab == nil || cap(slab) < fields {
		// A lent slab grows to the fullest leaf met, in few steps. Never
		// nil, so that no decoded record is: nil means rejected.
		slab = make(storage.Record, 0, max(fields, 2*cap(slab)))
	}
	var text strings.Builder
	text.Grow(textBytes)
	for i, slot := range c.slots {
		if c.rows[i] == nil {
			continue
		}
		start := len(slab)
		slab, _, err = storage.AppendDecoded(slab, leaf.SlotBytes(slot), c.need, &text)
		if err != nil {
			return nil, false, c.fail(leaf, slot, err)
		}
		c.rows[i] = slab[start:len(slab):len(slab)]
	}
	if c.lend {
		c.slab = slab
	}
	return c.rows, true, nil
}

// survivor marks, between Next's two passes, a record still to decode.
var survivor = storage.Record{}

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
	return len(c.slots), true, nil
}

// advance fetches the walk's next leaf, leaves its live in-bounds
// slots in c.slots in key order, and decides whether the walk goes on.
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
		leaf, levels, err = c.t.findLeaf(c.lo, nil)
	default:
		leaf, levels, err = c.t.leftmostLeaf()
	}
	c.started = true
	if err != nil {
		c.done = true
		return nil, err
	}
	c.fetches += uint64(levels)
	beyond, err := c.collect(leaf)
	if err != nil {
		c.done = true
		return nil, err
	}
	c.next = leaf.Next()
	c.done = beyond || c.next == storage.InvalidPage
	return leaf, nil
}

// collect fills c.slots from leaf and reports whether leaf holds a key
// beyond hi. A leaf in key order is bisected to lo and read up to the
// first key beyond hi; any other is read whole, filtered, then sorted —
// filtering first, because keys are unique, so the survivors' order is
// the same and a point read never sorts at all.
func (c *Cursor) collect(leaf *storage.Page) (beyond bool, err error) {
	c.slots = c.slots[:0]
	inOrder, err := ordered(leaf)
	if err != nil {
		return false, err
	}
	start := 0
	if inOrder && c.bounded {
		if start, err = bisect(leaf, c.lo, false); err != nil {
			return false, err
		}
	}
	sorted := true
	for i := start; i < leaf.SlotCount(); i++ {
		b := leaf.SlotBytes(i)
		if b == nil {
			continue
		}
		if c.bounded {
			if !inOrder {
				if cmp, err := storage.CompareKey(b, c.lo); err != nil {
					return false, slotErr(leaf, i, err)
				} else if cmp < 0 {
					continue
				}
			}
			if cmp, err := storage.CompareKey(b, c.hi); err != nil {
				return false, slotErr(leaf, i, err)
			} else if cmp > 0 {
				beyond = true
				if inOrder {
					break
				}
				continue
			}
		}
		if n := len(c.slots); !inOrder && n > 0 {
			if cmp, err := storage.CompareKeys(b, leaf.SlotBytes(c.slots[n-1])); err != nil {
				return false, slotErr(leaf, i, err)
			} else if cmp < 0 {
				sorted = false
			}
		}
		c.slots = append(c.slots, i)
	}
	if !sorted {
		sort.SliceStable(c.slots, func(i, j int) bool {
			// Both keys were compared, so decoded, on the way in.
			cmp, _ := storage.CompareKeys(leaf.SlotBytes(c.slots[i]), leaf.SlotBytes(c.slots[j]))
			return cmp < 0
		})
	}
	return beyond, nil
}

// fail ends the walk on an undecodable slot.
func (c *Cursor) fail(p *storage.Page, slot int, err error) error {
	c.done = true
	return slotErr(p, slot, err)
}

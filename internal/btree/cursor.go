package btree

import (
	"fmt"
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
	// field, match is evaluated on the slot bytes before any decode.
	lend, textFree bool
	match          *storage.Matcher
	slab           storage.Record

	started, done bool
	next          storage.PageID // leaf the following advance fetches
	fetches       uint64
	leaves, limit int // leaves fetched, and the most a chain has

	// The leaf's live in-bounds slots in key order: a window of its key
	// index, good until the next advance.
	slots []uint16
	// Per-leaf scratch, reused from leaf to leaf. The one-element array
	// backs it until a leaf yields a second record, so a point read
	// allocates nothing here.
	rows   []storage.Record
	rowBuf [1]storage.Record
}

// Init points c at t without touching a page. Unbounded, the walk
// starts at the leftmost leaf and lo/hi are ignored; bounded, it starts
// at the leaf covering lo (lo == hi is a point read; lo > hi matches
// nothing but still walks as far as a key >= lo). need selects the
// record fields Next materializes, by position; nil means all.
func (c *Cursor) Init(t *Tree, bounded bool, lo, hi sqlparse.Value, need []bool) {
	*c = Cursor{t: t, bounded: bounded, lo: lo, hi: hi, need: need}
	c.rows = c.rowBuf[:0]
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

// Reject makes Next evaluate m — conjuncts compiled for the table's
// record layout — on each record's slot bytes and decode only the
// records that satisfy them all. A rejected record still takes its
// place in what Next returns, as a nil Record, and is still validated
// field by field: a leaf with a corrupt record fails Next exactly as it
// does without Reject (a record off m's layout is decoded, so its
// errors are the decoder's). A nil m rejects
// nothing. Call it before the first Next.
func (c *Cursor) Reject(m *storage.Matcher) { c.match = m }

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
		b := leaf.SlotBytes(int(slot))
		if c.match != nil {
			ok, err := c.match.Match(b)
			if err != nil {
				return nil, false, c.fail(leaf, int(slot), err)
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
		slab, _, err = storage.AppendDecoded(slab, leaf.SlotBytes(int(slot)), c.need, &text)
		if err != nil {
			return nil, false, c.fail(leaf, int(slot), err)
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

// Fold is Next for a caller that only counts and sums: it fetches the
// same leaf and validates its live in-bounds records as Next does,
// failing where Next fails with the same error, but decodes none. It
// returns how many records Next would have (n), how many of them m
// accepts, and the sum of m's SUM column over those, read in place.
func (c *Cursor) Fold(m *storage.Matcher) (n, accepted int, sum int64, ok bool, err error) {
	leaf, err := c.advance()
	if leaf == nil {
		return 0, 0, 0, false, err
	}
	accepted, sum, bad, err := m.Fold(leaf, c.slots)
	if err != nil {
		return 0, 0, 0, false, c.fail(leaf, int(bad), err)
	}
	return len(c.slots), accepted, sum, true, nil
}

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
		// A chain longer than the tablespace loops: a forged sibling
		// link, which would otherwise be walked forever.
		if c.limit == 0 {
			c.limit = c.t.ts.NumPages()
		}
		if c.leaves >= c.limit {
			err = fmt.Errorf("btree: page %d: the leaf chain passes more than the tablespace's %d pages: sibling links loop", c.next, c.limit)
		} else {
			leaf, err = c.t.pool.Fetch(c.next)
		}
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
	c.leaves++
	beyond, err := c.collect(leaf)
	if err != nil {
		c.done = true
		return nil, err
	}
	c.next = leaf.Next()
	c.done = beyond || c.next == storage.InvalidPage
	return leaf, nil
}

// collect points c.slots at leaf's live slots from lo up to hi (or
// all of them, unbounded) and reports whether leaf holds a key beyond
// hi. With lo > hi the window is empty, and a key >= lo is beyond. A
// leaf whose first key is at least lo and whose last is at most hi —
// every leaf of a long range but its two ends — lies wholly inside the
// bounds: it takes its whole key index on those two comparisons, and
// only a leaf that a bound falls in is bisected.
func (c *Cursor) collect(leaf *storage.Page) (beyond bool, err error) {
	ix, err := keysOf(leaf)
	if err != nil || !c.bounded {
		c.slots = ix
		return false, err
	}
	if within(leaf, ix, c.lo, c.hi) {
		c.slots = ix
		return false, nil
	}
	from, err := bisect(leaf, ix, c.lo, false)
	if err != nil {
		return false, err
	}
	to, err := bisect(leaf, ix, c.hi, true)
	if err != nil {
		return false, err
	}
	to = max(from, to)
	c.slots = ix[from:to]
	return to < len(ix), nil
}

// within reports whether ix, leaf's key index, is non-empty and every
// key in it lies in [lo, hi]: the window the two bisects would then
// find is all of ix. A key that cannot be read answers false, and the
// bisects report it as they always did.
func within(leaf *storage.Page, ix []uint16, lo, hi sqlparse.Value) bool {
	if len(ix) == 0 {
		return false
	}
	c, err := storage.CompareKey(leaf.SlotBytes(int(ix[0])), lo)
	if err != nil || c < 0 {
		return false
	}
	c, err = storage.CompareKey(leaf.SlotBytes(int(ix[len(ix)-1])), hi)
	return err == nil && c <= 0
}

// fail ends the walk on an undecodable slot.
func (c *Cursor) fail(p *storage.Page, slot int, err error) error {
	c.done = true
	return slotErr(p, slot, err)
}

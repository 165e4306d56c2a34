package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
)

// PageSize is the fixed page size. Smaller than InnoDB's 16 KiB to keep
// simulated workloads fast, but large enough that B+tree fanout and
// buffer-pool behaviour are realistic.
const PageSize = 4096

// PageID identifies a page within a tablespace. Page 0 is the
// tablespace header and never holds records.
type PageID uint32

// InvalidPage is the nil page reference.
const InvalidPage PageID = 0xFFFFFFFF

// PageType tags what a page stores.
type PageType uint8

// Page types.
const (
	PageFree PageType = iota
	PageBTreeLeaf
	PageBTreeInternal
	PageHeader
)

func (t PageType) String() string {
	switch t {
	case PageFree:
		return "free"
	case PageBTreeLeaf:
		return "leaf"
	case PageBTreeInternal:
		return "internal"
	case PageHeader:
		return "header"
	default:
		return fmt.Sprintf("PageType(%d)", uint8(t))
	}
}

// Page header layout (bytes):
//
//	 0..3   PageID
//	 4      PageType
//	 5..6   slot count
//	 7..8   free-space offset (start of unallocated area)
//	 9..16  page LSN (LSN of last modification, for recovery ordering)
//	17..20  next-page pointer (leaf sibling link, or freelist next)
//
// Slot directory grows down from the end of the page: each slot is a
// u16 offset + u16 length of a record within the page; length 0 marks a
// deleted slot.
const (
	pageHeaderSize = 21
	slotSize       = 4
)

// Page is one fixed-size page with typed accessors over its raw bytes.
// The raw bytes are the authoritative state: snapshots copy them
// directly, and forensics re-parses them.
type Page struct {
	// keys is the page's key index (see Keys), nil until derived: the one
	// piece of page state that is not a page byte. It comes first so that
	// the collector, which scans an object up to its last pointer, skips
	// buf.
	keys atomic.Pointer[[]uint16]

	buf [PageSize]byte
}

// SlotError is a slot whose record does not decode.
type SlotError struct {
	Page PageID
	Slot int
	Err  error
}

func (e *SlotError) Error() string { return fmt.Sprintf("page %d slot %d: %v", e.Page, e.Slot, e.Err) }

func (e *SlotError) Unwrap() error { return e.Err }

// Keys returns the page's key index: its live slots sorted by key
// (CompareKeys), ties in slot order — what lets a lookup bisect a page
// whose slots arrived in any order. It is a hint about buf, never part
// of it: not serialized, snapshotted or checkpointed, and a page starts
// out (NewPage, Format, LoadPage) without one. The first call derives
// it, in one pass that also proves every live key decodable (a
// *SlotError names the first that is not); from then on the page's own
// mutators keep it. Readers sharing a latch may derive it at once, and
// each gets the one stored first; a writer excludes them. The index is
// the page's: callers read it, and only until the page next changes.
func (p *Page) Keys() ([]uint16, error) {
	if ix := p.keys.Load(); ix != nil {
		return *ix, nil
	}
	ix := make([]uint16, 0, p.SlotCount())
	inOrder := true
	var prev []byte
	for i := 0; i < p.SlotCount(); i++ {
		b := p.SlotBytes(i)
		if b == nil {
			continue
		}
		if prev == nil {
			prev = b // the first key is checked against itself
		}
		c, err := CompareKeys(prev, b)
		if err != nil {
			return nil, &SlotError{p.ID(), i, err}
		}
		inOrder = inOrder && c <= 0
		prev = b
		ix = append(ix, uint16(i))
	}
	if !inOrder {
		slices.SortStableFunc(ix, func(a, b uint16) int {
			// Every live key decoded in the pass above.
			c, _ := CompareKeys(p.SlotBytes(int(a)), p.SlotBytes(int(b)))
			return c
		})
	}
	if !p.keys.CompareAndSwap(nil, &ix) {
		return *p.keys.Load(), nil
	}
	return ix, nil
}

// NewPage initializes a page in place.
func NewPage(id PageID, t PageType) *Page {
	p := &Page{}
	p.Format(id, t)
	return p
}

// Format resets the page to empty with the given identity.
func (p *Page) Format(id PageID, t PageType) {
	for i := range p.buf {
		p.buf[i] = 0
	}
	binary.BigEndian.PutUint32(p.buf[0:], uint32(id))
	p.buf[4] = byte(t)
	p.setSlotCount(0)
	p.setFreeOffset(pageHeaderSize)
	p.SetNext(InvalidPage)
	p.keys.Store(nil)
}

// ID returns the page id stored in the header.
func (p *Page) ID() PageID { return PageID(binary.BigEndian.Uint32(p.buf[0:])) }

// Type returns the page type.
func (p *Page) Type() PageType { return PageType(p.buf[4]) }

// SetType changes the page type tag.
func (p *Page) SetType(t PageType) { p.buf[4] = byte(t) }

// SlotCount returns the number of slots, including deleted ones.
func (p *Page) SlotCount() int { return int(binary.BigEndian.Uint16(p.buf[5:])) }

func (p *Page) setSlotCount(n int) { binary.BigEndian.PutUint16(p.buf[5:], uint16(n)) }

func (p *Page) freeOffset() int { return int(binary.BigEndian.Uint16(p.buf[7:])) }

func (p *Page) setFreeOffset(off int) { binary.BigEndian.PutUint16(p.buf[7:], uint16(off)) }

// LSN returns the page LSN (last-modification log sequence number).
func (p *Page) LSN() uint64 { return binary.BigEndian.Uint64(p.buf[9:]) }

// SetLSN stamps the page with the LSN of its latest mutation.
func (p *Page) SetLSN(lsn uint64) { binary.BigEndian.PutUint64(p.buf[9:], lsn) }

// Next returns the sibling/freelist link.
func (p *Page) Next() PageID { return PageID(binary.BigEndian.Uint32(p.buf[17:])) }

// SetNext sets the sibling/freelist link.
func (p *Page) SetNext(id PageID) { binary.BigEndian.PutUint32(p.buf[17:], uint32(id)) }

func (p *Page) slotPos(i int) int { return PageSize - (i+1)*slotSize }

func (p *Page) slot(i int) (off, length int) {
	pos := p.slotPos(i)
	return int(binary.BigEndian.Uint16(p.buf[pos:])), int(binary.BigEndian.Uint16(p.buf[pos+2:]))
}

func (p *Page) setSlot(i, off, length int) {
	pos := p.slotPos(i)
	binary.BigEndian.PutUint16(p.buf[pos:], uint16(off))
	binary.BigEndian.PutUint16(p.buf[pos+2:], uint16(length))
}

// FreeSpace returns the bytes available for one more insert (accounting
// for its slot entry).
func (p *Page) FreeSpace() int {
	free := p.slotPos(p.SlotCount()) - p.freeOffset()
	if free < slotSize {
		return 0
	}
	return free - slotSize
}

// Fits reports whether recs, with their slots, fit together in one
// empty page: whether InsertBytes takes each of them in turn.
func Fits(recs [][]byte) bool {
	n := pageHeaderSize + slotSize
	for _, r := range recs {
		n += len(r) + slotSize
	}
	return n <= PageSize
}

// ErrPageFull is returned when an insert does not fit.
var ErrPageFull = fmt.Errorf("storage: page full")

// InsertBytes appends raw record bytes to the page and returns the slot
// index. A derived key index takes the new slot after every key <= its
// own; a record whose key does not decode drops the index instead, for
// the next Keys to report.
func (p *Page) InsertBytes(rec []byte) (int, error) {
	if len(rec) > p.FreeSpace() {
		return 0, ErrPageFull
	}
	off := p.freeOffset()
	copy(p.buf[off:], rec)
	slot := p.SlotCount()
	p.setSlot(slot, off, len(rec))
	p.setSlotCount(slot + 1)
	p.setFreeOffset(off + len(rec))
	if ix := p.keys.Load(); ix != nil {
		lo, hi := 0, len(*ix)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			c, err := CompareKeys(p.SlotBytes(int((*ix)[mid])), rec)
			if err != nil {
				p.keys.Store(nil)
				return slot, nil
			}
			if c <= 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		*ix = slices.Insert(*ix, lo, uint16(slot))
	}
	return slot, nil
}

// SlotBytes returns the raw bytes of slot i, or nil if the slot is
// deleted or out of range.
func (p *Page) SlotBytes(i int) []byte {
	if i < 0 || i >= p.SlotCount() {
		return nil
	}
	off, length := p.slot(i)
	if length == 0 {
		return nil
	}
	return p.buf[off : off+length]
}

// DeleteSlot marks slot i deleted, and takes it out of the key index.
// The record bytes stay in the page body until compaction — exactly the
// residue a disk forensic relies on.
func (p *Page) DeleteSlot(i int) error {
	if i < 0 || i >= p.SlotCount() {
		return fmt.Errorf("storage: slot %d out of range (count %d)", i, p.SlotCount())
	}
	off, _ := p.slot(i)
	p.setSlot(i, off, 0)
	if ix := p.keys.Load(); ix != nil {
		if at := slices.Index(*ix, uint16(i)); at >= 0 {
			*ix = slices.Delete(*ix, at, at+1)
		}
	}
	return nil
}

// UpdateSlot replaces the record in slot i with rec, which must hold the
// same key: the key index stays as it is. If the new bytes fit in the
// old space they are written in place; otherwise the record is appended
// and the slot repointed, leaving the stale bytes behind (again, residue
// by design — this mirrors real slotted-page engines).
func (p *Page) UpdateSlot(i int, rec []byte) error {
	if i < 0 || i >= p.SlotCount() {
		return fmt.Errorf("storage: slot %d out of range (count %d)", i, p.SlotCount())
	}
	off, length := p.slot(i)
	if length == 0 {
		return fmt.Errorf("storage: slot %d is deleted", i)
	}
	if len(rec) <= length {
		copy(p.buf[off:], rec)
		p.setSlot(i, off, len(rec))
		return nil
	}
	if len(rec) > p.FreeSpace() {
		return ErrPageFull
	}
	newOff := p.freeOffset()
	copy(p.buf[newOff:], rec)
	p.setSlot(i, newOff, len(rec))
	p.setFreeOffset(newOff + len(rec))
	return nil
}

// Compact rewrites live records contiguously, discarding deleted-record
// residue; slot numbers, and so the key index, stay as they are. The engine runs this only when a page overflows, matching the
// lazy reclamation of production engines.
func (p *Page) Compact() {
	type live struct {
		slot int
		data []byte
	}
	var recs []live
	for i := 0; i < p.SlotCount(); i++ {
		if b := p.SlotBytes(i); b != nil {
			recs = append(recs, live{i, append([]byte(nil), b...)})
		}
	}
	off := pageHeaderSize
	// Zero the body so compaction really destroys residue.
	for i := pageHeaderSize; i < p.slotPos(p.SlotCount()-1); i++ {
		p.buf[i] = 0
	}
	for _, r := range recs {
		copy(p.buf[off:], r.data)
		p.setSlot(r.slot, off, len(r.data))
		off += len(r.data)
	}
	p.setFreeOffset(off)
}

// Bytes returns the raw page image. Mutating the result mutates the page.
func (p *Page) Bytes() []byte { return p.buf[:] }

// CloneBytes returns a copy of the raw page image.
func (p *Page) CloneBytes() []byte {
	out := make([]byte, PageSize)
	copy(out, p.buf[:])
	return out
}

// LoadPage reconstructs a Page from a raw image. Images come from
// stolen or hand-assembled directories, so the header and the slot
// directory are checked before any reader trusts them: the directory
// must fit between the header and the page end, the free-space offset
// must lie between the header and the directory, and every live slot
// must lie between the header and the free-space offset — the bounds
// SlotBytes slices by and InsertBytes writes from.
func LoadPage(img []byte) (*Page, error) {
	if len(img) != PageSize {
		return nil, fmt.Errorf("storage: page image is %d bytes, want %d", len(img), PageSize)
	}
	p := &Page{}
	copy(p.buf[:], img)
	dir := p.slotPos(p.SlotCount() - 1)
	if dir < pageHeaderSize {
		return nil, fmt.Errorf("storage: page %d: %d slots overrun the header", p.ID(), p.SlotCount())
	}
	free := p.freeOffset()
	if free < pageHeaderSize || free > dir {
		return nil, fmt.Errorf("storage: page %d: free-space offset %d lies outside [%d, %d]", p.ID(), free, pageHeaderSize, dir)
	}
	for i := 0; i < p.SlotCount(); i++ {
		if off, length := p.slot(i); length != 0 && (off < pageHeaderSize || off+length > free) {
			return nil, fmt.Errorf("storage: page %d: slot %d [%d, %d) lies outside the record area [%d, %d)",
				p.ID(), i, off, off+length, pageHeaderSize, free)
		}
	}
	return p, nil
}

package storage

import (
	"encoding/binary"
	"fmt"
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
	buf [PageSize]byte

	// order is the one piece of page state that is not a page byte; see
	// KeyOrder.
	order atomic.Uint32
}

// KeyOrder says whether a page's live slots, read in slot order, hold
// their records in nondecreasing key order — what lets the B+ tree
// bisect the slot directory. It is a hint about buf, never part of it:
// it is not serialized, snapshotted or checkpointed, a page starts out
// (NewPage, Format, LoadPage) with it unknown, and the slot mutators
// neither read nor write it. Whoever appends records or rewrites keys
// (the B+ tree) keeps it true; access is atomic because readers sharing
// a latch may each derive it.
type KeyOrder uint32

// Key orders.
const (
	KeyOrderUnknown KeyOrder = iota // not yet derived from the slots
	KeysOrdered
	KeysUnordered
)

// KeyOrder returns the page's key-order hint.
func (p *Page) KeyOrder() KeyOrder { return KeyOrder(p.order.Load()) }

// SetKeyOrder records the page's key-order hint.
func (p *Page) SetKeyOrder(o KeyOrder) { p.order.Store(uint32(o)) }

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
	p.SetKeyOrder(KeyOrderUnknown)
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

// ErrPageFull is returned when an insert does not fit.
var ErrPageFull = fmt.Errorf("storage: page full")

// InsertBytes appends raw record bytes to the page and returns the slot
// index.
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

// DeleteSlot marks slot i deleted. The record bytes stay in the page
// body until compaction — exactly the residue a disk forensic relies on.
func (p *Page) DeleteSlot(i int) error {
	if i < 0 || i >= p.SlotCount() {
		return fmt.Errorf("storage: slot %d out of range (count %d)", i, p.SlotCount())
	}
	off, _ := p.slot(i)
	p.setSlot(i, off, 0)
	return nil
}

// UpdateSlot replaces the record in slot i. If the new bytes fit in the
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
// residue. The engine runs this only when a page overflows, matching the
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

// LoadPage reconstructs a Page from a raw image.
func LoadPage(img []byte) (*Page, error) {
	if len(img) != PageSize {
		return nil, fmt.Errorf("storage: page image is %d bytes, want %d", len(img), PageSize)
	}
	p := &Page{}
	copy(p.buf[:], img)
	return p, nil
}

package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Tablespace is the page store backing one engine instance, the analog
// of InnoDB's ibdata/.ibd files. It lives in memory but serializes to a
// single byte image so disk snapshots carry the literal file content.
type Tablespace struct {
	mu    sync.RWMutex
	pages []*Page
	free  []PageID
}

// NewTablespace creates a tablespace containing only the header page.
func NewTablespace() *Tablespace {
	ts := &Tablespace{}
	ts.pages = append(ts.pages, NewPage(0, PageHeader))
	return ts
}

// Allocate returns a fresh (or recycled) page of the given type.
func (ts *Tablespace) Allocate(t PageType) *Page {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if n := len(ts.free); n > 0 {
		id := ts.free[n-1]
		ts.free = ts.free[:n-1]
		p := ts.pages[id]
		p.Format(id, t)
		return p
	}
	id := PageID(len(ts.pages))
	p := NewPage(id, t)
	ts.pages = append(ts.pages, p)
	return p
}

// Release returns a page to the freelist. Its bytes are kept intact
// until reallocation — freed-page residue is part of what a disk
// snapshot reveals.
func (ts *Tablespace) Release(id PageID) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if int(id) <= 0 || int(id) >= len(ts.pages) {
		return fmt.Errorf("storage: release of invalid page %d", id)
	}
	ts.pages[id].SetType(PageFree)
	ts.free = append(ts.free, id)
	return nil
}

// Get returns the page with the given id.
func (ts *Tablespace) Get(id PageID) (*Page, error) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if int(id) >= len(ts.pages) {
		return nil, fmt.Errorf("storage: page %d out of range (%d pages)", id, len(ts.pages))
	}
	return ts.pages[id], nil
}

// NumPages returns the number of allocated pages including the header.
func (ts *Tablespace) NumPages() int {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return len(ts.pages)
}

// SerializedSize returns the size in bytes of Serialize's output.
func (ts *Tablespace) SerializedSize() int {
	return 8 + ts.NumPages()*PageSize
}

// Serialize renders the whole tablespace as one file image:
// u64 page count followed by raw pages in id order.
func (ts *Tablespace) Serialize() []byte {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	out := make([]byte, 8, 8+len(ts.pages)*PageSize)
	binary.BigEndian.PutUint64(out, uint64(len(ts.pages)))
	for _, p := range ts.pages {
		out = append(out, p.buf[:]...)
	}
	return out
}

// TablespacePages returns the number of pages a Serialize image holds,
// or an error if its u64 page count disagrees with its length. The
// count is checked against the length, never multiplied: images come
// from stolen directories, and 2^52 declared pages used to wrap the
// size check and panic in make.
func TablespacePages(img []byte) (int, error) {
	if body := len(img) - 8; body >= 0 && body%PageSize == 0 && binary.BigEndian.Uint64(img) == uint64(body/PageSize) {
		return body / PageSize, nil
	}
	return 0, fmt.Errorf("storage: tablespace image of %d bytes is not a page count and that many pages", len(img))
}

// LoadTablespace reconstructs a tablespace from a Serialize image.
func LoadTablespace(img []byte) (*Tablespace, error) {
	n, err := TablespacePages(img)
	if err != nil {
		return nil, err
	}
	ts := &Tablespace{pages: make([]*Page, 0, n)}
	for i := 0; i < n; i++ {
		p, err := LoadPage(img[8+i*PageSize : 8+(i+1)*PageSize])
		if err != nil {
			return nil, err
		}
		ts.pages = append(ts.pages, p)
		if p.Type() == PageFree && i > 0 {
			ts.free = append(ts.free, PageID(i))
		}
	}
	if len(ts.pages) == 0 {
		ts.pages = append(ts.pages, NewPage(0, PageHeader))
	}
	return ts, nil
}

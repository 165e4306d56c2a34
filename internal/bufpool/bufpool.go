// Package bufpool implements the engine's buffer pool: an LRU cache of
// tablespace pages with per-page access counters.
//
// Two behaviours matter to the paper:
//
//  1. Like InnoDB, the pool periodically (and at shutdown) dumps the
//     page ids currently cached, in LRU order, to a file in the data
//     directory so a restarted server can warm up quickly. §3 of the
//     paper observes that this file reveals the B+tree paths recent
//     SELECTs walked. DumpFile/ParseDump implement that file.
//
//  2. Like InnoDB's adaptive hash index and Postgres's clock-sweep
//     counters, the pool keeps per-page access counts in memory.
//     A memory snapshot therefore reveals which index regions were hot
//     (§5). HotPages exposes the counters the way a forensic tool
//     would read them out of a core dump.
package bufpool

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"snapdb/internal/storage"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Pool is an LRU buffer pool over a tablespace. Reads of pool state
// (Contains, Len, Stats, LRUOrder, HotPages, DumpFile) take the lock
// shared so concurrent sessions and the forensic capture paths don't
// contend; only Fetch — which reorders the LRU and bumps counters —
// takes it exclusively.
type Pool struct {
	mu       sync.RWMutex
	ts       *storage.Tablespace
	capacity int

	// The LRU order is a ring of frames through root, a sentinel:
	// root.next is the most recently used page, root.prev the next to be
	// evicted. A miss on a full pool retargets the frame it evicts, so a
	// warm pool's Fetch allocates nothing.
	root    frame
	present map[storage.PageID]*frame
	access  map[storage.PageID]uint64 // lifetime access counts (survive eviction)

	hits, misses, evictions uint64

	trace func(storage.PageID) // optional per-fetch observer; see SetTraceFunc
}

// frame is one cached page's place in the LRU order.
type frame struct {
	id         storage.PageID
	prev, next *frame
}

// toFront links f, which must be unlinked, in as most recently used.
func (p *Pool) toFront(f *frame) {
	f.prev, f.next = &p.root, p.root.next
	f.prev.next, f.next.prev = f, f
}

// unlink takes f out of the ring.
func unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
}

// New creates a pool of the given page capacity over ts.
func New(ts *storage.Tablespace, capacity int) (*Pool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("bufpool: capacity must be positive, got %d", capacity)
	}
	p := &Pool{
		ts:       ts,
		capacity: capacity,
		present:  make(map[storage.PageID]*frame),
		access:   make(map[storage.PageID]uint64),
	}
	p.root.prev, p.root.next = &p.root, &p.root
	return p, nil
}

// Fetch returns the page with the given id, recording the access in the
// LRU order and the access counters.
func (p *Pool) Fetch(id storage.PageID) (*storage.Page, error) {
	page, err := p.ts.Get(id)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.trace != nil {
		p.trace(id)
	}
	p.access[id]++
	if f, ok := p.present[id]; ok {
		unlink(f)
		p.toFront(f)
		p.hits++
		return page, nil
	}
	p.misses++
	var f *frame
	if len(p.present) < p.capacity {
		f = new(frame)
	} else {
		f = p.root.prev
		unlink(f)
		delete(p.present, f.id)
		p.evictions++
	}
	f.id = id
	p.toFront(f)
	p.present[id] = f
	return page, nil
}

// SetTraceFunc installs (or, with nil, removes) an observer invoked
// with every fetched page id, in fetch order, under the pool lock. The
// executor equivalence tests use it to prove two implementations touch
// the same pages in the same sequence; fn must not call back into the
// pool.
func (p *Pool) SetTraceFunc(fn func(storage.PageID)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trace = fn
}

// FetchCount returns the total number of fetches served (hits plus
// misses), by every session. Plan operators never sample it: each
// counts its own fetches (see exec.Stats), which a shared counter
// cannot give under concurrent sessions.
func (p *Pool) FetchCount() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.hits + p.misses
}

// Contains reports whether the page is currently cached.
func (p *Pool) Contains(id storage.PageID) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.present[id]
	return ok
}

// Len returns the number of cached pages.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.present)
}

// Stats reports cumulative hit/miss/eviction counts.
func (p *Pool) Stats() (hits, misses, evictions uint64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.hits, p.misses, p.evictions
}

// LRUOrder returns the cached page ids, most recently used first. This
// is the in-memory state a whole-system snapshot captures.
func (p *Pool) LRUOrder() []storage.PageID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]storage.PageID, 0, len(p.present))
	for f := p.root.next; f != &p.root; f = f.next {
		out = append(out, f.id)
	}
	return out
}

// PageAccess holds one page's lifetime access count.
type PageAccess struct {
	ID    storage.PageID
	Count uint64
}

// HotPages returns all pages ever accessed, ordered by descending access
// count (ties by id). This models what the adaptive-hash-index metadata
// reveals to a memory-snapshot attacker.
func (p *Pool) HotPages() []PageAccess {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]PageAccess, 0, len(p.access))
	for id, n := range p.access {
		out = append(out, PageAccess{ID: id, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// dumpMagic identifies a buffer pool dump file.
const dumpMagic = 0x53504442 // "SPDB"

// DumpFile serializes the current LRU page-id list (most recent first),
// the analog of MySQL's ib_buffer_pool file written at shutdown and
// periodically during normal operation. It deliberately contains only
// page ids, exactly like the real file — yet that is enough to leak
// SELECT access paths.
func (p *Pool) DumpFile() []byte {
	ids := p.LRUOrder()
	out := make([]byte, 0, 12+4*len(ids))
	out = binary.BigEndian.AppendUint32(out, dumpMagic)
	out = binary.BigEndian.AppendUint32(out, uint32(len(ids)))
	for _, id := range ids {
		out = binary.BigEndian.AppendUint32(out, uint32(id))
	}
	// CRC32-C over everything above, so a recovery can tell a damaged
	// dump from a valid one instead of warming the pool with garbage.
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// ParseDump parses a DumpFile image back into the LRU-ordered id list.
// It is used by the forensics package on disk snapshots.
func ParseDump(img []byte) ([]storage.PageID, error) {
	if len(img) < 8 {
		return nil, fmt.Errorf("bufpool: dump too short (%d bytes)", len(img))
	}
	if binary.BigEndian.Uint32(img) != dumpMagic {
		return nil, fmt.Errorf("bufpool: bad dump magic %#x", binary.BigEndian.Uint32(img))
	}
	n := int(binary.BigEndian.Uint32(img[4:]))
	if len(img) != 12+4*n {
		return nil, fmt.Errorf("bufpool: dump is %d bytes, want %d for %d entries", len(img), 12+4*n, n)
	}
	body, sum := img[:len(img)-4], binary.BigEndian.Uint32(img[len(img)-4:])
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return nil, fmt.Errorf("bufpool: dump checksum mismatch (%#x != %#x)", got, sum)
	}
	ids := make([]storage.PageID, n)
	for i := 0; i < n; i++ {
		ids[i] = storage.PageID(binary.BigEndian.Uint32(img[8+4*i:]))
	}
	return ids, nil
}

// Package querycache implements the engine's internal query cache: a
// map from exact SELECT text to its result set, invalidated by writes
// to the underlying table. MySQL's query cache works the same way and,
// as §5 of the paper notes, it is strictly internal to the process —
// invisible to SQL injection but fully visible to a whole-system
// memory snapshot, complete with query texts and result rows.
//
// Each result is held as one encoded slab: its records back to back in
// the page's own record codec (storage.AppendRecord). The slab holds no
// pointers, so the collector never scans it, and it shares no memory
// with the rows it was built from — a cached result pins no leaf's text
// slab, and neither the caller that filled the entry nor one served
// from it can change what the next hit returns. Every Get and Entries
// decodes a fresh copy.
package querycache

import (
	"container/list"
	"strings"
	"sync"

	"snapdb/internal/storage"
)

// Entry is one cached query with its result.
type Entry struct {
	Query  string
	Table  string
	Result []storage.Record
}

// entry is what the cache holds for one query: the result's rows
// encoded back to back in data, with the sizes that decoding them needs
// (rows records, fields values in all, text bytes of string fields), so
// a hit allocates the row slice, one value slab and one text slab, all
// sized exactly. Those are never written after encode builds them: a
// re-Put swaps in a new entry, so a reader may decode one outside the
// lock. Only the links, which no reader follows, change under it.
type entry struct {
	query, table       string
	rows, fields, text int
	data               []byte

	// lru is the entry's element of Cache.order; prev and next link the
	// entries of its table (Cache.byTable).
	lru        *list.Element
	prev, next *entry
}

// Cache is an LRU query cache.
type Cache struct {
	mu       sync.Mutex
	Enabled  bool
	capacity int
	order    *list.List // front = most recent; values are *entry
	byQuery  map[string]*list.Element
	// byTable heads, per table, the list of the entries whose query
	// read it, so that a write's invalidation costs what it drops, not
	// a walk of the whole LRU.
	byTable map[string]*entry

	hits, misses, invalidations uint64
}

// DefaultCapacity is the default entry capacity.
const DefaultCapacity = 1024

// New creates an enabled cache with the given entry capacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		Enabled:  true,
		capacity: capacity,
		order:    list.New(),
		byQuery:  make(map[string]*list.Element),
		byTable:  make(map[string]*entry),
	}
}

// Get returns the cached result for the exact query text. The rows are
// the caller's own: decoded afresh from the cached bytes.
func (c *Cache) Get(query string) ([]storage.Record, bool) {
	c.mu.Lock()
	if !c.Enabled {
		c.mu.Unlock()
		return nil, false
	}
	el, ok := c.byQuery[query]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	e := el.Value.(*entry)
	c.mu.Unlock()
	return e.decode(), true
}

// Put stores a query result. It keeps an encoded copy: nothing of
// result is retained.
func (c *Cache) Put(query, table string, result []storage.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.Enabled {
		return
	}
	e := encode(query, table, result)
	if el, ok := c.byQuery[query]; ok {
		c.replace(el.Value.(*entry), e)
		c.order.MoveToFront(el)
		return
	}
	e.lru = c.order.PushFront(e)
	c.byQuery[query] = e.lru
	c.link(e)
	if c.order.Len() > c.capacity {
		c.drop(c.order.Back().Value.(*entry))
	}
}

// link puts e at the head of its table's list.
func (c *Cache) link(e *entry) {
	e.prev, e.next = nil, c.byTable[e.table]
	if e.next != nil {
		e.next.prev = e
	}
	c.byTable[e.table] = e
}

// replace puts e in old's place in the LRU and, when both read the
// same table, in that table's list.
func (c *Cache) replace(old, e *entry) {
	e.lru = old.lru
	e.lru.Value = e
	if old.table != e.table {
		c.unlink(old)
		c.link(e)
		return
	}
	e.prev, e.next = old.prev, old.next
	if e.prev != nil {
		e.prev.next = e
	} else {
		c.byTable[e.table] = e
	}
	if e.next != nil {
		e.next.prev = e
	}
}

// unlink takes e out of its table's list.
func (c *Cache) unlink(e *entry) {
	switch {
	case e.prev != nil:
		e.prev.next = e.next
	case e.next != nil:
		c.byTable[e.table] = e.next
	default:
		delete(c.byTable, e.table)
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
}

// drop removes e from the cache.
func (c *Cache) drop(e *entry) {
	c.order.Remove(e.lru)
	delete(c.byQuery, e.query)
	c.unlink(e)
}

// InvalidateTable drops every entry whose query read the given table.
// It costs what it drops: a table with no entries is one map miss.
func (c *Cache) InvalidateTable(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.byTable[table]; e != nil; {
		next := e.next
		c.drop(e)
		c.invalidations++
		e = next
	}
}

// Entries returns the cached entries, most recent first. This is what a
// memory snapshot of the process reveals: every query text with its
// result rows, decoded from the same bytes a hit decodes.
func (c *Cache) Entries() []Entry {
	c.mu.Lock()
	held := make([]*entry, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		held = append(held, el.Value.(*entry))
	}
	c.mu.Unlock()
	out := make([]Entry, len(held))
	for i, e := range held {
		out[i] = Entry{Query: e.query, Table: e.table, Result: e.decode()}
	}
	return out
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats reports hit/miss/invalidation counters.
func (c *Cache) Stats() (hits, misses, invalidations uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.invalidations
}

// encode builds the entry for result: one allocation, sized exactly.
func encode(query, table string, result []storage.Record) *entry {
	e := &entry{query: query, table: table, rows: len(result)}
	size := 0
	for _, r := range result {
		size += storage.RecordSize(r)
		e.fields += len(r)
		for _, v := range r {
			if !v.IsInt {
				e.text += len(v.Str)
			}
		}
	}
	e.data = make([]byte, 0, size)
	for _, r := range result {
		e.data = storage.AppendRecord(e.data, r)
	}
	return e
}

// decode rebuilds the result e holds, into one value slab and one text
// slab as the B+ tree's cursor decodes a leaf; no Value aliases e.data.
// A zero-row result comes back nil, as the executor returns it.
func (e *entry) decode() []storage.Record {
	if e.rows == 0 {
		return nil
	}
	out := make([]storage.Record, e.rows)
	slab := make(storage.Record, 0, e.fields)
	var text strings.Builder
	text.Grow(e.text)
	for i, pos := 0, 0; i < e.rows; i++ {
		start := len(slab)
		var n int
		var err error
		slab, n, err = storage.AppendDecoded(slab, e.data[pos:], nil, &text)
		if err != nil {
			// encode wrote these bytes with AppendRecord; they cannot
			// fail to decode.
			panic("querycache: " + err.Error())
		}
		out[i] = slab[start:len(slab):len(slab)]
		pos += n
	}
	return out
}

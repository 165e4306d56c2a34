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
// sized exactly. An entry is never written after encode builds it: a
// re-Put swaps in a new one, so a reader may decode it outside the lock.
type entry struct {
	query, table       string
	rows, fields, text int
	data               []byte
}

// Cache is an LRU query cache.
type Cache struct {
	mu       sync.Mutex
	Enabled  bool
	capacity int
	order    *list.List // front = most recent; values are *entry
	byQuery  map[string]*list.Element

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
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.byQuery[query] = c.order.PushFront(e)
	if c.order.Len() > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.byQuery, back.Value.(*entry).query)
	}
}

// InvalidateTable drops every entry whose query read the given table.
func (c *Cache) InvalidateTable(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry); e.table == table {
			c.order.Remove(el)
			delete(c.byQuery, e.query)
			c.invalidations++
		}
		el = next
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

package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"snapdb/internal/sqlparse"
)

// planCache is the engine's statement plan cache: a sharded, LRU-bounded
// map from exact statement text to its parsed AST, canonical digest, and
// resolved catalog bindings. A hit bypasses the lexer and parser
// entirely — which is why the key is the raw statement bytes rather than
// the literal-collapsed digest: two statements with one digest but
// different literals need different ASTs. The digest text and hash ride
// in the entry so a hit also skips rendering and hashing the digest.
//
// Admission: a text is cached on its second sighting, not its first.
// Each shard keeps a doorkeeper (TinyLFU's, without the frequency
// sketch), a direct-mapped array of the text hashes of recent misses; a
// miss whose hash is not in its slot records it there and caches
// nothing. Most statements of a write or load workload are one-offs (a
// fresh literal each time), and an entry for one holds an AST and the
// statement text until it is evicted, usually unused, and can evict a
// statement that repeats. A doorkeeper slot is a bare uint64, so what
// it remembers is neither scanned by the collector nor query text.
//
// Invalidation is epoch-based: every DDL statement (CREATE TABLE,
// CREATE INDEX) bumps the catalog epoch, and a lookup that finds an
// entry from an older epoch treats it as a miss and evicts it. Entries
// record the epoch observed *before* their statement was parsed, so a
// plan raced by a concurrent DDL self-invalidates on its next lookup.
//
// The cache is deliberately invisible to the forensic surface: hits and
// misses flow through the general log, slow log, binlog, perfschema
// histogram, processlist, and heap arena identically (the
// leakage-equivalence tests pin this down). Only parsing is skipped —
// never logging.
type planCache struct {
	shards   [planShards]planShard
	epoch    atomic.Uint64
	perShard int

	hits, misses atomic.Uint64
}

const planShards = 16

// planCacheEntries is the total plan-cache capacity, over all shards.
const planCacheEntries = 4096

// doorSlots is the doorkeeper's size per shard: it remembers four times
// as many texts as the shard caches (on the traced snapbench pass, 1×
// kept fewer repeats long enough to be admitted, and 16× gained little
// more), in 8 KiB a shard.
const doorSlots = 4 * planCacheEntries / planShards

type planShard struct {
	mu   sync.Mutex
	m    map[string]*list.Element
	ll   *list.List // front = most recently used
	door [doorSlots]uint64
}

// plan is one cached statement pipeline entry.
type plan struct {
	key    string
	stmt   sqlparse.Statement
	digest string // canonical digest text (perfschema DIGEST_TEXT)
	dhash  string // digest hash (perfschema DIGEST)
	epoch  uint64
	bind   planBindings
}

// isDML reports whether the statement is an INSERT, UPDATE or DELETE.
func (p *plan) isDML() bool {
	switch p.stmt.(type) {
	case *sqlparse.Insert, *sqlparse.Update, *sqlparse.Delete:
		return true
	}
	return false
}

// planBindings carries the catalog resolution work a plan can reuse
// across executions. DROP TABLE can orphan the resolved *Table, so the
// binding is only as good as the plan's epoch: planTable re-checks it
// once the statement holds its lock.
type planBindings struct {
	table *Table
	// phys is the statement's template for SELECT, UPDATE, and DELETE
	// statements (see physical.go). A plan-cache hit reuses it directly —
	// no planning work at all on the hot path; the template is immutable
	// and execution instantiates fresh operators from it. nil when the
	// table could not be resolved or the statement kind has no scan.
	phys *physicalPlan
}

func newPlanCache() *planCache {
	c := &planCache{perShard: planCacheEntries / planShards}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*list.Element)
		c.shards[i].ll = list.New()
	}
	return c
}

// planHash is the statement text's FNV-1a hash, finished with
// murmur3's fmix64. Its low bits pick the shard and the bits above them
// the shard's doorkeeper slot. FNV-1a alone leaves its low k bits a
// function of the low k bits of each byte only, so texts that differ in
// their digits crowd into a few shards; the finaliser makes every
// output bit depend on every input bit.
func planHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (c *planCache) shardFor(h uint64) *planShard { return &c.shards[h%planShards] }

func doorSlot(h uint64) int { return int(h / planShards % doorSlots) }

// Epoch returns the current catalog epoch.
func (c *planCache) Epoch() uint64 { return c.epoch.Load() }

// bumpEpoch invalidates every cached plan (lazily, on next lookup).
// Called by DDL.
func (c *planCache) bumpEpoch() { c.epoch.Add(1) }

// lookup returns the cached plan for the statement, whose planHash is
// h, or nil. A stale (pre-DDL) entry is evicted and reported as a miss.
func (c *planCache) lookup(query string, h uint64) *plan {
	cur := c.epoch.Load()
	sh := c.shardFor(h)
	sh.mu.Lock()
	el, ok := sh.m[query]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	pl := el.Value.(*plan)
	if pl.epoch != cur {
		sh.ll.Remove(el)
		delete(sh.m, query)
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil
	}
	sh.ll.MoveToFront(el)
	sh.mu.Unlock()
	c.hits.Add(1)
	return pl
}

// insert stores a freshly parsed plan, whose key's planHash is h, if
// the doorkeeper has seen h in its slot before, evicting the shard's
// LRU tail beyond capacity; otherwise it records h in the slot and
// stores nothing. The plan's epoch must be the value observed before
// parsing began.
func (c *planCache) insert(pl *plan, h uint64) {
	sh := c.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if slot := &sh.door[doorSlot(h)]; *slot != h {
		*slot = h
		return
	}
	if el, ok := sh.m[pl.key]; ok {
		el.Value = pl
		sh.ll.MoveToFront(el)
		return
	}
	sh.m[pl.key] = sh.ll.PushFront(pl)
	for sh.ll.Len() > c.perShard {
		tail := sh.ll.Back()
		sh.ll.Remove(tail)
		delete(sh.m, tail.Value.(*plan).key)
	}
}

// Len returns the total cached entry count (test/diagnostic use).
func (c *planCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].ll.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}

// Stats returns hit/miss counters.
func (c *planCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// PlanCacheStats reports the plan cache's hit/miss counters and current
// size.
func (e *Engine) PlanCacheStats() (hits, misses uint64, entries int) {
	h, m := e.plans.Stats()
	return h, m, e.plans.Len()
}

// CatalogEpoch returns the DDL epoch counter.
func (e *Engine) CatalogEpoch() uint64 { return e.plans.Epoch() }

// planFor resolves the statement pipeline front half: a cache hit
// returns the stored plan; a miss lexes once for both the parse and the
// digest, binds, and (on success) offers the plan to the cache, which
// keeps it from the text's second sighting on. The digest text is
// computed once per cached statement text and reused by every later
// hit. Parse errors are returned with a nil plan and the statement's
// digest text — failed statements are never cached, so the error
// surface is identical on a hit and a miss.
func (e *Engine) planFor(query string) (*plan, string, error) {
	h := planHash(query)
	if pl := e.plans.lookup(query, h); pl != nil {
		return pl, pl.digest, nil
	}
	// Observe the epoch before parsing: a DDL that lands between here
	// and insert leaves the entry stale, and the next lookup re-parses.
	epoch := e.plans.Epoch()
	stmt, digest, err := sqlparse.ParseDigest(query)
	if err != nil {
		return nil, digest, err
	}
	pl := &plan{
		key:    query,
		stmt:   stmt,
		digest: digest,
		dhash:  sqlparse.HashDigestText(digest),
		epoch:  epoch,
		bind:   e.bindPlan(stmt),
	}
	e.plans.insert(pl, h)
	return pl, digest, nil
}

// bindPlan resolves what the statement's execution will need from the
// catalog, where that resolution is reusable: the table, and for the
// scanning statement kinds its template. Resolution failures (unknown
// table) leave the binding empty; execution re-resolves and produces
// the same error it always did. Unknown columns and the like are
// *captured* by the template as whereErr or deferredErr rather than
// failing the bind, so the error fires at the same point in execution
// it always did.
func (e *Engine) bindPlan(stmt sqlparse.Statement) planBindings {
	var name string
	switch st := stmt.(type) {
	case *sqlparse.Select:
		if isSystemTable(st.Table) {
			return planBindings{}
		}
		name = st.Table
	case *sqlparse.Update:
		name = st.Table
	case *sqlparse.Delete:
		name = st.Table
	case *sqlparse.Insert:
		name = st.Table
	default:
		return planBindings{}
	}
	t, ok := e.Table(name)
	if !ok {
		return planBindings{}
	}
	return planBindings{table: t, phys: e.template(t, stmt)}
}

// planTable returns the plan's bound table while the plan's epoch is
// still the catalog's, else asks the catalog. DML calls it after taking
// its table stripe: DDL runs under every stripe, so a DROP (+ CREATE)
// that landed since planFor has already bumped the epoch, and none can
// land while the stripe is held. (A SELECT takes no stripe; a DROP that
// lands after its check is a drop the read began before.) On a mismatch
// templateFor sees a table the binding was not resolved against and
// builds a fresh template. EXPLAIN ANALYZE passes no plan, so the
// catalog is asked.
func (e *Engine) planTable(pl *plan, name string) (*Table, error) {
	if pl != nil && pl.bind.table != nil && pl.epoch == e.plans.Epoch() {
		return pl.bind.table, nil
	}
	return e.lookupTable(name)
}

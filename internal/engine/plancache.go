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
// in the entry so a hit also skips the three tokenize passes the digest
// pipeline would otherwise pay.
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

type planShard struct {
	mu sync.Mutex
	m  map[string]*list.Element
	ll *list.List // front = most recently used
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

// planBindings carries the catalog resolution work a plan can reuse
// across executions. DROP TABLE can orphan the resolved *Table, so the
// binding is only as good as the plan's epoch: planTable re-checks it
// once the statement holds its lock.
type planBindings struct {
	table *Table
	// phys is the resolved physical operator-tree template for SELECT,
	// UPDATE, and DELETE statements (see physical.go). A plan-cache hit
	// reuses it directly — no planning work at all on the hot path; the
	// template is immutable and execution instantiates fresh operators
	// from it. nil when the table could not be resolved or the statement
	// kind has no scan.
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

// shardFor hashes the statement text (FNV-1a) to a shard.
func (c *planCache) shardFor(key string) *planShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h%planShards]
}

// Epoch returns the current catalog epoch.
func (c *planCache) Epoch() uint64 { return c.epoch.Load() }

// bumpEpoch invalidates every cached plan (lazily, on next lookup).
// Called by DDL.
func (c *planCache) bumpEpoch() { c.epoch.Add(1) }

// lookup returns the cached plan for the statement, or nil. A stale
// (pre-DDL) entry is evicted and reported as a miss.
func (c *planCache) lookup(query string) *plan {
	if c == nil {
		return nil
	}
	cur := c.epoch.Load()
	sh := c.shardFor(query)
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

// insert stores a freshly parsed plan, evicting the shard's LRU tail
// beyond capacity. The plan's epoch must be the value observed before
// parsing began.
func (c *planCache) insert(pl *plan) {
	if c == nil {
		return
	}
	sh := c.shardFor(pl.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
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
// size; zeros when the cache is disabled.
func (e *Engine) PlanCacheStats() (hits, misses uint64, entries int) {
	if e.plans == nil {
		return 0, 0, 0
	}
	h, m := e.plans.Stats()
	return h, m, e.plans.Len()
}

// CatalogEpoch returns the DDL epoch counter (0 when the plan cache is
// disabled).
func (e *Engine) CatalogEpoch() uint64 {
	if e.plans == nil {
		return 0
	}
	return e.plans.Epoch()
}

// planFor resolves the statement pipeline front half: a cache hit
// returns the stored plan; a miss parses, binds, and (on success)
// caches. The digest text is computed exactly once per cached statement
// text and reused by every later hit. parse errors are returned with a
// nil plan — failed statements are never cached, so the error surface
// is identical with the cache on or off.
func (e *Engine) planFor(query string) (*plan, error) {
	if pl := e.plans.lookup(query); pl != nil {
		return pl, nil
	}
	var epoch uint64
	if e.plans != nil {
		// Observe the epoch before parsing: a DDL that lands between
		// here and insert leaves the entry stale, and the next lookup
		// re-parses.
		epoch = e.plans.Epoch()
	}
	stmt, err := sqlparse.Parse(query)
	if err != nil {
		return nil, err
	}
	digest := sqlparse.Digest(query)
	pl := &plan{
		key:    query,
		stmt:   stmt,
		digest: digest,
		dhash:  sqlparse.HashDigestText(digest),
		epoch:  epoch,
		bind:   e.bindPlan(stmt),
	}
	e.plans.insert(pl)
	return pl, nil
}

// bindPlan resolves what the statement's execution will need from the
// catalog, where that resolution is reusable: the table, and for the
// scanning statement kinds the full physical plan template. Resolution
// failures (unknown table) leave the binding empty; execution
// re-resolves and produces the same error it always did. Unknown
// columns and the like are *captured* by the template as whereErr or
// deferredErr rather than failing the bind, so the error fires at the
// same point in execution it always did.
func (e *Engine) bindPlan(stmt sqlparse.Statement) planBindings {
	var b planBindings
	switch st := stmt.(type) {
	case *sqlparse.Select:
		if isSystemTable(st.Table) {
			return b
		}
		if t, ok := e.Table(st.Table); ok {
			b.table = t
			b.phys = e.buildSelectPlan(t, st)
		}
	case *sqlparse.Update:
		if t, ok := e.Table(st.Table); ok {
			b.table = t
			b.phys = e.buildUpdatePlan(t, st)
		}
	case *sqlparse.Delete:
		if t, ok := e.Table(st.Table); ok {
			b.table = t
			b.phys = e.buildDeletePlan(t, st)
		}
	case *sqlparse.Insert:
		if t, ok := e.Table(st.Table); ok {
			b.table = t
		}
	}
	return b
}

// planTable returns the plan's bound table while the plan's epoch is
// still the catalog's, else asks the catalog. Statements call it after
// taking their table stripe: DDL runs under every stripe, so a DROP (+
// CREATE) that landed since planFor has already bumped the epoch, and
// none can land while the stripe is held. (An MVCC SELECT takes no
// stripe; a DROP that lands after its check is a drop the read began
// before.) On a mismatch the physXxx helpers see a table the binding
// was not resolved against and build a fresh template. With the plan
// cache off there is no epoch to compare, so the catalog is always
// asked.
func (e *Engine) planTable(pl *plan, name string) (*Table, error) {
	if pl != nil && pl.bind.table != nil && e.plans != nil && pl.epoch == e.plans.Epoch() {
		return pl.bind.table, nil
	}
	return e.lookupTable(name)
}

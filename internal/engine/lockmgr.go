package engine

import "sync"

// numLockStripes is the size of the lock table. Tables hash onto
// stripes, so two tables rarely share a lock; when they do the only
// cost is false contention, never a correctness issue.
const numLockStripes = 32

// lockManager provides the engine's striped table locks. SELECTs take
// none (they read through the table latch and a read view); ANALYZE
// TABLE takes its table's stripe shared; DML takes the stripe
// exclusively, so writes serialize per table but writes to different
// tables (different stripes) do not contend. DDL and multi-table
// rollback take every stripe in index order, which together with
// single-stripe statements holding at most one lock makes the
// discipline deadlock-free.
//
// Locks are statement-scoped, not transaction-scoped: they order DML,
// ANALYZE and DDL statements, and isolate nothing — an open
// transaction's uncommitted rows are kept from other sessions' reads by
// the version store, not by a stripe.
type lockManager struct {
	stripes [numLockStripes]sync.RWMutex
}

// stripe maps a table name to its lock via FNV-1a.
func (lm *lockManager) stripe(table string) *sync.RWMutex {
	h := uint32(2166136261)
	for i := 0; i < len(table); i++ {
		h ^= uint32(table[i])
		h *= 16777619
	}
	return &lm.stripes[h%numLockStripes]
}

// shared takes the table's stripe shared and returns it for RUnlock.
func (lm *lockManager) shared(table string) *sync.RWMutex {
	mu := lm.stripe(table)
	mu.RLock()
	return mu
}

// exclusive takes the table's stripe exclusively and returns it for
// Unlock.
func (lm *lockManager) exclusive(table string) *sync.RWMutex {
	mu := lm.stripe(table)
	mu.Lock()
	return mu
}

// lockAll takes every stripe exclusively, in index order. DDL (catalog
// changes, index backfill) and rollback (undo may span tables) use it.
func (lm *lockManager) lockAll() {
	for i := range lm.stripes {
		lm.stripes[i].Lock()
	}
}

// unlockAll releases every stripe after lockAll.
func (lm *lockManager) unlockAll() {
	for i := range lm.stripes {
		lm.stripes[i].Unlock()
	}
}

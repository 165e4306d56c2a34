package engine

import (
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"snapdb/internal/engine/exec"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// Multi-version concurrency control. Writers keep updating the B+
// trees in place exactly as before — the tree always holds the newest
// state — but every row mutation now also files the row's pre-image
// into a per-primary-key version chain. The pre-images are the same
// ones the undo log has always carried; this file promotes them from a
// rollback buffer into a visibility structure, which is the InnoDB
// design the paper's §3 describes. A statement (or, for repeatable
// read, a transaction) opens a read view — a snapshot of the commit
// sequence — and scans resolve every chained row against that view
// instead of blocking on the writer's stripe lock: SELECTs take no
// table locks at all.
//
// Each table's chains sit in one slice sorted by primary key: writers
// bisect to their key, a SELECT resolves only the chains in its range,
// and purge, the checkpoint and the diagnostic walkers read them in
// the order they lie.
//
// The cost, and the point of experiment E16, is a brand-new forensic
// surface the paper predicts under "deleted data persists" (§4): every
// old version — including rows the application deleted — survives in
// the version store until purge reclaims it, and the
// store is serialized into checkpoints, so the residue outlives even a
// WAL truncation. What the redo log forgets, the version store still
// remembers.

// version is one historical row state: the full row image (nil when
// the row did not exist at that point) and the transaction that wrote
// it. Txn 0 means "ancient" — older than every tracked transaction,
// visible to every view.
type version struct {
	row storage.Record
	txn uint64
}

// chain is the version chain of primary key pk: the tree (or its
// absence, when deleted is set) is the newest version, written by
// latestTxn; olds holds the superseded versions newest-first.
type chain struct {
	pk        sqlparse.Value
	latestTxn uint64
	deleted   bool
	olds      []version
}

// readView is a consistent-read snapshot: commits with a sequence at
// or below snap are visible, as are the view's own transaction's
// writes. Autocommit SELECTs use ephemeral views (txn 0); an explicit
// transaction pins one view at its first read (repeatable read).
type readView struct {
	snap uint64
	txn  uint64
}

// tableVersions is one table's slice of the store: its chains, sorted
// by primary key with one chain per key. counter aliases the owning
// Table's mvccChains, the lock-free "does this table have any chains at
// all" fast-path gate.
type tableVersions struct {
	counter *atomic.Int64
	chains  []chain
}

// find bisects tv's chains for pk: the index of its chain, or where one
// would be inserted, and whether it is there.
func (tv *tableVersions) find(pk sqlparse.Value) (int, bool) {
	return slices.BinarySearchFunc(tv.chains, pk, func(c chain, pk sqlparse.Value) int { return c.pk.Compare(pk) })
}

// mvccStore is the engine-wide version store. All fields are guarded
// by mu; the store is a leaf lock (nothing else is acquired while
// holding it), taken under the table latch by writers and readers and
// bare by the purger.
type mvccStore struct {
	mu      sync.Mutex
	seq     uint64             // commit sequence counter
	commits map[uint64]uint64  // txn -> commit seq; absent = unresolved
	tables  [256]tableVersions // by table id
	views   map[*readView]struct{}

	// replaying is set only while recovery walks the redo log, and
	// extending while it also extends the chains the checkpoint restored
	// (see replayWrite); filed names the replayed transactions that
	// extended a chain, the only ones whose markers get a commit entry.
	// All three are written before the engine is shared with any other
	// goroutine.
	replaying, extending bool
	filed                map[uint64]struct{}

	purgeRuns      uint64
	purgedVersions uint64
}

func newMVCCStore() *mvccStore {
	return &mvccStore{
		commits: make(map[uint64]uint64),
		views:   make(map[*readView]struct{}),
	}
}

// chainAt returns table t's chain on pk, inserting an empty one where
// the key belongs when it has none. An empty chain's newest state is
// txn 0's, the ancient state every view sees. Caller holds st.mu.
func (st *mvccStore) chainAt(t *Table, pk sqlparse.Value) *chain {
	tv := &st.tables[t.ID]
	tv.counter = &t.mvccChains
	i, ok := tv.find(pk)
	if !ok {
		tv.chains = slices.Insert(tv.chains, i, chain{pk: pk})
		tv.counter.Add(1)
	}
	return &tv.chains[i]
}

// oldestSnap is the snapshot of the oldest registered view, or the
// current sequence when none is open. Caller holds st.mu.
func (st *mvccStore) oldestSnap() uint64 {
	oldest := st.seq
	for v := range st.views {
		oldest = min(oldest, v.snap)
	}
	return oldest
}

// visibleLocked reports whether a version written by txn t is visible
// to view v. Caller holds st.mu.
func (st *mvccStore) visibleLocked(v *readView, t uint64) bool {
	if t == 0 || t == v.txn {
		return true
	}
	s, ok := st.commits[t]
	return ok && s <= v.snap
}

// noteWrite files a row's pre-image before a mutation: pre is the row
// as it was (nil for an INSERT — the row did not exist), deletedNow
// reports whether the mutation removes the row from the tree, and txn
// is the writer. Called once per mutated row, under the table's write
// latch. While recovery replays the redo log it defers to replayWrite.
func (st *mvccStore) noteWrite(t *Table, pk sqlparse.Value, pre storage.Record, deletedNow bool, txn uint64) {
	if st.replaying {
		st.replayWrite(t, pk, pre, deletedNow, txn)
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	// On a key's first version the pre-image becomes the ancient state.
	st.chainAt(t, pk).supersede(pre, deletedNow, txn)
}

// replayWrite is noteWrite during redo replay: it starts no chain, and
// extends one the store already holds — one the checkpoint brought
// back — only when extending is set. No read view exists before Recover
// returns, and every replayed transaction is resolved by then (winners
// at their markers, losers by the rollback that follows the walk), so a
// version replay would file is superseded by a state every view sees:
// the first purge drops every chain it would land on whole. Only with
// inline purge off can that purge be a long way off, and there the
// checkpoint's chains grow as they did in the running engine. A table
// with no chains costs one atomic load.
func (st *mvccStore) replayWrite(t *Table, pk sqlparse.Value, pre storage.Record, deletedNow bool, txn uint64) {
	if !st.extending || t.mvccChains.Load() == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	tv := &st.tables[t.ID]
	i, ok := tv.find(pk)
	if !ok {
		return
	}
	tv.chains[i].supersede(pre, deletedNow, txn)
	st.filed[txn] = struct{}{}
}

// supersede pushes the chain's newest state down as an old version and
// makes txn's write the newest.
func (c *chain) supersede(pre storage.Record, deletedNow bool, txn uint64) {
	c.olds = slices.Insert(c.olds, 0, version{row: pre, txn: c.latestTxn})
	c.latestTxn = txn
	c.deleted = deletedNow
}

// commit assigns each of txns, in order, the next commit sequence,
// making its versions visible to views opened from here on; a flush
// resolves all of its group's markers under one lock. Rollback also
// calls it once the compensations are applied: the chain's latest state
// then equals the pre-transaction state, the intermediate versions stay
// invisible to everyone, and purge can resolve the chain. During redo
// replay every marker still takes its sequence number, but only a
// transaction that extended a chain is recorded: no chain names any
// other, so no view could ever ask for its sequence. (A log holds one
// marker per transaction; were one repeated, an unrecorded transaction
// would take a second number — a gap in the sequence, which orders
// nothing.)
func (st *mvccStore) commit(txns ...uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, txn := range txns {
		if txn == 0 {
			continue
		}
		if _, ok := st.commits[txn]; ok {
			continue
		}
		st.seq++
		if st.replaying {
			if _, ok := st.filed[txn]; !ok {
				continue
			}
			delete(st.filed, txn)
		}
		st.commits[txn] = st.seq
	}
}

// beginReplay and endReplay bracket recovery's redo walk; extend says
// whether replay extends the checkpoint's chains. A loser that extended
// one is resolved after the walk, by rollbackTxn, like any rollback.
func (st *mvccStore) beginReplay(extend bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.replaying, st.extending = true, extend
	st.filed = make(map[uint64]struct{})
}

func (st *mvccStore) endReplay() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.replaying, st.extending, st.filed = false, false, nil
}

// newView opens and registers a read view at the current commit
// horizon. Registered views pin their versions against purge.
func (st *mvccStore) newView(txn uint64) *readView {
	st.mu.Lock()
	defer st.mu.Unlock()
	v := &readView{snap: st.seq, txn: txn}
	st.views[v] = struct{}{}
	return v
}

// release unregisters a view, letting purge reclaim what only it saw.
func (st *mvccStore) release(v *readView) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.views, v)
}

// dropTable discards a dropped table's chains.
func (st *mvccStore) dropTable(id uint8) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.tables[id] = tableVersions{}
}

// differs reports whether the tree is not exactly view v's state of
// table t: whether some chain of t has a newest version v cannot see.
// It stops at the first such chain and allocates nothing.
func (st *mvccStore) differs(t *Table, v *readView) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	tv := &st.tables[t.ID]
	for i := range tv.chains {
		if !st.visibleLocked(v, tv.chains[i].latestTxn) {
			return true
		}
	}
	return false
}

// visEntry is one resolved chain in a versionFilter: its key, the row
// version the view sees (nil = the key is absent in the view) and
// whether the tree still holds the key at all.
type visEntry struct {
	pk         sqlparse.Value
	row        storage.Record
	treeAbsent bool
}

// versionFilter is a statement's immutable visibility snapshot, built
// once under st.mu: the chains in its primary-key range whose tree
// state is NOT what the view sees, resolved against the view, in key
// order. Unlisted keys read straight from the tree.
type versionFilter []visEntry

// filterFor resolves table t's chains in [lo, hi] (every chain when
// not bounded) against view v. Nil when the tree is exactly the view
// on that range.
func (st *mvccStore) filterFor(t *Table, v *readView, bounded bool, lo, hi sqlparse.Value) versionFilter {
	st.mu.Lock()
	defer st.mu.Unlock()
	tv := &st.tables[t.ID]
	chains := tv.chains
	if bounded {
		i, _ := tv.find(lo)
		chains = chains[i:]
	}
	var f versionFilter
	for i := range chains {
		c := &chains[i]
		if bounded && c.pk.Compare(hi) > 0 {
			break
		}
		if st.visibleLocked(v, c.latestTxn) {
			continue // tree state is the visible version
		}
		e := visEntry{pk: c.pk, treeAbsent: c.deleted}
		for _, old := range c.olds {
			if st.visibleLocked(v, old.txn) {
				e.row = old.row
				break
			}
		}
		f = append(f, e)
	}
	return f
}

// find bisects the filter for pk's entry; nil when pk has none.
func (f versionFilter) find(pk sqlparse.Value) *visEntry {
	if i, ok := slices.BinarySearchFunc(f, pk, func(e visEntry, pk sqlparse.Value) int { return e.pk.Compare(pk) }); ok {
		return &f[i]
	}
	return nil
}

// rowResolve is the clustered-scan hook: substitute a visited tree row
// with the view's version, or suppress it when the view predates the
// row.
func (f versionFilter) rowResolve(r storage.Record) (storage.Record, bool) {
	if e := f.find(r[0]); e != nil {
		return e.row, e.row != nil
	}
	return r, true
}

// rowGhosts returns the rows the view sees but the tree no longer
// holds (deleted keys with a visible old version), in key order.
func (f versionFilter) rowGhosts() []storage.Record {
	var out []storage.Record
	for _, e := range f {
		if e.treeAbsent && e.row != nil {
			out = append(out, e.row)
		}
	}
	return out
}

// entryResolve is the secondary-index leaf hook: suppress every entry
// whose primary key is chained away from the tree state — the visible
// version's entry is re-emitted as a ghost at its own composite key.
func (f versionFilter) entryResolve(entry storage.Record) (storage.Record, bool) {
	if f.find(entry[1]) != nil {
		return nil, false
	}
	return entry, true
}

// entryGhosts builds the index entries of the visible versions of
// every chained key, restricted to the scan's composite-key bounds,
// sorted by composite key. colIdx is the indexed schema column.
func (f versionFilter) entryGhosts(colIdx int, lo, hi sqlparse.Value) []storage.Record {
	var out []storage.Record
	for _, e := range f {
		if e.row == nil || colIdx >= len(e.row) {
			continue
		}
		comp := indexKey(e.row[colIdx], e.row[0])
		if comp.Compare(lo) < 0 || comp.Compare(hi) > 0 {
			continue
		}
		out = append(out, storage.Record{comp, e.row[0]})
	}
	slices.SortFunc(out, func(a, b storage.Record) int { return a[0].Compare(b[0]) })
	return out
}

// lookupResolve serves a KeyLookup straight from the filter for
// chained keys: the tree may not even hold the key (a ghost entry's
// row was deleted), and when it does, its row is not the view's.
func (f versionFilter) lookupResolve(pk sqlparse.Value) (storage.Record, bool) {
	if e := f.find(pk); e != nil {
		return e.row, e.row != nil
	}
	return nil, false
}

// armVisibility installs the filter's hooks on an instantiated plan:
// row substitution + pk-ordered ghost merge on clustered leaves, entry
// suppression + composite-ordered ghost merge + lookup interception on
// index paths. A nil filter leaves the plan a current read.
func (pi *planInstance) armVisibility(pp *physicalPlan, vf versionFilter) {
	if vf == nil {
		return
	}
	var vis *exec.Visibility
	if pp.kind == accessIndex {
		vis = &exec.Visibility{
			Resolve: vf.entryResolve,
			Ghosts:  vf.entryGhosts(pp.ix.colIdx, pp.lo, pp.hi),
		}
		pi.lookup.SetLookupResolver(vf.lookupResolve)
	} else {
		vis = &exec.Visibility{Resolve: vf.rowResolve, Ghosts: vf.rowGhosts()}
	}
	pi.leaf.SetVisibility(vis)
}

// purge reclaims versions no registered view (nor any future view) can
// reach: a version is dead once the version that superseded it is
// visible to the oldest registered view. Chains whose newest state is
// visible to every view are dropped whole — including tombstones,
// which is when a deleted row's last pre-image finally stops being
// recoverable (E16's mitigation ablation measures exactly this
// window). batch bounds the chains examined in one sweep — the first
// ones in (table id, pk) order, so a bounded sweep reclaims the same
// chains on every run; 0 sweeps everything. Returns the number of
// versions reclaimed.
func (st *mvccStore) purge(batch int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeRuns++
	oldest := st.oldestSnap()
	resolvedBefore := func(t uint64) bool {
		if t == 0 {
			return true
		}
		s, ok := st.commits[t]
		return ok && s <= oldest
	}
	examined, removed := 0, 0
	full := true
	for id := range st.tables {
		tv := &st.tables[id]
		n := len(tv.chains)
		if batch > 0 && examined+n > batch {
			n, full = batch-examined, false
		}
		examined += n
		kept := 0 // tv.chains[:kept] are the swept chains still live, in key order
		for _, c := range tv.chains[:n] {
			if resolvedBefore(c.latestTxn) {
				removed += len(c.olds)
				tv.counter.Add(-1)
				continue
			}
			for i, old := range c.olds {
				if resolvedBefore(old.txn) {
					removed += len(c.olds) - i - 1
					c.olds = c.olds[:i+1]
					break
				}
			}
			tv.chains[kept] = c
			kept++
		}
		tv.chains = slices.Delete(tv.chains, kept, n)
		if !full {
			break
		}
	}
	if full {
		// Prune commit-sequence entries no chain references anymore.
		referenced := make(map[uint64]bool)
		for id := range st.tables {
			for _, c := range st.tables[id].chains {
				referenced[c.latestTxn] = true
				for _, old := range c.olds {
					referenced[old.txn] = true
				}
			}
		}
		for txn := range st.commits {
			if !referenced[txn] {
				delete(st.commits, txn)
			}
		}
	}
	st.purgedVersions += uint64(removed)
	return removed
}

// --- engine wiring ---

// selectView returns the read view a SELECT on t resolves
// against, or nil when the tree is exactly the view (no chains on the
// table — purge only drops chains every registered view already sees,
// so a registered transaction view stays correct through a nil here).
// ephemeral marks an autocommit statement's own view, which the caller
// unregisters at statement end.
func (e *Engine) selectView(s *Session, t *Table) (v *readView, ephemeral bool) {
	if s.txn != nil {
		// Repeatable read: the transaction's view pins at its first
		// consistent read, clean table or not.
		s.txn.mu.Lock()
		if s.txn.view == nil {
			s.txn.view = e.versions.newView(s.txn.walTxn)
		}
		v = s.txn.view
		s.txn.mu.Unlock()
		if t.mvccChains.Load() == 0 {
			return nil, false
		}
		return v, false
	}
	if t.mvccChains.Load() == 0 {
		return nil, false
	}
	return e.versions.newView(0), true
}

// PurgeVersions runs one purge sweep over at most batch chains (0 =
// all chains), returning the number of row versions reclaimed. The
// engine also purges inline every Config.PurgeEvery statements.
func (e *Engine) PurgeVersions(batch int) int {
	return e.versions.purge(batch)
}

// ResidueVersion is one recoverable old row version, as the forensic
// surface exposes it: VersionResidue is what an analyst with engine
// access (or a recovered snapshot) reads to resurrect overwritten and
// deleted rows the application believes are gone.
type ResidueVersion struct {
	Table   string
	PK      sqlparse.Value
	Row     storage.Record // the old version's full row image
	Txn     uint64         // transaction that wrote this version (0 = ancient)
	Deleted bool           // the key is tombstoned: the tree no longer holds it
}

// VersionResidue returns every retained old row version with a row
// image, sorted by (table, pk, chain position) — within a key, newest
// first. Deleted marks versions whose key the application deleted —
// the §4 "deleted data persists" channel E16 quantifies.
func (e *Engine) VersionResidue() []ResidueVersion {
	var out []ResidueVersion
	for _, ce := range e.sortedChains() {
		for _, old := range ce.olds {
			if old.row != nil {
				out = append(out, ResidueVersion{Table: ce.table, PK: ce.pk, Row: old.row, Txn: old.txn, Deleted: ce.deleted})
			}
		}
	}
	return out
}

// chainEntry is one version chain as the diagnostic surfaces read it:
// its table's name ("(dropped)" once the catalog no longer knows it)
// and a copy of the chain whose olds are cloned, so it reads safely
// once the store is unlocked.
type chainEntry struct {
	table string
	chain
}

// sortedChains copies every version chain out of the store in (table
// name, pk) order, each chain's versions newest-first. It is the one
// walker VersionResidue and information_schema.mvcc_version_store read.
func (e *Engine) sortedChains() []chainEntry {
	var names [256]string
	for id := range names {
		names[id] = "(dropped)"
	}
	e.mu.Lock()
	for id, t := range e.tablesByID {
		names[id] = t.Name
	}
	e.mu.Unlock()
	st := e.versions
	st.mu.Lock()
	defer st.mu.Unlock()
	var ids []uint8
	for id := range st.tables {
		if len(st.tables[id].chains) > 0 {
			ids = append(ids, uint8(id))
		}
	}
	slices.SortStableFunc(ids, func(a, b uint8) int { return strings.Compare(names[a], names[b]) })
	var out []chainEntry
	for _, id := range ids {
		for _, c := range st.tables[id].chains {
			ce := chainEntry{table: names[id], chain: c}
			ce.olds = slices.Clone(c.olds)
			out = append(out, ce)
		}
	}
	return out
}

// --- checkpoint serialization ---

// ckptVersion, ckptChain and ckptVersions carry the version store
// through checkpoints: the residue is crash-visible, and — the E16
// headline — survives the WAL truncation the checkpoint performs. At
// checkpoint time no transactions are open, so every chain is fully
// resolved and raw txn ids round-trip safely (recovery re-bases the
// txn sequence above the checkpoint's maximum).
type ckptVersion struct {
	Row storage.Record `json:",omitempty"`
	Txn uint64
}

type ckptChain struct {
	Table     uint8
	PK        sqlparse.Value
	LatestTxn uint64
	Deleted   bool `json:",omitempty"`
	Olds      []ckptVersion
}

type ckptVersions struct {
	Seq     uint64
	Commits map[uint64]uint64
	Chains  []ckptChain
}

// ckptSnapshot serializes the store deterministically: chains in
// (table id, pk) order, the order the store keeps them in; the commits
// map serializes with sorted keys.
func (st *mvccStore) ckptSnapshot() *ckptVersions {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := &ckptVersions{Seq: st.seq, Commits: maps.Clone(st.commits)}
	for id := range st.tables {
		for _, c := range st.tables[id].chains {
			cc := ckptChain{Table: uint8(id), PK: c.pk, LatestTxn: c.latestTxn, Deleted: c.deleted}
			for _, old := range c.olds {
				cc.Olds = append(cc.Olds, ckptVersion{Row: old.row, Txn: old.txn})
			}
			out.Chains = append(out.Chains, cc)
		}
	}
	if len(out.Chains) == 0 && len(out.Commits) == 0 && out.Seq == 0 {
		return nil
	}
	return out
}

// loadCkpt restores a checkpointed version store. tables resolves
// table ids to their (freshly reopened) catalog entries; chains of
// unknown tables are dropped, like their WAL records. The checkpoint's
// chains may come in any order and name a key twice (a forged or an
// older directory): each is filed where its key belongs, and of two on
// one key the later wins.
func (st *mvccStore) loadCkpt(cv *ckptVersions, tables map[uint8]*Table) {
	if cv == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq = cv.Seq
	st.commits = make(map[uint64]uint64, len(cv.Commits))
	maps.Copy(st.commits, cv.Commits)
	st.tables = [256]tableVersions{}
	for _, cc := range cv.Chains {
		t, ok := tables[cc.Table]
		if !ok {
			continue
		}
		c := st.chainAt(t, cc.PK)
		*c = chain{pk: cc.PK, latestTxn: cc.LatestTxn, deleted: cc.Deleted}
		for _, old := range cc.Olds {
			c.olds = append(c.olds, version{row: old.Row, txn: old.Txn})
		}
	}
}

// mvccStatus is a point-in-time summary for the diagnostics surface.
type mvccStatus struct {
	seq            uint64
	chains         int
	versions       int
	views          int
	oldestViewSnap uint64
	commitsTracked int
	purgeRuns      uint64
	purgedVersions uint64
}

func (st *mvccStore) status() mvccStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := mvccStatus{
		seq:            st.seq,
		views:          len(st.views),
		oldestViewSnap: st.oldestSnap(),
		commitsTracked: len(st.commits),
		purgeRuns:      st.purgeRuns,
		purgedVersions: st.purgedVersions,
	}
	for id := range st.tables {
		s.chains += len(st.tables[id].chains)
		for _, c := range st.tables[id].chains {
			s.versions += len(c.olds)
		}
	}
	return s
}

package engine

import (
	"sort"
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
// The cost, and the point of experiment E16, is a brand-new forensic
// surface the paper predicts under "deleted data persists" (§4): every
// old version — including rows the application deleted — survives in
// the version store until purge reclaims it, and the
// store is serialized into checkpoints, so the residue outlives even a
// WAL truncation. What the redo log forgets, the version store still
// remembers.

// pkKey is a primary-key value in comparable form, usable as a map key.
type pkKey struct {
	isInt bool
	i     int64
	s     string
}

func keyOf(v sqlparse.Value) pkKey {
	return pkKey{isInt: v.IsInt, i: v.Int, s: v.Str}
}

func (k pkKey) value() sqlparse.Value {
	return sqlparse.Value{IsInt: k.isInt, Int: k.i, Str: k.s}
}

// version is one historical row state: the full row image (nil when
// the row did not exist at that point) and the transaction that wrote
// it. Txn 0 means "ancient" — older than every tracked transaction,
// visible to every view.
type version struct {
	row storage.Record
	txn uint64
}

// chain is the version chain of one primary key: the tree (or its
// absence, when deleted is set) is the newest version, written by
// latestTxn; olds holds the superseded versions newest-first.
type chain struct {
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

// tableVersions is one table's slice of the store. counter aliases the
// owning Table's mvccChains, the lock-free "does this table have any
// chains at all" fast-path gate.
type tableVersions struct {
	counter *mvccCounter
	chains  map[pkKey]*chain
}

// mvccStore is the engine-wide version store. All fields are guarded
// by mu; the store is a leaf lock (nothing else is acquired while
// holding it), taken under the table latch by writers and readers and
// bare by the purger.
type mvccStore struct {
	mu      sync.Mutex
	seq     uint64            // commit sequence counter
	commits map[uint64]uint64 // txn -> commit seq; absent = unresolved
	tables  map[uint8]*tableVersions
	views   map[*readView]struct{}

	purgeRuns      uint64
	purgedVersions uint64
}

func newMVCCStore() *mvccStore {
	return &mvccStore{
		commits: make(map[uint64]uint64),
		tables:  make(map[uint8]*tableVersions),
		views:   make(map[*readView]struct{}),
	}
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
// latch.
func (st *mvccStore) noteWrite(t *Table, pk sqlparse.Value, pre storage.Record, deletedNow bool, txn uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	tv := st.tables[t.ID]
	if tv == nil {
		tv = &tableVersions{counter: &t.mvccChains, chains: make(map[pkKey]*chain)}
		st.tables[t.ID] = tv
	}
	k := keyOf(pk)
	c := tv.chains[k]
	if c == nil {
		// First version on this key: the pre-image is the ancient state,
		// visible to every view.
		tv.chains[k] = &chain{
			latestTxn: txn,
			deleted:   deletedNow,
			olds:      []version{{row: pre, txn: 0}},
		}
		tv.counter.Add(1)
		return
	}
	c.olds = append(c.olds, version{})
	copy(c.olds[1:], c.olds)
	c.olds[0] = version{row: pre, txn: c.latestTxn}
	c.latestTxn = txn
	c.deleted = deletedNow
}

// commit assigns txn the next commit sequence, making its versions
// visible to views opened from here on. Rollback also calls it once
// the compensations are applied: the chain's latest state then equals
// the pre-transaction state, the intermediate versions stay invisible
// to everyone, and purge can resolve the chain.
func (st *mvccStore) commit(txn uint64) {
	if txn == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.commits[txn]; ok {
		return
	}
	st.seq++
	st.commits[txn] = st.seq
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
	delete(st.tables, id)
}

// visEntry is one resolved chain in a versionFilter: the row version
// the view sees (nil = the key is absent in the view) and whether the
// tree still holds the key at all.
type visEntry struct {
	row        storage.Record
	treeAbsent bool
}

// versionFilter is a statement's immutable visibility snapshot: every
// chained key of the scanned table resolved against the read view,
// built once under st.mu so the scan itself touches no shared state.
// The map holds only keys whose tree state is NOT what the view sees;
// unlisted keys read straight from the tree.
type versionFilter struct {
	res map[pkKey]visEntry
}

// filterFor resolves table t's chains against view v. Nil when the
// table has no chains, or every chain's newest version is visible to v
// (the tree is exactly the view).
func (st *mvccStore) filterFor(t *Table, v *readView) *versionFilter {
	st.mu.Lock()
	defer st.mu.Unlock()
	tv := st.tables[t.ID]
	if tv == nil || len(tv.chains) == 0 {
		return nil
	}
	var res map[pkKey]visEntry
	for k, c := range tv.chains {
		if st.visibleLocked(v, c.latestTxn) {
			continue // tree state is the visible version
		}
		e := visEntry{treeAbsent: c.deleted}
		for _, old := range c.olds {
			if st.visibleLocked(v, old.txn) {
				e.row = old.row
				break
			}
		}
		if res == nil {
			res = make(map[pkKey]visEntry)
		}
		res[k] = e
	}
	if res == nil {
		return nil
	}
	return &versionFilter{res: res}
}

// rowResolve is the clustered-scan hook: substitute a visited tree row
// with the view's version, or suppress it when the view predates the
// row.
func (f *versionFilter) rowResolve(r storage.Record) (storage.Record, bool) {
	e, ok := f.res[keyOf(r[0])]
	if !ok {
		return r, true
	}
	if e.row == nil {
		return nil, false
	}
	return e.row, true
}

// rowGhosts returns the rows the view sees but the tree no longer
// holds (deleted keys with a visible old version), restricted to
// [lo, hi] when bounded, sorted by primary key.
func (f *versionFilter) rowGhosts(bounded bool, lo, hi sqlparse.Value) []storage.Record {
	var out []storage.Record
	for _, e := range f.res {
		if !e.treeAbsent || e.row == nil {
			continue
		}
		if bounded && (e.row[0].Compare(lo) < 0 || e.row[0].Compare(hi) > 0) {
			continue
		}
		out = append(out, e.row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Compare(out[j][0]) < 0 })
	return out
}

// entryResolve is the secondary-index leaf hook: suppress every entry
// whose primary key is chained away from the tree state — the visible
// version's entry is re-emitted as a ghost at its own composite key.
func (f *versionFilter) entryResolve(entry storage.Record) (storage.Record, bool) {
	if _, ok := f.res[keyOf(entry[1])]; ok {
		return nil, false
	}
	return entry, true
}

// entryGhosts builds the index entries of the visible versions of
// every chained key, restricted to the scan's composite-key bounds,
// sorted by composite key. colIdx is the indexed schema column.
func (f *versionFilter) entryGhosts(colIdx int, lo, hi sqlparse.Value) []storage.Record {
	var out []storage.Record
	for _, e := range f.res {
		if e.row == nil || colIdx >= len(e.row) {
			continue
		}
		comp := indexKey(e.row[colIdx], e.row[0])
		if comp.Compare(lo) < 0 || comp.Compare(hi) > 0 {
			continue
		}
		out = append(out, storage.Record{comp, e.row[0]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Compare(out[j][0]) < 0 })
	return out
}

// lookupResolve serves a KeyLookup straight from the filter for
// chained keys: the tree may not even hold the key (a ghost entry's
// row was deleted), and when it does, its row is not the view's.
func (f *versionFilter) lookupResolve(pk sqlparse.Value) (storage.Record, bool) {
	e, ok := f.res[keyOf(pk)]
	if !ok || e.row == nil {
		return nil, false
	}
	return e.row, true
}

// armVisibility installs the filter's hooks on an instantiated plan:
// row substitution + pk-ordered ghost merge on clustered leaves, entry
// suppression + composite-ordered ghost merge + lookup interception on
// index paths. A nil filter leaves the plan a current read.
func (pi *planInstance) armVisibility(pp *physicalPlan, vf *versionFilter) {
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
		bounded := pp.kind == accessPKPoint || pp.kind == accessPKRange
		vis = &exec.Visibility{
			Resolve: vf.rowResolve,
			Ghosts:  vf.rowGhosts(bounded, pp.lo, pp.hi),
		}
	}
	pi.leaf.SetVisibility(vis)
}

// purge reclaims versions no registered view (nor any future view) can
// reach: a version is dead once the version that superseded it is
// visible to the oldest registered view. Chains whose newest state is
// visible to every view are dropped whole — including tombstones,
// which is when a deleted row's last pre-image finally stops being
// recoverable (E16's mitigation ablation measures exactly this
// window). batch bounds the chains examined in one sweep; 0 sweeps
// everything. Returns the number of versions reclaimed.
func (st *mvccStore) purge(batch int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.purgeRuns++
	oldest := st.seq
	for v := range st.views {
		if v.snap < oldest {
			oldest = v.snap
		}
	}
	resolvedBefore := func(t uint64) bool {
		if t == 0 {
			return true
		}
		s, ok := st.commits[t]
		return ok && s <= oldest
	}
	examined, removed := 0, 0
	full := true
	for _, tv := range st.tables {
		for k, c := range tv.chains {
			if batch > 0 && examined >= batch {
				full = false
				break
			}
			examined++
			if resolvedBefore(c.latestTxn) {
				removed += len(c.olds)
				delete(tv.chains, k)
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
		}
		if !full {
			break
		}
	}
	if full {
		// Prune commit-sequence entries no chain references anymore.
		referenced := make(map[uint64]bool)
		for _, tv := range st.tables {
			for _, c := range tv.chains {
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

// mvccCounter is the per-table chain counter the store aliases so it
// can maintain each Table's lock-free fast-path gate.
type mvccCounter = atomic.Int64

// noteVersion files a pre-image if MVCC is enabled. The three row
// mutators call it, once each.
func (e *Engine) noteVersion(t *Table, pk sqlparse.Value, pre storage.Record, deletedNow bool, txn uint64) {
	if e.versions != nil {
		e.versions.noteWrite(t, pk, pre, deletedNow, txn)
	}
}

// commitVersions resolves txn in the version store if MVCC is enabled.
func (e *Engine) commitVersions(txn uint64) {
	if e.versions != nil {
		e.versions.commit(txn)
	}
}

// selectView returns the read view an MVCC SELECT on t resolves
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
	if e.versions == nil {
		return 0
	}
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
// image, sorted by (table, pk, chain position). Deleted marks versions
// whose key the application deleted — the §4 "deleted data persists"
// channel E16 quantifies.
func (e *Engine) VersionResidue() []ResidueVersion {
	if e.versions == nil {
		return nil
	}
	names := make(map[uint8]string)
	e.mu.Lock()
	for id, t := range e.tablesByID {
		names[id] = t.Name
	}
	e.mu.Unlock()
	st := e.versions
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []ResidueVersion
	for id, tv := range st.tables {
		name := names[id]
		if name == "" {
			name = "(dropped)"
		}
		for k, c := range tv.chains {
			for _, old := range c.olds {
				if old.row == nil {
					continue
				}
				out = append(out, ResidueVersion{
					Table:   name,
					PK:      k.value(),
					Row:     old.row,
					Txn:     old.txn,
					Deleted: c.deleted,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].PK.Compare(out[j].PK) < 0
	})
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

// ckptSnapshot serializes the store deterministically: chains sorted
// by (table, pk); the commits map serializes with sorted keys.
func (st *mvccStore) ckptSnapshot() *ckptVersions {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := &ckptVersions{Seq: st.seq, Commits: make(map[uint64]uint64, len(st.commits))}
	for txn, s := range st.commits {
		out.Commits[txn] = s
	}
	for id, tv := range st.tables {
		for k, c := range tv.chains {
			cc := ckptChain{Table: id, PK: k.value(), LatestTxn: c.latestTxn, Deleted: c.deleted}
			for _, old := range c.olds {
				cc.Olds = append(cc.Olds, ckptVersion{Row: old.row, Txn: old.txn})
			}
			out.Chains = append(out.Chains, cc)
		}
	}
	sort.Slice(out.Chains, func(i, j int) bool {
		if out.Chains[i].Table != out.Chains[j].Table {
			return out.Chains[i].Table < out.Chains[j].Table
		}
		return out.Chains[i].PK.Compare(out.Chains[j].PK) < 0
	})
	if len(out.Chains) == 0 && len(out.Commits) == 0 && out.Seq == 0 {
		return nil
	}
	return out
}

// loadCkpt restores a checkpointed version store. tables resolves
// table ids to their (freshly reopened) catalog entries; chains of
// unknown tables are dropped, like their WAL records.
func (st *mvccStore) loadCkpt(cv *ckptVersions, tables map[uint8]*Table) {
	if cv == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq = cv.Seq
	st.commits = make(map[uint64]uint64, len(cv.Commits))
	for txn, s := range cv.Commits {
		st.commits[txn] = s
	}
	st.tables = make(map[uint8]*tableVersions)
	for _, cc := range cv.Chains {
		t, ok := tables[cc.Table]
		if !ok {
			continue
		}
		tv := st.tables[cc.Table]
		if tv == nil {
			tv = &tableVersions{counter: &t.mvccChains, chains: make(map[pkKey]*chain)}
			st.tables[cc.Table] = tv
		}
		c := &chain{latestTxn: cc.LatestTxn, deleted: cc.Deleted}
		for _, old := range cc.Olds {
			c.olds = append(c.olds, version{row: old.Row, txn: old.Txn})
		}
		tv.chains[keyOf(cc.PK)] = c
		tv.counter.Add(1)
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
		oldestViewSnap: st.seq,
		commitsTracked: len(st.commits),
		purgeRuns:      st.purgeRuns,
		purgedVersions: st.purgedVersions,
	}
	for v := range st.views {
		if v.snap < s.oldestViewSnap {
			s.oldestViewSnap = v.snap
		}
	}
	for _, tv := range st.tables {
		s.chains += len(tv.chains)
		for _, c := range tv.chains {
			s.versions += len(c.olds)
		}
	}
	return s
}

package engine

import (
	"fmt"
	"math"
	"strings"

	"snapdb/internal/engine/exec"
	"snapdb/internal/perfschema"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// This file is the second planning stage: turning a logical plan into a
// physical plan — an immutable operator-tree template. The template
// fixes the access path (the choice the legacy scan made per execution)
// and precomputes every operator's EXPLAIN description, so a plan-cache
// hit skips planning entirely: execution just instantiates fresh
// operators from the template and pulls.

// Cost model. Costs are abstract row-visit units fed by the planner
// statistics (stats.go): a sequential clustered row costs 1, an index
// entry slightly less (smaller records, denser pages), and every index
// match pays a clustered key lookup on top. With no ANALYZE on record
// the selectivity defaults below stand in — deliberately the same
// shape MySQL's pre-histogram planner used.
const (
	costSeqRow     = 1.0 // one clustered row visited sequentially
	costIndexEntry = 0.9 // one secondary-index entry visited
	costKeyLookup  = 1.0 // one clustered lookup resolving an index entry

	defaultEqSelectivity    = 0.10 // `col = ?` with no distinct count
	defaultRangeSelectivity = 0.25 // bounded range with no min/max

	// costFullScanMinRows is the small-table floor: below it a bounded
	// index always wins, exactly as the first-match planner chose. A
	// table this small fits in a handful of pages either way, and the
	// floor keeps estimate noise from flipping access paths (and
	// therefore fetch traces) on the many small fixtures the
	// differential suites replay.
	costFullScanMinRows = 64
)

// DefaultParallelScanMinRows is the estimated-row floor below which a
// scan is never split across workers (Config.ParallelScanMinRows).
const DefaultParallelScanMinRows = 4096

// maxScanPartitions caps how many partitions one scan fans out into no
// matter what Config.MaxScanWorkers says.
const maxScanPartitions = 16

// accessKind is the chosen scan strategy.
type accessKind int

const (
	accessFull accessKind = iota
	accessPKPoint
	accessPKRange
	accessIndex
)

// physicalPlan is the cached operator-tree template for one statement.
// It is immutable after construction (plan-cache entries are shared
// across sessions); all runtime state lives in the operators that
// instantiate builds per execution.
type physicalPlan struct {
	table *Table
	kind  accessKind
	// lo/hi are the scan bounds: primary-key values for the PK paths,
	// encoded composite keys for the secondary-index path.
	lo, hi sqlparse.Value
	ix     *SecondaryIndex
	// path is the legacy access-path label: "full-scan", "pk-range", or
	// "index:<name>".
	path string
	// need marks, by schema column, what the plan reads of a clustered
	// row: the leaf materializes only those columns and leaves the rest
	// zero. Nil means every column.
	need []bool

	preds []exec.Pred
	// residual are the preds a clustered path's bounds [lo, hi] do not
	// already enforce: what the Filter may hand down to the leaf (see
	// instantiate). A pk-range read with only bound predicates has none.
	residual    []exec.Pred
	whereErr    error // raised before the scan runs
	deferredErr error // raised after the scan drains

	// SELECT shape. sortCol is -1 when there is no ORDER BY *node*:
	// either the statement has none, or the access path absorbed the
	// ordering (scanRev / lookupRevCol carry the DESC variants). limit
	// is -1 for no LIMIT — LIMIT 0 is a real, empty limit. When both a
	// sort node and a limit are present the tree gets a single TopN
	// operator instead of Sort+Limit.
	agg          bool
	aggKind      sqlparse.AggKind
	aggCol       int
	proj         []int
	sortCol      int // -1 for none (or absorbed by the access path)
	sortDesc     bool
	limit        int  // -1 for none
	useTopN      bool // fold Sort+Limit into one TopN operator
	scanRev      bool // PK-order DESC: leaf emits its buffer reversed
	lookupRevCol int  // index-order DESC: KeyLookup group-reverse column, -1 off

	// UPDATE shape.
	sets []setOp

	// Cost-model outputs for the chosen path, computed at plan-build
	// time from the then-current statistics. They feed EXPLAIN and
	// EXPLAIN ANALYZE only — never the operator descriptions, which
	// are shared with the events_stages surface and must not vary with
	// statistics drift between a cached template and a fresh build.
	estRows int64
	estCost float64

	// Parallel-scan template knobs (buildSelectPlan sets them when the
	// statement is eligible; zero parWorkers keeps the scan serial).
	// The split itself happens at instantiate time from live state, so
	// a cached template and a fresh build partition identically.
	parWorkers int
	parMinRows int64

	// Precomputed operator descriptions (EXPLAIN and events_stages).
	dScan, dLookup, dFilter, dSort, dTopN, dAgg, dProj, dLimit string
}

// setEst records the chosen path's estimates.
func (pp *physicalPlan) setEst(rows, cost float64) {
	pp.estRows = int64(rows + 0.5)
	pp.estCost = cost
}

// indexesOf snapshots t's secondary-index list under the catalog lock.
// Plan construction runs outside the statement's table lock, and CREATE
// INDEX appends to the slice under e.mu; the copy keeps the planner's
// iteration race-free (a racing DDL bumps the plan epoch, so a stale
// choice lasts at most one execution).
func (e *Engine) indexesOf(t *Table) []*SecondaryIndex {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*SecondaryIndex(nil), t.Indexes...)
}

// estIndexRows estimates how many rows of t fall in [lo, hi] on column
// colIdx. Analyzed tables use the column's distinct count (equality)
// or min/max bounds (INT ranges, interpolated uniformly); everything
// else falls back to the default selectivities.
func estIndexRows(t *Table, colIdx int, lo, hi sqlparse.Value, eq bool, n int64) float64 {
	cs, analyzed := t.statsFor(colIdx)
	nf := float64(n)
	if eq {
		if analyzed && cs.Distinct > 0 {
			return nf / float64(cs.Distinct)
		}
		if est := defaultEqSelectivity * nf; est > 1 {
			return est
		}
		return 1
	}
	if analyzed && cs.HaveMinMax && lo.IsInt && hi.IsInt {
		loC, hiC := lo.Int, hi.Int
		if loC < cs.Min {
			loC = cs.Min
		}
		if hiC > cs.Max {
			hiC = cs.Max
		}
		if hiC < loC {
			return 0
		}
		span := float64(cs.Max) - float64(cs.Min) + 1
		if span <= 0 {
			return defaultRangeSelectivity * nf
		}
		return (float64(hiC) - float64(loC) + 1) / span * nf
	}
	return defaultRangeSelectivity * nf
}

// buildAccess chooses the access path for a lowered scan and fills the
// scan-related template fields. Primary-key bounds always win (the
// clustered tree serves them with no lookup step); after that the
// planner scores every secondary index with a bounded predicate by
// estimated matching rows and weighs the best against a full scan —
// replacing the old first-matching-index-wins rule. On estimate ties
// the lowest index name wins, which is exactly the order the
// first-match rule used, and below the small-table floor a bounded
// index always wins, so never-analyzed fixtures plan as they always
// did (the legacy differential's frozen first-match reference holds
// the planner to that).
func (e *Engine) buildAccess(pp *physicalPlan, ls logicalScan) {
	t := ls.table
	pp.table = t
	pp.preds = ls.preds
	pp.whereErr = ls.whereErr
	pkName := t.Columns[t.PKIndex].Name
	if len(ls.where) > 0 {
		pp.dFilter = "Filter: " + ls.where.SQL()
	}
	n := t.rows.Load()
	if lo, hi, ok := pkBounds(t, ls.where); ok {
		pp.lo, pp.hi = lo, hi
		pp.residual = residualPreds(ls.preds, t.PKIndex, lo, hi)
		pp.path = "pk-range"
		if lo.Equal(hi) {
			pp.kind = accessPKPoint
			pp.setEst(1, costSeqRow)
			pp.dScan = fmt.Sprintf("Point scan on %s using PRIMARY (%s = %s) (access=pk-range)",
				t.Name, pkName, lo.SQL())
		} else {
			pp.kind = accessPKRange
			est := estIndexRows(t, t.PKIndex, lo, hi, false, n)
			pp.setEst(est, costSeqRow*est)
			pp.dScan = fmt.Sprintf("Range scan on %s using PRIMARY (%s between %s and %s) (access=pk-range)",
				t.Name, pkName, lo.SQL(), hi.SQL())
		}
		return
	}
	var (
		best           *SecondaryIndex
		bestLo, bestHi sqlparse.Value
		bestEst        float64
	)
	for _, ix := range e.indexesOf(t) {
		lo, hi, eq, ok := indexBoundsFor(ix, ls.where)
		if !ok {
			continue
		}
		est := estIndexRows(t, ix.colIdx, lo, hi, eq, n)
		if best == nil || est < bestEst {
			best, bestLo, bestHi, bestEst = ix, lo, hi, est
		}
	}
	if best != nil {
		idxCost := bestEst * (costIndexEntry + costKeyLookup)
		if n < costFullScanMinRows || idxCost <= float64(n)*costSeqRow {
			pp.kind = accessIndex
			pp.ix = best
			pp.lo, pp.hi = indexValueBounds(bestLo, bestHi)
			pp.path = "index:" + best.Name
			pp.setEst(bestEst, idxCost)
			pp.dScan = fmt.Sprintf("Index range scan on %s using %s (%s between %s and %s) (access=index:%s)",
				t.Name, best.Name, best.Column, bestLo.SQL(), bestHi.SQL(), best.Name)
			pp.dLookup = fmt.Sprintf("Key lookup on %s via %s", t.Name, best.Name)
			return
		}
	}
	pp.kind = accessFull
	pp.residual = ls.preds
	pp.path = "full-scan"
	est := float64(n)
	if est < 1 {
		est = 1
	}
	pp.setEst(est, float64(n)*costSeqRow)
	pp.dScan = fmt.Sprintf("Table scan on %s (access=full-scan)", t.Name)
}

// residualPreds returns the conjuncts that some key in [lo, hi] could
// fail. A comparison of the primary key other than != holds on the
// whole interval if it holds at both ends, and every row a bounded
// clustered scan reads has its key inside. Erring towards "residual"
// is always safe: the Filter checks every predicate whatever the leaf
// did with these.
func residualPreds(preds []exec.Pred, pk int, lo, hi sqlparse.Value) []exec.Pred {
	var out []exec.Pred
	for _, p := range preds {
		if p.Col == pk && p.Op != sqlparse.OpNe &&
			p.Op.Eval(lo.Compare(p.Arg)) && p.Op.Eval(hi.Compare(p.Arg)) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// orderFromAccess reports whether the chosen access path already
// yields rows in the requested ORDER BY order, and records the
// reversal the DESC variants need. The key property in every case is
// that the B+ tree traversal still runs forward — reversal happens on
// the buffered rows (scanRev) or on the emission order of resolved
// lookups (lookupRevCol) — so the page-fetch sequence is identical to
// the Sort-based plan's.
func (pp *physicalPlan) orderFromAccess(sortCol int, sortDesc bool) bool {
	t := pp.table
	switch pp.kind {
	case accessFull, accessPKRange:
		// The clustered tree emits primary-key ASC; keys are unique, so
		// an exact reversal is a stable descending sort.
		if sortCol != t.PKIndex {
			return false
		}
		pp.scanRev = sortDesc
		return true
	case accessPKPoint:
		// At most one row: any order is satisfied.
		return sortCol == t.PKIndex
	case accessIndex:
		// The index leaf emits (value ASC, pk ASC) — exactly the stable
		// ascending order. DESC is produced by the KeyLookup emitting
		// equal-value groups in reverse group order.
		if sortCol != pp.ix.colIdx {
			return false
		}
		if sortDesc {
			pp.lookupRevCol = sortCol
		}
		return true
	}
	return false
}

// markParallel flags a SELECT template as eligible for the parallel
// partitioned scan: a forward clustered full/range scan over an INT
// primary key, with Config.MaxScanWorkers >= 2. Only the knobs land in
// the template — the partition split itself happens at instantiate
// time from live state (row count, statistics bounds), so a cached
// template and a fresh build fan out identically. UPDATE/DELETE scans
// stay serial: their scan half runs under the exclusive table lock and
// feeds a mutation loop that wants the dispatch goroutine to itself.
func (e *Engine) markParallel(pp *physicalPlan) {
	if e.cfg.MaxScanWorkers < 2 {
		return
	}
	if pp.kind != accessFull && pp.kind != accessPKRange {
		return
	}
	if pp.scanRev || pp.whereErr != nil {
		return
	}
	t := pp.table
	if t.Columns[t.PKIndex].Type != sqlparse.TypeInt {
		return
	}
	if pp.kind == accessPKRange && (!pp.lo.IsInt || !pp.hi.IsInt) {
		return
	}
	pp.parWorkers = e.cfg.MaxScanWorkers
	if pp.parWorkers > maxScanPartitions {
		pp.parWorkers = maxScanPartitions
	}
	pp.parMinRows = e.cfg.ParallelScanMinRows
}

// neededColumns is the SELECT's column mask (physicalPlan.need): the
// primary key (MVCC resolution and the ghost merge read it), every
// predicate column, and whatever the upper operators read — the
// projection and the ORDER BY column, or the aggregate's argument.
func neededColumns(t *Table, lp *logicalSelect) []bool {
	need := make([]bool, len(t.Columns))
	need[t.PKIndex] = true
	for _, p := range lp.scan.preds {
		need[p.Col] = true
	}
	for _, c := range lp.proj {
		need[c] = true
	}
	for _, c := range []int{lp.sortCol, lp.aggCol} {
		if c >= 0 {
			need[c] = true
		}
	}
	return need
}

// buildSelectPlan lowers and templates a SELECT.
func (e *Engine) buildSelectPlan(t *Table, st *sqlparse.Select) *physicalPlan {
	lp := lowerSelect(t, st)
	pp := &physicalPlan{sortCol: -1, aggCol: -1, lookupRevCol: -1, limit: -1}
	e.buildAccess(pp, lp.scan)
	pp.deferredErr = lp.deferredErr
	if lp.deferredErr != nil {
		e.markParallel(pp)
		return pp
	}
	// Only a resolved SELECT prunes: UPDATE/DELETE log whole row images,
	// and a plan that will raise a resolution error has no reader to
	// derive a mask from.
	pp.need = neededColumns(t, &lp)
	if lp.agg {
		pp.agg = true
		pp.aggKind = lp.aggExpr.Agg
		pp.aggCol = lp.aggCol
		pp.dAgg = "Aggregate: " + lp.aggExpr.SQL()
		if lp.limit >= 0 {
			pp.limit = lp.limit
			pp.dLimit = fmt.Sprintf("Limit: %d", lp.limit)
		}
		e.markParallel(pp)
		return pp
	}
	pp.proj = lp.proj
	cols := make([]string, len(lp.proj))
	for i, idx := range lp.proj {
		cols[i] = t.Columns[idx].Name
	}
	pp.dProj = "Project: " + strings.Join(cols, ", ")
	if lp.limit >= 0 {
		pp.limit = lp.limit
	}
	if lp.sortCol >= 0 {
		dir := "ASC"
		if lp.sortDesc {
			dir = "DESC"
		}
		name := t.Columns[lp.sortCol].Name
		switch {
		case pp.orderFromAccess(lp.sortCol, lp.sortDesc):
			// The access path absorbs the ordering: no sort node at all.
			// EXPLAIN shows the leaf carrying it.
			pp.dScan = strings.TrimSuffix(pp.dScan, ")") + fmt.Sprintf(", order=%s %s)", name, dir)
		case lp.limit >= 0:
			// LIMIT over ORDER BY: one bounded-heap TopN replaces
			// Sort+Limit.
			pp.sortCol = lp.sortCol
			pp.sortDesc = lp.sortDesc
			pp.useTopN = true
			pp.dTopN = fmt.Sprintf("Top-N sort: %s %s (limit %d)", name, dir, lp.limit)
		default:
			pp.sortCol = lp.sortCol
			pp.sortDesc = lp.sortDesc
			pp.dSort = fmt.Sprintf("Sort: %s %s", name, dir)
		}
	}
	// A Limit node exists only when no TopN carries the limit: absorbed
	// ordering, or plain LIMIT without ORDER BY.
	if pp.limit >= 0 && !pp.useTopN {
		pp.dLimit = fmt.Sprintf("Limit: %d", pp.limit)
	}
	// After the sort absorption decisions: eligibility depends on the
	// final scanRev.
	e.markParallel(pp)
	return pp
}

// buildUpdatePlan lowers and templates an UPDATE's scan half.
func (e *Engine) buildUpdatePlan(t *Table, st *sqlparse.Update) *physicalPlan {
	lm := lowerUpdate(t, st)
	pp := &physicalPlan{sortCol: -1, aggCol: -1, lookupRevCol: -1, limit: -1}
	e.buildAccess(pp, lm.scan)
	pp.deferredErr = lm.deferredErr
	pp.sets = lm.sets
	return pp
}

// buildDeletePlan lowers and templates a DELETE's scan half.
func (e *Engine) buildDeletePlan(t *Table, st *sqlparse.Delete) *physicalPlan {
	lm := lowerDelete(t, st)
	pp := &physicalPlan{sortCol: -1, aggCol: -1, lookupRevCol: -1, limit: -1}
	e.buildAccess(pp, lm.scan)
	return pp
}

// physSelect returns the statement's physical template, reusing the
// plan-cache binding when it was resolved against t (epoch invalidation
// keeps it current), else building fresh.
func (e *Engine) physSelect(pl *plan, t *Table, st *sqlparse.Select) *physicalPlan {
	if pl != nil && pl.bind.table == t && pl.bind.phys != nil {
		return pl.bind.phys
	}
	return e.buildSelectPlan(t, st)
}

// physUpdate is physSelect for UPDATE.
func (e *Engine) physUpdate(pl *plan, t *Table, st *sqlparse.Update) *physicalPlan {
	if pl != nil && pl.bind.table == t && pl.bind.phys != nil {
		return pl.bind.phys
	}
	return e.buildUpdatePlan(t, st)
}

// physDelete is physSelect for DELETE.
func (e *Engine) physDelete(pl *plan, t *Table, st *sqlparse.Delete) *physicalPlan {
	if pl != nil && pl.bind.table == t && pl.bind.phys != nil {
		return pl.bind.phys
	}
	return e.buildDeletePlan(t, st)
}

// scanLeaf is the bottom operator of every plan — the serial exec.Scan
// or an exec.ParallelScan — with the per-execution arming the statement
// driver applies before Open.
type scanLeaf interface {
	exec.Operator
	SetDeadlineCheck(exec.DeadlineCheck)
	SetVisibility(*exec.Visibility)
}

// opNode is one operator of an instantiated plan with its tree depth.
type opNode struct {
	op    exec.Operator
	depth int
}

// maxPlanDepth is the deepest operator chain a template can produce:
// scan + key lookup + filter + sort + project + limit. The fixed
// buffers below are sized to it so instantiation never allocates for
// the tree bookkeeping.
const maxPlanDepth = 6

// planInstance is one execution's operator tree: fresh operators built
// from the shared template. The operator structs are embedded by value
// so the whole tree is a single allocation — instantiate wires the
// interface fields at the embedded storage, initializing only the
// operators the template calls for. A planInstance must never be
// copied by value (nodes and the operator inputs point into it).
type planInstance struct {
	root  exec.Operator
	leaf  scanLeaf // the bottom scan; its RowsExamined is the statement's
	nodes []opNode // root first, backed by nodeBuf

	scan   exec.Scan
	lookup exec.KeyLookup
	filter exec.Filter
	sort   exec.Sort
	topn   exec.TopN
	agg    exec.Aggregate
	proj   exec.Project
	limit  exec.Limit

	nodeBuf  [maxPlanDepth]opNode
	stageBuf [maxPlanDepth]perfschema.StageEvent
}

// buildParallel decides, from live state, whether this execution fans
// the clustered scan out across partition workers, and builds the
// ParallelScan leaf if so. Returning nil keeps the scan serial. The
// split points come from statistics (full scan) or the scan's own
// bounds (pk-range), but the *outer* partition edges always extend to
// the scan's true bounds — the key-space extremes for a full scan — so
// stale statistics can only unbalance the partitions, never drop keys.
// Everything read here (row count, stats bounds) is live, so a cached
// template and a fresh build of the same statement partition
// identically at the same execution point.
func (pp *physicalPlan) buildParallel(fc exec.FetchCounter) *exec.ParallelScan {
	if pp.parWorkers < 2 {
		return nil
	}
	t := pp.table
	n := t.rows.Load()
	if n < pp.parMinRows {
		return nil
	}
	var outerLo, outerHi, splitLo, splitHi int64
	if pp.kind == accessPKRange {
		outerLo, outerHi = pp.lo.Int, pp.hi.Int
		splitLo, splitHi = outerLo, outerHi
	} else {
		cs, analyzed := t.statsFor(t.PKIndex)
		if !analyzed || !cs.HaveMinMax {
			// No key-space bounds to split on: a full scan fans out only
			// on analyzed tables.
			return nil
		}
		outerLo, outerHi = math.MinInt64, math.MaxInt64
		splitLo, splitHi = cs.Min, cs.Max
	}
	k := pp.parWorkers
	span := uint64(splitHi) - uint64(splitLo) // two's complement: correct for any int64 pair
	if splitHi <= splitLo || span < uint64(k) {
		return nil
	}
	step := span / uint64(k)
	pkName := t.Columns[t.PKIndex].Name
	parts := make([]exec.PartitionScan, k)
	lo := outerLo
	for i := 0; i < k; i++ {
		hi := outerHi
		if i < k-1 {
			hi = int64(uint64(splitLo)+uint64(i+1)*step) - 1
		}
		desc := fmt.Sprintf("Partition %d/%d on %s (%s between %d and %d)",
			i+1, k, t.Name, pkName, lo, hi)
		parts[i].Init(t.Tree,
			sqlparse.Value{IsInt: true, Int: lo},
			sqlparse.Value{IsInt: true, Int: hi}, desc)
		lo = hi + 1
	}
	desc := fmt.Sprintf("Parallel scan on %s (workers=%d) (access=%s)", t.Name, k, pp.path)
	par := new(exec.ParallelScan)
	par.Init(desc, parts, n, fc)
	return par
}

// consumesEachRow reports whether everything above the leaf is done
// with a row before it asks for the next — the condition of
// exec.Operator's row-lifetime contract under which the serial leaf may
// lend its rows. Aggregate folds each row, Project copies it, TopN
// copies what it admits, Filter and Limit only pass rows along to
// those. Sort keeps its input, and so does the driver of a plan that
// ends at the scan subtree: a DML scan half, whose rows become log
// images, or a plan with a deferred error.
func (pp *physicalPlan) consumesEachRow() bool {
	if pp.deferredErr != nil {
		return false
	}
	return pp.agg || (pp.proj != nil && (pp.sortCol < 0 || pp.useTopN))
}

// needsText reports whether the column mask keeps a TEXT column.
func (pp *physicalPlan) needsText() bool {
	for i, c := range pp.table.Columns {
		if c.Type != sqlparse.TypeInt && (pp.need == nil || pp.need[i]) {
			return true
		}
	}
	return false
}

// instantiate builds fresh operators from the template. fc (may be nil)
// lets the scan leaves attribute buffer-pool fetches per operator. It
// is also where the row-lifetime contract (exec.Operator) is applied:
// from the plan's shape alone it decides, once, whether the serial leaf
// lends its rows and whether the Filter hands its residual conjuncts
// down to it.
func (pp *physicalPlan) instantiate(fc exec.FetchCounter) *planInstance {
	t := pp.table
	pi := &planInstance{}
	var leaf scanLeaf
	if par := pp.buildParallel(fc); par != nil {
		leaf = par
	} else {
		// An index leaf reads {composite key, pk} entries — the mask
		// describes clustered rows, which its KeyLookup fetches whole —
		// and must finish before that lookup's first clustered search.
		tree, need, blocking := t.Tree, pp.need, pp.scanRev
		if pp.kind == accessIndex {
			tree, need, blocking = pp.ix.Tree, nil, true
		}
		pi.scan.Init(tree, pp.kind != accessFull, pp.lo, pp.hi, need, blocking, pp.scanRev, pp.dScan)
		if !blocking && pp.consumesEachRow() {
			pi.scan.Lend(!pp.needsText())
		}
		leaf = &pi.scan
	}
	var root exec.Operator = leaf
	if pp.kind == accessIndex {
		pi.lookup.Init(root, t.Tree, pp.ix.Name, pp.dLookup, pp.lookupRevCol, fc)
		root = &pi.lookup
	}
	if len(pp.preds) > 0 {
		pi.filter.Init(root, pp.preds, pp.dFilter)
		if root == exec.Operator(&pi.scan) && len(pp.residual) > 0 {
			pi.filter.PushDown(&pi.scan, pp.residual)
		}
		root = &pi.filter
	}
	// A plan with a deferred resolution error carries only its scan
	// subtree: the driver drains it (for the legacy fetch sequence) and
	// then raises the error, so the upper operators never exist.
	if pp.deferredErr == nil {
		switch {
		case pp.agg:
			pi.agg.Init(root, pp.aggKind, pp.aggCol, pp.dAgg)
			root = &pi.agg
			if pp.limit >= 0 {
				pi.limit.Init(root, pp.limit, pp.dLimit)
				root = &pi.limit
			}
		case pp.proj != nil:
			switch {
			case pp.useTopN:
				pi.topn.Init(root, pp.sortCol, pp.sortDesc, pp.limit, pp.dTopN)
				root = &pi.topn
			case pp.sortCol >= 0:
				pi.sort.Init(root, pp.sortCol, pp.sortDesc, pp.dSort)
				root = &pi.sort
			}
			pi.proj.Init(root, pp.proj, pp.dProj)
			root = &pi.proj
			if pp.limit >= 0 && !pp.useTopN {
				pi.limit.Init(root, pp.limit, pp.dLimit)
				root = &pi.limit
			}
		}
	}
	pi.root, pi.leaf = root, leaf
	pi.nodes = pi.nodeBuf[:0]
	// The tree is a single-child chain except for a ParallelScan leaf,
	// whose children (the partitions) are themselves leaves — so the
	// depth-first walk is the chain walk plus one fan-out at the
	// bottom. Serial plans stay within nodeBuf (no allocation);
	// parallel plans may spill, which is noise against the scan they
	// front.
	depth := 0
	for op := root; op != nil; depth++ {
		pi.nodes = append(pi.nodes, opNode{op, depth})
		ch := op.Children()
		if len(ch) == 0 {
			break
		}
		if len(ch) > 1 {
			for _, c := range ch {
				pi.nodes = append(pi.nodes, opNode{c, depth + 1})
			}
			break
		}
		op = ch[0]
	}
	return pi
}

// drain runs the tree to completion via the Volcano protocol and
// returns the root's rows. Close is part of the execution, not cleanup:
// it is where the leaf completes a traversal the operators above cut
// short, so an error it raises (a deadline firing in that remainder)
// fails the statement like any other.
func (pi *planInstance) drain() ([]storage.Record, error) {
	rows, err := pi.pullAll()
	if cerr := pi.root.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func (pi *planInstance) pullAll() ([]storage.Record, error) {
	if err := pi.root.Open(); err != nil {
		return nil, err
	}
	var rows []storage.Record
	for {
		r, ok, err := pi.root.Next()
		if err != nil || !ok {
			return rows, err
		}
		rows = append(rows, r)
	}
}

// examined returns the scan leaf's rows-examined count — the legacy
// RowsExamined semantics (index paths count index entries).
func (pi *planInstance) examined() int { return pi.leaf.Stats().RowsExamined }

// stages snapshots every operator's runtime counters for the
// events_stages surface, root first. Thread/timestamp/digest are
// stamped by perfschema.AddStages. The returned slice is backed by the
// instance's stageBuf — AddStages copies the group into the history
// ring, so the ring never aliases (or retains) the planInstance.
func (pi *planInstance) stages() []perfschema.StageEvent {
	out := pi.stageBuf[:0]
	if len(pi.nodes) > len(pi.stageBuf) {
		// Parallel plans carry one stage per partition and can outgrow
		// the fixed buffer.
		out = make([]perfschema.StageEvent, 0, len(pi.nodes))
	}
	out = out[:len(pi.nodes)]
	for i, n := range pi.nodes {
		st := n.op.Stats()
		out[i] = perfschema.StageEvent{
			Seq:          i,
			Depth:        n.depth,
			Operator:     n.op.Describe(),
			RowsExamined: st.RowsExamined,
			RowsReturned: st.RowsReturned,
			PoolFetches:  st.PoolFetches,
		}
	}
	return out
}

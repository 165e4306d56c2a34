package exec

import (
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// MVCC visibility hooks. Under snapshot isolation a scan must not emit
// what the tree currently holds but what the statement's read view is
// entitled to see. The engine side (the version store) makes that
// decision; the operators only need two mechanical capabilities:
//
//   - substitute or suppress a visited row (the tree row belongs to a
//     newer transaction: emit the view's version instead, or nothing
//     when the row did not exist in the view), and
//   - merge "ghost" rows into the scan output (rows deleted from the
//     tree whose old versions are still visible to the view).
//
// Both run inside the leaf so every operator above — filter, sort,
// aggregate, lookup — works on view-consistent rows without knowing
// MVCC exists. RowsExamined still counts physical tree rows visited
// (pre-filter), matching the legacy semantics; ghosts are merged into
// the output as it is emitted and are not "examined".

// Visibility carries a leaf's view-resolution hooks. The zero value
// (and a nil pointer) means "current read": emit tree rows as-is.
type Visibility struct {
	// Resolve maps a visited tree row (or index entry) to the version
	// the view sees: (row, true) to emit, (_, false) to suppress. Nil
	// keeps every row.
	Resolve func(r storage.Record) (storage.Record, bool)

	// Ghosts are records visible to the view but absent from the tree,
	// already restricted to the scan's bounds and sorted by their key
	// (element 0). The leaf merges them into its output in key order.
	Ghosts []storage.Record
}

// SetVisibility arms the view-resolution hooks on this leaf. Must be
// called before Open; nil (the default) keeps the scan a current read.
func (s *scanBase) SetVisibility(v *Visibility) { s.vis = v }

// resolveVisit applies the armed resolver to a visited row, after the
// row has been counted as examined.
func (s *scanBase) resolveVisit(r storage.Record) (storage.Record, bool) {
	if s.vis == nil || s.vis.Resolve == nil {
		return r, true
	}
	return s.vis.Resolve(r)
}

// ghostBefore hands out the view's ghost records in key order, each
// when it is due: once the next ghost sorts strictly before row (a tree
// row with the same key goes first), or unconditionally when there is
// no row left (ok false). The leaf calls it before emitting every row,
// so the merge is linear and needs no second buffer.
func (s *scanBase) ghostBefore(row storage.Record, ok bool) (storage.Record, bool) {
	if s.vis == nil || s.ghost >= len(s.vis.Ghosts) {
		return nil, false
	}
	g := s.vis.Ghosts[s.ghost]
	if ok && row[0].Compare(g[0]) <= 0 {
		return nil, false
	}
	s.ghost++
	return g, true
}

// LookupResolver intercepts a KeyLookup's clustered search: given the
// primary key of an index entry, it returns the view's version of the
// row and true when the version store already holds the visible row
// (the tree may not even contain the key — a ghost entry's row was
// deleted). Returning false falls through to the normal tree search.
type LookupResolver func(pk sqlparse.Value) (storage.Record, bool)

// SetLookupResolver arms the view resolver on this lookup. Must be
// called before Open; nil (the default) searches the clustered tree
// for every entry.
func (k *KeyLookup) SetLookupResolver(lr LookupResolver) { k.resolver = lr }

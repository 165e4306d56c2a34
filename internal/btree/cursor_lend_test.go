package btree

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"snapdb/internal/bufpool"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// The cursor's two economies — Lend (one recycled slab) and Reject
// (verdicts off the slot bytes) — held to the plain walk: same pages in
// the same order, the same records where a record survives and nil
// where decode-then-compare turns it down, and a loan that really ends
// at the following Next.

// cursorPreds are predicate sets over the fixtures' four fields (key,
// TEXT, INT, TEXT): ints and text under every operator, arguments of
// the other kind, two conjuncts on one field, and the empty set.
func cursorPreds(lo sqlparse.Value) [][]storage.Pred {
	p := func(col int, op sqlparse.CompareOp, arg sqlparse.Value) storage.Pred {
		return storage.Pred{Col: col, Op: op, Arg: arg}
	}
	i, s := sqlparse.IntValue, sqlparse.StrValue
	return [][]storage.Pred{
		nil,
		{p(2, sqlparse.OpGe, i(0))},
		{p(2, sqlparse.OpLt, i(-100)), p(3, sqlparse.OpNe, s(""))},
		{p(1, sqlparse.OpGt, s("a-3"))},
		{p(0, sqlparse.OpNe, lo), p(2, sqlparse.OpLe, i(250)), p(2, sqlparse.OpGt, i(-250))},
		{p(2, sqlparse.OpEq, s("an int is never text"))},
		{p(1, sqlparse.OpGt, i(5)), p(3, sqlparse.OpLe, s("qqqqqqqqqqqqqqqqqqqq"))},
	}
}

// passes is the reference verdict: decode, then compare Values.
func passes(r storage.Record, preds []storage.Pred) bool {
	for _, p := range preds {
		if !p.Op.Eval(r[p.Col].Compare(p.Arg)) {
			return false
		}
	}
	return true
}

// checkLentWalk drives a lending, rejecting cursor under RecyclePoison
// over one (bounds, mask, preds) and holds it to the owning cursor's
// rows and page sequence.
func checkLentWalk(t *testing.T, f *cursorFixture, bounded bool, lo, hi sqlparse.Value, need []bool, preds []storage.Pred) {
	t.Helper()
	label := fmt.Sprintf("bounded=%v lo=%.12s hi=%.12s need=%v preds=%v", bounded, lo, hi, need, preds)
	textFree := need != nil && len(need) == 4 && !need[1] && !need[3] && !(need[0] && !lo.IsInt)

	var want []storage.Record
	var c Cursor
	refTrace := f.traced(func() {
		c.Init(f.tree, bounded, lo, hi, nil)
		for {
			rows, ok, err := c.Next()
			if err != nil {
				t.Fatalf("%s: owning Next: %v", label, err)
			}
			if !ok {
				return
			}
			for _, r := range rows {
				if passes(r, preds) {
					want = append(want, masked(r, need))
				} else {
					want = append(want, nil)
				}
			}
		}
	})

	defer SetRecycleMode(SetRecycleMode(RecyclePoison))
	// A loan ends at the following Next: by then its records read as
	// the next leaf's or as poison, never as themselves (the key, where
	// the mask keeps it, makes every record of a walk distinct), and once
	// the walk is over as poison only.
	keyed := len(need) == 0 || need[0]
	var got, loan, was []storage.Record
	trace := f.traced(func() {
		c.Init(f.tree, bounded, lo, hi, need)
		c.Lend(textFree)
		c.Reject(preds)
		for {
			rows, ok, err := c.Next()
			if err != nil {
				t.Fatalf("%s: lending Next: %v", label, err)
			}
			for j, r := range loan {
				if r != nil && keyed && reflect.DeepEqual(r, was[j]) {
					t.Fatalf("%s: a record of the previous leaf still reads %v after Next", label, r)
				}
				for _, v := range r {
					if !ok && !v.Equal(Poison) {
						t.Fatalf("%s: a record of the last leaf reads %v after the walk", label, r)
					}
				}
			}
			if !ok {
				return
			}
			loan, was = append(loan[:0], rows...), was[:0]
			for _, r := range rows {
				if r != nil {
					r = r.Clone()
				}
				was = append(was, r)
			}
			got = append(got, was...)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: lent rows differ:\n got %v\nwant %v", label, got, want)
	}
	if !reflect.DeepEqual(trace, refTrace) {
		t.Fatalf("%s: lending cursor fetched %v, owning cursor %v", label, trace, refTrace)
	}
}

// TestCursorLendAndReject runs checkLentWalk over the reference-walk
// fixtures: every pair of bounds, the masks and predicate sets rotating
// through them.
func TestCursorLendAndReject(t *testing.T) {
	masks := cursorMasks()
	for _, tc := range []struct {
		name    string
		seed    int64
		n, ops  int
		makeKey func(int) sqlparse.Value
	}{
		{"empty", 1, 4, 0, intKey},
		{"int-keys", 3, 60, 400, intKey},
		{"int-keys-churn", 4, 40, 1500, intKey},
		{"text-keys", 5, 48, 300, textKey},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := buildCursorFixture(t, tc.seed, tc.n, tc.ops, tc.makeKey)
			preds := cursorPreds(f.keys[len(f.keys)/2])
			i := 0
			for _, need := range masks {
				for _, ps := range preds {
					checkLentWalk(t, f, false, sqlparse.Value{}, sqlparse.Value{}, need, ps)
				}
			}
			for _, lo := range f.keys {
				for _, hi := range f.keys {
					checkLentWalk(t, f, true, lo, hi, masks[i%len(masks)], preds[i%len(preds)])
					i++
				}
			}
		})
	}
}

// TestRecycleNeverOwns: with the seam at RecycleNever a cursor asked to
// lend hands out records that outlive the walk, like any other.
func TestRecycleNeverOwns(t *testing.T) {
	f := buildCursorFixture(t, 3, 60, 400, intKey)
	defer SetRecycleMode(SetRecycleMode(RecycleNever))
	var c Cursor
	c.Init(f.tree, false, sqlparse.Value{}, sqlparse.Value{}, nil)
	c.Lend(false)
	var got []storage.Record
	for {
		rows, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, rows...)
	}
	if want := f.expected(false, sqlparse.Value{}, sqlparse.Value{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("kept rows differ from the model:\n got %v\nwant %v", got, want)
	}
}

// TestRejectedRowIsStillValidated: a record the predicates turn down is
// walked field by field all the same, so a leaf with a corrupt field
// fails Next with the error it fails with when nothing is rejected —
// whichever side of the predicate the corrupt record falls.
func TestRejectedRowIsStillValidated(t *testing.T) {
	for _, arg := range []int64{7, 8} { // slot 7's own key, and another
		tr, _, _ := newTree(t)
		for k := int64(0); k < 20; k++ {
			if err := tr.Insert(storage.Record{sqlparse.IntValue(k), sqlparse.IntValue(k % 3), sqlparse.StrValue("payload")}); err != nil {
				t.Fatal(err)
			}
		}
		leaf, _, err := tr.findLeaf(sqlparse.IntValue(0), nil)
		if err != nil {
			t.Fatal(err)
		}
		b := leaf.SlotBytes(7)
		b[2+9+9] = 0x7f // the third field's tag; key and second field stay readable
		next := func(preds []storage.Pred) error {
			var c Cursor
			c.Init(tr, false, sqlparse.Value{}, sqlparse.Value{}, []bool{true, true, false})
			c.Lend(true)
			c.Reject(preds)
			_, _, err := c.Next()
			return err
		}
		plain := next(nil)
		rejecting := next([]storage.Pred{{Col: 0, Op: sqlparse.OpEq, Arg: sqlparse.IntValue(arg)}})
		if plain == nil || !strings.Contains(plain.Error(), "slot 7: storage: unknown field tag 0x7f in field 2") {
			t.Fatalf("plain Next = %v, want slot 7's decode error", plain)
		}
		if rejecting == nil || rejecting.Error() != plain.Error() {
			t.Errorf("rejecting Next (id = %d) = %v, want %v", arg, rejecting, plain)
		}
	}
}

// TestLentWalkAllocations is the deterministic form of the saving: a
// lending cursor that rejects nearly everything allocates a constant
// number of objects however many leaves it walks (the pool's misses
// aside: the pool here holds the tree), and one that keeps every row
// of a text-free mask no more.
func TestLentWalkAllocations(t *testing.T) {
	walk := func(tr *Tree, keep bool) float64 {
		preds := []storage.Pred{{Col: 1, Op: sqlparse.OpEq, Arg: sqlparse.IntValue(3)}}
		if keep {
			preds = nil
		}
		return testing.AllocsPerRun(5, func() {
			var c Cursor
			c.Init(tr, false, sqlparse.Value{}, sqlparse.Value{}, []bool{true, true, false})
			c.Lend(true)
			c.Reject(preds)
			for {
				if _, ok, err := c.Next(); err != nil || !ok {
					return
				}
			}
		})
	}
	build := func(n int64) *Tree {
		ts := storage.NewTablespace()
		pool, err := bufpool.New(ts, 512)
		if err != nil {
			t.Fatal(err)
		}
		tr := New(ts, pool)
		for k := int64(0); k < n; k++ {
			if err := tr.Insert(storage.Record{sqlparse.IntValue(k), sqlparse.IntValue(k % 29), sqlparse.StrValue(strings.Repeat("v", 60))}); err != nil {
				t.Fatal(err)
			}
		}
		if ts.NumPages() > 500 {
			t.Fatalf("%d pages: the fixture is meant to fit the pool", ts.NumPages())
		}
		return tr
	}
	small, large := build(100), build(2000)
	for _, keep := range []bool{false, true} {
		a, b := walk(small, keep), walk(large, keep)
		if b > 24 || b-a > 4 {
			t.Errorf("keep=%v: %.0f allocations over 100 rows, %.0f over 2000: want the cursor's scratch growing to one leaf's size, the same for both", keep, a, b)
		}
	}
}

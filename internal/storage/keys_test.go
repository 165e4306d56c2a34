package storage

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"snapdb/internal/sqlparse"
)

// keyIndexKeys is the key space of FuzzKeyIndexKept: ints and texts,
// few enough that duplicate keys are common.
var keyIndexKeys = func() []sqlparse.Value {
	var ks []sqlparse.Value
	for i := 0; i < 5; i++ {
		ks = append(ks, sqlparse.IntValue(int64(i)), sqlparse.StrValue(fmt.Sprintf("k%d", i)))
	}
	return ks
}()

// keyIndexRecord is a record under k whose size arg picks.
func keyIndexRecord(k sqlparse.Value, arg int) []byte {
	return EncodeRecord(Record{k, sqlparse.IntValue(int64(arg)), sqlparse.StrValue(string(make([]byte, arg%113)))})
}

// sortedLive is the key index by definition: p's live slots in slot
// order, stable-sorted by decoded key.
func sortedLive(t *testing.T, p *Page) []uint16 {
	t.Helper()
	var ix []uint16
	for i := 0; i < p.SlotCount(); i++ {
		if p.SlotBytes(i) != nil {
			ix = append(ix, uint16(i))
		}
	}
	key := func(s uint16) sqlparse.Value {
		k, err := DecodeKey(p.SlotBytes(int(s)))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	slices.SortStableFunc(ix, func(a, b uint16) int { return key(a).Compare(key(b)) })
	return ix
}

// FuzzKeyIndexKept is the key index's property test, at the layer that
// owns it. One operation list — appends of duplicate and mixed-kind
// keys, deletes (of live, dead and out-of-range slots), same-key
// updates both shorter and longer (in place and relocated), Compact and
// Format — runs on two pages of the same type: kept, whose index is
// derived up front and then only kept by the mutators, and plain, whose
// index is never derived. After every operation kept's index must equal
// the one a fresh load of its bytes derives, that one must be the live
// slots stable-sorted by key, and both pages must hold the same bytes
// and have given the same results.
func FuzzKeyIndexKept(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 1, 0, 9, 0, 3, 0, 3, 1, 0, 2, 7, 3, 0, 0, 2, 4, 0, 0, 11})
	f.Add([]byte{1, 0, 9, 0, 8, 0, 7, 0, 6, 0, 5, 1, 3, 2, 200, 2, 1, 0, 0, 3, 1, 0, 4, 1, 250})
	long := []byte{0}
	for i := 0; i < 300; i++ {
		long = append(long, byte(i%5), byte(i*37))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		typ := []PageType{PageBTreeLeaf, PageBTreeInternal}[ops[0]%2]
		kept, plain := NewPage(5, typ), NewPage(5, typ)
		derive := func() {
			if _, err := kept.Keys(); err != nil {
				t.Fatal(err)
			}
		}
		derive()
		for i := 1; i+1 < len(ops) && i < 600; i += 2 {
			op, arg := ops[i]%5, int(ops[i+1])
			var keptRes, plainRes []any
			both := func(fn func(p *Page) []any) { keptRes, plainRes = fn(kept), fn(plain) }
			switch op {
			case 0:
				enc := keyIndexRecord(keyIndexKeys[arg%len(keyIndexKeys)], arg)
				both(func(p *Page) []any {
					slot, err := p.InsertBytes(enc)
					return []any{slot, err}
				})
			case 1: // slot arg modulo one past the count: live, dead or out of range
				slot := arg % (kept.SlotCount() + 1)
				both(func(p *Page) []any { return []any{p.DeleteSlot(slot) != nil} })
			case 2:
				var live []int
				for s := 0; s < kept.SlotCount(); s++ {
					if kept.SlotBytes(s) != nil {
						live = append(live, s)
					}
				}
				if len(live) == 0 {
					continue
				}
				slot := live[arg%len(live)]
				k, err := DecodeKey(kept.SlotBytes(slot))
				if err != nil {
					t.Fatal(err)
				}
				enc := keyIndexRecord(k, arg*7)
				both(func(p *Page) []any {
					err := p.UpdateSlot(slot, enc)
					return []any{errors.Is(err, ErrPageFull), err == nil}
				})
			case 3:
				kept.Compact()
				plain.Compact()
			case 4:
				kept.Format(5, typ)
				plain.Format(5, typ)
				derive()
			}
			what := fmt.Sprintf("step %d (op %d, arg %d)", i/2, op, arg)
			if fmt.Sprint(keptRes) != fmt.Sprint(plainRes) {
				t.Fatalf("%s: kept page gave %v, plain page %v", what, keptRes, plainRes)
			}
			if !bytes.Equal(kept.Bytes(), plain.Bytes()) {
				t.Fatalf("%s: the kept page's bytes differ from the plain page's", what)
			}
			if kept.keys.Load() == nil {
				t.Fatalf("%s: the kept page lost its key index", what)
			}
			ix, err := kept.Keys()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := LoadPage(kept.CloneBytes())
			if err != nil {
				t.Fatal(err)
			}
			derived, err := fresh.Keys()
			if err != nil {
				t.Fatal(err)
			}
			if want := sortedLive(t, kept); !slices.Equal(ix, derived) || !slices.Equal(derived, want) {
				t.Fatalf("%s: kept index %v, derived %v, live slots by key %v", what, ix, derived, want)
			}
		}
	})
}

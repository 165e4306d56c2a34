package btree

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// The linear passes the key index replaced, frozen: how findSlot,
// lowestSlot and routeSlot read a page whose slots are out of key order
// before the page kept its slots sorted beside it. They read any page
// right, in order or not, by comparing every live key.

func linearFindSlot(p *storage.Page, key sqlparse.Value) (int, bool, error) {
	for i := 0; i < p.SlotCount(); i++ {
		b := p.SlotBytes(i)
		if b == nil {
			continue
		}
		c, err := storage.CompareKey(b, key)
		if err != nil {
			return 0, false, slotErr(p, i, err)
		}
		if c == 0 {
			return i, true, nil
		}
	}
	return 0, false, nil
}

func linearLowestSlot(p *storage.Page) (int, error) {
	low := -1
	for i := 0; i < p.SlotCount(); i++ {
		b := p.SlotBytes(i)
		if b == nil {
			continue
		}
		if low >= 0 {
			c, err := storage.CompareKeys(b, p.SlotBytes(low))
			if err != nil {
				return 0, slotErr(p, i, err)
			}
			if c >= 0 {
				continue
			}
		}
		low = i
	}
	return low, nil
}

func linearRouteSlot(p *storage.Page, key sqlparse.Value) (int, error) {
	best := -1
	for i := 0; i < p.SlotCount(); i++ {
		b := p.SlotBytes(i)
		if b == nil {
			continue
		}
		c, err := storage.CompareKey(b, key)
		if err != nil {
			return 0, slotErr(p, i, err)
		}
		if c > 0 {
			continue
		}
		if best >= 0 {
			if c, err = storage.CompareKeys(b, p.SlotBytes(best)); err != nil {
				return 0, slotErr(p, i, err)
			}
			if c < 0 {
				continue
			}
		}
		best = i
	}
	if best < 0 {
		return linearLowestSlot(p)
	}
	return best, nil
}

// inPageKeys is the fuzz target's key space: ints and texts, few enough
// that duplicates are common, and probes between and beyond them.
var inPageKeys = func() []sqlparse.Value {
	var ks []sqlparse.Value
	for i := 0; i < 6; i++ {
		ks = append(ks, sqlparse.IntValue(int64(i*2)), sqlparse.StrValue(fmt.Sprintf("k%d", i*2)))
	}
	return ks
}()

var inPageProbes = func() []sqlparse.Value {
	ps := []sqlparse.Value{sqlparse.IntValue(-1), sqlparse.StrValue("")}
	for i := 0; i < 13; i++ {
		ps = append(ps, sqlparse.IntValue(int64(i)), sqlparse.StrValue(fmt.Sprintf("k%d", i)))
	}
	return ps
}()

// searchAnswers is every answer the in-page search gives on p: the
// lowest slot, then each probe's routed slot, found slot and whether it
// was found.
func searchAnswers(p *storage.Page) ([]int, error) {
	return answers(p, lowestSlot, routeSlot, findSlot)
}

// linearAnswers is searchAnswers from the frozen linear passes.
func linearAnswers(p *storage.Page) ([]int, error) {
	return answers(p, linearLowestSlot, linearRouteSlot, linearFindSlot)
}

func answers(p *storage.Page, lowest func(*storage.Page) (int, error),
	route func(*storage.Page, sqlparse.Value) (int, error),
	find func(*storage.Page, sqlparse.Value) (int, bool, error)) ([]int, error) {
	low, err := lowest(p)
	if err != nil {
		return nil, err
	}
	out := append(make([]int, 0, 1+3*len(inPageProbes)), low)
	for _, k := range inPageProbes {
		r, err := route(p, k)
		if err != nil {
			return nil, err
		}
		slot, found, err := find(p, k)
		if err != nil {
			return nil, err
		}
		f := 0
		if found {
			f = 1
		}
		out = append(out, r, slot, f)
	}
	return out, nil
}

// FuzzInPageSearchMatchesReference applies an operation list to one
// page the way the tree writes it — appends of random, duplicate and
// mixed-kind keys, deletes, same-key updates (in place and relocated,
// or deleted and re-appended when the page is full), Compact, and a
// LoadPage round trip that forgets the key index — and after every step
// requires routeSlot, findSlot and lowestSlot to give the same answer
// for every probe three ways: from the index the writes kept, from an
// index derived fresh on a copy of the page, and from the frozen linear
// passes.
func FuzzInPageSearchMatchesReference(f *testing.F) {
	f.Add([]byte{0, 5, 0, 1, 0, 9, 0, 3, 0, 3, 1, 0, 2, 7, 3, 0, 0, 2, 4, 0, 0, 11})
	f.Add([]byte{0, 11, 0, 10, 0, 9, 0, 8, 0, 7, 0, 6, 1, 3, 2, 200, 2, 201, 0, 0, 3, 1, 0, 4})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 4, 0, 0, 1, 1, 1, 2, 130, 0, 6})
	long := make([]byte, 0, 400)
	for i := 0; i < 200; i++ {
		long = append(long, byte(i%3), byte(i*37))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := storage.NewPage(7, storage.PageBTreeInternal)
		for i := 0; i+1 < len(ops) && i < 400; i += 2 {
			op, arg := ops[i]%5, int(ops[i+1])
			var err error
			switch op {
			case 0: // append
				k := inPageKeys[arg%len(inPageKeys)]
				err = fuzzAppend(p, k, arg)
			case 1: // delete
				if live := liveSlots(p); len(live) > 0 {
					err = p.DeleteSlot(live[arg%len(live)])
				}
			case 2: // same-key update; a relocation that does not fit re-appends
				if live := liveSlots(p); len(live) > 0 {
					slot := live[arg%len(live)]
					k, derr := storage.DecodeKey(p.SlotBytes(slot))
					if derr != nil {
						t.Fatal(derr)
					}
					enc := fuzzRecord(k, arg)
					if err = p.UpdateSlot(slot, enc); errors.Is(err, storage.ErrPageFull) {
						if err = p.DeleteSlot(slot); err == nil {
							err = fuzzAppend(p, k, arg)
						}
					}
				}
			case 3:
				p.Compact()
			case 4: // a reload forgets the key index
				if p, err = storage.LoadPage(p.CloneBytes()); err != nil {
					t.Fatal(err)
				}
			}
			if err != nil {
				t.Fatalf("step %d (op %d): %v", i/2, op, err)
			}
			kept, err := searchAnswers(p)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := storage.LoadPage(p.CloneBytes())
			if err != nil {
				t.Fatal(err)
			}
			derived, err := searchAnswers(fresh)
			if err != nil {
				t.Fatal(err)
			}
			linear, err := linearAnswers(p)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(kept, linear) || !slices.Equal(derived, linear) {
				t.Fatalf("step %d (op %d), lowest then route/find/found per probe:\nkept    %v\nderived %v\nlinear  %v", i/2, op, kept, derived, linear)
			}
		}
	})
}

// fuzzRecord is an internal-node record under k whose size arg picks.
func fuzzRecord(k sqlparse.Value, arg int) []byte {
	pad := make([]byte, arg%97)
	return storage.EncodeRecord(storage.Record{k, sqlparse.IntValue(int64(arg)), sqlparse.StrValue(string(pad))})
}

// fuzzAppend appends a record under k as insertNodeEntry does — compact
// and retry once when the page is full — and skips it if it still does
// not fit.
func fuzzAppend(p *storage.Page, k sqlparse.Value, arg int) error {
	enc := fuzzRecord(k, arg)
	_, err := p.InsertBytes(enc)
	if errors.Is(err, storage.ErrPageFull) {
		p.Compact()
		if _, err = p.InsertBytes(enc); errors.Is(err, storage.ErrPageFull) {
			return nil
		}
	}
	return err
}

// liveSlots returns p's live slots in slot order.
func liveSlots(p *storage.Page) []int {
	var out []int
	for i := 0; i < p.SlotCount(); i++ {
		if p.SlotBytes(i) != nil {
			out = append(out, i)
		}
	}
	return out
}

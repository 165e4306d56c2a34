package btree

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
)

// arrivalOrders are the orders the property tests first insert keys in.
var arrivalOrders = []string{"ascending", "descending", "shuffled"}

// arrive returns keys 0..n-1 in order, each kept with probability keep.
func arrive(rng *rand.Rand, n int, order string, keep float64) []int64 {
	perm := rng.Perm(n)
	switch order {
	case "ascending":
		sort.Ints(perm)
	case "descending":
		sort.Sort(sort.Reverse(sort.IntSlice(perm)))
	}
	var out []int64
	for _, k := range perm {
		if rng.Float64() < keep {
			out = append(out, int64(k))
		}
	}
	return out
}

// bigPayload is 1 000 to 1 900 bytes: two records fill a leaf, so a
// few hundred keys build two or three levels. (A wider band could leave
// a split's upper half too big for its sibling: split halves by count.)
func bigPayload(rng *rand.Rand) string {
	return string(rune('a'+rng.Intn(26))) + strings.Repeat("p", 1000+rng.Intn(900))
}

// TestQuickInsertSearchDelete drives random operation sequences against
// both the tree and a model map, checking they agree at every step. Each
// sequence starts from most of its key space inserted ascending,
// descending or shuffled.
func TestQuickInsertSearchDelete(t *testing.T) {
	f := func(seed int64) bool {
		for _, order := range arrivalOrders {
			tr, _, _ := newTree(t)
			rng := rand.New(rand.NewSource(seed))
			model := make(map[int64]string)
			const keys = 400
			for _, k := range arrive(rng, keys, order, 0.75) {
				payload := bigPayload(rng)
				if tr.Insert(intRec(k, payload)) != nil {
					return false
				}
				model[k] = payload
			}
			if h, err := tr.Height(); err != nil || h < 2 {
				t.Errorf("height = %d (%v), want 2 or more", h, err)
				return false
			}
			for op := 0; op < 400; op++ {
				k := int64(rng.Intn(keys))
				switch rng.Intn(3) {
				case 0: // insert
					payload := bigPayload(rng)
					err := tr.Insert(intRec(k, payload))
					if _, exists := model[k]; exists {
						if err == nil {
							return false // duplicate accepted
						}
					} else {
						if err != nil {
							return false
						}
						model[k] = payload
					}
				case 1: // delete
					found, err := tr.Delete(sqlparse.IntValue(k))
					if err != nil {
						return false
					}
					_, exists := model[k]
					if found != exists {
						return false
					}
					delete(model, k)
				case 2: // search
					rec, found, err := tr.Search(sqlparse.IntValue(k))
					if err != nil {
						return false
					}
					want, exists := model[k]
					if found != exists {
						return false
					}
					if found && rec[1].Str != want {
						return false
					}
				}
			}
			// Final full-scan agreement, over a well-formed tree.
			checkShape(t, tr)
			n := 0
			err := tr.Scan(func(r storage.Record) bool {
				want, ok := model[r[0].Int]
				if !ok || r[1].Str != want {
					return false
				}
				n++
				return true
			})
			if err != nil || n != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickRangeMatchesModel checks Range against a filtered model, on
// trees of two or more levels built in each arrival order.
func TestQuickRangeMatchesModel(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw uint8) bool {
		for _, order := range arrivalOrders {
			tr, _, _ := newTree(t)
			rng := rand.New(rand.NewSource(seed))
			model := make(map[int64]bool)
			for _, k := range arrive(rng, 255, order, 0.8) {
				if err := tr.Insert(intRec(k, bigPayload(rng))); err != nil {
					return false
				}
				model[k] = true
			}
			if h, err := tr.Height(); err != nil || h < 2 {
				t.Errorf("height = %d (%v), want 2 or more", h, err)
				return false
			}
			lo, hi := int64(loRaw), int64(hiRaw)
			if lo > hi {
				lo, hi = hi, lo
			}
			want := 0
			for k := range model {
				if k >= lo && k <= hi {
					want++
				}
			}
			got, prev := 0, lo-1
			err := tr.Range(sqlparse.IntValue(lo), sqlparse.IntValue(hi), func(r storage.Record) bool {
				if r[0].Int <= prev || r[0].Int > hi {
					return false
				}
				prev = r[0].Int
				got++
				return true
			})
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

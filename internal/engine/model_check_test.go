package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"snapdb/internal/btree"
	"snapdb/internal/bufpool"
	"snapdb/internal/vfs"
)

// SQL held to the model (model_test.go) end to end: keys arriving in
// any order until the trees are three levels deep, growing and
// re-keying updates, deletes and every read shape, live and after a
// crash and Recover; and a fuzzer over the model's grammar on two
// sessions.

// heights returns the height of e's table and of its index name, read
// through a pool of their own.
func heights(t *testing.T, e *Engine, table, index string) (int, int) {
	t.Helper()
	et, _ := e.Table(table)
	pool, err := bufpool.New(e.ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := btree.Open(e.ts, pool, et.Tree.Root()).Height()
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range et.Indexes {
		if ix.Name == index {
			hi, err := btree.Open(e.ts, pool, ix.Tree.Root()).Height()
			if err != nil {
				t.Fatal(err)
			}
			return h, hi
		}
	}
	t.Fatalf("no index %q", index)
	return 0, 0
}

// TestSQLMatchesModel inserts 200-byte rows with ascending, descending
// and shuffled primary keys — and, in every order, descending values of
// an indexed column — until both trees are at least three levels deep
// (the descending case starts as the lost-row repro: 2 000 rows, keys
// arriving below every key the tree holds). It then runs UPDATEs that
// outgrow their slots and re-key the index, DELETEs, and point, range,
// COUNT, SUM, index and ORDER BY … LIMIT reads, and leaves a transaction
// open; every answer and fetch is held to the model and the trace rule,
// live and after a crash and Recover (which rolls the open transaction
// back).
func TestSQLMatchesModel(t *testing.T) {
	for i, order := range []string{"ascending", "descending", "shuffled"} {
		t.Run(order, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + i)))
			mem := vfs.NewMemFS()
			e := durableEngine(t, mem)
			m := newSQLModel(e.Config())
			s := e.Connect("app")
			step := func(q string) *Result { return m.step(t, e, 0, s, q) }
			step("CREATE TABLE t (id INT PRIMARY KEY, k TEXT, v TEXT)")
			step("CREATE INDEX ik ON t (k)")

			var ids []int64
			seen := map[int64]bool{}
			for n := 0; n < 20000; n++ {
				if n >= 2000 && n%500 == 0 {
					if h, hi := heights(t, e, "t", "ik"); h >= 3 && hi >= 3 {
						break
					}
				}
				id := int64(n)
				switch order {
				case "descending":
					id = 1999 - id
				case "shuffled":
					for id = rng.Int63n(1 << 20); seen[id]; id = rng.Int63n(1 << 20) {
					}
				}
				seen[id] = true
				ids = append(ids, id)
				step(fmt.Sprintf("INSERT INTO t (id, k, v) VALUES (%d, '%s', '%s')", id, arrivalKey(n), descPayload(int(id)&0xffff)))
			}
			h, hi := heights(t, e, "t", "ik")
			if h < 3 || hi < 3 {
				t.Fatalf("after %d rows the trees are %d and %d levels deep, want three or more", len(ids), h, hi)
			}
			t.Logf("%d rows: the table is %d levels deep, its index %d", len(ids), h, hi)
			pick := func() int64 { return ids[rng.Intn(len(ids))] }
			key := func() string { return arrivalKey(rng.Intn(len(ids))) }
			// keys bounds a handful of indexed values (they descend with
			// arrival).
			keys := func() (string, string) {
				n := rng.Intn(len(ids))
				return arrivalKey(n + rng.Intn(6)), arrivalKey(n)
			}
			reads := func(step func(string) *Result) {
				for i := 0; i < 40; i++ {
					a := pick()
					for _, q := range []string{
						fmt.Sprintf("SELECT id, k FROM t WHERE id = %d", a),
						fmt.Sprintf("SELECT id FROM t WHERE id >= %d AND id <= %d", a, a+40),
						fmt.Sprintf("SELECT id, v FROM t WHERE id >= %d AND id <= %d ORDER BY id DESC LIMIT 3", a-30, a+30),
						fmt.Sprintf("SELECT SUM(id) FROM t WHERE id >= %d AND id <= %d", a, a+500),
						fmt.Sprintf("SELECT id FROM t WHERE k = '%s'", key()),
					} {
						step(q)
					}
					lo, hi := keys()
					step(fmt.Sprintf("SELECT id, k FROM t WHERE k >= '%s' AND k <= '%s' ORDER BY k DESC LIMIT 4", lo, hi))
					step(fmt.Sprintf("SELECT id FROM t WHERE k >= '%s' AND k <= '%s' LIMIT 2", lo, hi))
					step(fmt.Sprintf("SELECT COUNT(*) FROM t WHERE k >= '%s' AND k <= '%s' AND id >= %d AND id <= %d", lo, hi, a-300, a+300))
				}
				step("SELECT COUNT(*) FROM t")
				step("SELECT id, k FROM t ORDER BY v DESC LIMIT 5")
				step("SELECT id, k, v FROM t")
			}
			reads(step)
			for i := 0; i < 150; i++ {
				a := pick()
				switch i % 5 {
				case 0: // outgrows its slot
					step(fmt.Sprintf("UPDATE t SET v = '%s' WHERE id = %d", strings.Repeat("g", 300+rng.Intn(600)), a))
				case 1: // re-keys the index, and grows
					step(fmt.Sprintf("UPDATE t SET k = '%s', v = '%s' WHERE id = %d", key()+"+", descPayload(i), a))
				case 2:
					step(fmt.Sprintf("DELETE FROM t WHERE id = %d", a))
				case 3:
					step(fmt.Sprintf("DELETE FROM t WHERE id >= %d AND id <= %d", a, a+3))
				default:
					lo, hi := keys()
					step(fmt.Sprintf("UPDATE t SET v = 'short' WHERE k >= '%s' AND k <= '%s'", lo, hi))
				}
			}
			reads(step)

			// A loser: open when the crash comes.
			step("BEGIN")
			step(fmt.Sprintf("UPDATE t SET k = 'loser', v = '%s' WHERE id = %d", strings.Repeat("L", 900), pick()))
			step(fmt.Sprintf("DELETE FROM t WHERE id >= %d AND id <= %d", pick(), pick()+10))
			step(fmt.Sprintf("INSERT INTO t (id, k, v) VALUES (%d, 'new', 'loser')", -1000000))
			mem.Crash()
			m.restart()
			r, _, err := Recover(mem, Defaults())
			if err != nil {
				t.Fatal(err)
			}
			rs := r.Connect("app")
			defer rs.Close()
			reads(func(q string) *Result { return m.step(t, r, 0, rs, q) })
		})
	}
}

// arrivalKey is the indexed value of the n-th row to arrive: it
// descends as n grows.
func arrivalKey(n int) string {
	return fmt.Sprintf("k%08d-%s", 99999999-n, strings.Repeat("-", 40))
}

// fuzzWorkload decodes data, three bytes a statement, into a workload
// over the model's grammar on two sessions: session 0 writes, in
// autocommit or in transactions of its own (read-only ones included),
// and session 1 reads, in autocommit or through a view it pins with
// BEGIN. Session 1 never writes, so no two transactions write one row.
func fuzzWorkload(data []byte) []string {
	w := []string{
		"0|CREATE TABLE f (id INT PRIMARY KEY, k INT, v TEXT)",
		"0|CREATE INDEX fk ON f (k)",
	}
	for i := 0; i < 24; i++ {
		w = append(w, fmt.Sprintf("0|INSERT INTO f (id, k, v) VALUES (%d, %d, 'v%d')", 2*i, i%5, i))
	}
	var open [2]bool
	for ; len(data) >= 3 && len(w) < 160; data = data[3:] {
		op, a, b := data[0], int(data[1])%64, int(data[2])
		s := b & 1
		switch op % 16 {
		case 0:
			w = append(w, fmt.Sprintf("0|INSERT INTO f (id, k, v) VALUES (%d, %d, 'i%d')", a, b%8, b))
		case 1: // a later tuple may duplicate an earlier one, or a stored row
			w = append(w, fmt.Sprintf("0|INSERT INTO f (id, k, v) VALUES (%d, 1, 'a'), (%d, 2, 'b'), (%d, 3, 'c')", a, a+1, a+2*(b%2)))
		case 2:
			w = append(w, fmt.Sprintf("0|UPDATE f SET k = %d WHERE id = %d", b%8, a))
		case 3:
			w = append(w, fmt.Sprintf("0|UPDATE f SET v = '%s' WHERE id >= %d AND id <= %d", strings.Repeat("w", 4*b), a, a+b%8))
		case 4:
			w = append(w, fmt.Sprintf("0|DELETE FROM f WHERE id = %d", a))
		case 5:
			w = append(w, fmt.Sprintf("0|DELETE FROM f WHERE k = %d", b%8))
		case 6:
			switch {
			case !open[0] && b%4 == 0:
				w = append(w, "0|SET TRANSACTION READ ONLY", "0|BEGIN")
			case !open[0]:
				w = append(w, "0|BEGIN")
			case b%2 == 0:
				w = append(w, "0|COMMIT")
			default:
				w = append(w, "0|ROLLBACK")
			}
			open[0] = !open[0]
		case 7:
			if open[1] {
				w = append(w, "1|COMMIT")
			} else {
				w = append(w, "1|BEGIN")
			}
			open[1] = !open[1]
		case 8:
			w = append(w, fmt.Sprintf("%d|SELECT * FROM f WHERE id = %d", s, a))
		case 9:
			w = append(w, fmt.Sprintf("%d|SELECT id, v FROM f WHERE id >= %d AND id <= %d ORDER BY id DESC LIMIT %d", s, a, a+b%16, b%5))
		case 10:
			w = append(w, fmt.Sprintf("%d|SELECT id FROM f WHERE k = %d AND v != 'a'", s, b%8),
				fmt.Sprintf("%d|SELECT id FROM f WHERE k = %d AND id >= %d AND id <= %d", s, b%8, a, a+9))
		case 11:
			w = append(w, fmt.Sprintf("%d|SELECT id, k FROM f WHERE k >= %d AND k <= %d ORDER BY k DESC LIMIT %d", s, a%8, a%8+2, b%6))
		case 12:
			w = append(w, fmt.Sprintf("%d|SELECT COUNT(*) FROM f WHERE k >= %d AND k <= %d", s, a%8, a%8+b%3), fmt.Sprintf("%d|SELECT SUM(k) FROM f", s))
		case 13:
			w = append(w, fmt.Sprintf("%d|SELECT id FROM f ORDER BY v LIMIT %d", s, b%7), fmt.Sprintf("%d|SELECT * FROM f", s))
		case 14:
			if b%2 == 0 {
				w = append(w, fmt.Sprintf("0|EXPLAIN ANALYZE UPDATE f SET k = %d WHERE id >= %d AND id <= %d", b%8, a, a+3))
			} else {
				w = append(w, fmt.Sprintf("0|EXPLAIN ANALYZE DELETE FROM f WHERE k = %d", a%8))
			}
		default:
			w = append(w, fmt.Sprintf("%d|EXPLAIN SELECT id FROM f WHERE k = %d", s, a%8),
				fmt.Sprintf("%d|SELECT nosuch FROM f WHERE id = %d", s, a), "0|UPDATE f SET id = 1 WHERE id = 2")
		}
	}
	return w
}

// FuzzSQLMatchesModel holds every statement of a decoded two-session
// workload to the model and the trace rule, with inline purge running
// every few statements. The seeds are the randomized workloads' seeds.
func FuzzSQLMatchesModel(f *testing.F) {
	for _, seed := range []int64{0xC0FFEE, 0xBEEF, 0x5EED} {
		data := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Defaults()
		cfg.BufferPoolPages = 8
		cfg.PurgeEvery = 4
		captureRun(t, cfg, fuzzWorkload(data), checked)
	})
}

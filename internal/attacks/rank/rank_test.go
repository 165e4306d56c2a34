package rank

import (
	"math/rand"
	"testing"

	"snapdb/internal/crypto/prim"
	"snapdb/internal/edb/arxx"
	"snapdb/internal/engine"
	"snapdb/internal/snapshot"
	"snapdb/internal/wal"
)

// arxWithWorkload builds an Arx index over n distinct values and runs q
// uniform range queries, returning the index, the engine, and ground
// truth node->rank.
func arxWithWorkload(t testing.TB, n, q int, seed int64) (*arxx.Index, *engine.Engine, map[int]int) {
	t.Helper()
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := arxx.New(e, prim.TestKey("rank"), "arx_idx")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	vals := rng.Perm(n) // distinct values 0..n-1, value == rank
	for _, v := range vals {
		if err := ix.Insert(uint32(v)); err != nil {
			t.Fatal(err)
		}
	}
	truth := make(map[int]int, n)
	for id := 1; id <= n; id++ {
		v, ok := ix.NodeValue(id)
		if !ok {
			t.Fatalf("node %d missing", id)
		}
		truth[id] = int(v)
	}
	for i := 0; i < q; i++ {
		lo, hi := UniformRanges(rng, n)
		if _, err := ix.RangeQuery(uint32(lo), uint32(hi)); err != nil {
			t.Fatal(err)
		}
	}
	return ix, e, truth
}

// redoRecords is the redo file of e's data directory, as a disk thief
// reads it.
func redoRecords(t testing.TB, e *engine.Engine) []wal.Record {
	t.Helper()
	recs, err := wal.ParseLog(snapshot.Capture(e, snapshot.DiskTheft).Disk.RedoLog)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func arxTableID(t testing.TB, e *engine.Engine) uint8 {
	t.Helper()
	tbl, ok := e.Table("arx_idx")
	if !ok {
		t.Fatal("arx table missing")
	}
	return tbl.ID
}

func TestFromWALReconstructsTranscript(t *testing.T) {
	ix, e, _ := arxWithWorkload(t, 50, 20, 1)
	tr, err := FromWAL(redoRecords(t, e), arxTableID(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Queries) != 20 {
		t.Errorf("reconstructed %d queries, want 20", len(tr.Queries))
	}
	var totalVisits int
	for _, v := range tr.Visits {
		totalVisits += v
	}
	if uint64(totalVisits) != ix.Repairs() {
		t.Errorf("transcript visits %d != index repairs %d", totalVisits, ix.Repairs())
	}
	// Every query burst starts at the root (the same node id).
	root := tr.Queries[0][0]
	for qi, q := range tr.Queries {
		if q[0] != root {
			t.Errorf("query %d starts at node %d, want root %d", qi, q[0], root)
		}
	}
}

func TestFromWALEmptyAndForeignTables(t *testing.T) {
	tr, err := FromWAL(nil, 1)
	if err != nil || len(tr.Queries) != 0 || len(tr.Visits) != 0 {
		t.Errorf("empty WAL: %+v, err %v", tr, err)
	}
	_, e, _ := arxWithWorkload(t, 10, 2, 2)
	tr, err = FromWAL(redoRecords(t, e), 99) // wrong table
	if err != nil || len(tr.Visits) != 0 {
		t.Errorf("foreign table: %+v, err %v", tr, err)
	}
}

func TestExpectedVisitsShape(t *testing.T) {
	exp, err := ExpectedVisits(51, 100, 30, UniformRanges, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp) != 51 {
		t.Fatalf("len = %d", len(exp))
	}
	// Under uniform ranges, mid ranks are visited more than extremes.
	mid, edge := exp[25], (exp[0]+exp[50])/2
	if mid <= edge {
		t.Errorf("mid rank %.1f not hotter than edges %.1f", mid, edge)
	}
	if _, err := ExpectedVisits(0, 1, 1, UniformRanges, 1); err == nil {
		t.Error("zero size accepted")
	}
}

func TestRecoverRanksValidation(t *testing.T) {
	if _, err := RecoverRanks(nil, nil); err == nil {
		t.Error("empty visits accepted")
	}
	if _, err := RecoverRanks(map[int]int{1: 5}, []float64{1, 2}); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestOrderRecoveryNearPerfect(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	const n, q = 60, 400
	_, e, truth := arxWithWorkload(t, n, q, 4)
	tr, err := FromWAL(redoRecords(t, e), arxTableID(t, e))
	if err != nil {
		t.Fatal(err)
	}
	order, err := RecoverOrder(tr)
	if err != nil {
		t.Fatal(err)
	}
	score, err := ScoreRankRecovery(RanksFromOrder(order), truth, n)
	if err != nil {
		t.Fatal(err)
	}
	// Random assignment scores ~1/3 mean normalized error; the order
	// attack should be close to exact with 400 queries over 60 nodes.
	if score >= 0.05 {
		t.Errorf("normalized rank error = %.3f, want < 0.05 (random ~0.33)", score)
	}
}

func TestFrequencyBaselineWeakerThanOrderAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	const n, q = 40, 300
	_, e, truth := arxWithWorkload(t, n, q, 8)
	tr, err := FromWAL(redoRecords(t, e), arxTableID(t, e))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := ExpectedVisits(n, q, 40, UniformRanges, 9)
	if err != nil {
		t.Fatal(err)
	}
	freqRec, err := RecoverRanks(tr.Visits, exp)
	if err != nil {
		t.Fatal(err)
	}
	freqScore, err := ScoreRankRecovery(freqRec, truth, n)
	if err != nil {
		t.Fatal(err)
	}
	order, err := RecoverOrder(tr)
	if err != nil {
		t.Fatal(err)
	}
	orderScore, err := ScoreRankRecovery(RanksFromOrder(order), truth, n)
	if err != nil {
		t.Fatal(err)
	}
	if orderScore > freqScore {
		t.Errorf("order attack (%.3f) worse than frequency baseline (%.3f)", orderScore, freqScore)
	}
}

func TestRecoverOrderEmptyTranscript(t *testing.T) {
	if _, err := RecoverOrder(&Transcript{Visits: map[int]int{}}); err == nil {
		t.Error("empty transcript accepted")
	}
}

func TestScoreRankRecovery(t *testing.T) {
	rec := map[int]int{1: 0, 2: 5}
	truth := map[int]int{1: 0, 2: 9}
	got, err := ScoreRankRecovery(rec, truth, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.2 { // mean |err| = 2, / 10
		t.Errorf("score = %g", got)
	}
	if _, err := ScoreRankRecovery(map[int]int{}, truth, 10); err == nil {
		t.Error("empty recovery accepted")
	}
	if _, err := ScoreRankRecovery(map[int]int{7: 1}, truth, 10); err == nil {
		t.Error("missing truth accepted")
	}
}

func TestVisitMatchesArxTraversal(t *testing.T) {
	// The attacker's treap simulation must follow the same traversal
	// rule as arxx.RangeQuery: compare total visit counts on an
	// identical value set and query set processed both ways.
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := arxx.New(e, prim.TestKey("sim"), "arx_idx")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{3, 1, 4, 1, 5, 9, 2, 6} {
		if err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix.RangeQuery(2, 5); err != nil {
		t.Fatal(err)
	}
	tr, err := FromWAL(redoRecords(t, e), arxTableID(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Queries) != 1 {
		t.Fatalf("queries = %d", len(tr.Queries))
	}
	// All in-range values plus boundary path nodes are visited; at
	// minimum the result-set size is a lower bound.
	if len(tr.Queries[0]) < 5 { // values 2,3,4,4(dup 1s excluded),5 ... result size is 5 here
		t.Errorf("visited %d nodes, expected at least the 5 in-range values", len(tr.Queries[0]))
	}
}

package arxx

import (
	"encoding/hex"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"snapdb/internal/binlog"
	"snapdb/internal/crypto/prim"
	"snapdb/internal/engine"
	"snapdb/internal/snapshot"
	"snapdb/internal/sqlparse"
	"snapdb/internal/wal"
)

func newIndex(t testing.TB) (*Index, *engine.Engine) {
	t.Helper()
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := New(e, prim.TestKey("arx"), "arx_idx")
	if err != nil {
		t.Fatal(err)
	}
	return ix, e
}

func TestInsertAndRangeQuery(t *testing.T) {
	ix, _ := newIndex(t)
	vals := []uint32{50, 10, 90, 30, 70, 20, 60}
	for _, v := range vals {
		if err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ix.RangeQuery(20, 65)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []uint32{20, 30, 50, 60}
	if len(got) != len(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v, want %v", got, want)
		}
	}
}

func TestRangeQueryInverted(t *testing.T) {
	ix, _ := newIndex(t)
	if _, err := ix.RangeQuery(10, 5); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestDuplicateValues(t *testing.T) {
	ix, _ := newIndex(t)
	for _, v := range []uint32{5, 5, 5, 9} {
		if err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ix.RangeQuery(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("duplicate range hit %d, want 3", len(got))
	}
}

func TestRank(t *testing.T) {
	ix, _ := newIndex(t)
	for _, v := range []uint32{10, 20, 30, 40, 50} {
		if err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[uint32]int{5: 0, 10: 0, 15: 1, 35: 3, 55: 5}
	for v, want := range cases {
		if got := ix.Rank(v); got != want {
			t.Errorf("Rank(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestLargeIndexCorrectness(t *testing.T) {
	ix, _ := newIndex(t)
	rng := rand.New(rand.NewSource(2))
	var vals []uint32
	for i := 0; i < 300; i++ {
		v := rng.Uint32() % 10000
		vals = append(vals, v)
		if err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := uint32(2000), uint32(7000)
	got, err := ix.RangeQuery(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range vals {
		if v >= lo && v <= hi {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("range size = %d, want %d", len(got), want)
	}
}

// TestRepairWritesLandInWAL is the §6 Arx attack surface: every
// traversed node leaves an UPDATE in the transaction logs.
func TestRepairWritesLandInWAL(t *testing.T) {
	ix, e := newIndex(t)
	for _, v := range []uint32{50, 10, 90, 30, 70} {
		if err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	redo := func() []wal.Record {
		t.Helper()
		recs, err := wal.ParseLog(snapshot.Capture(e, snapshot.DiskTheft).Disk.RedoLog)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	walBefore := len(redo())
	repairsBefore := ix.Repairs()
	if _, err := ix.RangeQuery(20, 80); err != nil {
		t.Fatal(err)
	}
	repairs := ix.Repairs() - repairsBefore
	if repairs == 0 {
		t.Fatal("range query consumed no nodes")
	}
	var updates int
	for _, r := range redo()[walBefore:] {
		if r.Op == wal.OpUpdate {
			updates++
		}
	}
	if uint64(updates) != repairs {
		t.Errorf("WAL shows %d repair updates, index reports %d", updates, repairs)
	}
}

func TestAtRestSemanticSecurity(t *testing.T) {
	// Two inserts of the same value must store different ciphertexts,
	// and no plaintext digits-only literal should be inferable from the
	// stored TEXT column (it is hex of randomized encryption).
	ix, e := newIndex(t)
	if err := ix.Insert(7); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(7); err != nil {
		t.Fatal(err)
	}
	res, err := ix.Session().Execute("SELECT enc FROM arx_idx")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Str == res.Rows[1][0].Str {
		t.Error("equal values stored identical ciphertexts")
	}
	_ = e
}

func TestNodeValue(t *testing.T) {
	ix, _ := newIndex(t)
	if err := ix.Insert(42); err != nil {
		t.Fatal(err)
	}
	v, ok := ix.NodeValue(1)
	if !ok || v != 42 {
		t.Errorf("NodeValue(1) = %d, %v", v, ok)
	}
	if _, ok := ix.NodeValue(99); ok {
		t.Error("phantom node resolved")
	}
}

func TestTreapBalancedDepth(t *testing.T) {
	ix, _ := newIndex(t)
	for v := uint32(0); v < 1000; v++ { // adversarial sorted insert order
		if err := ix.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	depth := maxDepth(ix.root)
	if depth > 40 { // ~2.9 log2(1000) expected for a treap
		t.Errorf("treap depth %d for 1000 sorted inserts; priorities not randomizing", depth)
	}
}

func maxDepth(n *node) int {
	if n == nil {
		return 0
	}
	l, r := maxDepth(n.left), maxDepth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// TestRepairStatementsAreOpaque: no binlog event of an insert and a
// repairing range query carries the plaintext. Each event is read as
// SQL: an INT literal equal to the secret, or a string literal that
// holds its digits and is not hex ciphertext, is a leak. (The
// ciphertext is hex of randomized bytes, which holds any short digit
// run now and then, so a search of the raw image would fail by chance.)
func TestRepairStatementsAreOpaque(t *testing.T) {
	ix, e := newIndex(t)
	secret := uint32(31337)
	if err := ix.Insert(secret); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.RangeQuery(0, 1<<31); err != nil {
		t.Fatal(err)
	}
	evs, err := binlog.Parse(snapshot.Capture(e, snapshot.DiskTheft).Disk.Binlog)
	if err != nil {
		t.Fatal(err)
	}
	repairs := 0
	for _, ev := range evs {
		if strings.HasPrefix(ev.Statement, "UPDATE") {
			repairs++
		}
		if lit := plaintextLiteral(t, ev.Statement, secret); lit != "" {
			t.Errorf("plaintext value leaked into %q as the literal %s", ev.Statement, lit)
		}
	}
	if repairs == 0 {
		t.Fatalf("no repair statement in the binlog's %d events", len(evs))
	}
}

// plaintextLiteral returns the literal of stmt that carries v, or "".
func plaintextLiteral(t *testing.T, stmt string, v uint32) string {
	t.Helper()
	toks, err := sqlparse.Tokenize(stmt)
	if err != nil {
		t.Fatalf("binlog event %q: %v", stmt, err)
	}
	digits := strconv.FormatUint(uint64(v), 10)
	for _, tok := range toks {
		switch tok.Kind {
		case sqlparse.TokNumber:
			if n, err := strconv.ParseInt(tok.Text, 10, 64); err == nil && n == int64(v) {
				return tok.Text
			}
		case sqlparse.TokString:
			if _, err := hex.DecodeString(tok.Text); err != nil && strings.Contains(tok.Text, digits) {
				return "'" + tok.Text + "'"
			}
		}
	}
	return ""
}

func BenchmarkRangeQuery(b *testing.B) {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	ix, err := New(e, prim.TestKey("bench"), "arx_idx")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if err := ix.Insert(rng.Uint32() % 100000); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lo := uint32(rng.Intn(90000))
		if _, err := ix.RangeQuery(lo, lo+5000); err != nil {
			b.Fatal(err)
		}
	}
}

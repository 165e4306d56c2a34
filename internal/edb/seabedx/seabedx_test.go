package seabedx

import (
	"strings"
	"testing"

	"snapdb/internal/crypto/prim"
	"snapdb/internal/engine"
	"snapdb/internal/snapshot"
)

func newEngine(t testing.TB) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestBasicCountWhere(t *testing.T) {
	e := newEngine(t)
	tbl, err := NewTable(e, prim.TestKey("seabed"), "facts", "state", []string{"CA", "TX", "NY"}, false)
	if err != nil {
		t.Fatal(err)
	}
	data := []string{"CA", "TX", "CA", "NY", "CA", "TX"}
	for _, v := range data {
		if err := tbl.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Rows() != 6 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	for v, want := range map[string]uint64{"CA": 3, "TX": 2, "NY": 1} {
		got, err := tbl.CountWhere(v)
		if err != nil {
			t.Fatalf("CountWhere(%s): %v", v, err)
		}
		if got != want {
			t.Errorf("CountWhere(%s) = %d, want %d", v, got, want)
		}
	}
}

func TestBasicRejectsOutOfDomain(t *testing.T) {
	e := newEngine(t)
	tbl, err := NewTable(e, prim.TestKey("seabed"), "facts", "state", []string{"CA"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert("TX"); err == nil {
		t.Error("out-of-domain insert accepted")
	}
	if err := tbl.Insert("CA"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CountWhere("TX"); err == nil {
		t.Error("out-of-domain count accepted")
	}
}

func TestEnhancedTailCount(t *testing.T) {
	e := newEngine(t)
	tbl, err := NewTable(e, prim.TestKey("seabed"), "facts", "city", []string{"nyc", "la"}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"nyc", "boise", "nyc", "fargo", "boise", "boise"} {
		if err := tbl.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	for v, want := range map[string]uint64{"nyc": 2, "la": 0, "boise": 3, "fargo": 1, "reno": 0} {
		got, err := tbl.CountWhere(v)
		if err != nil {
			t.Fatalf("CountWhere(%s): %v", v, err)
		}
		if got != want {
			t.Errorf("CountWhere(%s) = %d, want %d", v, got, want)
		}
	}
}

func TestCountWhereEmptyTable(t *testing.T) {
	e := newEngine(t)
	tbl, err := NewTable(e, prim.TestKey("seabed"), "facts", "state", []string{"CA"}, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.CountWhere("CA")
	if err != nil || got != 0 {
		t.Errorf("empty count = %d, err = %v", got, err)
	}
}

func TestNoPlaintextReachesEngine(t *testing.T) {
	e := newEngine(t)
	tbl, err := NewTable(e, prim.TestKey("seabed"), "facts", "diagnosis", []string{"flu", "hiv"}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"flu", "hiv", "rare-disease"} {
		if err := tbl.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.CountWhere("hiv"); err != nil {
		t.Fatal(err)
	}
	img := string(snapshot.Capture(e, snapshot.DiskTheft).Disk.Binlog)
	for _, secret := range []string{"flu", "hiv", "rare-disease"} {
		if strings.Contains(img, "'"+secret+"'") {
			t.Errorf("binlog contains plaintext literal %q", secret)
		}
	}
}

// TestDigestTableCountsQueriesPerPlaintext is the heart of the paper's
// Seabed attack: each dedicated value gets its own canonical query
// form, so the digest table is a per-plaintext query histogram.
func TestDigestTableCountsQueriesPerPlaintext(t *testing.T) {
	e := newEngine(t)
	tbl, err := NewTable(e, prim.TestKey("seabed"), "facts", "state", []string{"CA", "TX"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert("CA"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := tbl.CountWhere("CA"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := tbl.CountWhere("TX"); err != nil {
			t.Fatal(err)
		}
	}
	var caCount, txCount uint64
	for _, row := range e.PerfSchema().DigestSummary() {
		idxCA, _ := tbl.Plan().ColumnFor("CA")
		idxTX, _ := tbl.Plan().ColumnFor("TX")
		if strings.Contains(row.DigestText, "SUM("+tbl.Plan().ColumnName(idxCA)+")") {
			caCount = row.Count
		}
		if strings.Contains(row.DigestText, "SUM("+tbl.Plan().ColumnName(idxTX)+")") {
			txCount = row.Count
		}
	}
	if caCount != 5 || txCount != 2 {
		t.Errorf("digest histogram: CA=%d TX=%d, want 5/2", caCount, txCount)
	}
}

func BenchmarkInsert(b *testing.B) {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := NewTable(e, prim.TestKey("bench"), "facts", "state", []string{"CA", "TX", "NY"}, false)
	if err != nil {
		b.Fatal(err)
	}
	vals := []string{"CA", "TX", "NY"}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := tbl.Insert(vals[i%3]); err != nil {
			b.Fatal(err)
		}
	}
}

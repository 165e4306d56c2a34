package cryptdbx

import (
	"fmt"
	"strings"
	"testing"

	"snapdb/internal/crypto/prim"
	"snapdb/internal/engine"
	"snapdb/internal/snapshot"
	"snapdb/internal/sqlparse"
)

func newProxy(t testing.TB) (*Proxy, *engine.Engine) {
	t.Helper()
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return New(e, prim.TestKey("cryptdbx")), e
}

func patientSpecs() []ColumnSpec {
	return []ColumnSpec{
		{Name: "id", Type: sqlparse.TypeInt, Mode: OPE},
		{Name: "name", Type: sqlparse.TypeText, Mode: DET},
		{Name: "age", Type: sqlparse.TypeInt, Mode: OPE},
		{Name: "diagnosis", Type: sqlparse.TypeText, Mode: RND},
		{Name: "notes", Type: sqlparse.TypeText, Mode: SEARCH},
	}
}

func seedPatients(t testing.TB, p *Proxy) {
	t.Helper()
	if err := p.CreateTable("patients", patientSpecs()); err != nil {
		t.Fatal(err)
	}
	rows := [][]sqlparse.Value{
		{sqlparse.IntValue(1), sqlparse.StrValue("alice"), sqlparse.IntValue(34), sqlparse.StrValue("flu"), sqlparse.StrValue("fever cough")},
		{sqlparse.IntValue(2), sqlparse.StrValue("bob"), sqlparse.IntValue(52), sqlparse.StrValue("diabetes"), sqlparse.StrValue("insulin daily")},
		{sqlparse.IntValue(3), sqlparse.StrValue("carol"), sqlparse.IntValue(41), sqlparse.StrValue("hiv"), sqlparse.StrValue("antiretroviral daily")},
	}
	for _, r := range rows {
		if err := p.Insert("patients", r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestInsertSelectRoundTrip(t *testing.T) {
	p, _ := newProxy(t)
	seedPatients(t, p)
	rows, err := p.Select("patients", []Pred{{Column: "name", Op: sqlparse.OpEq, Arg: sqlparse.StrValue("bob")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	got := rows[0]
	if got[0].Int != 2 || got[1].Str != "bob" || got[2].Int != 52 || got[3].Str != "diabetes" || got[4].Str != "insulin daily" {
		t.Errorf("row = %v", got)
	}
}

func TestOPERangePredicate(t *testing.T) {
	p, _ := newProxy(t)
	seedPatients(t, p)
	rows, err := p.Select("patients", []Pred{{Column: "age", Op: sqlparse.OpGe, Arg: sqlparse.IntValue(40)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("age >= 40 rows = %d", len(rows))
	}
}

func TestServerNeverSeesPlaintext(t *testing.T) {
	p, e := newProxy(t)
	seedPatients(t, p)
	// The engine's binlog holds every INSERT as sent; no plaintext may
	// appear.
	img := string(snapshot.Capture(e, snapshot.DiskTheft).Disk.Binlog)
	for _, secret := range []string{"alice", "diabetes", "hiv", "insulin", "fever"} {
		if strings.Contains(img, secret) {
			t.Errorf("binlog contains plaintext %q", secret)
		}
	}
}

func TestRNDPredicateRejected(t *testing.T) {
	p, _ := newProxy(t)
	seedPatients(t, p)
	_, err := p.Select("patients", []Pred{{Column: "diagnosis", Op: sqlparse.OpEq, Arg: sqlparse.StrValue("flu")}})
	if err == nil {
		t.Error("predicate on RND column accepted")
	}
}

func TestDETRangeRejected(t *testing.T) {
	p, _ := newProxy(t)
	seedPatients(t, p)
	_, err := p.Select("patients", []Pred{{Column: "name", Op: sqlparse.OpLt, Arg: sqlparse.StrValue("m")}})
	if err == nil {
		t.Error("range on DET column accepted")
	}
}

func TestSearch(t *testing.T) {
	p, _ := newProxy(t)
	seedPatients(t, p)
	rows, err := p.Search("patients", "notes", "daily")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("search rows = %d", len(rows))
	}
	ids := map[int64]bool{rows[0][0].Int: true, rows[1][0].Int: true}
	if !ids[2] || !ids[3] {
		t.Errorf("matched ids = %v", ids)
	}
}

func TestSearchTokenLeaksIntoStatementArtifacts(t *testing.T) {
	// The §6 channel: the search token transits the engine's statement
	// artifacts even though the engine cannot execute the UDF.
	p, e := newProxy(t)
	seedPatients(t, p)
	if _, err := p.Search("patients", "notes", "insulin"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range e.PerfSchema().History() {
		if strings.Contains(ev.Statement, "search_match(notes,") {
			found = true
		}
	}
	if !found {
		t.Error("token-bearing search statement missing from events_statements_history")
	}
}

func TestSearchErrors(t *testing.T) {
	p, _ := newProxy(t)
	seedPatients(t, p)
	if _, err := p.Search("patients", "name", "x"); err == nil {
		t.Error("search on non-SEARCH column accepted")
	}
	if _, err := p.Search("missing", "notes", "x"); err == nil {
		t.Error("search on missing table accepted")
	}
	if _, err := p.SSEIndex("patients", "name"); err == nil {
		t.Error("SSEIndex on non-SEARCH column accepted")
	}
	if _, err := p.SSEIndex("patients", "notes"); err != nil {
		t.Errorf("SSEIndex: %v", err)
	}
}

func TestCreateTableValidation(t *testing.T) {
	p, _ := newProxy(t)
	if err := p.CreateTable("t", nil); err == nil {
		t.Error("empty schema accepted")
	}
	if err := p.CreateTable("t", []ColumnSpec{{Name: "id", Type: sqlparse.TypeInt, Mode: RND}}); err == nil {
		t.Error("RND primary key accepted")
	}
	if err := p.CreateTable("t", []ColumnSpec{{Name: "id", Type: sqlparse.TypeText, Mode: OPE}}); err == nil {
		t.Error("OPE TEXT column accepted")
	}
	if err := p.CreateTable("t", []ColumnSpec{
		{Name: "id", Type: sqlparse.TypeInt, Mode: OPE},
		{Name: "s", Type: sqlparse.TypeInt, Mode: SEARCH},
	}); err == nil {
		t.Error("SEARCH INT column accepted")
	}
	ok := []ColumnSpec{{Name: "id", Type: sqlparse.TypeInt, Mode: OPE}}
	if err := p.CreateTable("t", ok); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateTable("t", ok); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestInsertValidation(t *testing.T) {
	p, _ := newProxy(t)
	seedPatients(t, p)
	if err := p.Insert("missing", nil); err == nil {
		t.Error("insert into missing table accepted")
	}
	if err := p.Insert("patients", []sqlparse.Value{sqlparse.IntValue(9)}); err == nil {
		t.Error("short row accepted")
	}
	bad := []sqlparse.Value{sqlparse.IntValue(9), sqlparse.IntValue(1), sqlparse.IntValue(1), sqlparse.StrValue("x"), sqlparse.StrValue("y")}
	if err := p.Insert("patients", bad); err == nil {
		t.Error("type-mismatched row accepted")
	}
}

func TestSelectUnknownTableAndColumn(t *testing.T) {
	p, _ := newProxy(t)
	seedPatients(t, p)
	if _, err := p.Select("missing", nil); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := p.Select("patients", []Pred{{Column: "nope", Op: sqlparse.OpEq, Arg: sqlparse.IntValue(1)}}); err == nil {
		t.Error("missing column accepted")
	}
}

func TestSelectAllDecrypts(t *testing.T) {
	p, _ := newProxy(t)
	seedPatients(t, p)
	rows, err := p.Select("patients", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Rows come back in OPE-ciphertext order, which preserves id order.
	for i, r := range rows {
		if r[0].Int != int64(i+1) {
			t.Errorf("row %d id = %d (OPE order broken)", i, r[0].Int)
		}
	}
}

func BenchmarkEncryptedInsert(b *testing.B) {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	p := New(e, prim.TestKey("bench"))
	if err := p.CreateTable("t", []ColumnSpec{
		{Name: "id", Type: sqlparse.TypeInt, Mode: OPE},
		{Name: "v", Type: sqlparse.TypeText, Mode: DET},
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		row := []sqlparse.Value{sqlparse.IntValue(int64(i)), sqlparse.StrValue(fmt.Sprintf("v%d", i))}
		if err := p.Insert("t", row); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"strings"
	"testing"

	"snapdb/internal/crypto/prim"
	"snapdb/internal/edb/cryptdbx"
	"snapdb/internal/engine"
	"snapdb/internal/snapshot"
	"snapdb/internal/sqlparse"
)

// workloadEngine runs a small mixed workload through the engine.
func workloadEngine(t testing.TB) *engine.Engine {
	t.Helper()
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	e.Clock = func() int64 { return 1_700_000_000 }
	s := e.Connect("app")
	queries := []string{
		"CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)",
		"INSERT INTO accounts (id, owner, balance) VALUES (1, 'alice', 100)",
		"INSERT INTO accounts (id, owner, balance) VALUES (2, 'bob', 250)",
		"UPDATE accounts SET balance = 175 WHERE id = 2",
		"DELETE FROM accounts WHERE id = 1",
		"SELECT owner FROM accounts WHERE id = 2",
		"SELECT COUNT(*) FROM accounts",
	}
	for _, q := range queries {
		if _, err := s.Execute(q); err != nil {
			t.Fatalf("Execute(%q): %v", q, err)
		}
	}
	return e
}

func TestAnalyzeNil(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}

func TestAnalyzeDiskTheft(t *testing.T) {
	e := workloadEngine(t)
	rep, err := Analyze(snapshot.Capture(e, snapshot.DiskTheft))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PastWrites != 4 { // 2 inserts + 1 update + 1 delete
		t.Errorf("past writes = %d, want 4", rep.PastWrites)
	}
	if !rep.Has("wal") || !rep.Has("binlog") || !rep.Has("lsn-correlation") {
		t.Errorf("missing §3 channels: %+v", rep.Findings)
	}
	if rep.Has("heap") || rep.Has("processlist") {
		t.Error("disk theft must not yield volatile channels")
	}
	wal, _ := rep.Finding("wal")
	joined := strings.Join(wal.Samples, "\n")
	if !strings.Contains(joined, "'alice'") {
		t.Errorf("reconstructed writes lost literals:\n%s", joined)
	}
	if rep.TimedWrites != rep.PastWrites {
		t.Errorf("timed %d of %d writes", rep.TimedWrites, rep.PastWrites)
	}
}

func TestAnalyzeSQLInjection(t *testing.T) {
	e := workloadEngine(t)
	rep, err := Analyze(snapshot.Capture(e, snapshot.SQLInjection))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Has("statement-history") || !rep.Has("digest-table") || !rep.Has("processlist") {
		t.Errorf("missing §4 channels: %+v", rep.Findings)
	}
	hist, _ := rep.Finding("statement-history")
	if !strings.Contains(strings.Join(hist.Samples, "\n"), "SELECT owner FROM accounts") {
		t.Error("history lost the SELECT")
	}
	if rep.DigestRows == 0 {
		t.Error("digest histogram empty")
	}
	if rep.Has("heap") {
		t.Error("SQLi must not yield heap")
	}
}

func TestAnalyzeFullCompromise(t *testing.T) {
	e := workloadEngine(t)
	rep, err := Analyze(snapshot.Capture(e, snapshot.FullCompromise))
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []string{"wal", "binlog", "digest-table", "heap", "query-cache", "access-counters"} {
		if !rep.Has(ch) {
			t.Errorf("full compromise missing channel %q", ch)
		}
	}
	if rep.HeapQueries == 0 {
		t.Error("no queries scraped from heap")
	}
	if rep.CachedResults == 0 {
		t.Error("query cache empty")
	}
	heap, _ := rep.Finding("heap")
	if !strings.Contains(strings.Join(heap.Samples, "\n"), "SELECT") {
		t.Error("heap samples contain no SELECT")
	}
}

func TestFindingsSortedBySeverity(t *testing.T) {
	e := workloadEngine(t)
	rep, err := Analyze(snapshot.Capture(e, snapshot.FullCompromise))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rep.Findings); i++ {
		if rep.Findings[i].Severity > rep.Findings[i-1].Severity {
			t.Fatal("findings not sorted by severity")
		}
	}
}

func TestTokenRecoveryFromEDBWorkload(t *testing.T) {
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	proxy := cryptdbx.New(e, prim.TestKey("core-edb"))
	specs := []cryptdbx.ColumnSpec{
		{Name: "id", Type: sqlparse.TypeInt, Mode: cryptdbx.OPE},
		{Name: "body", Type: sqlparse.TypeText, Mode: cryptdbx.SEARCH},
	}
	if err := proxy.CreateTable("mail", specs); err != nil {
		t.Fatal(err)
	}
	if err := proxy.Insert("mail", []sqlparse.Value{sqlparse.IntValue(1), sqlparse.StrValue("merger talks friday")}); err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.Search("mail", "body", "merger"); err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(snapshot.Capture(e, snapshot.VMSnapshotLeak))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TokensFound == 0 {
		t.Fatal("search token not recovered from snapshot")
	}
	f, _ := rep.Finding("search-tokens")
	if f.Severity != SeverityTokenLeak {
		t.Errorf("token severity = %v", f.Severity)
	}
	if len(f.Samples) == 0 || len(f.Samples[0]) != 64 {
		t.Errorf("token sample malformed: %q", f.Samples)
	}
}

func TestGeneralLogChannelWhenEnabled(t *testing.T) {
	cfg := engine.Defaults()
	cfg.EnableGeneralLog = true
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := e.Connect("app")
	if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute("SELECT * FROM t"); err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(snapshot.Capture(e, snapshot.DiskTheft))
	if err != nil {
		t.Fatal(err)
	}
	f, ok := rep.Finding("general-log")
	if !ok {
		t.Fatal("general log channel missing")
	}
	if !strings.Contains(strings.Join(f.Samples, "\n"), "SELECT * FROM t") {
		t.Error("general log lost the SELECT")
	}
}

func TestSeverityStrings(t *testing.T) {
	if SeverityInfo.String() != "info" || SeverityTokenLeak.String() != "token-leak" {
		t.Error("severity names wrong")
	}
	if !strings.HasPrefix(Severity(9).String(), "Severity(") {
		t.Error("unknown severity should render numerically")
	}
}

func TestReportFindingLookup(t *testing.T) {
	r := &Report{Findings: []Finding{{Channel: "x", Count: 3}}}
	if f, ok := r.Finding("x"); !ok || f.Count != 3 {
		t.Error("Finding lookup broken")
	}
	if _, ok := r.Finding("missing"); ok {
		t.Error("phantom finding")
	}
}

package engine

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// timeoutEngine returns an engine with StatementTimeout set and a
// manually stepped ExecClock: each ExecClock call advances by *step, so
// a test flips *step from zero to something huge to make the running
// statement blow its deadline at the first scan-boundary check.
func timeoutEngine(t testing.TB, timeout time.Duration) (*Engine, *Session, *time.Duration) {
	t.Helper()
	cfg := Defaults()
	cfg.StatementTimeout = timeout
	e, _ := newEngine(t, cfg)
	base := time.Unix(0, 0)
	var now time.Time = base
	step := new(time.Duration)
	e.ExecClock = func() time.Time {
		now = now.Add(*step)
		return now
	}
	s := e.Connect("app")
	return e, s, step
}

func TestStatementTimeoutReturnsTypedError(t *testing.T) {
	_, s, step := timeoutEngine(t, 50*time.Millisecond)
	setupCustomers(t, s, 200) // > deadlineCheckInterval rows

	*step = time.Second
	_, err := s.Execute("SELECT name FROM customers WHERE state = 'CA'")
	if !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("want ErrStatementTimeout, got %v", err)
	}

	// The session stays usable once time behaves again.
	*step = 0
	res := mustExec(t, s, "SELECT name FROM customers WHERE id = 3")
	if len(res.Rows) != 1 {
		t.Fatalf("post-timeout select rows = %d", len(res.Rows))
	}
}

// TestStatementTimeoutAbortsUpdateBeforeMutation checks the timeout
// fires in the scan half: a timed-out UPDATE leaves every row, the
// binlog, and the row count exactly as they were.
func TestStatementTimeoutAbortsUpdateBeforeMutation(t *testing.T) {
	e, s, step := timeoutEngine(t, 50*time.Millisecond)
	setupCustomers(t, s, 200)
	binlogBefore := len(durableBinlog(t, e))

	*step = time.Second
	_, err := s.Execute("UPDATE customers SET age = 99 WHERE state = 'CA'")
	if !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("want ErrStatementTimeout, got %v", err)
	}

	*step = 0
	res := mustExec(t, s, "SELECT COUNT(*) FROM customers WHERE age = 99")
	if got := res.Rows[0][0].Int; got != 0 {
		t.Fatalf("timed-out UPDATE mutated %d rows", got)
	}
	if n := len(durableBinlog(t, e)); n != binlogBefore {
		t.Fatalf("timed-out UPDATE emitted %d binlog events", n-binlogBefore)
	}
}

func TestStatementTimeoutAbortsDelete(t *testing.T) {
	_, s, step := timeoutEngine(t, 50*time.Millisecond)
	setupCustomers(t, s, 200)

	*step = time.Second
	_, err := s.Execute("DELETE FROM customers WHERE state = 'CA'")
	if !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("want ErrStatementTimeout, got %v", err)
	}

	*step = 0
	res := mustExec(t, s, "SELECT COUNT(*) FROM customers")
	if got := res.Rows[0][0].Int; got != 200 {
		t.Fatalf("timed-out DELETE removed rows: count = %d", got)
	}
}

// TestNoTimeoutLeavesCheckerUnarmed pins the fast path: with the
// default zero timeout the session never builds a deadline check, so
// the scan leaves run the exact pre-deadline code path (the forensic
// fetch-sequence guarantee rides on this).
func TestNoTimeoutLeavesCheckerUnarmed(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	s := e.Connect("app")
	setupCustomers(t, s, 10)
	mustExec(t, s, "SELECT * FROM customers")
	if dc := s.deadlineCheck(); dc != nil {
		t.Fatal("deadline check armed with StatementTimeout=0")
	}
}

// TestGenerousTimeoutDoesNotPerturbResults runs a mixed workload under
// a huge timeout and checks results match a no-timeout engine —
// including buffer-pool fetch counts, which must be identical because
// the deadline check reads a clock but never touches a page.
func TestGenerousTimeoutDoesNotPerturbResults(t *testing.T) {
	cfgT := Defaults()
	cfgT.StatementTimeout = time.Hour
	eT, _ := newEngine(t, cfgT)
	eP, _ := newEngine(t, Defaults())
	sT := eT.Connect("app")
	sP := eP.Connect("app")
	setupCustomers(t, sT, 150)
	setupCustomers(t, sP, 150)

	queries := []string{
		"SELECT * FROM customers WHERE state = 'NY'",
		"SELECT name FROM customers WHERE id >= 10 AND id <= 90",
		"UPDATE customers SET age = 33 WHERE id = 17",
		"DELETE FROM customers WHERE id = 140",
		"SELECT COUNT(*) FROM customers",
	}
	for _, q := range queries {
		rT, errT := sT.Execute(q)
		rP, errP := sP.Execute(q)
		if (errT == nil) != (errP == nil) {
			t.Fatalf("%q: err mismatch %v vs %v", q, errT, errP)
		}
		if errT != nil {
			continue
		}
		if fmt.Sprint(rT.Rows) != fmt.Sprint(rP.Rows) || rT.RowsExamined != rP.RowsExamined {
			t.Fatalf("%q: result diverged under generous timeout", q)
		}
	}
	if fT, fP := eT.BufferPool().FetchCount(), eP.BufferPool().FetchCount(); fT != fP {
		t.Fatalf("fetch counts diverged: %d with timeout vs %d without", fT, fP)
	}
}

// TestStatementTimeoutDuringLimitRemainder: a LIMIT stops the operators
// above the leaf after one row, but the leaf still completes its
// traversal inside Close — and that remainder is as bounded by the
// statement deadline as the rows that were pulled. The clock trips on
// its n-th reading: reading 1 is the statement start, 2 the leaf's Open,
// and 3, 4, 5 fall on rows 64, 128 and 192 of the 200-row walk, all of
// them past the single row LIMIT 1 pulled.
func TestStatementTimeoutDuringLimitRemainder(t *testing.T) {
	cfg := Defaults()
	cfg.StatementTimeout = 50 * time.Millisecond
	cfg.EnableQueryCache = false
	e, _ := newEngine(t, cfg)
	readings, tripAt := 0, 0
	e.ExecClock = func() time.Time {
		readings++
		if tripAt > 0 && readings >= tripAt {
			return time.Unix(3600, 0)
		}
		return time.Unix(0, 0)
	}
	s := e.Connect("app")
	setupCustomers(t, s, 200)

	const q = "SELECT name FROM customers LIMIT 1"
	for _, n := range []int{3, 4, 5} {
		readings, tripAt = 0, n
		fetched := e.BufferPool().FetchCount()
		if _, err := s.Execute(q); !errors.Is(err, ErrStatementTimeout) {
			t.Errorf("clock tripping at reading %d: err = %v, want ErrStatementTimeout", n, err)
		}
		if e.BufferPool().FetchCount() == fetched {
			t.Errorf("clock tripping at reading %d: the statement failed before fetching a page", n)
		}
	}
	// Reading 6 is the statement's end-of-execution timestamp: the walk
	// is over, the statement succeeds.
	readings, tripAt = 0, 6
	res, err := s.Execute(q)
	if err != nil || len(res.Rows) != 1 || res.RowsExamined != 200 {
		t.Fatalf("untripped: rows=%v err=%v, want 1 row with 200 examined", res, err)
	}

	// A DML scan half is drained to its end before the first mutation, so
	// a deadline anywhere in it still leaves no WAL record behind.
	lsn := e.WAL().CurrentLSN()
	readings, tripAt = 0, 5
	if _, err := s.Execute("DELETE FROM customers WHERE state = 'CA'"); !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("DELETE: err = %v, want ErrStatementTimeout", err)
	}
	if got := e.WAL().CurrentLSN(); got != lsn {
		t.Errorf("timed-out DELETE advanced the WAL from %d to %d", lsn, got)
	}
}

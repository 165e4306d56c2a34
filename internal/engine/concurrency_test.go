package engine

import (
	"fmt"
	"sync"
	"testing"

	"snapdb/internal/wal"
)

// dataRecords filters commit/abort markers out of a WAL record slice,
// leaving only row-change records.
func dataRecords(recs []wal.Record) []wal.Record {
	out := recs[:0:0]
	for _, r := range recs {
		if !r.Op.IsMarker() {
			out = append(out, r)
		}
	}
	return out
}

// TestConcurrentMixedMultiTable drives concurrent sessions issuing a
// mixed SELECT/INSERT stream over two tables — the workload the striped
// lock manager parallelizes — and then checks the two invariants the
// forensic attacks need: (a) every table holds exactly its own rows,
// and (b) the WAL and binlog are ordered: WAL LSNs strictly increase,
// and binlog (timestamp, LSN) pairs are non-decreasing in log order
// (the E3 correlation invariant; ties are legal because several
// statements can commit within one clock second).
func TestConcurrentMixedMultiTable(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	setup := e.Connect("setup")
	mustExec(t, setup, "CREATE TABLE orders (id INT PRIMARY KEY, v INT)")
	mustExec(t, setup, "CREATE TABLE events (id INT PRIMARY KEY, v INT)")

	const workers, perWorker = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.Connect(fmt.Sprintf("mixed%d", w))
			defer s.Close()
			table := "orders"
			if w%2 == 1 {
				table = "events"
			}
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				if _, err := s.Execute(fmt.Sprintf("INSERT INTO %s (id, v) VALUES (%d, %d)", table, id, id)); err != nil {
					errs <- err
					return
				}
				// Cross-table read: half the reads hit the other table.
				readFrom := table
				if i%2 == 0 {
					if readFrom = "orders"; table == "orders" {
						readFrom = "events"
					}
				}
				res, err := s.Execute(fmt.Sprintf("SELECT v FROM %s WHERE id <= %d AND id >= %d", readFrom, id, id))
				if err != nil {
					errs <- err
					return
				}
				// A read of our own table must see our own insert.
				if readFrom == table && (len(res.Rows) != 1 || res.Rows[0][0].Int != int64(id)) {
					errs <- fmt.Errorf("worker %d: SELECT id=%d from %s returned %v", w, id, readFrom, res.Rows)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// (a) Correct results: each table holds exactly the rows its
	// writers inserted.
	const perTable = (workers / 2) * perWorker
	for _, table := range []string{"orders", "events"} {
		res := mustExec(t, setup, "SELECT COUNT(*) FROM "+table)
		if res.Rows[0][0].Int != perTable {
			t.Errorf("%s count = %d, want %d", table, res.Rows[0][0].Int, perTable)
		}
	}

	// (b) WAL order: strictly increasing LSNs in both logs.
	redo, undo, evs := durableLogs(t, e)
	if got := len(dataRecords(redo)); got != workers*perWorker {
		t.Fatalf("redo data records = %d, want %d", got, workers*perWorker)
	}
	for i := 1; i < len(redo); i++ {
		if redo[i].LSN <= redo[i-1].LSN {
			t.Fatalf("redo LSN order violated at %d: %d after %d", i, redo[i].LSN, redo[i-1].LSN)
		}
	}
	for i := 1; i < len(undo); i++ {
		if undo[i].LSN <= undo[i-1].LSN {
			t.Fatalf("undo LSN order violated at %d: %d after %d", i, undo[i].LSN, undo[i-1].LSN)
		}
	}

	// (b) Binlog order: timestamps and LSNs non-decreasing, and every
	// event's LSN within the range the WAL actually reached.
	if len(evs) != workers*perWorker+2 { // +2 CREATEs
		t.Fatalf("binlog events = %d, want %d", len(evs), workers*perWorker+2)
	}
	maxLSN := e.WAL().CurrentLSN()
	for i, ev := range evs {
		if ev.LSN > maxLSN {
			t.Fatalf("binlog event %d LSN %d beyond engine LSN %d", i, ev.LSN, maxLSN)
		}
		if i == 0 {
			continue
		}
		if ev.Timestamp < evs[i-1].Timestamp {
			t.Fatalf("binlog timestamp order violated at %d: %d after %d", i, ev.Timestamp, evs[i-1].Timestamp)
		}
		if ev.LSN < evs[i-1].LSN {
			t.Fatalf("binlog LSN order violated at %d: %d after %d", i, ev.LSN, evs[i-1].LSN)
		}
	}
}

// TestConcurrentSessions drives parallel sessions through the engine
// (run with -race): the statement lock must serialize tree mutations
// while artifact recording stays consistent.
func TestConcurrentSessions(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	setup := e.Connect("setup")
	mustExec(t, setup, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")

	const workers, perWorker = 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.Connect(fmt.Sprintf("worker%d", w))
			defer s.Close()
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				if _, err := s.Execute(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", id, id)); err != nil {
					errs <- err
					return
				}
				if _, err := s.Execute(fmt.Sprintf("SELECT v FROM t WHERE id = %d", id)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res := mustExec(t, setup, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int != workers*perWorker {
		t.Errorf("count = %d, want %d", res.Rows[0][0].Int, workers*perWorker)
	}
	// Every write made it into the WAL and binlog exactly once.
	redo, _, evs := durableLogs(t, e)
	if got := len(dataRecords(redo)); got != workers*perWorker {
		t.Errorf("WAL data records = %d, want %d", got, workers*perWorker)
	}
	if got := len(evs); got != workers*perWorker+1 { // +1 CREATE
		t.Errorf("binlog events = %d, want %d", got, workers*perWorker+1)
	}
}

// TestConcurrentTransactions interleaves committing and rolling-back
// transactions across sessions.
func TestConcurrentTransactions(t *testing.T) {
	e, _ := newEngine(t, Defaults())
	setup := e.Connect("setup")
	mustExec(t, setup, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")

	const workers = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.Connect(fmt.Sprintf("txn%d", w))
			defer s.Close()
			for i := 0; i < 10; i++ {
				id := w*1000 + i
				commit := i%2 == 0
				steps := []string{
					"BEGIN",
					fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", id, id),
				}
				if commit {
					steps = append(steps, "COMMIT")
				} else {
					steps = append(steps, "ROLLBACK")
				}
				for _, q := range steps {
					if _, err := s.Execute(q); err != nil {
						errs <- fmt.Errorf("worker %d: %s: %w", w, q, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res := mustExec(t, setup, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int != workers*5 { // half of 10 per worker committed
		t.Errorf("count = %d, want %d", res.Rows[0][0].Int, workers*5)
	}
}

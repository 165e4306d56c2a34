package forensics_test

import (
	"fmt"
	"testing"

	"snapdb/internal/bufpool"
	"snapdb/internal/engine"
	"snapdb/internal/forensics"
	"snapdb/internal/snapshot"
	"snapdb/internal/sqlparse"
)

// bufpoolVictim loads a table large enough to need many leaves, runs a
// point SELECT for probe, and returns the disk snapshot.
func bufpoolVictim(t *testing.T, probe int64) *snapshot.Snapshot {
	t.Helper()
	e, err := engine.New(engine.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	s := e.Connect("app")
	if _, err := s.Execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := s.Execute(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'row-%04d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Execute(fmt.Sprintf("SELECT v FROM t WHERE id = %d", probe)); err != nil {
		t.Fatal(err)
	}
	if err := e.Shutdown(); err != nil { // writes the buffer-pool dump, as MySQL does
		t.Fatal(err)
	}
	return snapshot.Capture(e, snapshot.DiskTheft)
}

func TestLeafRangesCoverAllKeys(t *testing.T) {
	snap := bufpoolVictim(t, 42)
	leaves, err := forensics.LeafRanges(snap.Disk.Tablespace)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) < 10 {
		t.Fatalf("only %d leaves for 2000 rows", len(leaves))
	}
	// Every key 0..1999 must fall inside exactly one primary-leaf range.
	// (Ranges of distinct leaves of one tree never overlap.)
	for _, probe := range []int64{0, 1, 999, 1999} {
		v := sqlparse.IntValue(probe)
		covering := 0
		for _, lr := range leaves {
			if lr.Min.IsInt && v.Compare(lr.Min) >= 0 && v.Compare(lr.Max) <= 0 {
				covering++
			}
		}
		if covering != 1 {
			t.Errorf("key %d covered by %d leaf ranges, want 1", probe, covering)
		}
	}
}

func TestRecentAccessRangesRevealQueriedKey(t *testing.T) {
	const probe = 1234
	snap := bufpoolVictim(t, probe)
	leaves, err := forensics.LeafRanges(snap.Disk.Tablespace)
	if err != nil {
		t.Fatal(err)
	}
	lru, err := bufpool.ParseDump(snap.Disk.BufferPoolDump)
	if err != nil {
		t.Fatal(err)
	}
	recent := forensics.RecentAccessRanges(lru, leaves, 1)
	if len(recent) != 1 {
		t.Fatalf("recent = %d entries", len(recent))
	}
	// §3's claim, concretely: the most recently used leaf is the one
	// holding the key the last SELECT probed.
	v := sqlparse.IntValue(probe)
	if v.Compare(recent[0].Min) < 0 || v.Compare(recent[0].Max) > 0 {
		t.Errorf("hottest leaf spans [%v, %v]; the probed key %d is outside it",
			recent[0].Min, recent[0].Max, probe)
	}
	// The span must be narrow relative to the 2000-key domain: the
	// attacker learns the query target to within one leaf.
	span := recent[0].Max.Int - recent[0].Min.Int
	if span > 400 {
		t.Errorf("leaf span %d too wide to be revealing", span)
	}
}

func TestRecentAccessRangesLimit(t *testing.T) {
	snap := bufpoolVictim(t, 7)
	leaves, err := forensics.LeafRanges(snap.Disk.Tablespace)
	if err != nil {
		t.Fatal(err)
	}
	lru, err := bufpool.ParseDump(snap.Disk.BufferPoolDump)
	if err != nil {
		t.Fatal(err)
	}
	all := forensics.RecentAccessRanges(lru, leaves, 0)
	if len(all) == 0 {
		t.Fatal("no leaves in LRU")
	}
	two := forensics.RecentAccessRanges(lru, leaves, 2)
	if len(two) != 2 {
		t.Errorf("limit 2 returned %d", len(two))
	}
}

func TestLeafRangesRejectsGarbage(t *testing.T) {
	if _, err := forensics.LeafRanges([]byte{1, 2, 3}); err == nil {
		t.Error("garbage tablespace accepted")
	}
}

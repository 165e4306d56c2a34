package core

import (
	"testing"

	"snapdb/internal/snapshot"
)

// corruptedSnapshot builds a full snapshot and then damages one disk
// artifact.
func corruptedSnapshot(t *testing.T, damage func(*snapshot.DiskState)) *snapshot.Snapshot {
	t.Helper()
	e := workloadEngine(t)
	snap := snapshot.Capture(e, snapshot.FullCompromise)
	damage(snap.Disk)
	return snap
}

func TestAnalyzeCorruptWAL(t *testing.T) {
	snap := corruptedSnapshot(t, func(d *snapshot.DiskState) {
		d.RedoLog = []byte{0xDE, 0xAD} // unparseable from byte 0
	})
	if _, err := Analyze(snap); err == nil {
		t.Error("fully corrupt WAL accepted")
	}
}

func TestAnalyzeTornWALTailTolerated(t *testing.T) {
	snap := corruptedSnapshot(t, func(d *snapshot.DiskState) {
		d.RedoLog = d.RedoLog[:len(d.RedoLog)-3] // torn final record
	})
	rep, err := Analyze(snap)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if rep.PastWrites == 0 {
		t.Error("no writes recovered from torn log")
	}
}

func TestAnalyzeCorruptBinlog(t *testing.T) {
	snap := corruptedSnapshot(t, func(d *snapshot.DiskState) {
		d.Binlog = d.Binlog[:10] // truncated header
	})
	if _, err := Analyze(snap); err == nil {
		t.Error("corrupt binlog accepted")
	}
}

func TestAnalyzeCorruptBufferPoolDump(t *testing.T) {
	snap := corruptedSnapshot(t, func(d *snapshot.DiskState) {
		d.BufferPoolDump = []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	})
	if _, err := Analyze(snap); err == nil {
		t.Error("corrupt buffer pool dump accepted")
	}
}

func TestAnalyzeCorruptQueryLog(t *testing.T) {
	snap := corruptedSnapshot(t, func(d *snapshot.DiskState) {
		d.SlowLog = "not a log line at all\n"
	})
	if _, err := Analyze(snap); err == nil {
		t.Error("corrupt slow log accepted")
	}
}

func TestAnalyzeEmptyEngineSnapshot(t *testing.T) {
	// A freshly started engine: nothing executed, nothing to find.
	snap := corruptedSnapshot(t, func(d *snapshot.DiskState) {
		d.RedoLog, d.UndoLog, d.Binlog = nil, nil, nil
		d.GeneralLog, d.SlowLog = "", ""
		d.BufferPoolDump = nil
	})
	snap.Diagnostics = nil
	snap.Memory = nil
	rep, err := Analyze(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PastWrites != 0 || len(rep.Findings) != 0 {
		t.Errorf("findings from empty snapshot: %+v", rep.Findings)
	}
}

func TestAnalyzeNilCatalogUsesDiskSchemaFiles(t *testing.T) {
	// The catalog travels with the stolen disk, inside the checkpoint:
	// reconstruction names real tables and columns.
	e := workloadEngine(t)
	rep, err := Analyze(snapshot.Capture(e, snapshot.DiskTheft))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PastWrites == 0 {
		t.Error("reconstruction recovered nothing")
	}
	f, _ := rep.Finding("wal")
	found := false
	for _, s := range f.Samples {
		if containsAny(s, "accounts", "owner") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected real schema names in %q", f.Samples)
	}
}

func TestAnalyzeMissingSchemaFilesFallsBackToGenericNames(t *testing.T) {
	snap := corruptedSnapshot(t, func(d *snapshot.DiskState) {
		d.Catalog = nil // schema files destroyed/absent
	})
	rep, err := Analyze(snap)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := rep.Finding("wal")
	found := false
	for _, s := range f.Samples {
		if containsAny(s, "table_", "col0") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected generic names in %q", f.Samples)
	}
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if len(sub) > 0 && len(s) >= len(sub) {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
		}
	}
	return false
}

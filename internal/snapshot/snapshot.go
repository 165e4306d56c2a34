// Package snapshot implements the paper's Figure 1: the projection
// from "what kind of compromise happened" to "which DBMS artifacts the
// attacker now holds".
//
// A snapshot is a single static observation — the paper's whole point
// is that even this "weak" attacker obtains three classes of
// DBMS-specific data:
//
//   - Logs (persistent): WALs, binlog, query logs, buffer-pool dump —
//     §3 of the paper;
//   - Diagnostic tables (SQL-reachable): processlist and the
//     performance_schema statement tables — §4;
//   - In-memory data structures (volatile): the process heap, query
//     cache, buffer-pool LRU and access counters — §5.
//
// The four concrete attacks reveal different subsets, per Figure 1:
//
//	attack                  logs   diagnostics   memory
//	disk theft               ✓          –           –
//	SQL injection             ✓          ✓           –
//	VM snapshot leak          ✓          ✓           ✓
//	full-system compromise    ✓          ✓           ✓
package snapshot

import (
	"fmt"

	"snapdb/internal/bufpool"
	"snapdb/internal/dblog"
	"snapdb/internal/engine"
	"snapdb/internal/forensics"
	"snapdb/internal/infoschema"
	"snapdb/internal/perfschema"
	"snapdb/internal/querycache"
	"snapdb/internal/storage"
)

// AttackType is one of the paper's concrete snapshot attacks.
type AttackType int

// The concrete attacks of Figure 1.
const (
	DiskTheft AttackType = iota
	SQLInjection
	VMSnapshotLeak
	FullCompromise
)

func (a AttackType) String() string {
	switch a {
	case DiskTheft:
		return "disk theft"
	case SQLInjection:
		return "SQL injection"
	case VMSnapshotLeak:
		return "VM snapshot leak"
	case FullCompromise:
		return "full-system compromise"
	default:
		return fmt.Sprintf("AttackType(%d)", int(a))
	}
}

// Components flags which artifact classes an attack reveals.
type Components struct {
	Logs        bool // persistent: WAL, binlog, query logs, bufpool dump, data files
	Diagnostics bool // SQL-reachable: processlist, performance_schema
	Memory      bool // volatile: heap, query cache, buffer-pool state
}

// Reveals returns the Figure 1 row for this attack.
func (a AttackType) Reveals() Components {
	switch a {
	case DiskTheft:
		return Components{Logs: true}
	case SQLInjection:
		return Components{Logs: true, Diagnostics: true}
	case VMSnapshotLeak, FullCompromise:
		return Components{Logs: true, Diagnostics: true, Memory: true}
	default:
		return Components{}
	}
}

// AllAttacks lists the four attacks in Figure 1 order.
var AllAttacks = []AttackType{DiskTheft, SQLInjection, VMSnapshotLeak, FullCompromise}

// DiskState is the persistent state: the literal file images an
// attacker copies off the disk.
type DiskState struct {
	// Checkpoint is the checkpoint file as it lies on the disk (nil
	// before the first checkpoint); Tablespace and Catalog are what it
	// decodes to. Tablespace is the data file image, byte for byte
	// Tablespace().Serialize() (possibly at-rest encrypted). Catalog is
	// the schema metadata, which sits in the checkpoint in the clear
	// (MySQL's .frm files): table structure is never encrypted payload.
	Checkpoint []byte
	Tablespace []byte
	Catalog    forensics.Catalog

	RedoLog        []byte
	UndoLog        []byte
	Binlog         []byte
	GeneralLog     string
	SlowLog        string
	BufferPoolDump []byte // last periodic/shutdown dump, nil if never written

	// Truncated holds, per log file name, the parse report of a log whose
	// valid prefix ends short of the file: the torn tail a crash left,
	// which the bytes above still include. Nil when every log parses to
	// its end.
	Truncated map[string]storage.ParseReport
}

// DiagnosticState is what SQL access to the diagnostic tables returns.
type DiagnosticState struct {
	Processlist   []infoschema.Process
	Current       []perfschema.StatementEvent
	History       []perfschema.StatementEvent
	DigestSummary []perfschema.DigestRow
	HistorySize   int
}

// MemoryState is the volatile process state a whole-system snapshot
// captures.
type MemoryState struct {
	HeapImage  []byte
	QueryCache []querycache.Entry
	BufferLRU  []storage.PageID
	HotPages   []bufpool.PageAccess
	EngineLSN  uint64
}

// Snapshot is one static observation of a compromised DBMS.
type Snapshot struct {
	Attack      AttackType
	Disk        *DiskState       // nil unless Reveals().Logs
	Diagnostics *DiagnosticState // nil unless Reveals().Diagnostics
	Memory      *MemoryState     // nil unless Reveals().Memory
}

// Capture takes a snapshot of the engine under the given attack model.
func Capture(e *engine.Engine, attack AttackType) *Snapshot {
	s := &Snapshot{Attack: attack}
	rev := attack.Reveals()
	if rev.Logs {
		s.Disk = &DiskState{
			RedoLog:        e.WAL().Redo.Serialize(),
			UndoLog:        e.WAL().Undo.Serialize(),
			Binlog:         e.Binlog().Serialize(),
			GeneralLog:     dblog.Render(e.GeneralLog().Entries()),
			SlowLog:        dblog.Render(e.SlowLog().Entries()),
			BufferPoolDump: e.LastBufferPoolDump(),
		}
		// Only a change to engine.CheckpointMeta can make its own
		// encoding fail to marshal or to decode.
		ckpt, err := e.CheckpointImage()
		if err == nil {
			err = s.Disk.setCheckpoint(ckpt)
		}
		if err != nil {
			panic(fmt.Sprintf("snapshot: %v", err))
		}
	}
	if rev.Diagnostics {
		s.Diagnostics = &DiagnosticState{
			Processlist:   e.Processlist().Snapshot(),
			Current:       e.PerfSchema().Current(),
			History:       e.PerfSchema().History(),
			DigestSummary: e.PerfSchema().DigestSummary(),
			HistorySize:   e.PerfSchema().HistorySize(),
		}
	}
	if rev.Memory {
		s.Memory = &MemoryState{
			HeapImage:  e.Arena().Dump(),
			QueryCache: e.QueryCache().Entries(),
			BufferLRU:  e.BufferPool().LRUOrder(),
			HotPages:   e.BufferPool().HotPages(),
			EngineLSN:  e.WAL().CurrentLSN(),
		}
	}
	return s
}

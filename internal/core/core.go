// Package core is snapdb's top-level contribution: given a single
// static snapshot of a DBMS (the paper's "snapshot attacker"), it
// inventories everything the snapshot reveals about *past queries* —
// the information the encrypted-database literature assumes a snapshot
// attacker cannot have — and grades its severity.
//
// The analyzer is the programmatic form of the paper's argument:
// "there is no such thing as a snapshot attacker who cannot observe
// past queries", demonstrated channel by channel:
//
//	§3  logs on disk       — WAL write reconstruction, binlog text +
//	                         timestamps, LSN↔time correlation, query
//	                         logs, buffer-pool dump
//	§4  diagnostic tables  — processlist, statement history, digest
//	                         histogram
//	§5  in-memory state    — heap query residue, query cache, search
//	                         tokens, buffer-pool access counters
package core

import (
	"fmt"
	"io"
	"regexp"
	"sort"

	"snapdb/internal/bufpool"
	"snapdb/internal/forensics"
	"snapdb/internal/snapshot"
)

// Severity grades a finding.
type Severity int

// Severity levels.
const (
	// SeverityInfo: structural information (sizes, page ids).
	SeverityInfo Severity = iota
	// SeverityQueryLeak: past query text, timing, or distribution.
	SeverityQueryLeak
	// SeverityTokenLeak: cryptographic material (search tokens) that
	// directly breaks a scheme's security definition.
	SeverityTokenLeak
)

func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityQueryLeak:
		return "query-leak"
	case SeverityTokenLeak:
		return "token-leak"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Finding is one leakage channel's yield.
type Finding struct {
	Channel     string // e.g. "wal", "binlog", "digest-table", "heap"
	PaperRef    string // section of the paper demonstrating the channel
	Severity    Severity
	Description string
	Count       int      // number of recovered artifacts
	Samples     []string // up to maxSamples example artifacts
}

const maxSamples = 5

// Report is the full leakage inventory of one snapshot.
type Report struct {
	Attack   snapshot.AttackType
	Findings []Finding
	// Writes is the write history reconstructed from the WAL, oldest
	// first, dated wherever the binlog's LSN↔timestamp fit allows.
	Writes []forensics.ReconstructedWrite

	// Aggregates the experiments read off directly.
	PastWrites     int // write statements reconstructed from the WAL
	PastReads      int // read statements recovered from any channel
	TokensFound    int // search tokens recovered
	DigestRows     int // query-type histogram rows
	TimedWrites    int // writes with (estimated or exact) timestamps
	HeapQueries    int // distinct query strings scraped from the heap
	CachedResults  int // query cache entries (query + full result set)
	HotPagesListed int // pages with access counters exposed
}

// Has reports whether the report contains a finding on channel.
func (r *Report) Has(channel string) bool {
	_, ok := r.Finding(channel)
	return ok
}

// Finding returns the finding for a channel.
func (r *Report) Finding(channel string) (Finding, bool) {
	for _, f := range r.Findings {
		if f.Channel == channel {
			return f, true
		}
	}
	return Finding{}, false
}

// Fprint writes the report as cmd/snapdb and cmd/forensic show it.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== leakage report: %s ===\n", r.Attack)
	fmt.Fprintf(w, "past writes reconstructed: %d (timed: %d)\n", r.PastWrites, r.TimedWrites)
	fmt.Fprintf(w, "past reads recovered:      %d\n", r.PastReads)
	fmt.Fprintf(w, "query-type histogram rows: %d\n", r.DigestRows)
	fmt.Fprintf(w, "search tokens recovered:   %d\n", r.TokensFound)
	fmt.Fprintf(w, "cached results exposed:    %d\n\n", r.CachedResults)
	for _, f := range r.Findings {
		fmt.Fprintf(w, "[%s] %s (%s, %d artifacts)\n", f.Severity, f.Channel, f.PaperRef, f.Count)
		fmt.Fprintf(w, "    %s\n", f.Description)
		for _, s := range f.Samples {
			fmt.Fprintf(w, "    | %s\n", s)
		}
	}
}

// tokenPattern matches the hex search tokens embedded in rewritten
// search statements (cryptdbx.Search's UDF form).
var tokenPattern = regexp.MustCompile(`search_match\([A-Za-z0-9_]+, '([0-9a-f]{64})'\)`)

// Analyze inventories a snapshot. WAL reconstruction names tables and
// columns from the catalog that travels with the stolen disk
// (snap.Disk.Catalog), and falls back to generic names without one.
func Analyze(snap *snapshot.Snapshot) (*Report, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	r := &Report{Attack: snap.Attack}
	if snap.Disk != nil {
		if err := analyzeDisk(r, snap.Disk); err != nil {
			return nil, err
		}
	}
	if snap.Diagnostics != nil {
		analyzeDiagnostics(r, snap.Diagnostics)
	}
	if snap.Memory != nil {
		analyzeMemory(r, snap.Memory)
	}
	sort.SliceStable(r.Findings, func(i, j int) bool {
		return r.Findings[i].Severity > r.Findings[j].Severity
	})
	return r, nil
}

// sampled keeps the most recent artifacts (channels list oldest first).
func sampled(all []string) []string {
	if len(all) > maxSamples {
		all = all[len(all)-maxSamples:]
	}
	out := make([]string, len(all))
	copy(out, all)
	return out
}

func analyzeDisk(r *Report, d *snapshot.DiskState) error {
	// §3: reconstruct writes from the WAL.
	writes, err := forensics.ReconstructWrites(d.RedoLog, d.UndoLog, d.Catalog)
	if err != nil {
		return fmt.Errorf("core: wal reconstruction: %w", err)
	}
	if len(writes) > 0 {
		var samples []string
		for _, w := range writes {
			samples = append(samples, w.SQL)
		}
		r.Writes, r.PastWrites = writes, len(writes)
		r.Findings = append(r.Findings, Finding{
			Channel:     "wal",
			PaperRef:    "§3 inferring writes",
			Severity:    SeverityQueryLeak,
			Description: "insert/update/delete statements reconstructed from circular undo/redo logs",
			Count:       len(writes),
			Samples:     sampled(samples),
		})
	}

	// §3: binlog holds full statement text with timestamps.
	events, err := forensics.CorrelatableEvents(d.Binlog)
	if err != nil {
		return fmt.Errorf("core: binlog: %w", err)
	}
	if len(events) > 0 {
		var samples []string
		for _, ev := range events {
			samples = append(samples, fmt.Sprintf("[t=%d lsn=%d] %s", ev.Timestamp, ev.LSN, ev.Statement))
		}
		r.Findings = append(r.Findings, Finding{
			Channel:     "binlog",
			PaperRef:    "§3 inferring writes",
			Severity:    SeverityQueryLeak,
			Description: "full text and UNIX timestamp of every write transaction (never purged by default)",
			Count:       len(events),
			Samples:     sampled(samples),
		})
		// LSN↔timestamp correlation dates WAL records beyond the binlog.
		if corr, err := forensics.CorrelateBinlog(events); err == nil {
			forensics.DateWrites(writes, corr)
			r.TimedWrites = len(writes)
			r.Findings = append(r.Findings, Finding{
				Channel:     "lsn-correlation",
				PaperRef:    "§3 inferring writes",
				Severity:    SeverityQueryLeak,
				Description: "LSN↔timestamp regression dates WAL records past the binlog horizon",
				Count:       len(writes),
			})
		}
	}

	// §3: query logs.
	for _, log := range []struct {
		name, text, desc string
	}{
		{"general-log", d.GeneralLog, "every statement including SELECT (general query log)"},
		{"slow-log", d.SlowLog, "statements exceeding the slow threshold (slow query log)"},
	} {
		entries, err := forensics.ParseQueryLog(log.text)
		if err != nil {
			return fmt.Errorf("core: %s: %w", log.name, err)
		}
		if len(entries) == 0 {
			continue
		}
		var samples []string
		for _, e := range entries {
			samples = append(samples, e.Statement)
		}
		r.PastReads += len(entries)
		r.Findings = append(r.Findings, Finding{
			Channel:     log.name,
			PaperRef:    "§3 inferring reads",
			Severity:    SeverityQueryLeak,
			Description: log.desc,
			Count:       len(entries),
			Samples:     sampled(samples),
		})
	}

	// §3: buffer-pool dump reveals recent access paths. Joined with the
	// leaf key ranges recovered from the stolen tablespace, the dump
	// names the key spans the most recent SELECTs touched.
	if len(d.BufferPoolDump) > 0 {
		ids, err := bufpool.ParseDump(d.BufferPoolDump)
		if err != nil {
			return fmt.Errorf("core: bufpool dump: %w", err)
		}
		if len(ids) > 0 {
			finding := Finding{
				Channel:     "bufpool-dump",
				PaperRef:    "§3 inferring reads",
				Severity:    SeverityInfo,
				Description: "LRU-ordered page ids: the B+tree paths recent SELECTs walked",
				Count:       len(ids),
			}
			if leaves, err := forensics.LeafRanges(d.Tablespace); err == nil {
				recent := forensics.RecentAccessRanges(ids, leaves, maxSamples)
				if len(recent) > 0 {
					finding.Severity = SeverityQueryLeak
					finding.Description = "recent SELECTs' key spans, from LRU-ordered page ids joined with leaf key ranges"
					for _, lr := range recent {
						finding.Samples = append(finding.Samples,
							fmt.Sprintf("leaf %d: keys [%s, %s]", lr.Page, lr.Min, lr.Max))
					}
				}
			}
			r.Findings = append(r.Findings, finding)
		}
	}
	return nil
}

func analyzeDiagnostics(r *Report, d *snapshot.DiagnosticState) {
	var procSamples []string
	for _, p := range d.Processlist {
		if p.Statement != "" {
			procSamples = append(procSamples, p.Statement)
		}
	}
	if len(procSamples) > 0 {
		r.PastReads += len(procSamples)
		r.Findings = append(r.Findings, Finding{
			Channel:     "processlist",
			PaperRef:    "§4 diagnostic tables",
			Severity:    SeverityQueryLeak,
			Description: "current/last statement of every connection (information_schema.processlist)",
			Count:       len(procSamples),
			Samples:     sampled(procSamples),
		})
	}
	if len(d.History) > 0 {
		var samples []string
		for _, ev := range d.History {
			samples = append(samples, ev.Statement)
		}
		r.PastReads += len(d.History)
		r.Findings = append(r.Findings, Finding{
			Channel:     "statement-history",
			PaperRef:    "§4 diagnostic tables",
			Severity:    SeverityQueryLeak,
			Description: fmt.Sprintf("last %d statements per thread with rows examined/returned (events_statements_history)", d.HistorySize),
			Count:       len(d.History),
			Samples:     sampled(samples),
		})
	}
	if len(d.DigestSummary) > 0 {
		var samples []string
		for _, row := range d.DigestSummary {
			samples = append(samples, fmt.Sprintf("%dx %s", row.Count, row.DigestText))
		}
		r.DigestRows = len(d.DigestSummary)
		r.Findings = append(r.Findings, Finding{
			Channel:     "digest-table",
			PaperRef:    "§4 diagnostic tables",
			Severity:    SeverityQueryLeak,
			Description: "per-query-type counts since restart (events_statements_summary_by_digest) — the SPLASHE-breaking histogram",
			Count:       len(d.DigestSummary),
			Samples:     sampled(samples),
		})
	}
}

func analyzeMemory(r *Report, m *snapshot.MemoryState) {
	queries := forensics.ExtractQueries(m.HeapImage)
	if len(queries) > 0 {
		r.HeapQueries = len(queries)
		r.PastReads += len(queries)
		r.Findings = append(r.Findings, Finding{
			Channel:     "heap",
			PaperRef:    "§5 in-memory data structures",
			Severity:    SeverityQueryLeak,
			Description: "query strings scraped from process heap (no secure deletion)",
			Count:       len(queries),
			Samples:     sampled(queries),
		})
	}
	// Search tokens: in statement strings anywhere in the heap.
	var tokens []string
	for _, s := range forensics.ExtractStrings(m.HeapImage, 16) {
		for _, match := range tokenPattern.FindAllStringSubmatch(s, -1) {
			tokens = append(tokens, match[1])
		}
	}
	if len(tokens) > 0 {
		r.TokensFound = len(tokens)
		r.Findings = append(r.Findings, Finding{
			Channel:     "search-tokens",
			PaperRef:    "§6 token-based systems",
			Severity:    SeverityTokenLeak,
			Description: "SSE search tokens recovered from statement text; replaying them breaks semantic security",
			Count:       len(tokens),
			Samples:     sampled(tokens),
		})
	}
	if len(m.QueryCache) > 0 {
		var samples []string
		for _, e := range m.QueryCache {
			samples = append(samples, e.Query)
		}
		r.CachedResults = len(m.QueryCache)
		r.PastReads += len(m.QueryCache)
		r.Findings = append(r.Findings, Finding{
			Channel:     "query-cache",
			PaperRef:    "§5 in-memory data structures",
			Severity:    SeverityQueryLeak,
			Description: "SELECT texts with full result sets from the internal query cache",
			Count:       len(m.QueryCache),
			Samples:     sampled(samples),
		})
	}
	if len(m.HotPages) > 0 {
		r.HotPagesListed = len(m.HotPages)
		r.Findings = append(r.Findings, Finding{
			Channel:     "access-counters",
			PaperRef:    "§5 in-memory data structures",
			Severity:    SeverityInfo,
			Description: "per-page access counters (adaptive-hash-index analog) expose hot index regions",
			Count:       len(m.HotPages),
		})
	}
}

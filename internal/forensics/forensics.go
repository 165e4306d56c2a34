// Package forensics implements the analysis half of the paper: given
// the raw artifacts in a snapshot, reconstruct past queries.
//
//   - Write reconstruction (§3): parse the redo/undo WAL images and
//     rebuild the INSERT/UPDATE/DELETE statements they record, in the
//     style of the InnoDB forensics literature the paper cites
//     (Frühwirt et al.).
//   - Timing (§3): read statement text and timestamps out of the
//     binlog, fit the LSN↔timestamp correlation, and date WAL records
//     that have already aged out of the binlog horizon.
//   - Read-query recovery (§3, §5): extract query strings from the
//     query logs, the buffer-pool dump (access paths), and the process
//     heap image (strings-style scanning).
package forensics

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"snapdb/internal/binlog"
	"snapdb/internal/dblog"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
	"snapdb/internal/wal"
)

// TableSchema is the catalog information reconstruction needs: the
// forensic analyst reads it from the stolen data files (our snapshots
// carry the tablespace, and table schemas are public structure, not
// encrypted payload).
type TableSchema struct {
	Name    string
	Columns []string
}

// Catalog maps WAL table ids to schemas.
type Catalog map[uint8]TableSchema

// ReconstructedWrite is one write statement rebuilt from the WAL.
type ReconstructedWrite struct {
	LSN       uint64
	Txn       uint64 // owning transaction (0 = pre-transaction records)
	Op        wal.Op
	Table     string
	SQL       string
	Timestamp int64 // 0 if undated; filled by Correlation.Date
}

// ReconstructWrites parses a redo-log image and rebuilds one SQL
// statement per record. Undo images refine UPDATE reconstruction with
// the old value (returned in the SQL comment), exactly the trick the
// InnoDB forensics papers use.
func ReconstructWrites(redoImg, undoImg []byte, cat Catalog) ([]ReconstructedWrite, error) {
	redo, err := wal.ParseLog(redoImg)
	if err != nil {
		return nil, fmt.Errorf("forensics: redo: %w", err)
	}
	undoByLSN := make(map[uint64]wal.Record)
	if len(undoImg) > 0 {
		undo, err := wal.ParseLog(undoImg)
		if err != nil {
			return nil, fmt.Errorf("forensics: undo: %w", err)
		}
		for _, r := range undo {
			undoByLSN[r.LSN] = r
		}
	}
	out := make([]ReconstructedWrite, 0, len(redo))
	for _, r := range redo {
		if r.Op.IsMarker() {
			// Commit/abort markers carry no row data. (They do tell an
			// analyst which transactions finished — the Txn field on the
			// reconstructed writes carries that.)
			continue
		}
		schema, ok := cat[r.Table]
		if !ok {
			schema = TableSchema{Name: fmt.Sprintf("table_%d", r.Table)}
		}
		w := ReconstructedWrite{LSN: r.LSN, Txn: r.Txn, Op: r.Op, Table: schema.Name}
		switch r.Op {
		case wal.OpInsert:
			w.SQL = insertSQL(schema, r.Image)
		case wal.OpUpdate:
			w.SQL = updateSQL(schema, r, undoByLSN[r.LSN])
		case wal.OpDelete:
			w.SQL = deleteSQL(schema, r.Image, undoByLSN[r.LSN])
		}
		out = append(out, w)
	}
	return out, nil
}

func colName(s TableSchema, i int) string {
	if i < len(s.Columns) {
		return s.Columns[i]
	}
	return fmt.Sprintf("col%d", i)
}

func insertSQL(s TableSchema, row storage.Record) string {
	cols := make([]string, len(row))
	vals := make([]string, len(row))
	for i, v := range row {
		cols[i] = colName(s, i)
		vals[i] = v.SQL()
	}
	return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
		s.Name, strings.Join(cols, ", "), strings.Join(vals, ", "))
}

func updateSQL(s TableSchema, redo, undo wal.Record) string {
	if len(redo.Image) < 2 {
		return fmt.Sprintf("UPDATE %s /* corrupt record */", s.Name)
	}
	key, newVal := redo.Image[0], redo.Image[1]
	sql := fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s = %s",
		s.Name, colName(s, int(redo.Column)), newVal.SQL(), colName(s, 0), key.SQL())
	if len(undo.Image) >= 2 {
		sql += fmt.Sprintf(" /* old value: %s */", undo.Image[1].SQL())
	}
	return sql
}

func deleteSQL(s TableSchema, img storage.Record, undo wal.Record) string {
	if len(img) == 0 {
		return fmt.Sprintf("DELETE FROM %s /* corrupt record */", s.Name)
	}
	sql := fmt.Sprintf("DELETE FROM %s WHERE %s = %s", s.Name, colName(s, 0), img[0].SQL())
	// The undo log must hold the full deleted row (rollback needs it),
	// so the attacker recovers the *content* of deleted data too.
	if len(undo.Image) > 1 {
		vals := make([]string, len(undo.Image))
		for i, v := range undo.Image {
			vals[i] = v.SQL()
		}
		sql += fmt.Sprintf(" /* deleted row: (%s) */", strings.Join(vals, ", "))
	}
	return sql
}

// Correlation is the fitted linear LSN↔timestamp relationship the
// paper describes: the binlog stores (timestamp, LSN) pairs, and the
// rate of change of LSNs over time lets the attacker date undo/redo
// records that are no longer covered by the binlog.
type Correlation struct {
	// ts ≈ slope·lsn + intercept
	Slope     float64
	Intercept float64
	n         int
}

// CorrelateBinlog fits the correlation from binlog events. It needs at
// least two events with distinct LSNs.
func CorrelateBinlog(events []binlog.Event) (*Correlation, error) {
	var xs, ys []float64
	for _, ev := range events {
		xs = append(xs, float64(ev.LSN))
		ys = append(ys, float64(ev.Timestamp))
	}
	if len(xs) < 2 {
		return nil, fmt.Errorf("forensics: need at least 2 binlog events, got %d", len(xs))
	}
	var sumX, sumY, sumXX, sumXY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
		sumXX += xs[i] * xs[i]
		sumXY += xs[i] * ys[i]
	}
	n := float64(len(xs))
	den := n*sumXX - sumX*sumX
	if den == 0 {
		return nil, fmt.Errorf("forensics: all binlog events share one LSN; correlation undefined")
	}
	slope := (n*sumXY - sumX*sumY) / den
	return &Correlation{
		Slope:     slope,
		Intercept: (sumY - slope*sumX) / n,
		n:         len(xs),
	}, nil
}

// Date estimates the UNIX timestamp of an LSN.
func (c *Correlation) Date(lsn uint64) int64 {
	return int64(c.Slope*float64(lsn) + c.Intercept)
}

// Samples returns how many binlog events the fit used.
func (c *Correlation) Samples() int { return c.n }

// DateWrites fills in Timestamp on reconstructed writes using the
// correlation.
func DateWrites(writes []ReconstructedWrite, c *Correlation) {
	for i := range writes {
		writes[i].Timestamp = c.Date(writes[i].LSN)
	}
}

// CorrelatableEvents parses a binlog disk image into events (the
// mysqlbinlog step). Like ReconstructWrites it reads a crashed server's
// valid prefix, and errors only when a non-empty image yields nothing.
func CorrelatableEvents(img []byte) ([]binlog.Event, error) {
	evs, rep := binlog.ParseWithReport(img)
	if len(evs) == 0 && rep.Truncated() {
		return nil, fmt.Errorf("forensics: unparseable binlog image at offset %d: %s", rep.TruncatedAt, rep.Reason)
	}
	return evs, nil
}

// ParseQueryLog parses a general/slow query log image.
func ParseQueryLog(text string) ([]dblog.Entry, error) {
	return dblog.Parse(text)
}

// CountOccurrences counts non-overlapping occurrences of needle in a
// memory image — the measurement of the paper's §5 experiment.
func CountOccurrences(img []byte, needle string) int {
	if len(needle) == 0 {
		return 0
	}
	count, pos := 0, 0
	for {
		i := bytes.Index(img[pos:], []byte(needle))
		if i < 0 {
			return count
		}
		count++
		pos += i + len(needle)
	}
}

// ExtractStrings pulls printable ASCII runs of at least minLen bytes
// out of a memory image, like strings(1). Heap scanning for query text
// starts here.
func ExtractStrings(img []byte, minLen int) []string {
	if minLen <= 0 {
		minLen = 4
	}
	var out []string
	start := -1
	for i, b := range img {
		printable := b >= 0x20 && b < 0x7F
		if printable && start < 0 {
			start = i
		}
		if !printable && start >= 0 {
			if i-start >= minLen {
				out = append(out, string(img[start:i]))
			}
			start = -1
		}
	}
	if start >= 0 && len(img)-start >= minLen {
		out = append(out, string(img[start:]))
	}
	return out
}

// ExtractQueries returns the SQL statements found in a memory image:
// printable strings that parse as SQL. Duplicates are preserved (the
// count per statement is itself leakage).
func ExtractQueries(img []byte) []string {
	var out []string
	for _, s := range ExtractStrings(img, 8) {
		// A freed buffer may hold a query followed by residue; try
		// progressively shorter prefixes at statement keywords.
		if q, ok := parseablePrefix(s); ok {
			out = append(out, q)
		}
	}
	return out
}

func parseablePrefix(s string) (string, bool) {
	upper := strings.ToUpper(s)
	starts := []string{"SELECT ", "INSERT ", "UPDATE ", "DELETE ", "CREATE "}
	idx := -1
	for _, st := range starts {
		if i := strings.Index(upper, st); i >= 0 && (idx < 0 || i < idx) {
			idx = i
		}
	}
	if idx < 0 {
		return "", false
	}
	s = s[idx:]
	if _, err := sqlparse.Parse(s); err == nil {
		return s, true
	}
	// Trim trailing residue word by word.
	for i := len(s); i > 0; {
		i = strings.LastIndexByte(s[:i], ' ')
		if i <= 0 {
			return "", false
		}
		if _, err := sqlparse.Parse(s[:i]); err == nil {
			return s[:i], true
		}
	}
	return "", false
}

// QueryHistogram aggregates extracted queries by digest, giving the
// attacker's view of the query distribution (the input to frequency
// analysis).
func QueryHistogram(queries []string) map[string]int {
	out := make(map[string]int)
	for _, q := range queries {
		out[sqlparse.Digest(q)]++
	}
	return out
}

// PageVisit summarises a buffer-pool dump entry against known index
// structure.
type PageVisit struct {
	Page storage.PageID
	Rank int // 0 = most recently used
}

// AnalyzeBufferPoolDump interprets a dump file's LRU list: the pages a
// SELECT touched most recently appear first, so consecutive prefixes
// are the B+ tree paths of the latest queries.
func AnalyzeBufferPoolDump(ids []storage.PageID) []PageVisit {
	out := make([]PageVisit, len(ids))
	for i, id := range ids {
		out[i] = PageVisit{Page: id, Rank: i}
	}
	return out
}

// RetentionWindow computes, from a parsed WAL, how much wall-clock
// history the circular log retains: the timespan between its oldest
// and newest records as dated by the correlation. This is the paper's
// "16 days of inserts" measurement (E2).
func RetentionWindow(records []wal.Record, c *Correlation) (oldest, newest int64, err error) {
	if len(records) == 0 {
		return 0, 0, fmt.Errorf("forensics: empty log")
	}
	lsns := make([]uint64, len(records))
	for i, r := range records {
		lsns[i] = r.LSN
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return c.Date(lsns[0]), c.Date(lsns[len(lsns)-1]), nil
}

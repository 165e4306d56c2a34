package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"snapdb/internal/storage"
)

// StateDigest returns a SHA-256 over the engine's logical state: every
// table's schema, secondary-index definitions, and rows in primary-key
// order. Two engines with the same digest hold byte-identical logical
// databases. The digest deliberately excludes LSNs, buffer-pool state,
// and log contents: a recovered engine legitimately differs in those
// (compensation records, warmed pages) while holding exactly the same
// data — which is the property the crash-torture harness asserts.
func (e *Engine) StateDigest() (string, error) {
	e.locks.lockAll()
	defer e.locks.unlockAll()
	h := sha256.New()
	writeStr := func(s string) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	e.mu.Lock()
	tables := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		tables = append(tables, t)
	}
	e.mu.Unlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	for _, t := range tables {
		writeStr("table")
		writeStr(t.Name)
		writeStr(fmt.Sprintf("id=%d", t.ID))
		for _, c := range t.Columns {
			writeStr(fmt.Sprintf("col %s %d %v", c.Name, c.Type, c.PrimaryKey))
		}
		for _, ix := range t.Indexes {
			writeStr(fmt.Sprintf("index %s on %s", ix.Name, ix.Column))
		}
		err := t.Tree.Scan(func(r storage.Record) bool {
			enc := storage.EncodeRecord(r)
			var n [4]byte
			binary.BigEndian.PutUint32(n[:], uint32(len(enc)))
			h.Write(n[:])
			h.Write(enc)
			return true
		})
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

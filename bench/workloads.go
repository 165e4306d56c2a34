package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// The four workloads. Names are fixed: later issues cite them. Each
// has two logical clients (nproc on the reference sandbox is 2, and the
// generator never runs more connections than cores). A client is a
// seeded statement generator plus the model it needs to know the right
// answer to every statement it issues: generators never look at
// replies, so a stream is a pure function of (workload, seed, client),
// and the expected answer is fixed when the statement is generated.
//
// Row values are 48-byte texts that name the row they belong to, so a
// reply can be checked even when the key is another client's:
//
//	loaded:  <8 hex>-row-<tt>-<iiiiii>-<filler>
//	updated: upd-<c>-<ssssssss>-<tt>-<iiiiii>-<filler>
//
// The "row-" and "upd-" markers double as the plaintext needles the
// at-rest check greps the datadir for.

const valueLen = 48

type opKind uint8

const (
	opPointRead opKind = iota
	opRangeRead
	opTopN
	opCount
	opUpdate
	opInsert
	opDelete
	opBegin
	opCommit
	opRollback
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"select_point", "select_range", "topn", "count_scan",
	"update_point", "insert", "delete", "begin", "commit", "rollback",
}

func (k opKind) isRead() bool  { return k <= opCount }
func (k opKind) isWrite() bool { return k == opUpdate || k == opInsert || k == opDelete }

// op is one generated statement with its expected answer.
type op struct {
	sql   string
	kind  opKind
	table int
	lo    int    // first id the statement addresses
	n     int    // rows a read must return
	want  string // point read of an owned key: exact value ("" = any well-formed value)
	count int64  // COUNT(*) answer
	inTxn bool   // DML inside an explicit transaction (not an autocommit write)
}

// workload is one traffic mix.
type workload struct {
	name    string
	why     string
	encrypt bool
	prefix  string // table name prefix
	tables  int
	rows    int // loaded rows per table
	batch   int // statements per request: 1 = Execute, >1 = one pipelined ExecuteBatch

	// rate is the calibrated statement rate (statements per second of
	// --seconds) on the reference sandbox. The timed window issues
	// rate × seconds statements: a fixed amount of work, so bytes,
	// memory and recovery time are comparable between two commits.
	// For txn_mixed it counts the writer's statements only; the reader
	// runs until the writer is done.
	rate int

	// t1Rate is the same for the traced single-stream replay, which is
	// slower per statement (spans, one statement in flight).
	t1Rate int

	// follower, when positive, is the client that consumes no request
	// quota and runs until the others are done (client 0 always drives).
	// unit is the number of requests that must not be split between two
	// loops: txn_mixed's writer always stops between transactions.
	follower int
	unit     int64

	newClients func(w *workload, seed int64) []actor

	scaledDown bool // a shrunken copy (see scaled)
}

// actor generates one connection's statements and checks its replies.
type actor interface {
	next(o *op)
	check(o *op, r *reply) bool
	// overrides returns this client's final expectations for rows it
	// owns: key → value, deletedValue for a row that must be gone.
	overrides() map[rowKey]string
}

type rowKey struct{ table, id int }

const deletedValue = "\x00deleted"

func (w *workload) tableName(t int) string { return w.prefix + strconv.Itoa(t) }

var workloads = []*workload{
	{
		name: "oltp_point",
		why: "95% point SELECT / 5% point UPDATE, Zipf(1.1) keys, 4x1250 rows fit the pool: wire, " +
			"parser, plan cache, B+tree point path and reply framing do the work; scans, MVCC chains, CryptFS bypassed",
		prefix: "o", tables: 4, rows: 1250, batch: 1, rate: 24000, t1Rate: 6000,
		newClients: newOLTPClients,
	},
	{
		name: "scan_analytic",
		why: "read-only 500-row ranges, top-10 of 2000 rows and 90% COUNT scans, random bounds, 2x40000 rows " +
			"(12x the pool): exec operators, btree.Range, bufpool misses, decode, big replies; parser and logs idle",
		prefix: "s", tables: 2, rows: 40000, batch: 1, rate: 430, t1Rate: 100,
		newClients: newScanClients,
	},
	{
		name: "txn_mixed",
		why: "conn 0 runs BEGIN/4 UPDATE/COMMIT (every 8th ROLLBACK) while conn 1 reads the same 2x10000 rows: " +
			"live version chains make reads pay MVCC filtering; locks, undo, commit markers, binlog at commit, purge",
		prefix: "m", tables: 2, rows: 10000, batch: 1, rate: 6600, t1Rate: 2500,
		follower: 1, unit: txnGroup + 2, // BEGIN, the group's UPDATEs, COMMIT
		newClients: newTxnClients,
	},
	{
		name: "write_crypt",
		why: "snapdbd -encrypt, write-only pipelined 16-statement batches (50% UPDATE, 30% INSERT, 20% DELETE) on " +
			"4x5000 rows, then SIGKILL and recovery: wal, binlog, group commit, CryptFS, PageCipher; no read path",
		encrypt: true,
		prefix:  "w", tables: 4, rows: 5000, batch: 16, rate: 15000, t1Rate: 3000,
		newClients: newWriteClients,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled returns a copy of w shrunk by div (the smoke test runs every
// workload at ~1/100 scale): fewer loaded rows, same mix.
func (w *workload) scaled(div int) *workload {
	c := *w
	c.scaledDown = true
	c.rows = w.rows / div
	if c.rows < 64 {
		c.rows = 64
	}
	return &c
}

// --- values ---------------------------------------------------------

// mix is a fixed 64-bit finaliser (splitmix64): the deterministic
// "random" content of loaded rows.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const hexDigits = "0123456789abcdef"

func appendPadInt(b []byte, n, width int) []byte {
	var tmp [20]byte
	s := strconv.AppendInt(tmp[:0], int64(n), 10)
	for i := len(s); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, s...)
}

// loadValue is the text row id of table t is loaded with. It leads with
// eight pseudo-random hex digits so ORDER BY v is not id order.
func loadValue(t, id int) string {
	h := mix(uint64(t)<<32 | uint64(id))
	b := make([]byte, 0, valueLen)
	for i := 0; i < 8; i++ {
		b = append(b, hexDigits[(h>>(uint(i)*4))&15])
	}
	b = append(b, "-row-"...)
	b = appendPadInt(b, t, 2)
	b = append(b, '-')
	b = appendPadInt(b, id, 6)
	b = append(b, '-')
	for i := 8; len(b) < valueLen; i++ {
		b = append(b, hexDigits[(h>>(uint(i%16)*4))&15])
	}
	return string(b)
}

// updValue is the text client c's seq-th write stamps on a row.
func updValue(c, seq, t, id int) string {
	b := make([]byte, 0, valueLen)
	b = append(b, "upd-"...)
	b = appendPadInt(b, c, 1)
	b = append(b, '-')
	b = appendPadInt(b, seq, 8)
	b = append(b, '-')
	b = appendPadInt(b, t, 2)
	b = append(b, '-')
	b = appendPadInt(b, id, 6)
	b = append(b, '-')
	for len(b) < valueLen {
		b = append(b, 'x')
	}
	return string(b)
}

// valueNames reports whether v is a well-formed value of row (t, id):
// either its loaded text or some client's update of it.
func valueNames(v string, t, id int) bool {
	if len(v) != valueLen {
		return false
	}
	if v[:4] == "upd-" {
		return atoiFixed(v[15:17]) == t && atoiFixed(v[18:24]) == id
	}
	return v == loadValue(t, id)
}

// updSeq extracts the sequence number of an update value, or -1 for a
// loaded value.
func updSeq(v string) int {
	if len(v) != valueLen || v[:4] != "upd-" {
		return -1
	}
	return atoiFixed(v[6:14])
}

func atoiFixed(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// loadK is the loaded k column: ten equally frequent values.
func loadK(id int) int { return id % 10 }

// --- load -----------------------------------------------------------

const (
	loadRowsPerInsert = 50
	loadBatch         = 32
)

// loadStatements returns the DDL and the multi-row INSERTs that load w,
// in order. The load is a function of the workload alone (not of the
// seed), so every scan answer can be computed without reading it back.
func (w *workload) loadStatements() (ddl, inserts []string) {
	for t := 0; t < w.tables; t++ {
		ddl = append(ddl, "CREATE TABLE "+w.tableName(t)+" (id INT PRIMARY KEY, k INT, v TEXT)")
	}
	var b []byte
	for t := 0; t < w.tables; t++ {
		for lo := 0; lo < w.rows; lo += loadRowsPerInsert {
			b = append(b[:0], "INSERT INTO "...)
			b = append(b, w.tableName(t)...)
			b = append(b, " (id, k, v) VALUES "...)
			for id := lo; id < lo+loadRowsPerInsert && id < w.rows; id++ {
				if id > lo {
					b = append(b, ", "...)
				}
				b = append(b, '(')
				b = strconv.AppendInt(b, int64(id), 10)
				b = append(b, ", "...)
				b = strconv.AppendInt(b, int64(loadK(id)), 10)
				b = append(b, ", '"...)
				b = append(b, loadValue(t, id)...)
				b = append(b, "')"...)
			}
			inserts = append(inserts, string(b))
		}
	}
	return ddl, inserts
}

// --- statement text -------------------------------------------------

// sqlBuf builds statement text with appends into one reused buffer; the
// generator runs on the measured path and shares two cores with the
// daemon, so it must stay cheap.
type sqlBuf struct{ b []byte }

func (s *sqlBuf) pointRead(table string, id int) string {
	b := append(s.b[:0], "SELECT v FROM "...)
	b = append(b, table...)
	b = append(b, " WHERE id = "...)
	b = strconv.AppendInt(b, int64(id), 10)
	s.b = b
	return string(b)
}

func (s *sqlBuf) rangeRead(table string, lo, hi int) string {
	b := append(s.b[:0], "SELECT id, v FROM "...)
	b = append(b, table...)
	b = append(b, " WHERE id >= "...)
	b = strconv.AppendInt(b, int64(lo), 10)
	b = append(b, " AND id <= "...)
	b = strconv.AppendInt(b, int64(hi), 10)
	s.b = b
	return string(b)
}

func (s *sqlBuf) update(table string, id int, v string) string {
	b := append(s.b[:0], "UPDATE "...)
	b = append(b, table...)
	b = append(b, " SET v = '"...)
	b = append(b, v...)
	b = append(b, "' WHERE id = "...)
	b = strconv.AppendInt(b, int64(id), 10)
	s.b = b
	return string(b)
}

func (s *sqlBuf) insert(table string, id int, v string) string {
	b := append(s.b[:0], "INSERT INTO "...)
	b = append(b, table...)
	b = append(b, " (id, k, v) VALUES ("...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, ", "...)
	b = strconv.AppendInt(b, int64(loadK(id)), 10)
	b = append(b, ", '"...)
	b = append(b, v...)
	b = append(b, "')"...)
	s.b = b
	return string(b)
}

func (s *sqlBuf) delete(table string, id int) string {
	b := append(s.b[:0], "DELETE FROM "...)
	b = append(b, table...)
	b = append(b, " WHERE id = "...)
	b = strconv.AppendInt(b, int64(id), 10)
	s.b = b
	return string(b)
}

// --- shared client pieces --------------------------------------------

// base is what every client carries: its identity, its random stream,
// and the rows it has changed.
type base struct {
	w     *workload
	c     int // client (connection) index
	rng   *rand.Rand
	names []string
	seq   int
	sql   sqlBuf
	model map[rowKey]string
}

func newBase(w *workload, seed int64, c int) base {
	names := make([]string, w.tables)
	for t := range names {
		names[t] = w.tableName(t)
	}
	return base{
		w: w, c: c, names: names,
		rng:   rand.New(rand.NewSource(seed*1000003 + int64(c)*7919 + 1)),
		model: make(map[rowKey]string),
	}
}

func (b *base) overrides() map[rowKey]string { return b.model }

// current is the value an owned row holds now: the model's, else the
// loaded one.
func (b *base) current(t, id int) string {
	if v, ok := b.model[rowKey{t, id}]; ok {
		return v
	}
	return loadValue(t, id)
}

// mixer deals statement classes from shuffled blocks that hold each
// class in exactly its share. A seed then changes the order and the
// keys, never the mix: with independent draws the number of 10 ms COUNT
// scans in a window of 6 000 statements varied by ±3 % between seeds,
// and throughput with it.
type mixer struct {
	rng   *rand.Rand
	block []uint8
	pos   int
}

// newMixer builds a mixer whose blocks hold counts[i] statements of
// class i.
func newMixer(rng *rand.Rand, counts ...int) *mixer {
	m := &mixer{rng: rng}
	for class, n := range counts {
		for i := 0; i < n; i++ {
			m.block = append(m.block, uint8(class))
		}
	}
	m.pos = len(m.block)
	return m
}

func (m *mixer) next() int {
	if m.pos == len(m.block) {
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
		m.pos = 0
	}
	m.pos++
	return int(m.block[m.pos-1])
}

// checkWrite accepts exactly one affected row.
func checkWrite(r *reply) bool { return r.err == nil && r.affected == 1 }

// checkPoint accepts one row, one column, naming the row asked for —
// and equal to want when the reader owns the row.
func checkPoint(o *op, r *reply) bool {
	if r.err != nil || r.nrows() != 1 || len(r.row(0)) != 1 {
		return false
	}
	v := r.row(0)[0].Str
	if o.want != "" {
		return v == o.want
	}
	return valueNames(v, o.table, o.lo)
}

// checkRange accepts o.n rows (id, v) with consecutive ids from o.lo,
// every value naming its row.
func checkRange(o *op, r *reply) bool {
	if r.err != nil || r.nrows() != o.n {
		return false
	}
	for i := 0; i < r.nrows(); i++ {
		row := r.row(i)
		if len(row) != 2 || !row[0].IsInt || int(row[0].Int) != o.lo+i || !valueNames(row[1].Str, o.table, o.lo+i) {
			return false
		}
	}
	return true
}

// --- oltp_point -------------------------------------------------------

// oltpClient reads any key and writes only keys it owns (global key
// index ≡ client mod 2), so the value of an owned key is always the
// last one this client was acknowledged.
type oltpClient struct {
	base
	zipf *rand.Zipf
	mix  *mixer // 0 read, 1 write
	keys int
}

func newOLTPClients(w *workload, seed int64) []actor {
	out := make([]actor, 2)
	for c := range out {
		b := newBase(w, seed, c)
		keys := w.tables * w.rows
		out[c] = &oltpClient{base: b, keys: keys, zipf: rand.NewZipf(b.rng, 1.1, 1, uint64(keys-1)), mix: newMixer(b.rng, 19, 1)}
	}
	return out
}

// key maps a Zipf rank to a global key through a fixed permutation, so
// hot keys are spread over tables and pages.
func (c *oltpClient) key(rank int) int { return int(uint64(rank) * 7919 % uint64(c.keys)) }

func (c *oltpClient) next(o *op) {
	key := c.key(int(c.zipf.Uint64()))
	write := c.mix.next() == 1
	if write && key%2 != c.c {
		key ^= 1 // the neighbouring key is ours (the key count is even)
	}
	t, id := key%c.w.tables, key/c.w.tables
	*o = op{table: t, lo: id, n: 1}
	if write {
		c.seq++
		v := updValue(c.c, c.seq, t, id)
		c.model[rowKey{t, id}] = v
		o.kind, o.sql = opUpdate, c.sql.update(c.names[t], id, v)
		return
	}
	o.kind, o.sql = opPointRead, c.sql.pointRead(c.names[t], id)
	if key%2 == c.c {
		o.want = c.current(t, id)
	}
}

func (c *oltpClient) check(o *op, r *reply) bool {
	if o.kind == opUpdate {
		return checkWrite(r)
	}
	return checkPoint(o, r)
}

// --- scan_analytic ----------------------------------------------------

const (
	scanRangeRows = 500
	topNRange     = 2000
	topNLimit     = 10
)

// scanClient is read-only; every answer follows from the load.
type scanClient struct {
	base
	mix *mixer // 0 range, 1 top-N, 2 count
}

func newScanClients(w *workload, seed int64) []actor {
	out := make([]actor, 2)
	for c := range out {
		b := newBase(w, seed, c)
		out[c] = &scanClient{base: b, mix: newMixer(b.rng, 6, 2, 2)}
	}
	return out
}

func (c *scanClient) next(o *op) {
	t := c.rng.Intn(c.w.tables)
	rows := c.w.rows
	switch c.mix.next() {
	case 0:
		n := min(scanRangeRows, rows)
		lo := c.rng.Intn(rows - n + 1)
		*o = op{kind: opRangeRead, table: t, lo: lo, n: n, sql: c.sql.rangeRead(c.names[t], lo, lo+n-1)}
	case 1:
		n := min(topNRange, rows)
		lo := c.rng.Intn(rows - n + 1)
		sql := c.sql.rangeRead(c.names[t], lo, lo+n-1) + " ORDER BY v DESC LIMIT " + strconv.Itoa(topNLimit)
		*o = op{kind: opTopN, table: t, lo: lo, n: n, sql: sql}
	default:
		lo := c.rng.Intn(rows/10 + 1) // scans at least 90 % of the table
		k := c.rng.Intn(10)
		// ids in [lo, rows) with id%10 == k
		first := lo + (k-lo%10+10)%10
		var count int64
		if first < rows {
			count = int64((rows-1-first)/10 + 1)
		}
		sql := "SELECT COUNT(*) FROM " + c.names[t] + " WHERE k = " + strconv.Itoa(k) + " AND id >= " + strconv.Itoa(lo)
		*o = op{kind: opCount, table: t, lo: lo, n: 1, count: count, sql: sql}
	}
}

func (c *scanClient) check(o *op, r *reply) bool {
	switch o.kind {
	case opRangeRead:
		return checkRange(o, r)
	case opCount:
		return r.err == nil && r.nrows() == 1 && len(r.row(0)) == 1 && r.row(0)[0].IsInt && r.row(0)[0].Int == o.count
	default:
		return c.checkTopN(o, r)
	}
}

// checkTopN recomputes the ten largest values of the range from the
// load and compares ids in order.
func (c *scanClient) checkTopN(o *op, r *reply) bool {
	want := min(topNLimit, o.n)
	if r.err != nil || r.nrows() != want {
		return false
	}
	// Selection of the top `want` by value: values lead with 8 hex
	// digits of mix(), so compare those first and fall back to the
	// whole string only on a tie.
	type cand struct {
		id int
		v  string
	}
	top := make([]cand, 0, want+1)
	for id := o.lo; id < o.lo+o.n; id++ {
		if len(top) == want {
			// cheap reject: compare against the current minimum
			if v := loadValue(o.table, id); v > top[want-1].v {
				top[want-1] = cand{id, v}
			} else {
				continue
			}
		} else {
			top = append(top, cand{id, loadValue(o.table, id)})
		}
		for i := len(top) - 1; i > 0 && top[i].v > top[i-1].v; i-- {
			top[i], top[i-1] = top[i-1], top[i]
		}
	}
	for i := 0; i < r.nrows(); i++ {
		row := r.row(i)
		if len(row) != 2 || int(row[0].Int) != top[i].id || row[1].Str != top[i].v {
			return false
		}
	}
	return true
}

// --- txn_mixed ----------------------------------------------------------

const (
	txnGroup         = 4 // adjacent rows stamped with one tag per transaction
	txnRollbackEvery = 8
	txnRangeRows     = 200
)

// txnWriter runs BEGIN / 4 UPDATEs of one aligned group / COMMIT, every
// eighth transaction ending in ROLLBACK instead. The tag is the
// transaction number, so tags ≡ 7 (mod 8) must never be visible.
type txnWriter struct {
	base
	step    int // position inside the current transaction: 0 BEGIN, 1..4 UPDATE, 5 end
	t, g    int
	pending [txnGroup]string
}

// txnReader issues 80 % point reads and 20 % 200-row ranges.
type txnReader struct {
	base
	mix *mixer // 0 point, 1 range
}

func newTxnClients(w *workload, seed int64) []actor {
	r := newBase(w, seed, 1)
	return []actor{&txnWriter{base: newBase(w, seed, 0)}, &txnReader{base: r, mix: newMixer(r.rng, 4, 1)}}
}

func rolledBack(seq int) bool { return seq%txnRollbackEvery == txnRollbackEvery-1 }

func (c *txnWriter) next(o *op) {
	switch {
	case c.step == 0:
		c.seq++
		c.t = c.rng.Intn(c.w.tables)
		c.g = c.rng.Intn(c.w.rows / txnGroup)
		*o = op{kind: opBegin, sql: "BEGIN"}
	case c.step <= txnGroup:
		id := c.g*txnGroup + c.step - 1
		v := updValue(c.c, c.seq, c.t, id)
		c.pending[c.step-1] = v
		*o = op{kind: opUpdate, table: c.t, lo: id, n: 1, inTxn: true, sql: c.sql.update(c.names[c.t], id, v)}
	case rolledBack(c.seq):
		*o = op{kind: opRollback, sql: "ROLLBACK"}
	default:
		for i, v := range c.pending {
			c.model[rowKey{c.t, c.g*txnGroup + i}] = v
		}
		*o = op{kind: opCommit, sql: "COMMIT"}
	}
	c.step = (c.step + 1) % (txnGroup + 2)
}

func (c *txnWriter) check(o *op, r *reply) bool {
	if o.kind == opUpdate {
		return checkWrite(r)
	}
	return r.err == nil
}

func (c *txnReader) next(o *op) {
	t := c.rng.Intn(c.w.tables)
	if c.mix.next() == 0 {
		id := c.rng.Intn(c.w.rows)
		*o = op{kind: opPointRead, table: t, lo: id, n: 1, sql: c.sql.pointRead(c.names[t], id)}
		return
	}
	n := min(txnRangeRows, c.w.rows)
	lo := c.rng.Intn(c.w.rows - n + 1)
	*o = op{kind: opRangeRead, table: t, lo: lo, n: n, sql: c.sql.rangeRead(c.names[t], lo, lo+n-1)}
}

// check is the snapshot-isolation check: a read never shows a
// rolled-back tag, and a range never shows two tags inside one group.
func (c *txnReader) check(o *op, r *reply) bool {
	if o.kind == opPointRead {
		return checkPoint(o, r) && !rolledBack(updSeq(r.row(0)[0].Str))
	}
	if !checkRange(o, r) {
		return false
	}
	for i := 0; i < r.nrows(); i++ {
		id := o.lo + i
		seq := updSeq(r.row(i)[1].Str)
		if seq >= 0 && rolledBack(seq) {
			return false
		}
		// compare with the previous row when both are in one group
		if id%txnGroup != 0 && i > 0 && updSeq(r.row(i - 1)[1].Str) != seq {
			return false
		}
	}
	return true
}

// --- write_crypt --------------------------------------------------------

// writeClient is write-only: 50 % UPDATE of a loaded row it owns, 30 %
// INSERT of a fresh key, 20 % DELETE of one of its earlier inserts
// (oldest first; an UPDATE instead while it has none).
type writeClient struct {
	base
	mix      *mixer   // 0 update, 1 insert, 2 delete
	nextIns  int      // next fresh id offset
	inserted []rowKey // FIFO of live inserted rows
}

func newWriteClients(w *workload, seed int64) []actor {
	out := make([]actor, 2)
	for c := range out {
		b := newBase(w, seed, c)
		out[c] = &writeClient{base: b, mix: newMixer(b.rng, 5, 3, 2)}
	}
	return out
}

func (c *writeClient) next(o *op) {
	class := c.mix.next()
	t := c.rng.Intn(c.w.tables)
	c.seq++
	switch {
	case class == 2 && len(c.inserted) > 0:
		k := c.inserted[0]
		c.inserted = c.inserted[1:]
		c.model[k] = deletedValue
		*o = op{kind: opDelete, table: k.table, lo: k.id, n: 1, sql: c.sql.delete(c.names[k.table], k.id)}
	case class == 1:
		id := c.w.rows + 2*c.nextIns + c.c // fresh, and ours by parity
		c.nextIns++
		v := updValue(c.c, c.seq, t, id)
		k := rowKey{t, id}
		c.model[k] = v
		c.inserted = append(c.inserted, k)
		*o = op{kind: opInsert, table: t, lo: id, n: 1, sql: c.sql.insert(c.names[t], id, v)}
	default:
		id := c.rng.Intn(c.w.rows/2)*2 + c.c
		v := updValue(c.c, c.seq, t, id)
		c.model[rowKey{t, id}] = v
		*o = op{kind: opUpdate, table: t, lo: id, n: 1, sql: c.sql.update(c.names[t], id, v)}
	}
}

func (c *writeClient) check(o *op, r *reply) bool { return checkWrite(r) }

// --- final contents -------------------------------------------------------

// expectedTable returns what table t must hold once every client's
// acknowledged writes are applied to the load: id → value.
func expectedTable(w *workload, clients []actor, t int) map[int]string {
	out := make(map[int]string, w.rows)
	for id := 0; id < w.rows; id++ {
		out[id] = loadValue(t, id)
	}
	for _, c := range clients {
		for k, v := range c.overrides() {
			if k.table != t {
				continue
			}
			if v == deletedValue {
				delete(out, k.id)
			} else {
				out[k.id] = v
			}
		}
	}
	return out
}

// verifyTables reads every table back in full and counts rows that
// differ from the model (missing, extra or wrong).
func verifyTables(w *workload, clients []actor, ex executor) (checked, bad int, err error) {
	for t := 0; t < w.tables; t++ {
		r, err := ex.exec("SELECT id, v FROM " + w.tableName(t))
		if err != nil {
			return checked, bad, err
		}
		if r.err != nil {
			return checked, bad, fmt.Errorf("verify %s: %w", w.tableName(t), r.err)
		}
		want := expectedTable(w, clients, t)
		checked += len(want)
		right := 0
		for i := 0; i < r.nrows(); i++ {
			row := r.row(i)
			if len(row) != 2 {
				bad++
				continue
			}
			v, ok := want[int(row[0].Int)]
			switch {
			case !ok:
				bad++ // a row that should not exist
			case v == row[1].Str:
				right++
			}
		}
		bad += len(want) - right // missing or holding the wrong value
	}
	return checked, bad, nil
}

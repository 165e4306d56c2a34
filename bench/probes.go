package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"snapdb/internal/binlog"
	"snapdb/internal/btree"
	"snapdb/internal/crypto/prim"
	"snapdb/internal/engine"
	"snapdb/internal/sqlparse"
	"snapdb/internal/storage"
	"snapdb/internal/vfs"
	"snapdb/internal/wal"
)

// Probes: tight loops over one layer's public functions, fed the
// workload's own statements, keys, rows and files. A probe runs a fixed
// number of operations five times and reports the median round, so a
// scheduler hiccup in one round does not reach the figure.

const probeRounds = 5

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// timeRounds runs fn (ops operations per call) probeRounds times and
// returns the median nanoseconds per operation.
func timeRounds(ops int, fn func()) float64 {
	per := make([]float64, probeRounds)
	for i := range per {
		t0 := time.Now()
		fn()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(per)
}

func mbPerSec(bytes int, nsPerOp float64) float64 {
	if nsPerOp == 0 {
		return 0
	}
	return float64(bytes) / nsPerOp * 1e9 / (1 << 20)
}

// sampleStatements draws n statements from fresh actors of w.
func sampleStatements(w *workload, seed int64, n int) []string {
	actors := w.newClients(w, seed)
	out := make([]string, 0, n)
	var o op
	for len(out) < n {
		for _, a := range actors {
			a.next(&o)
			out = append(out, o.sql)
		}
	}
	return out[:n]
}

// runProbes measures the layers under the engine on the state the
// traced replays left in te.
func runProbes(res *runResult, te *tracedEngine, seed int64, div int) error {
	w := te.w
	// scaled shrinks a probe's iteration count for the smoke test.
	scaled := func(n int) int { return max(n/max(div, 1), 8) }
	rng := rand.New(rand.NewSource(seed))

	// sqlparse: Parse and Digest over the workload's stream.
	stmts := sampleStatements(w, seed, scaled(2048))
	res.set("sqlparse.parse_ns_per_stmt", "ns", timeRounds(len(stmts), func() {
		for _, s := range stmts {
			st, err := sqlparse.Parse(s)
			if err != nil || st == nil {
				sink++
			}
		}
	}), len(stmts)*probeRounds)
	res.set("sqlparse.digest_ns_per_stmt", "ns", timeRounds(len(stmts), func() {
		for _, s := range stmts {
			sink += len(sqlparse.Digest(s))
		}
	}), len(stmts)*probeRounds)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, s := range stmts {
		if _, err := sqlparse.Parse(s); err != nil {
			return fmt.Errorf("probe: workload statement does not parse: %w", err)
		}
	}
	runtime.ReadMemStats(&m1)
	res.set("sqlparse.allocs_per_stmt", "count", float64(m1.Mallocs-m0.Mallocs)/float64(len(stmts)), len(stmts))

	// bufpool: Fetch of resident pages, one goroutine and two.
	pool := te.eng.BufferPool()
	resident := pool.LRUOrder()
	if len(resident) > 64 {
		resident = resident[:64]
	}
	if len(resident) == 0 {
		return fmt.Errorf("probe: empty buffer pool")
	}
	fetches := scaled(200000)
	fetchLoop := func() {
		for i := 0; i < fetches; i++ {
			if _, err := pool.Fetch(resident[i%len(resident)]); err != nil {
				sink++
			}
		}
	}
	res.set("bufpool.fetch_hit_ns", "ns", timeRounds(fetches, fetchLoop), fetches*probeRounds)
	res.set("bufpool.fetch_hit_ns_2g", "ns", timeRounds(fetches, func() {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() { defer wg.Done(); fetchLoop() }()
		}
		wg.Wait()
	}), 2*fetches*probeRounds)

	// btree: the loaded tables through Engine.Table.
	trees := make([]*btree.Tree, w.tables)
	for t := range trees {
		tab, ok := te.eng.Table(w.tableName(t))
		if !ok {
			return fmt.Errorf("probe: table %s missing", w.tableName(t))
		}
		trees[t] = tab.Tree
	}
	lookups := scaled(20000)
	keys := make([]sqlparse.Value, lookups)
	for i := range keys {
		keys[i] = sqlparse.IntValue(int64(rng.Intn(w.rows)))
	}
	var probeErr error
	res.set("btree.search_ns", "ns", timeRounds(lookups, func() {
		for i, k := range keys {
			if _, _, err := trees[i%len(trees)].Search(k); err != nil {
				probeErr = err
			}
		}
	}), lookups*probeRounds)
	span := min(scanRangeRows, w.rows)
	ranges := scaled(200)
	rowsSeen := 0
	perRange := timeRounds(ranges, func() {
		rowsSeen = 0
		for i := 0; i < ranges; i++ {
			lo := int64(rng.Intn(w.rows - span + 1))
			err := trees[i%len(trees)].Range(sqlparse.IntValue(lo), sqlparse.IntValue(lo+int64(span)-1), func(storage.Record) bool {
				rowsSeen++
				return true
			})
			if err != nil {
				probeErr = err
			}
		}
	})
	res.set("btree.range_ns_per_row", "ns", ratio(perRange*float64(ranges), float64(rowsSeen)), rowsSeen*probeRounds)
	pages, pathKeys := 0, keys[:min(2000, len(keys))]
	for i, k := range pathKeys {
		path, err := trees[i%len(trees)].TraversalPath(k)
		if err != nil {
			probeErr = err
		}
		pages += len(path)
	}
	res.set("btree.pages_per_lookup", "count", float64(pages)/float64(len(pathKeys)), len(pathKeys))
	height, err := trees[0].Height()
	if err != nil {
		probeErr = err
	}
	res.set("btree.height", "count", float64(height), 0)
	if probeErr != nil {
		return fmt.Errorf("probe: btree: %w", probeErr)
	}

	// storage: the row codec on workload rows.
	nrows := scaled(4096)
	recs := make([]storage.Record, nrows)
	encs := make([][]byte, nrows)
	for i := range recs {
		id := rng.Intn(w.rows)
		recs[i] = storage.Record{sqlparse.IntValue(int64(id)), sqlparse.IntValue(int64(loadK(id))), sqlparse.StrValue(loadValue(0, id))}
		encs[i] = storage.EncodeRecord(recs[i])
	}
	var buf []byte
	res.set("storage.encode_ns_per_row", "ns", timeRounds(nrows, func() {
		for _, r := range recs {
			buf = storage.AppendRecord(buf[:0], r)
		}
	}), nrows*probeRounds)
	res.set("storage.decode_ns_per_row", "ns", timeRounds(nrows, func() {
		for _, e := range encs {
			r, _, err := storage.DecodeRecord(e)
			if err != nil {
				probeErr = err
			}
			sink += len(r)
		}
	}), nrows*probeRounds)
	if probeErr != nil {
		return fmt.Errorf("probe: storage: %w", probeErr)
	}

	// wal and binlog: the in-memory append path (no sink), one update
	// record plus its commit marker, and one statement event.
	appends := scaled(20000)
	key := storage.Record{sqlparse.IntValue(7)}
	oldV := storage.Record{sqlparse.StrValue(loadValue(0, 7))}
	newV := storage.Record{sqlparse.StrValue(updValue(0, 1, 0, 7))}
	res.set("wal.append_ns_per_record", "ns", timeRounds(2*appends, func() {
		m, err := wal.NewManager(wal.DefaultCapacity, wal.DefaultCapacity)
		if err != nil {
			probeErr = err
			return
		}
		for i := 0; i < appends; i++ {
			if _, _, err := m.LogUpdate(1, key, 2, oldV, newV); err != nil {
				probeErr = err
			}
			if err := m.LogCommit(uint64(i + 1)); err != nil {
				probeErr = err
			}
		}
	}), 2*appends*probeRounds)
	var sb sqlBuf
	event := sb.update(w.tableName(0), 7, updValue(0, 1, 0, 7))
	res.set("binlog.commit_ns_per_event", "ns", timeRounds(appends, func() {
		l := binlog.New()
		for i := 0; i < appends; i++ {
			if err := l.Commit(binlog.Event{Timestamp: int64(i), Statement: event}); err != nil {
				probeErr = err
			}
		}
	}), appends*probeRounds)
	if probeErr != nil {
		return fmt.Errorf("probe: log append: %w", probeErr)
	}

	// CryptFS over MemFS, both modes, and the cipher under it.
	pagesWritten := scaled(1024)
	page := make([]byte, storage.PageSize)
	for i := range page {
		page[i] = byte(mix(uint64(i)))
	}
	// MemFS grows a file by copying it, so every probe file is sized
	// first and the timed writes land in place: the figure is CryptFS's
	// (cipher, copy, and in fresh mode the read-modify-write of the page
	// and its IV), not MemFS's reallocation.
	cryptFile := func(det bool, size int64) (vfs.File, error) {
		cfs, err := vfs.NewCryptFS(vfs.NewMemFS(), encryptionKey(), det)
		if err != nil {
			return nil, err
		}
		f, err := cfs.Create("probe")
		if err != nil {
			return nil, err
		}
		for off := int64(0); off < size; off += storage.PageSize {
			if _, err := f.WriteAt(page, off); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
	cryptWrite := func(det bool) (float64, error) {
		f, err := cryptFile(det, int64(pagesWritten)*storage.PageSize)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		return timeRounds(pagesWritten, func() {
			for i := 0; i < pagesWritten; i++ {
				if _, err := f.WriteAt(page, int64(i)*storage.PageSize); err != nil {
					probeErr = err
				}
			}
		}), nil
	}
	detNs, err := cryptWrite(true)
	if err != nil {
		return err
	}
	freshNs, err := cryptWrite(false)
	if err != nil {
		return err
	}
	res.set("vfs.cryptfs_det_write_mb_s", "MiB/s", mbPerSec(storage.PageSize, detNs), pagesWritten*probeRounds)
	res.set("vfs.cryptfs_fresh_write_mb_s", "MiB/s", mbPerSec(storage.PageSize, freshNs), pagesWritten*probeRounds)
	logAppends := scaled(20000)
	frame := page[:100] // a log-style append: one small framed record
	logFile, err := cryptFile(true, int64(logAppends)*int64(len(frame)))
	if err != nil {
		return err
	}
	defer logFile.Close()
	res.set("vfs.cryptfs_det_append_ns", "ns", timeRounds(logAppends, func() {
		for i := 0; i < logAppends; i++ {
			if _, err := logFile.WriteAt(frame, int64(i)*int64(len(frame))); err != nil {
				probeErr = err
			}
		}
	}), logAppends*probeRounds)
	pc, err := prim.NewPageCipher(encryptionKey())
	if err != nil {
		return err
	}
	tw := pc.Tweak(engine.FileRedo, 0)
	res.set("prim.pagecipher_mb_s", "MiB/s", mbPerSec(storage.PageSize, timeRounds(pagesWritten, func() {
		for i := 0; i < pagesWritten; i++ {
			pc.XORKeyStreamAt(tw, 0, page)
		}
	})), pagesWritten*probeRounds)
	tweaks := scaled(50000)
	res.set("prim.tweak_ns", "ns", timeRounds(tweaks, func() {
		for i := 0; i < tweaks; i++ {
			t := pc.Tweak(engine.FileRedo, uint64(i))
			sink += int(t[0])
		}
	}), tweaks*probeRounds)
	if probeErr != nil {
		return fmt.Errorf("probe: cryptfs: %w", probeErr)
	}
	return nil
}

// probePerfSchema prices performance_schema: two fresh in-memory
// engines, one with Config.DisablePerfSchema, fed the same stream
// statement by statement in alternation so drift weighs on both.
func probePerfSchema(res *runResult, w *workload, seed int64, budget int64) error {
	var arms [2]struct {
		eng    *engine.Engine
		actors []actor
		execs  []executor
		lat    latencies
	}
	for i := range arms {
		cfg := engine.Defaults()
		cfg.DisablePerfSchema = i == 1
		e, err := engine.New(cfg)
		if err != nil {
			return err
		}
		defer e.Close()
		arms[i].eng = e
		loader := &directExec{s: e.Connect("bench-load")}
		_, err = loadOver(w, loader)
		loader.close()
		if err != nil {
			return err
		}
		arms[i].actors = w.newClients(w, seed)
		for range arms[i].actors {
			ex := &directExec{s: e.Connect("bench-ps")}
			defer ex.close()
			arms[i].execs = append(arms[i].execs, ex)
		}
	}
	n := int(w.requestsFor(budget))
	ops := make([]op, w.batch)
	stmts := make([]string, w.batch)
	out := make([]reply, w.batch)
	for r := 0; r < n; r++ {
		c := r % 2
		for i := range arms {
			a := &arms[i]
			for j := range ops {
				a.actors[c].next(&ops[j])
				stmts[j] = ops[j].sql
			}
			t0 := time.Now()
			if err := a.execs[c].execBatch(stmts, out); err != nil {
				return err
			}
			a.lat.add(time.Since(t0).Nanoseconds())
			for j := range ops {
				res.attempted++
				if !a.actors[c].check(&ops[j], &out[j]) {
					res.failed++
				}
			}
		}
	}
	_, on, _ := arms[0].lat.summary()
	nOff, off, _ := arms[1].lat.summary()
	res.set("perfschema.us_per_stmt", "us", (on-off)/1e3/float64(w.batch), nOff)
	return nil
}

// probeRecovery reopens the traced engine's datadir the way a restart
// would — engine.Recover through a fresh wrapped file stack — and checks
// that the recovered state is the state the replays built. It also
// times the log parsers on the files the workload produced, and a
// checkpoint.
func probeRecovery(res *runResult, te *tracedEngine, miss func(string, ...any)) error {
	want, err := te.eng.StateDigest()
	if err != nil {
		return err
	}
	rec := newRecorder(0) // counts only; recording stays off
	fs, inner, outer, err := tracedFS(te.w, te.dir, rec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	e2, rep, err := engine.Recover(fs, engine.Defaults())
	took := time.Since(t0)
	if err != nil {
		return fmt.Errorf("probe: engine.Recover: %w", err)
	}
	defer e2.Close()
	res.set("engine.recover_s", "s", took.Seconds(), rep.RedoRecords)
	res.set("engine.recover_records_s", "1/s", ratio(float64(rep.RedoRecords), took.Seconds()), rep.RedoRecords)
	got, err := e2.StateDigest()
	if err != nil {
		return err
	}
	res.attempted++
	if got != want {
		miss("engine.Recover rebuilt a different state than the replays left (digest %s, want %s)", got[:12], want[:12])
	}
	// Read amplification of CryptFS: bytes asked of the real files per
	// byte recovery asked of CryptFS.
	if outer != nil {
		res.set("vfs.cryptfs_read_amp", "ratio", ratio(float64(inner.n.readBytes.Load()), float64(outer.n.readBytes.Load())), int(outer.n.reads.Load()))
	} else {
		res.set("vfs.cryptfs_read_amp", "ratio", 0, 0)
	}

	// The parsers recovery leans on, over this workload's own logs
	// (read through the decrypting stack).
	redo, err := fs.ReadFile(engine.FileRedo)
	if err != nil {
		return err
	}
	blog, err := fs.ReadFile(engine.FileBinlog)
	if err != nil {
		return err
	}
	var perr error
	res.set("wal.parse_mb_s", "MiB/s", mbPerSec(len(redo), timeRounds(1, func() {
		if _, err := wal.ParseLog(redo); err != nil && len(redo) > 0 {
			perr = err
		}
	})), len(redo))
	res.set("binlog.parse_mb_s", "MiB/s", mbPerSec(len(blog), timeRounds(1, func() {
		if _, err := binlog.Parse(blog); err != nil && len(blog) > 0 {
			perr = err
		}
	})), len(blog))
	if perr != nil {
		return fmt.Errorf("probe: parsing the workload's logs: %w", perr)
	}

	t0 = time.Now()
	if err := e2.Checkpoint(); err != nil {
		return fmt.Errorf("probe: checkpoint: %w", err)
	}
	res.set("engine.checkpoint_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6, 0)
	return nil
}

package main

import (
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"snapdb/internal/crypto/prim"
	"snapdb/internal/engine"
	"snapdb/internal/server"
	"snapdb/internal/vfs"
)

// The traced pass. One in-process engine per workload, its file layer
// and its listener wrapped (trace.go), replays the workload's own
// streams four ways:
//
//	W1  serial, over the wire     round trips, socket counts
//	D1  serial, Session.Execute   per-class execute times, every count;
//	                              again with recording on and off for the
//	                              tracing overhead
//	T2  two concurrent wire connections
//	                              group-commit sizes
//
// "Serial" is one generator goroutine alternating between the
// workload's two sessions with one request in flight, so every count
// repeats exactly for a seed. The probes of probes.go then run over the
// state the replays left.

// tracedEngine is an engine whose edges are instrumented.
type tracedEngine struct {
	w     *workload
	dir   string
	eng   *engine.Engine
	rec   *recorder
	inner *tracingFS // above the real filesystem
	outer *tracingFS // above CryptFS; nil unless the workload encrypts
	wire  wireCounters
	srv   *server.Server
	addr  string
	done  chan error
}

func encryptionKey() prim.Key {
	var k prim.Key
	raw, err := hex.DecodeString(encryptionKeyHex)
	if err != nil || len(raw) != len(k) {
		panic("bench: bad built-in encryption key")
	}
	copy(k[:], raw)
	return k
}

// tracedFS builds the file stack the daemon would build for w over dir,
// with a wrapper at each boundary: [outer → CryptFS →] inner → OSFS.
func tracedFS(w *workload, dir string, rec *recorder) (fs vfs.FS, inner, outer *tracingFS, err error) {
	osfs, err := vfs.NewOSFS(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	inner = newTracingFS(osfs, rec, false)
	fs = inner
	if w.encrypt {
		// What engine.Config.EncryptAtRest does, done here so that a
		// wrapper can sit above it: deterministic pages, as snapdbd
		// -encrypt without -fresh-iv.
		cfs, err := vfs.NewCryptFS(fs, encryptionKey(), true)
		if err != nil {
			return nil, nil, nil, err
		}
		outer = newTracingFS(cfs, rec, true)
		fs = outer
	}
	return fs, inner, outer, nil
}

// openTraced creates a fresh durable engine for w in dir and serves it
// on loopback through the counting listener.
func openTraced(w *workload, dir string) (*tracedEngine, error) {
	te := &tracedEngine{w: w, dir: dir, done: make(chan error, 1), rec: newRecorder(1 << 21)}
	fs, inner, outer, err := tracedFS(w, dir, te.rec)
	if err != nil {
		return nil, err
	}
	te.inner, te.outer = inner, outer
	cfg := engine.Defaults()
	cfg.FS = fs
	te.eng, err = engine.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	te.addr = ln.Addr().String()
	te.srv = server.New(te.eng)
	go func() { te.done <- te.srv.Serve(&countingListener{Listener: ln, n: &te.wire}) }()
	return te, nil
}

func (te *tracedEngine) close() {
	_ = te.srv.Close()
	<-te.done
	te.eng.Close()
}

func (te *tracedEngine) direct(user string) executor {
	return &directExec{s: te.eng.Connect(user)}
}

// counters is every count the engine and the wrappers expose, sampled
// between phases; a phase's figures are differences of two samples.
type counters struct {
	fsInner, fsOuter                fsSnapshot
	wire                            wireSnapshot
	planHits, planMisses            uint64
	qcHits, qcMisses, qcInval       uint64
	bpHits, bpMisses, bpEvict       uint64
	walRecs, walFlushes             uint64
	blogEvents, blogFlushes         uint64
	redoBytes, undoBytes, blogBytes int64
	mvccVersions, mvccPurged        int64
}

func fileSize(dir, name string) int64 {
	st, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0
	}
	return st.Size()
}

// sampleInto fills everything but the MVCC figures, which it keeps.
func (te *tracedEngine) sampleInto(c counters) counters {
	c.fsInner = te.inner.n.snapshot()
	if te.outer != nil {
		c.fsOuter = te.outer.n.snapshot()
	}
	c.wire = te.wire.snapshot()
	e := te.eng
	c.planHits, c.planMisses, _ = e.PlanCacheStats()
	c.qcHits, c.qcMisses, c.qcInval = e.QueryCache().Stats()
	c.bpHits, c.bpMisses, c.bpEvict = e.BufferPool().Stats()
	c.walRecs, c.walFlushes = e.WAL().GroupCommitStats()
	c.blogEvents, c.blogFlushes = e.Binlog().GroupCommitStats()
	c.redoBytes = fileSize(te.dir, engine.FileRedo)
	c.undoBytes = fileSize(te.dir, engine.FileUndo)
	c.blogBytes = fileSize(te.dir, engine.FileBinlog)
	return c
}

// mvccStatus reads the version store's figures over SQL, as any client
// would. It is itself a statement, so phases call it outside the
// interval their other counters span.
func (te *tracedEngine) mvccStatus(c *counters) {
	s := te.eng.Connect("bench-status")
	defer s.Close()
	res, err := s.Execute("SELECT * FROM information_schema.mvcc_status")
	if err == nil && len(res.Rows) == 1 && len(res.Rows[0]) >= 8 {
		c.mvccVersions = res.Rows[0][2].Int
		c.mvccPurged = res.Rows[0][7].Int
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// phase runs one replay of the shared actors against te.
type phaseSpec struct {
	requests int64
	serial   bool
	direct   bool // Session.Execute instead of the wire
	record   bool // span recording on
}

func (te *tracedEngine) phase(actors []actor, p phaseSpec) (*loopResult, counters, counters, error) {
	execs := make([]executor, len(actors))
	for c := range execs {
		if p.direct {
			execs[c] = te.direct("bench-" + strconv.Itoa(c))
			continue
		}
		ex, err := dialWire(te.addr)
		if err != nil {
			return nil, counters{}, counters{}, err
		}
		execs[c] = ex
	}
	defer func() {
		for _, ex := range execs {
			ex.close()
		}
	}()
	cfg := &loopConfig{w: te.w, clients: actors, execs: execs, requests: p.requests, serial: p.serial, perKind: p.serial}
	rec := te.rec
	rec.serial = p.serial
	name := spanClientExecute
	if p.direct {
		name = spanEngineExecute
	}
	cfg.span = func(c int, o *op, start, end time.Time) {
		rec.request(name, c, o.kind, start, end)
	}
	var before, after counters
	te.mvccStatus(&before)
	before = te.sampleInto(before)
	rec.on.Store(p.record)
	res := runLoop(cfg)
	rec.on.Store(false)
	after = te.sampleInto(after)
	te.mvccStatus(&after)
	return res, before, after, res.err
}

// spanTotals sums what the serial spans recorded from index lo on say
// about where request time went.
type spanTotals struct {
	requests                        int64
	reqNs, reqSelfNs                int64 // request spans: duration, and duration minus layer children
	cryptSelfNs                     int64 // time inside CryptFS itself
	vfsWriteNs, vfsSyncNs, vfsOthNs int64 // time below the inner wrapper
	vfsWrites, vfsSyncs             int64
	cryptSpans                      int64
}

// totalsOf sums spans[lo:hi], one phase's worth, overall and by the
// class of the request each span belongs to.
func totalsOf(spans []span, lo, hi int, request spanName) (all spanTotals, byKind [numOpKinds]spanTotals) {
	// A layer span's parent is its request, recorded after it and inside
	// the same phase: work on a copy of the phase's spans with indices
	// shifted to it.
	tail := make([]span, hi-lo)
	copy(tail, spans[lo:hi])
	for i := range tail {
		if tail[i].parent >= 0 {
			tail[i].parent -= int32(lo)
			if tail[i].parent < 0 || int(tail[i].parent) >= len(tail) {
				tail[i].parent = -1
			}
		}
	}
	self := selfTimes(tail)
	for i := range tail {
		s := &tail[i]
		root := s
		for root.parent >= 0 {
			root = &tail[root.parent]
		}
		if root.name != request {
			continue // a layer span outside any request (phase bookkeeping)
		}
		for _, t := range []*spanTotals{&all, &byKind[root.kind]} {
			switch {
			case s.name == request:
				t.requests++
				t.reqNs += s.dur()
				t.reqSelfNs += self[i]
			case s.name >= spanCryptWrite && s.name <= spanCryptOther:
				t.cryptSpans++
				t.cryptSelfNs += self[i]
			case s.name == spanVFSWrite:
				t.vfsWrites++
				t.vfsWriteNs += s.dur()
			case s.name == spanVFSSync:
				t.vfsSyncs++
				t.vfsSyncNs += s.dur()
			case s.name >= spanVFSRead:
				t.vfsOthNs += s.dur()
			}
		}
	}
	return all, byKind
}

// classCosts turns the two serial phases' per-class totals into the
// rows of the "where does a statement's time go" table.
func classCosts(w *workload, wAll, dAll spanTotals, wKind, dKind [numOpKinds]spanTotals) []classCost {
	row := func(name string, wt, dt spanTotals) classCost {
		n := float64(dt.requests)
		return classCost{Class: name, Requests: int(dt.requests),
			RoundTrip: ratio(float64(wt.reqNs), float64(wt.requests)), Execute: ratio(float64(dt.reqNs), n),
			Self: ratio(float64(dt.reqSelfNs), n), CryptFS: ratio(float64(dt.cryptSelfNs), n),
			VFSWrite: ratio(float64(dt.vfsWriteNs), n), VFSSync: ratio(float64(dt.vfsSyncNs), n), VFSOther: ratio(float64(dt.vfsOthNs), n)}
	}
	if w.batch > 1 {
		// A batch mixes classes; the request is the unit.
		return []classCost{row(fmt.Sprintf("batch of %d", w.batch), wAll, dAll)}
	}
	var out []classCost
	for k := range dKind {
		if dKind[k].requests > 0 && wKind[k].requests > 0 {
			out = append(out, row(opKindNames[k], wKind[k], dKind[k]))
		}
	}
	return out
}

// overheadRounds is how the tracing-overhead replay is split: recording
// on, off, off, on, twice — so drift over the replay (a growing log, a
// growing table) weighs on both arms equally, and each arm's rate is
// the median of four rounds.
var overheadRounds = [...]bool{true, false, false, true, true, false, false, true}

// tracedRun is the state one workload's traced pass threads through
// its steps.
type tracedRun struct {
	o      *runOptions
	w      *workload
	te     *tracedEngine
	actors []actor
	res    *runResult
}

// count adds a replay's statements to the pass's verification tally.
func (t *tracedRun) count(r *loopResult) {
	t.res.attempted += r.stmts
	t.res.failed += r.failed
}

// miss records one failed assertion of the pass itself.
func (t *tracedRun) miss(format string, args ...any) {
	t.res.failed++
	fmt.Fprintf(os.Stderr, "bench: %s: "+format+"\n", append([]any{t.w.name}, args...)...)
}

// budget is the serial replays' statement budget for a share of
// --seconds.
func (t *tracedRun) budget(share float64) int64 { return stmtBudget(t.w.t1Rate, t.o.seconds*share) }

// runTraced produces every per-layer metric for one workload. e2e is
// the untraced daemon run whose class split rides along (run here when
// the caller has none).
func runTraced(o *runOptions, e2e *runResult) *runResult {
	res := &runResult{metrics: make(map[string]metric)}
	fail := func(err error) *runResult { res.err = err; return res }
	w := o.w
	if e2e == nil {
		quick := *o
		quick.setups = 1
		e2e = runE2E(&quick)
		if e2e.err != nil {
			return fail(e2e.err)
		}
	}
	res.attempted, res.failed = e2e.attempted, e2e.failed
	for _, name := range classSplitNames {
		res.metrics[name] = e2e.metrics[name]
	}

	tmp, err := os.MkdirTemp(o.root, "snapbench-"+w.name+"-traced-")
	if err != nil {
		return fail(err)
	}
	trackDir(tmp)
	defer removeDir(tmp)
	te, err := openTraced(w, filepath.Join(tmp, "x"))
	if err != nil {
		return fail(err)
	}
	defer te.close()
	loader := te.direct("bench-load")
	_, err = loadOver(w, loader)
	loader.close()
	if err != nil {
		return fail(err)
	}
	t := &tracedRun{o: o, w: w, te: te, actors: w.newClients(w, o.seed), res: res}

	for _, step := range []func() error{
		t.serialReplays,
		t.chainsAndAllocs,
		t.concurrentReplays,
		t.verify,
		func() error { return probePerfSchema(res, w, o.seed, t.budget(1.0/5)) },
		func() error { return runProbes(res, te, o.seed, o.probeDiv) },
		func() error { return probeRecovery(res, te, t.miss) },
	} {
		if err := step(); err != nil {
			return fail(err)
		}
	}
	t.checkIsolation()
	res.set("failed_ops_ratio", "ratio", float64(res.failed)/float64(res.attempted), int(res.attempted))
	return res
}

// serialReplays runs W1 and D1 and reports everything they measure.
func (t *tracedRun) serialReplays() error {
	w, te, res := t.w, t.te, t.res
	batch := float64(w.batch)

	// Warm-up, unrecorded, so the serial phases start from caches in
	// their working state, as the end-to-end window does.
	warm, _, _, err := te.phase(t.actors, phaseSpec{requests: w.requestsFor(t.budget(1.0 / warmupShare)), serial: true, direct: true})
	if err != nil {
		return err
	}
	t.count(warm)

	// W1: serial over the wire, in two halves either side of D1, so
	// that whatever drifts as the replay goes on (tables and logs grow)
	// weighs on the wire and the direct figures alike.
	var (
		w1     loopResult
		wd     wireSnapshot
		wt     spanTotals
		wtKind [numOpKinds]spanTotals
	)
	wireHalf := func() error {
		lo := len(te.rec.spans)
		r, b, a, err := te.phase(t.actors, phaseSpec{requests: w.requestsFor(t.budget(0.5)), serial: true, record: true})
		if err != nil {
			return err
		}
		w1.absorb(r)
		d := a.wire.sub(b.wire)
		wd = wireSnapshot{wd.bytesIn + d.bytesIn, wd.bytesOut + d.bytesOut, wd.writes + d.writes}
		all, byKind := totalsOf(te.rec.spans, lo, len(te.rec.spans), spanClientExecute)
		wt.absorb(all)
		for k := range byKind {
			wtKind[k].absorb(byKind[k])
		}
		return nil
	}
	if err := wireHalf(); err != nil {
		return err
	}
	// D1: serial, straight into Session.Execute.
	lo := len(te.rec.spans)
	d1, b, a, err := te.phase(t.actors, phaseSpec{requests: w.requestsFor(t.budget(1)), serial: true, direct: true, record: true})
	if err != nil {
		return err
	}
	dt, dtKind := totalsOf(te.rec.spans, lo, len(te.rec.spans), spanEngineExecute)
	if err := wireHalf(); err != nil {
		return err
	}
	t.count(&w1)
	t.count(d1)
	res.classes = classCosts(w, wt, dt, wtKind, dtKind)

	stm := float64(w1.stmts)
	res.set("server.bytes_in_per_stmt", "B", ratio(float64(wd.bytesIn), stm), int(w1.stmts))
	res.set("server.bytes_out_per_stmt", "B", ratio(float64(wd.bytesOut), stm), int(w1.stmts))
	res.set("server.conn_writes_per_stmt", "count", ratio(float64(wd.writes), stm), int(w1.stmts))

	// The wire's share: round trip median minus execute median, class
	// by class (a mix of 100 µs and 10 ms statements has no meaningful
	// overall median), weighted by how often each class occurs. A
	// batched workload has one class: the batch.
	var wireNs, wireN float64
	if w.batch > 1 {
		n, rtt, _ := w1.class[classReq].summary()
		_, exec, _ := d1.class[classReq].summary()
		wireNs, wireN = (rtt-exec)/batch*float64(n), float64(n)
	} else {
		for k := range w1.kind {
			n, rtt, _ := w1.kind[k].summary()
			nd, exec, _ := d1.kind[k].summary()
			if n > 0 && nd > 0 {
				wireNs += (rtt - exec) * float64(n)
				wireN += float64(n)
			}
		}
	}
	wire := ratio(wireNs, wireN)
	res.set("server.wire_us_per_stmt", "us", wire/1e3, int(wireN))

	stm = float64(d1.stmts)
	wstm := float64(d1.writeStmts)
	for _, km := range []struct {
		kind opKind
		name string
	}{
		{opPointRead, "engine.select_point_us"}, {opUpdate, "engine.update_point_us"},
		{opRangeRead, "engine.select_range_us"}, {opCount, "engine.count_scan_us"},
		{opTopN, "engine.topn_us"}, {opCommit, "engine.commit_us"},
	} {
		n, p50, _ := d1.kind[km.kind].summary()
		res.set(km.name, "us", p50/1e3, n)
	}
	res.set("engine.self_us_per_stmt", "us", ratio(float64(dt.reqSelfNs), stm)/1e3, int(dt.requests))
	res.set("engine.plancache_hit_ratio", "ratio",
		ratio(float64(a.planHits-b.planHits), float64(a.planHits-b.planHits+a.planMisses-b.planMisses)), int(d1.stmts))
	res.set("engine.rows_examined_per_row_returned", "ratio", ratio(float64(d1.examined), float64(d1.rowsBack)), int(d1.rowsBack))
	res.set("engine.mvcc_live_versions", "count", float64(a.mvccVersions), 0)
	res.set("engine.mvcc_purged_per_kstmt", "count", ratio(float64(a.mvccPurged-b.mvccPurged), stm/1e3), int(d1.stmts))
	qh, qm := float64(a.qcHits-b.qcHits), float64(a.qcMisses-b.qcMisses)
	res.set("querycache.hit_ratio", "ratio", ratio(qh, qh+qm), int(qh+qm))
	res.set("querycache.invalidations_per_kstmt", "count", ratio(float64(a.qcInval-b.qcInval), stm/1e3), int(d1.stmts))
	bh, bm := float64(a.bpHits-b.bpHits), float64(a.bpMisses-b.bpMisses)
	res.set("bufpool.fetches_per_stmt", "count", ratio(bh+bm, stm), int(d1.stmts))
	res.set("bufpool.hit_ratio", "ratio", ratio(bh, bh+bm), int(bh+bm))
	res.set("bufpool.evictions_per_kstmt", "count", ratio(float64(a.bpEvict-b.bpEvict), stm/1e3), int(d1.stmts))
	res.set("wal.records_per_write_stmt", "count", ratio(float64(a.walRecs-b.walRecs), wstm), int(d1.writeStmts))
	res.set("wal.bytes_per_write_stmt", "B", ratio(float64(a.redoBytes-b.redoBytes+a.undoBytes-b.undoBytes), wstm), int(d1.writeStmts))
	res.set("binlog.bytes_per_write_stmt", "B", ratio(float64(a.blogBytes-b.blogBytes), wstm), int(d1.writeStmts))
	fi := a.fsInner.sub(b.fsInner)
	fo := a.fsOuter.sub(b.fsOuter)
	res.set("vfs.fsyncs_per_write_stmt", "count", ratio(float64(fi.syncs), wstm), int(d1.writeStmts))
	res.set("vfs.write_calls_per_write_stmt", "count", ratio(float64(fi.writes), wstm), int(d1.writeStmts))
	res.set("vfs.bytes_written_per_write_stmt", "B", ratio(float64(fi.writeBytes), wstm), int(d1.writeStmts))
	res.set("vfs.sync_us", "us", ratio(float64(dt.vfsSyncNs), float64(dt.vfsSyncs))/1e3, int(dt.vfsSyncs))
	res.set("vfs.write_us", "us", ratio(float64(dt.vfsWriteNs), float64(dt.vfsWrites))/1e3, int(dt.vfsWrites))
	res.set("vfs.cryptfs_self_us_per_write_stmt", "us", ratio(float64(dt.cryptSelfNs), wstm)/1e3, int(dt.cryptSpans))
	res.set("vfs.cryptfs_write_amp", "ratio", ratio(float64(fi.writeBytes), float64(fo.writeBytes)), int(fo.writes))

	// Do the reported parts add up? Engine self + CryptFS self + file
	// operations (means per statement of D1) + the wire figure above (a
	// difference of medians), as a share of W1's measured mean round
	// trip per statement.
	rtt := ratio(float64(wt.reqNs), float64(w1.stmts))
	parts := ratio(float64(dt.reqSelfNs+dt.cryptSelfNs+dt.vfsWriteNs+dt.vfsSyncNs+dt.vfsOthNs), stm) + wire
	res.set("trace.attributed_pct", "%", ratio(parts, rtt)*100, int(wt.requests))
	if !w.encrypt && (wt.cryptSpans != 0 || dt.cryptSpans != 0) {
		t.miss("CryptFS spans on a workload that does not encrypt")
	}

	// txn_mixed's reader ran between the writer's statements, so its
	// point reads above saw live version chains; chainsAndAllocs
	// measures the same reads without.
	if w.follower > 0 {
		res.metrics["engine.select_point_us_with_chains"] = res.metrics["engine.select_point_us"]
	} else {
		res.set("engine.select_point_us_with_chains", "us", 0, 0)
	}
	return t.tracingOverhead()
}

// tracingOverhead prices span recording where the table's figures come
// from: the serial direct replay, recording on against recording off
// (the wrappers stay in place and keep counting either way).
func (t *tracedRun) tracingOverhead() error {
	var onRates, offRates []float64
	stmts := 0
	for _, on := range overheadRounds {
		r, _, _, err := t.te.phase(t.actors, phaseSpec{requests: t.w.requestsFor(t.budget(0.25)), serial: true, direct: true, record: on})
		if err != nil {
			return err
		}
		t.count(r)
		stmts += int(r.stmts)
		rate := float64(r.stmts) / r.elapsed.Seconds()
		if on {
			onRates = append(onRates, rate)
		} else {
			offRates = append(offRates, rate)
		}
	}
	onRate, offRate := median(onRates), median(offRates)
	t.res.set("trace.overhead_pct", "%", ratio(offRate-onRate, offRate)*100, stmts)
	return nil
}

// chainsAndAllocs runs the two small direct probes that continue the
// actors' streams: point reads over purged (bare) trees on txn_mixed,
// and allocations per statement.
func (t *tracedRun) chainsAndAllocs() error {
	if f := t.w.follower; f > 0 {
		t.te.eng.PurgeVersions(0)
		bare := measureBareReads(t.te, t.actors[f], int(t.budget(0.1)))
		t.res.attempted += int64(bare.n)
		t.res.failed += int64(bare.failed)
		t.res.set("engine.select_point_us", "us", bare.p50/1e3, bare.n)
	}
	// Session.Execute alone between two reads of the allocator's
	// counter, replies checked afterwards.
	ap := measureAllocs(t.te, t.actors, int(t.budget(0.1)))
	t.res.attempted += int64(ap.n)
	t.res.failed += int64(ap.failed)
	t.res.set("engine.allocs_per_stmt", "count", ap.perStmt, ap.n)
	return nil
}

// concurrentReplays runs T2: two concurrent wire connections, for the
// figures that only contention produces. Span recording is off: with
// two requests in flight a file operation cannot be attributed to one.
func (t *tracedRun) concurrentReplays() error {
	r, b, a, err := t.te.phase(t.actors, phaseSpec{requests: t.w.requestsFor(t.budget(0.5))})
	if err != nil {
		return err
	}
	t.count(r)
	t.res.set("wal.group_commit_batch", "count", ratio(float64(a.walRecs-b.walRecs), float64(a.walFlushes-b.walFlushes)), int(a.walFlushes-b.walFlushes))
	t.res.set("binlog.group_commit_batch", "count", ratio(float64(a.blogEvents-b.blogEvents), float64(a.blogFlushes-b.blogFlushes)), int(a.blogFlushes-b.blogFlushes))
	return nil
}

// verify checks that every write of every replay is in the tables, and
// writes the span trace out.
func (t *tracedRun) verify() error {
	verifier := t.te.direct("bench-verify")
	checked, bad, err := verifyTables(t.w, t.actors, verifier)
	verifier.close()
	if err != nil {
		return err
	}
	t.res.attempted += int64(checked)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d rows differ from the model after the traced replays\n", t.w.name, bad)
		t.res.failed += int64(bad)
	}
	if err := os.MkdirAll(t.o.out(), 0o755); err != nil {
		return err
	}
	return t.te.rec.writeTrace(filepath.Join(t.o.out(), "trace-"+t.w.name+".json"), t.w.name)
}

// checkIsolation asserts that the workload really bypasses what its
// description says it bypasses.
func (t *tracedRun) checkIsolation() {
	hit := t.res.metrics["bufpool.hit_ratio"].Value
	switch {
	case t.w.scaledDown:
		// sizes relative to the pool mean nothing at smoke-test scale
	case t.w.name == "oltp_point":
		if hit < 0.99 {
			t.miss("bufpool.hit_ratio %.4f < 0.99: the working set no longer fits the pool", hit)
		}
	case t.w.name == "scan_analytic":
		if hit >= 0.9 {
			t.miss("bufpool.hit_ratio %.4f >= 0.9: the scans no longer exceed the pool", hit)
		}
		if v := t.res.metrics["querycache.hit_ratio"].Value; v >= 0.05 {
			t.miss("querycache.hit_ratio %.4f >= 0.05: scan statements repeat", v)
		}
	}
}

// bareReads is the result of measureBareReads.
type bareReads struct {
	n, failed int
	p50       float64
}

// measureBareReads times n point SELECTs from a (txn_mixed's reader)
// straight into a session, skipping the range reads it generates.
func measureBareReads(te *tracedEngine, a actor, n int) bareReads {
	ex := te.direct("bench-bare")
	defer ex.close()
	var lat latencies
	var out bareReads
	var o op
	for out.n < n {
		a.next(&o)
		if o.kind != opPointRead {
			continue
		}
		t0 := time.Now()
		r, _ := ex.exec(o.sql)
		lat.add(time.Since(t0).Nanoseconds())
		if !a.check(&o, &r) {
			out.failed++
		}
		out.n++
	}
	_, out.p50, _ = lat.summary()
	return out
}

type allocProbe struct {
	n, failed int
	perStmt   float64
}

// measureAllocs executes n statements (whole requests, alternating
// actors) with nothing but Session.Execute between two MemStats reads.
func measureAllocs(te *tracedEngine, actors []actor, n int) allocProbe {
	w := te.w
	sessions := make([]*engine.Session, len(actors))
	for c := range sessions {
		sessions[c] = te.eng.Connect("bench-allocs-" + strconv.Itoa(c))
		defer sessions[c].Close()
	}
	u := int(max(w.unit, 1)) * w.batch * len(actors)
	n = (n + u - 1) / u * u
	ops := make([]op, n)
	who := make([]int, n)
	// Whole requests round robin: a transaction's statements stay on
	// their session, interleaved with the other actor's as in D1.
	for i := 0; i < n; {
		for c, a := range actors {
			for j := 0; j < w.batch && i < n; j++ {
				a.next(&ops[i])
				who[i] = c
				i++
			}
		}
	}
	type outcome struct {
		res *engine.Result
		err error
	}
	outs := make([]outcome, n)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range ops {
		outs[i].res, outs[i].err = sessions[who[i]].Execute(ops[i].sql)
	}
	runtime.ReadMemStats(&m1)
	p := allocProbe{n: n, perStmt: float64(m1.Mallocs-m0.Mallocs) / float64(n)}
	for i := range ops {
		r := fromEngine(outs[i].res, outs[i].err)
		if !actors[who[i]].check(&ops[i], &r) {
			p.failed++
		}
	}
	return p
}

func (t *spanTotals) absorb(o spanTotals) {
	t.requests += o.requests
	t.reqNs += o.reqNs
	t.reqSelfNs += o.reqSelfNs
	t.cryptSelfNs += o.cryptSelfNs
	t.vfsWriteNs += o.vfsWriteNs
	t.vfsSyncNs += o.vfsSyncNs
	t.vfsOthNs += o.vfsOthNs
	t.vfsWrites += o.vfsWrites
	t.vfsSyncs += o.vfsSyncs
	t.cryptSpans += o.cryptSpans
}

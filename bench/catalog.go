package main

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// metricDef describes one metric of BENCHMARK.json.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// exact marks a count of the serial replay: for one seed it must
	// repeat bit for bit (-selfcheck asserts it), so two commits may be
	// compared on it without a noise margin.
	exact bool
}

// endToEnd are the gated metrics: what a user of the server sees, each
// defined (and never zero) on all four workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, false},
	{"throughput_stmts_s", "stmts/s", "higher", 0.25, false},
	{"req_p50_us", "us", "lower", 0.25, false},
	{"server_cpu_ms_per_kstmt", "ms", "lower", 0.25, false},
	{"server_rss_mb", "MiB", "lower", 0.15, false},
	{"recovery_s", "s", "lower", 0.25, false},
	{"disk_bytes_per_stmt_byte", "ratio", "lower", 0.05, false},
}

func endToEndNames() []string {
	out := make([]string, len(endToEnd))
	for i, m := range endToEnd {
		out[i] = m.name
	}
	return out
}

// classSplitNames are the client-observed figures that are reported, not
// gated. The class split exists only on some workloads (no reads on
// write_crypt, no writes on scan_analytic), so the driver's contract —
// every end-to-end metric on every workload, never zero — cannot gate it;
// req_p99_us failed the repeatability test on the reference sandbox
// (ten-run spreads of 3–17 % depending on the hour). They are measured on
// the untraced daemon like the gated ones, and reported with the
// per-layer set.
var classSplitNames = []string{
	"req_p99_us", "read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us",
	"batch_p50_ms", "batch_p99_ms", "txn_s", "failed_ops_ratio",
}

// perLayer are the metrics of single layers, from the traced pass.
var perLayer = []metricDef{
	{"req_p99_us", "us", "lower", 0, false},
	{"read_p50_us", "us", "lower", 0, false}, {"read_p99_us", "us", "lower", 0, false},
	{"write_p50_us", "us", "lower", 0, false}, {"write_p99_us", "us", "lower", 0, false},
	{"batch_p50_ms", "ms", "lower", 0, false}, {"batch_p99_ms", "ms", "lower", 0, false},
	{"txn_s", "txn/s", "higher", 0, false}, {"failed_ops_ratio", "ratio", "lower", 0, false},

	{"server.wire_us_per_stmt", "us", "lower", 0, false},
	{"server.bytes_in_per_stmt", "B", "lower", 0, true},
	{"server.bytes_out_per_stmt", "B", "lower", 0, true},
	{"server.conn_writes_per_stmt", "count", "lower", 0, true},

	{"sqlparse.parse_ns_per_stmt", "ns", "lower", 0, false},
	{"sqlparse.digest_ns_per_stmt", "ns", "lower", 0, false},
	{"sqlparse.allocs_per_stmt", "count", "lower", 0, false},

	{"engine.select_point_us", "us", "lower", 0, false},
	{"engine.update_point_us", "us", "lower", 0, false},
	{"engine.select_range_us", "us", "lower", 0, false},
	{"engine.count_scan_us", "us", "lower", 0, false},
	{"engine.topn_us", "us", "lower", 0, false},
	{"engine.commit_us", "us", "lower", 0, false},
	{"engine.self_us_per_stmt", "us", "lower", 0, false},
	{"engine.allocs_per_stmt", "count", "lower", 0, false},
	{"engine.plancache_hit_ratio", "ratio", "higher", 0, true},
	{"engine.rows_examined_per_row_returned", "ratio", "lower", 0, true},
	{"engine.mvcc_live_versions", "count", "lower", 0, true},
	{"engine.mvcc_purged_per_kstmt", "count", "higher", 0, true},
	{"engine.select_point_us_with_chains", "us", "lower", 0, false},
	{"engine.recover_s", "s", "lower", 0, false},
	{"engine.recover_records_s", "1/s", "higher", 0, false},
	{"engine.checkpoint_ms", "ms", "lower", 0, false},

	{"perfschema.us_per_stmt", "us", "lower", 0, false},
	{"querycache.hit_ratio", "ratio", "higher", 0, true},
	{"querycache.invalidations_per_kstmt", "count", "lower", 0, true},

	{"bufpool.fetches_per_stmt", "count", "lower", 0, true},
	{"bufpool.hit_ratio", "ratio", "higher", 0, true},
	{"bufpool.evictions_per_kstmt", "count", "lower", 0, true},
	{"bufpool.fetch_hit_ns", "ns", "lower", 0, false},
	{"bufpool.fetch_hit_ns_2g", "ns", "lower", 0, false},

	{"btree.search_ns", "ns", "lower", 0, false},
	{"btree.range_ns_per_row", "ns", "lower", 0, false},
	{"btree.pages_per_lookup", "count", "lower", 0, true},
	{"btree.height", "count", "lower", 0, true},

	{"storage.decode_ns_per_row", "ns", "lower", 0, false},
	{"storage.encode_ns_per_row", "ns", "lower", 0, false},

	{"wal.records_per_write_stmt", "count", "lower", 0, true},
	{"wal.bytes_per_write_stmt", "B", "lower", 0, true},
	{"wal.group_commit_batch", "count", "higher", 0, false},
	{"wal.append_ns_per_record", "ns", "lower", 0, false},
	{"wal.parse_mb_s", "MiB/s", "higher", 0, false},

	{"binlog.bytes_per_write_stmt", "B", "lower", 0, true},
	{"binlog.group_commit_batch", "count", "higher", 0, false},
	{"binlog.commit_ns_per_event", "ns", "lower", 0, false},
	{"binlog.parse_mb_s", "MiB/s", "higher", 0, false},

	{"vfs.fsyncs_per_write_stmt", "count", "lower", 0, true},
	{"vfs.write_calls_per_write_stmt", "count", "lower", 0, true},
	{"vfs.bytes_written_per_write_stmt", "B", "lower", 0, true},
	{"vfs.sync_us", "us", "lower", 0, false},
	{"vfs.write_us", "us", "lower", 0, false},
	{"vfs.cryptfs_self_us_per_write_stmt", "us", "lower", 0, false},
	{"vfs.cryptfs_write_amp", "ratio", "lower", 0, true},
	{"vfs.cryptfs_read_amp", "ratio", "lower", 0, true},
	{"vfs.cryptfs_det_write_mb_s", "MiB/s", "higher", 0, false},
	{"vfs.cryptfs_fresh_write_mb_s", "MiB/s", "higher", 0, false},
	{"vfs.cryptfs_det_append_ns", "ns", "lower", 0, false},

	{"prim.pagecipher_mb_s", "MiB/s", "higher", 0, false},
	{"prim.tweak_ns", "ns", "lower", 0, false},

	{"trace.overhead_pct", "%", "lower", 0, false},
	{"trace.attributed_pct", "%", "higher", 0, false},
}

func perLayerNames() []string {
	out := make([]string, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.name
	}
	return out
}

#!/usr/bin/env bash
# CI gate: vet, build, full test suite, then the race detector over
# everything. The -race step is load-bearing — the engine executes
# concurrent sessions over striped table locks and group commit, and
# the detector is what holds that machinery to its claims.
#
# After the functional gates, two robustness passes:
#   - fuzz smoke: every parser that reads crash-era bytes (WAL records,
#     binlog events, buffer-pool dumps) gets a short native-fuzz run —
#     "never panic on garbage" is re-earned on every commit, not
#     assumed from the seed corpus.
#   - crash torture seed matrix: the kill-point harness re-runs under
#     -race with extra seeds, so fault schedules differ from the
#     default test run's.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...

echo "== bench smoke =="
# One iteration of every in-package micro-benchmark: catches one that
# no longer compiles or errors at runtime. Timing is meaningless at
# -benchtime 1x; performance is judged by snapbench (go run ./bench,
# contract in BENCHMARK.json).
go test -run '^$' -bench . -benchtime 1x ./internal/btree ./internal/engine ./internal/engine/exec

echo "== experiment transcript =="
# The -quick transcript is an exact gate: cmd/experiments must print,
# byte for byte, the golden that TestAllQuick compares against (timing
# goes to stderr). A diff here is a forensic surface that moved.
go run ./cmd/experiments -quick 2>/dev/null | diff - internal/experiments/testdata/quick.golden

echo "== fuzz smoke =="
# One -fuzz target per invocation (a Go toolchain constraint).
fuzz() { go test "$1" -run '^$' -fuzz "$2" -fuzztime "${FUZZTIME:-5s}"; }
fuzz ./internal/wal FuzzDecodeRecord
fuzz ./internal/wal FuzzParseLog
fuzz ./internal/binlog FuzzDecodeEvent
fuzz ./internal/binlog FuzzParse
fuzz ./internal/bufpool FuzzParseDump
fuzz ./internal/bufpool FuzzDumpRoundTripBitflip
fuzz ./internal/storage FuzzMatchVsDecode
fuzz ./internal/sqlparse FuzzParseExplain
fuzz ./internal/sqlparse FuzzParseSelect
fuzz ./internal/server FuzzUnescape
fuzz ./internal/client FuzzDecodeValue

echo "== crash torture seed matrix (-race) =="
SNAPDB_TORTURE_SEEDS="${SNAPDB_TORTURE_SEEDS:-1,7,42}" \
    go test -race ./internal/engine -run 'TestCrashTorture' -count=1 -v | grep -E 'kill-points|--- (PASS|FAIL)'

echo "== encryption-at-rest smoke (-race) =="
# CryptFS stacked over the fault injector: the differential proves the
# crypto layer is observably transparent (same results, binlog, frames
# byte-for-byte after decrypt), the torture subset proves crash
# recovery through a fresh CryptFS lands on the reference digests, the
# bit-flip pass proves at-rest corruption surfaces as detected CRC
# truncation after decrypt, and E17 replays the multi-snapshot diff
# attack plus its fresh-IV ablation.
go test -race ./internal/engine -run 'TestDifferentialCryptVsPlain|TestCrashTortureEncrypted|TestCrashTortureBitFlipsEncrypted|TestRecoverEncryptedWrongKey' -count=1
go test -race ./internal/experiments -run 'TestE17SnapshotDiff' -count=1
go test -race ./internal/vfs -run 'TestCryptFS|TestFS|TestOSFS|TestWriteFileAtomic' -count=1

echo "== MVCC differential (-race) =="
# Snapshot reads vs stripe locking must be byte-identical on
# conflict-free workloads — every surface, fetch trace included — while
# the race detector watches the version store, read views, and inline
# purge running under real session concurrency, and partition workers
# scanning under a live read view (TestParallelScanUnderMVCC).
go test -race ./internal/engine -run 'TestDifferentialMVCCVsLocking|TestMVCC|TestParallelScanUnderMVCC|TestStreamingGhostMerge' -count=1

echo "== in-page search (-race) =="
# Every B+ tree descent bisects slot directories on the strength of an
# in-memory order hint that readers sharing a table's read latch derive
# lazily and concurrently. The race detector watches that derivation
# next to a latched writer; the property tests hold every node lookup,
# fetch trace and page byte to the frozen decode-and-sort reference.
go test -race ./internal/btree -run 'TestLazyHintUnderConcurrentReaders' -count=10
go test -race ./internal/btree -run 'TestNodeSearch' -count=1

echo "== borrowed scan rows (-race) =="
# A scan leaf under a plan that consumes row by row lends its rows from
# one recycled slab, and evaluates the Filter's residual predicates on
# page bytes before decoding. The poison differential runs the
# randomized generators with every loan overwritten at the following
# Next, against cursors that own their rows; the stage test holds every
# operator's counters, EXPLAIN ANALYZE line and page fetch to the
# row-at-a-time execution; the MVCC cases hold the hand-off to yielding
# whenever a view differs from the tree.
go test -race ./internal/engine -run 'TestBorrowedRowsSurvivePoison|TestStageTriplesMatchRowAtATime|TestRejectBeforeDecodeYieldsToMVCC' -count=1
go test -race ./internal/btree -run 'TestCursorLendAndReject' -count=1

echo "== write path (-race) =="
# The write path exists once — one DML driver, one row mutator under
# forward/undo/redo, one commit queue under WAL and binlog — so these
# three tests are what hold all of its callers to each other: the
# queue's error routing and stamp order under real contention,
# forward∘undo = identity and redo = forward on a randomized
# transaction, and statement atomicity on a mid-statement failure.
go test -race ./internal/commitq -count=10
go test -race ./internal/engine -run 'TestWritePathRoundTrip|TestStatementAtomicity|TestCloseReleasesLogHandles' -count=1

echo "== network torture seed matrix (-race) =="
# The wire-level counterpart: seeded resets, partial writes, latency
# and blackholes against live connections, with exactly-once asserted
# by state-digest/binlog/general-log comparison against a fault-free
# run. Extra seeds here, like the crash matrix, so CI explores fault
# schedules the default test run does not.
SNAPDB_NETFAULT_SEEDS="${SNAPDB_NETFAULT_SEEDS:-1,7,42}" \
    go test -race ./internal/server -run 'TestNetworkTortureExactlyOnce|TestReplyLossForcesReplayResidue' -count=1 -v |
    grep -E 'retry residue|--- (PASS|FAIL)'

echo "CI OK"

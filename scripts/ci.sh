#!/usr/bin/env bash
# CI gate: vet, build, full test suite, then the race detector over
# everything. The -race step is load-bearing — the engine executes
# concurrent sessions over striped table locks and group commit, and
# the detector is what holds that machinery to its claims.
#
# After the functional gates, two robustness passes:
#   - fuzz smoke: every parser that reads crash-era bytes (WAL records,
#     binlog events, buffer-pool dumps, checkpoints) gets a short
#     native-fuzz run — "never panic on garbage" is re-earned on every
#     commit, not assumed from the seed corpus.
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

echo "== the engine sleeps nowhere =="
# No non-test file of the engine or its substrates may call time.Sleep:
# a statement costs what its code costs, and anything that would price
# a device does it in snapbench, through a real daemon (DESIGN.md "No
# modelled device").
sleeps=$(grep -rn 'time\.Sleep' --include='*.go' \
    internal/engine internal/wal internal/binlog internal/btree \
    internal/bufpool internal/storage internal/commitq | grep -v '_test\.go:' || true)
if [ -n "$sleeps" ]; then
    echo "time.Sleep in the engine:" >&2
    echo "$sleeps" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
# -count=1: the race run is the gate for everything concurrent — the
# CryptFS and MVCC differentials, the borrowed-row poison run, the
# write-path round trips, the in-page search property tests — so it
# never answers from the test cache. Nothing below repeats a test it
# already ran with the same flags; what follows differs from it in
# seeds, -count, or kind.
go test -race -count=1 ./...

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
fuzz ./internal/engine FuzzReadCheckpoint
fuzz ./internal/sqlparse FuzzParseExplain
fuzz ./internal/sqlparse FuzzParseSelect
fuzz ./internal/server FuzzUnescape
fuzz ./internal/client FuzzDecodeValue

echo "== crash torture seed matrix (-race) =="
SNAPDB_TORTURE_SEEDS="${SNAPDB_TORTURE_SEEDS:-1,7,42}" \
    go test -race ./internal/engine -run 'TestCrashTorture' -count=1 -v | grep -E 'kill-points|--- (PASS|FAIL)'

echo "== concurrent derivations and queues, ten times (-race) =="
# The two tests whose subject is a schedule: readers sharing a read
# latch deriving one page's order hint next to a latched writer, and
# the group-commit queue's error routing and stamp order under real
# contention. One pass each is in the race run above; nine more look
# at nine more interleavings.
go test -race ./internal/btree -run 'TestLazyHintUnderConcurrentReaders' -count=10
go test -race ./internal/commitq -count=10
# And the transcript gate itself: what E12, E15 and E17 leave in Render
# must repeat on a busy box, where sessions do meet in the queue.
go test ./internal/experiments -run TestRenderRepeats -count=5

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

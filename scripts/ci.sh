#!/usr/bin/env bash
# CI gate: vet, build, full test suite, then the race detector over
# everything. The -race step is load-bearing — the engine executes
# concurrent sessions over striped table locks and group commit, and
# the detector is what holds that machinery to its claims.
#
# After the functional gates, two robustness passes:
#   - fuzz smoke: every parser that reads crash-era bytes (WAL records,
#     binlog events, buffer-pool dumps, checkpoints, CryptFS's fresh-IV
#     sidecars) gets a short
#     native-fuzz run — "never panic on garbage" is re-earned on every
#     commit, not assumed from the seed corpus — and so does every fast
#     path held to a reference (the lexer, CryptFS's keystream, MemFS —
#     the disk every engine without a data directory writes — against
#     its copy-everything model, the framed in-memory WAL against the
#     record slice it replaced, a page's kept key index, in-page
#     search), the B+ tree held to a map, and the engine's SQL held to
#     a map-backed SQL model.
#   - crash torture seed matrix: the kill-point harness (recovered data
#     matches a statement prefix, the recovered binlog file never leads
#     it) in both arms, statements one at a time and submitted as
#     pending groups (plain and encrypted), the cost census (durable
#     ops, pool fetches, rows examined and log bytes per statement
#     class), the check that the logs are read from their files (one
#     store per log, one disk model for every engine), recovery's one-descent replay held to its
#     properties (the recovered state is the acknowledged statements'
#     minus the losers, and every record follows the per-record trace
#     rule), its log walks against their parsers, SQL across key arrival
#     orders held to the SQL model live and after recovery, its one-pass
#     loser rule on interleaved
#     transactions and on transactions spanning replay batches, its
#     failure paths (error order, no byte written, no goroutine left), the checks that an engine opened on a directory
#     serves that directory's data through its own pool and FS and that
#     a failed recovery (a forged checkpoint's looped descent) writes
#     nothing, the checks that replay files no
#     version a read view could reach (only checkpoint-restored chains
#     grow, and snapshot reads still hold after recovery), and the
#     commit-order failure tests re-run under -race with extra seeds, so
#     fault schedules differ from the default test run's.
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
# Exact and fast, so they run here with everything else: the statement
# front end's allocation gate (TestParseDigestAllocationBudget) and the
# non-ASCII table name that must survive a restart
# (TestNonASCIIIdentifierSurvivesRecovery).
go test ./...

echo "== go test -race =="
# -count=1: the race run is the gate for everything concurrent — the
# CryptFS and MVCC differentials, the borrowed-row poison run, the
# write-path round trips, the in-page search, B+ tree and SQL model tests — so it
# never answers from the test cache. Nothing below repeats a test it
# already ran with the same flags; what follows differs from it in
# seeds, -count, or kind.
go test -race -count=1 ./...

echo "== bench smoke =="
# One iteration of every in-package micro-benchmark: catches one that
# no longer compiles or errors at runtime. Timing is meaningless at
# -benchtime 1x; performance is judged by snapbench (go run ./bench,
# contract in BENCHMARK.json).
go test -run '^$' -bench . -benchtime 1x ./internal/btree ./internal/engine ./internal/engine/exec ./internal/querycache ./internal/storage

echo "== experiment transcript =="
# The -quick transcript is an exact gate: cmd/experiments must print,
# byte for byte, the golden that TestAllQuick compares against (timing
# goes to stderr). A diff here is a forensic surface that moved.
go run ./cmd/experiments -quick 2>/dev/null | diff - internal/experiments/testdata/quick.golden
# And the full-scale transcript (~5 min): experiments_output.txt is the
# record EXPERIMENTS.md cites, so it is gated the same way.
go run ./cmd/experiments 2>/dev/null | diff - experiments_output.txt

echo "== fuzz smoke =="
# One -fuzz target per invocation (a Go toolchain constraint).
fuzz() { go test "$1" -run '^$' -fuzz "$2" -fuzztime "${FUZZTIME:-5s}"; }
fuzz ./internal/wal FuzzDecodeRecord
fuzz ./internal/wal FuzzParseLog
# Not a parser: the circular Log over its framed image against the
# record slice it replaced (kept in the test file), so E2's retention
# and the WAL-granularity ablation keep their numbers.
fuzz ./internal/wal FuzzLogMatchesModel
fuzz ./internal/binlog FuzzDecodeEvent
fuzz ./internal/binlog FuzzParse
fuzz ./internal/bufpool FuzzParseDump
fuzz ./internal/bufpool FuzzDumpRoundTripBitflip
fuzz ./internal/storage FuzzMatchVsDecode
# Not a parser of its own: the streamed frame walk recovery reads every
# log with, against the whole-image walk, in every chunk size.
fuzz ./internal/storage FuzzStreamedWalkMatchesWalkFrames
# Not a parser: a page's key index as its own mutators keep it, against
# a fresh derivation and against a page that never derived one, so the
# index stays true and no page byte moves.
fuzz ./internal/storage FuzzKeyIndexKept
fuzz ./internal/engine FuzzReadCheckpoint
fuzz ./internal/sqlparse FuzzParseExplain
fuzz ./internal/sqlparse FuzzParseSelect
# The lexer against the byte-at-a-time one it replaced (kept in the
# test file), and ParseDigest against Parse and Digest: no ASCII token
# or statement digest moves.
fuzz ./internal/sqlparse FuzzLexerMatchesReference
fuzz ./internal/server FuzzUnescape
fuzz ./internal/client FuzzDecodeValue
fuzz ./internal/vfs FuzzCryptFSSidecar
# Not a parser: CryptFS's keystream and tweaks against their
# block-at-a-time and HMAC references, so no ciphertext byte moves.
fuzz ./internal/crypto/prim FuzzPageCipherKeystream
# Nor this: MemFS's grow-in-place writes and dirty-range syncs against
# the copy-everything algorithm (kept in the test file), crash
# semantics included.
fuzz ./internal/vfs FuzzMemFSMatchesModel
# Nor this: in-page search through a page's kept key index, a freshly
# derived one and the linear passes the index replaced (kept in the
# test file), so no descent routes differently.
fuzz ./internal/btree FuzzInPageSearchMatchesReference
# Nor this: whole-tree writes over int or text keys, in any order,
# against a map-backed model, with every step's tree passing the shape
# check (separators bound their children from below) and fetching the
# pages its shape implies.
fuzz ./internal/btree FuzzTreeMatchesModel
# And this: decoded two-session SQL workloads held to the map-backed
# SQL model, every statement's fetches to the trace rule.
fuzz ./internal/engine FuzzSQLMatchesModel

echo "== crash torture seed matrix (-race) =="
SNAPDB_TORTURE_SEEDS="${SNAPDB_TORTURE_SEEDS:-1,7,42}" \
    go test -race ./internal/engine -count=1 -v \
        -run 'TestCrashTorture|TestCostCensus|TestGroupedFlushWritesSameBytes|TestCheckRecoveredSeesLeadingBinlog|TestDurableEngineHoldsNoLogHistory|TestStatementAtomicity|TestCommitCrashBetweenWALAndBinlog|TestStatementDurabilityFailures|TestRedoOneDescentMatchesReference|TestSQLMatchesModel|TestRecoveryWalkMatchesParsers|TestRecoverInterleavedLosers|TestLosersAcrossBatches|TestPipelinedRecoveryFailures|TestRecoveredFetchCounterIsLive|TestRecoveredConfigFS|TestNewOpensDataDirectory|TestFailedReplayLeavesDirectory|TestRecoveredStoreHoldsNoReplayedHistory|TestReplayExtendsCheckpointChains|TestRecoveredRepeatableRead' |
    grep -E 'kill-points|--- (PASS|FAIL)'

echo "== concurrent derivations and queues, ten times (-race) =="
# The tests whose subject is a schedule: readers sharing a read latch
# deriving one page's key index next to a latched writer that the
# page's own mutators keep it for, the group-commit queue's error
# routing and stamp order under real contention, and CryptFS's per-handle keystream and size memos. One
# pass each is in the race run above; nine more look at nine more
# interleavings.
go test -race ./internal/btree -run 'TestLazyHintUnderConcurrentReaders' -count=10
go test -race ./internal/commitq -count=10
# The query cache's Get/Put/InvalidateTable/Entries from four
# goroutines: a hit decodes its entry outside the lock, so each
# schedule checks that a re-Put never writes bytes a reader holds.
go test -race ./internal/querycache -run 'TestConcurrentUse' -count=10
# Parallel scan partitions: workers joined by one WaitGroup and stopped
# by one flag, each counting its own fetches while another session
# scans beside them; and range and point readers resolving only their
# own ranges' version chains while a writer commits and rolls back and
# inline purge trims the chains under them. And the plan cache: sessions
# hitting, admitting and invalidating plans, and reading and overwriting
# the doorkeeper slots, under one shard lock. And recovery's pipeline: the
# redo reader, the undo and binlog walks and the replay, interleaved ten
# more ways, must recover two clones of one directory to the same bytes.
go test -race -count=10 -run 'TestParallelScan|TestStageFetchesAreOwn|TestRangeViewsUnderPurge|TestPipelinedRecoveryIsDeterministic|TestPlanCache' ./internal/engine
# Two goroutines on one CryptFS, shrinking files under each other's
# remembered sizes.
go test -race ./internal/vfs -count=10 \
    -run 'TestCryptFSConcurrentHandles|TestFSWritePastEOFAfterShrink|TestCryptFSWriteAfterFailedWrite'
# And the transcript gate itself: what E15 and E17 leave in Render must
# repeat on a busy box.
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

#!/usr/bin/env bash
# Runs the root benchmark harness and records the results as
# BENCH_<date>.json in the repository root: one object per benchmark
# with its name, ns/op and allocs/op (plus any custom metric the
# benchmark reports, e.g. stmts/s). Commit the file to track
# performance across PRs.
#
# Usage: scripts/bench.sh [go-bench-regex]   (default: all benchmarks)
set -euo pipefail
cd "$(dirname "$0")/.."

pattern="${1:-.}"
out="BENCH_$(date +%Y-%m-%d).json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$pattern" -benchmem . ./internal/engine/exec | tee "$raw"

awk '
BEGIN { print "[" ; first = 1 }
/^Benchmark/ {
    name = $1
    ns = ""; allocs = ""; extra = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")       ns = $(i-1)
        if ($(i) == "allocs/op")   allocs = $(i-1)
        if ($(i) ~ /\// && $(i) != "ns/op" && $(i) != "B/op" && $(i) != "allocs/op")
            extra = sprintf("%s, \"%s\": %s", extra, $(i), $(i-1))
    }
    if (ns == "") next
    if (!first) printf(",\n")
    first = 0
    printf("  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s%s}", name, ns, allocs, extra)
}
END { print "\n]" }
' "$raw" > "$out"

echo "wrote $out"

#!/usr/bin/env bash
# lines.sh <rev> [path...]: the Go line delta of the working tree
# against <rev>, split into non-test and test (_test.go) files and,
# within each, into code, comment and blank lines. A line is a comment
# when its first non-blank characters are "//" (the tree has no /* */
# comments), blank when it holds only white space. Untracked Go files count as added whole. Paths, if
# given, limit the count to those files or directories.
#
#   scripts/lines.sh HEAD~1
#   scripts/lines.sh main internal/engine
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:?usage: scripts/lines.sh <rev> [path...]}
shift
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "lines.sh: unknown revision $rev" >&2
    exit 2
}
paths=("$@")
[ ${#paths[@]} -gt 0 ] || paths=(.)

{
    git diff --no-color --no-ext-diff --no-renames "$rev" -- "${paths[@]}" |
        awk '/^diff --git / { go = ($NF ~ /\.go$/) } go'
    git ls-files -z --others --exclude-standard -- "${paths[@]}" |
        while IFS= read -r -d '' f; do
            case $f in *.go) ;; *) continue ;; esac
            printf 'diff --git a/%s b/%s\n@@ new file @@\n' "$f" "$f"
            sed 's/^/+/' "$f"
        done
} | awk -v rev="$rev" '
function kind(text) {
    sub(/^[ \t]+/, "", text)
    if (text == "") return "blank"
    if (text ~ /^\/\//) return "comment"
    return "code"
}
/^diff --git / { test = ($NF ~ /_test\.go$/) ? "test" : "non-test"; inhunk = 0; next }
/^@@/ { inhunk = 1; next }
!inhunk { next }
/^\+/ { n[test, "+", kind(substr($0, 2))]++; next }
/^-/ { n[test, "-", kind(substr($0, 2))]++; next }
END {
    printf "Go lines, working tree vs %s\n", rev
    printf "%-9s %14s %14s %14s %8s\n", "", "code", "comment", "blank", "net"
    for (i = 1; i <= 2; i++) {
        t = (i == 1) ? "non-test" : "test"
        net = 0
        line = sprintf("%-9s", t)
        for (j = 1; j <= 3; j++) {
            k = (j == 1) ? "code" : (j == 2) ? "comment" : "blank"
            a = n[t, "+", k] + 0
            d = n[t, "-", k] + 0
            net += a - d
            line = line sprintf(" %14s", sprintf("+%d -%d", a, d))
        }
        printf "%s %+8d\n", line, net
    }
}'

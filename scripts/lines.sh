#!/bin/sh
# lines.sh — the non-test Go lines outside bench/, the size figure each
# CHANGES.md entry reports.
#
#   scripts/lines.sh [BASE]
#
# Counts, with `wc -l`, every .go file outside bench/ that is not a
# _test.go file, in the working tree: tracked files and untracked ones that
# `git add -A` would take, but nothing .gitignore ignores (.bench_build/
# among them). It prints the count per package directory and the total.
#
# With BASE, it also exports that commit with `git archive` into a
# temporary directory, counts it the same way, and prints per package the
# base's count, the working tree's and their difference.
#
# A report, not a gate, so it is not part of `make ci`. Run it directly or
# as `make lines [BASE=rev]`.
set -eu

cd "$(dirname "$0")/.."

# gofiles filters a file list on stdin down to the counted files.
gofiles() {
    grep '\.go$' | grep -v '_test\.go$' | grep -v '^bench/' || true
}

# tally prints "package lines" per package directory of the files named on
# stdin, relative to the current directory.
tally() {
    while read -r f; do
        [ -f "$f" ] || continue # tracked but deleted in the working tree
        printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$f")"
    done | awk '{ n[$1] += $2 } END { for (p in n) print p, n[p] }'
}

tree=$(git ls-files --cached --others --exclude-standard | gofiles | tally)

if [ $# -eq 0 ]; then
    printf '%s\n' "$tree" | sort | awk 'NF {
        printf "%-32s %7d\n", $1, $2; total += $2
    } END { printf "%-32s %7d\n", "total", total }'
    exit 0
fi

base_rev=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
git archive --format=tar "$base_rev" | tar -x -C "$dir"
base=$(cd "$dir" && find . -name '*.go' | sed 's|^\./||' | gofiles | tally)

{
    printf '%s\n' "$base" | awk 'NF { print $1, "base", $2 }'
    printf '%s\n' "$tree" | awk 'NF { print $1, "tree", $2 }'
} | sort | awk -v rev="$base_rev" '
    { n[$1, $2] = $3; if (!($1 in seen)) { seen[$1] = 1; order[++k] = $1 } }
    END {
        printf "%-32s %9s %9s %7s\n", "package", substr(rev, 1, 9), "tree", "diff"
        for (i = 1; i <= k; i++) {
            p = order[i]; b = n[p, "base"] + 0; t = n[p, "tree"] + 0
            tb += b; tt += t
            if (b != t) printf "%-32s %9d %9d %+7d\n", p, b, t, t - b
            else printf "%-32s %9d %9d %7s\n", p, b, t, "0"
        }
        printf "%-32s %9d %9d %+7d\n", "total", tb, tt, tt - tb
    }'

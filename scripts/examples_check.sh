#!/bin/sh
# examples_check.sh — pin the stdout of every program under examples/.
#
# Builds each examples/<name> and runs it, then diffs its stdout against the
# checked-in examples/<name>/stdout.golden. Every example is deterministic
# (fixed seeds, in-process service), so any difference is a change in what
# the library computes or prints. After an intentional output change,
# rewrite the goldens with
#
#   REGEN=1 scripts/examples_check.sh
#
# and say why in CHANGES.md. Run directly or via `make examples-check`; CI
# runs it on every push.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
for dir in examples/*/; do
    dir=${dir%/}
    name=$(basename "$dir")
    [ -f "$dir/main.go" ] || continue
    go build -o "$tmp/$name" "./$dir"
    "$tmp/$name" > "$tmp/$name.out"
    golden="$dir/stdout.golden"
    if [ "${REGEN:-}" = 1 ]; then
        cp "$tmp/$name.out" "$golden"
        echo "wrote $golden"
    elif ! diff -u "$golden" "$tmp/$name.out"; then
        echo "examples-check: $name's stdout differs from $golden" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "examples-check: every example matches its golden"

#!/bin/sh
# suite_check.sh — pin the stdout of the full reproduction suite.
#
# Builds cmd/stochsched, runs every experiment at full size
# (`stochsched -run all -seed 3`) and diffs its stdout against the
# checked-in internal/experiments/testdata/all_seed3.txt. The quick-suite
# golden (quick_seed7.txt, compared by `go test`) runs shortened
# experiments; only this run reaches the full replication counts and the
# columns the quick mode drops, such as E25's β = 0.999 index. Output is
# deterministic for a seed, so any difference is a change in what the
# solvers or simulators compute. After an intentional table change,
# rewrite the golden with
#
#   REGEN=1 scripts/suite_check.sh
#
# and say why in CHANGES.md. Run directly or via `make suite-check`; CI
# runs it on every push.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

golden=internal/experiments/testdata/all_seed3.txt
go build -o "$tmp/stochsched" ./cmd/stochsched
"$tmp/stochsched" -run all -seed 3 > "$tmp/all.out"
if [ "${REGEN:-}" = 1 ]; then
    cp "$tmp/all.out" "$golden"
    echo "wrote $golden"
elif ! diff -u "$golden" "$tmp/all.out"; then
    echo "suite-check: the full suite's stdout differs from $golden" >&2
    exit 1
fi
echo "suite-check: the full suite at seed 3 matches its golden"

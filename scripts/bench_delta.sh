#!/bin/sh
# bench_delta.sh — the benchmark regression gate behind `make bench-check`.
#
# Re-runs the engine, simulate, adaptive-precision, and cluster
# benchmarks and compares them against the checked-in baselines
# (BENCH_engine.json, BENCH_simulate.json, BENCH_precision.json,
# BENCH_cluster.json): any
# benchmark regressing more than BENCH_TOLERANCE_PCT (default 15) percent
# in ns/op or bytes/op fails the gate. Each benchmark is measured
# BENCH_COUNT (default 6) times at BENCH_TIME (default 0.5s) each and
# folded to its best run — the minimum is the least noisy estimate of the
# code's cost. When a suite still fails, it is re-measured up to
# BENCH_ATTEMPTS (default 3) times total with every sample folded in:
# shared machines throttle in windows long enough to poison one whole
# measurement pass, but a genuine regression fails every attempt no matter
# how many samples accumulate. bytes/op is deterministic and is the gate's
# sharp edge.
#
# Regenerate the baselines with
# `make bench bench-simulate bench-precision bench-cluster` after an
# intentional performance change.
set -eu

cd "$(dirname "$0")/.."

TOL="${BENCH_TOLERANCE_PCT:-15}"
COUNT="${BENCH_COUNT:-6}"
BTIME="${BENCH_TIME:-0.5s}"
ATTEMPTS="${BENCH_ATTEMPTS:-3}"
TMP="$(mktemp)"
ALL="$(mktemp)"
trap 'rm -f "$TMP" "$ALL"' EXIT

fail=0
gate() {
    pattern="$1"
    baseline="$2"
    : > "$ALL"
    attempt=1
    while :; do
        echo "== $pattern vs $baseline (tolerance ${TOL}%, best of $COUNT x $BTIME, attempt $attempt/$ATTEMPTS) =="
        go test -run '^$' -bench "$pattern" -benchmem -count "$COUNT" -benchtime "$BTIME" . > "$TMP"
        cat "$TMP" >> "$ALL"
        if go run ./cmd/bench2json -check "$baseline" -tolerance "$TOL" < "$ALL"; then
            return 0
        fi
        if [ "$attempt" -ge "$ATTEMPTS" ]; then
            fail=1
            return 0
        fi
        attempt=$((attempt + 1))
        echo "-- retrying with accumulated samples (transient load?) --"
    done
}

gate 'BenchmarkEngineReplications$' BENCH_engine.json
gate 'BenchmarkSimulate$' BENCH_simulate.json
gate 'BenchmarkAdaptivePrecision$' BENCH_precision.json
gate 'BenchmarkCluster$' BENCH_cluster.json

if [ "$fail" -ne 0 ]; then
    echo "bench_delta: regression beyond ${TOL}% after $ATTEMPTS attempts — see FAIL lines above" >&2
    exit 1
fi
echo "bench_delta: all benchmarks within ${TOL}% of baseline"

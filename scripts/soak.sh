#!/bin/sh
# soak.sh — a short concurrent soak of running stochschedd daemons.
#
# Usage: scripts/soak.sh URL [URL...]
#
# Four background curl workers each post eight rounds of the index,
# simulate, batch and adaptive (target-precision) simulate bodies from
# internal/service/testdata to every listed daemon, with the seed varied
# on every request so that the simulations miss the cache and compute.
# Fails unless:
#   * every answer is 200 or 429 (shed under load) and carries an
#     X-Request-Id header;
#   * afterwards every daemon's GET /v1/stats reports latency.count > 0
#     for the index, simulate and batch endpoints, and at least one
#     engine worker.
# service_smoke.sh soaks one node with it, cluster_smoke.sh a 3-node ring
# through every entry point.
set -eu

cd "$(dirname "$0")/.."
TESTDATA=internal/service/testdata
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

worker() { # $1 = worker number, then the daemon base URLs
    w=$1
    shift
    n=0
    for _ in 1 2 3 4 5 6 7 8; do
        for base in "$@"; do
            for stem in index simulate batch simulate_adaptive; do
                n=$((n + 1))
                case "$stem" in
                index | batch) ep=$stem ;;
                *) ep=simulate ;;
                esac
                sed "s/\"seed\": *[0-9]*/\"seed\": $((w * 10000 + n))/" \
                    "$TESTDATA/${stem}_req.json" > "$TMP/body$w"
                code="$(curl -sS -D "$TMP/hdr$w" -o /dev/null -w '%{http_code}' \
                    -X POST --data-binary "@$TMP/body$w" "$base/v1/$ep")"
                case "$code" in
                200 | 429) ;;
                *) echo "FAIL: soak $base/v1/$ep ($stem, worker $w) answered $code" >&2; exit 1 ;;
                esac
                grep -qi '^x-request-id: ' "$TMP/hdr$w" || {
                    echo "FAIL: soak $base/v1/$ep ($stem, worker $w) lacked X-Request-Id" >&2
                    exit 1
                }
            done
        done
    done
}

pids=""
for w in 1 2 3 4; do
    worker "$w" "$@" &
    pids="$pids $!"
done
failed=0
for pid in $pids; do wait "$pid" || failed=1; done
[ "$failed" -eq 0 ] || exit 1

for base in "$@"; do
    stats="$(curl -fsS "$base/v1/stats" | tr -d ' \n')"
    for ep in index simulate batch; do
        count="$(echo "$stats" | sed -n "s/.*\"$ep\":{[^{}]*\"latency\":{\"count\":\([0-9]*\).*/\1/p")"
        [ "${count:-0}" -gt 0 ] || {
            echo "FAIL: $base/v1/stats reports no $ep latency samples after the soak" >&2
            exit 1
        }
    done
    echo "$stats" | grep -q '"workers":[1-9]' || {
        echo "FAIL: $base/v1/stats reports no engine workers" >&2
        exit 1
    }
done
echo "ok soak: 4 workers x 8 rounds of index/simulate/batch/adaptive on $# daemon(s)"

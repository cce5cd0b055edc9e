#!/bin/sh
# cluster_smoke.sh — multi-node smoke test of the stochschedd cluster.
#
# Spins up a 3-node ring on loopback (-peers/-self) and checks the
# determinism contract the cluster layer must preserve:
#   * every /v1/simulate request answers byte-identically on every node of
#     the ring AND matches a single-node daemon's response — consistent-
#     hash routing changes where a body is computed, never its bytes;
#   * a sweep submitted to each node streams NDJSON byte-identical to the
#     single-node stream (cells fan out to their ring owners);
#   * /v1/stats on a ring member reports the cluster block with all three
#     peers, and /metrics exposes the per-peer forward counters;
#   * a short concurrent soak (scripts/soak.sh) through every entry point
#     answers only 200 or 429, always with an X-Request-Id, and populates
#     every node's /v1/stats latency histograms;
#   * killing one peer degrades, not breaks: requests to a surviving node
#     still answer 200 with identical bytes (local fallback);
#   * a daemon restarted with the same -state-dir answers a previously
#     cached request as a warm hit (snapshot on SIGTERM, restore on boot).
set -eu

cd "$(dirname "$0")/.."
TESTDATA=internal/service/testdata
HOST=127.0.0.1
P0=18430 P1=18431 P2=18432 P3=18433
PEERS="http://$HOST:$P1,http://$HOST:$P2,http://$HOST:$P3"
TMP="$(mktemp -d)"
PIDS=""

cleanup() {
    for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/stochschedd" ./cmd/stochschedd

wait_ready() { # $1 = port
    for _ in $(seq 1 100); do
        if curl -fsS "http://$HOST:$1/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.05
    done
    echo "FAIL: daemon on :$1 did not become ready" >&2
    exit 1
}

run_sweep() { # $1 = base URL, $2 = output file
    accept="$(curl -fsS -X POST --data-binary "@$TESTDATA/sweep_req.json" "$1/v1/sweep")"
    id="$(echo "$accept" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
    [ -n "$id" ] || { echo "FAIL: sweep submit returned no job id: $accept" >&2; exit 1; }
    for _ in $(seq 1 200); do
        state="$(curl -fsS "$1/v1/sweep/$id" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')"
        case "$state" in
        done) break ;;
        failed | cancelled) echo "FAIL: sweep job ended $state" >&2; exit 1 ;;
        esac
        sleep 0.05
    done
    [ "$state" = "done" ] || { echo "FAIL: sweep job stuck in state $state" >&2; exit 1; }
    curl -fsS "$1/v1/sweep/$id/results" -o "$2"
}

SIM_REQS="simulate simulate_restless simulate_batch simulate_jackson simulate_polling simulate_mdp simulate_flowshop"

# --- Single-node reference ----------------------------------------------
"$TMP/stochschedd" -addr "$HOST:$P0" &
REF_PID=$!
PIDS="$PIDS $REF_PID"
wait_ready $P0
for stem in $SIM_REQS; do
    curl -fsS -X POST --data-binary "@$TESTDATA/${stem}_req.json" \
        "http://$HOST:$P0/v1/simulate" -o "$TMP/ref_$stem.json"
done
run_sweep "http://$HOST:$P0" "$TMP/ref_sweep.ndjson"
kill "$REF_PID" 2>/dev/null || true
wait "$REF_PID" 2>/dev/null || true

# --- 3-node ring --------------------------------------------------------
for port in $P1 $P2 $P3; do
    "$TMP/stochschedd" -addr "$HOST:$port" -peers "$PEERS" -self "http://$HOST:$port" \
        -state-dir "$TMP/state$port" &
    PIDS="$PIDS $!"
done
for port in $P1 $P2 $P3; do wait_ready $port; done

for port in $P1 $P2 $P3; do
    for stem in $SIM_REQS; do
        curl -fsS -X POST --data-binary "@$TESTDATA/${stem}_req.json" \
            "http://$HOST:$port/v1/simulate" -o "$TMP/node${port}_$stem.json"
        if ! cmp -s "$TMP/node${port}_$stem.json" "$TMP/ref_$stem.json"; then
            echo "FAIL: node :$port $stem body differs from single-node reference:" >&2
            diff "$TMP/ref_$stem.json" "$TMP/node${port}_$stem.json" >&2 || true
            exit 1
        fi
    done
    echo "ok node :$port simulate bodies byte-identical to single-node"
done

for port in $P1 $P2 $P3; do
    run_sweep "http://$HOST:$port" "$TMP/node${port}_sweep.ndjson"
    if ! cmp -s "$TMP/node${port}_sweep.ndjson" "$TMP/ref_sweep.ndjson"; then
        echo "FAIL: node :$port sweep NDJSON differs from single-node reference" >&2
        exit 1
    fi
    echo "ok node :$port sweep NDJSON byte-identical to single-node"
done

# Cluster legibility: the stats block and the per-peer metric families.
stats="$(curl -fsS "http://$HOST:$P1/v1/stats")"
for want in '"cluster"' "\"self\": \"http://$HOST:$P1\"" "$HOST:$P2" "$HOST:$P3"; do
    echo "$stats" | grep -q "$want" || {
        echo "FAIL: /v1/stats cluster block missing $want: $stats" >&2
        exit 1
    }
done
curl -fsS "http://$HOST:$P1/metrics" | grep -q '^stochsched_cluster_forwards_total' || {
    echo "FAIL: /metrics missing stochsched_cluster_forwards_total" >&2
    exit 1
}
echo "ok cluster stats and metrics exposed"

./scripts/soak.sh "http://$HOST:$P1" "http://$HOST:$P2" "http://$HOST:$P3"

# --- Degraded mode: kill one peer ---------------------------------------
# Node 3 dies; nodes 1 and 2 must keep answering every request 200 with
# the same bytes (forward fails once, the owner is marked down, the spec
# computes locally — determinism makes the fallback invisible).
LAST="$(echo "$PIDS" | awk '{print $NF}')"
kill "$LAST" 2>/dev/null || true
wait "$LAST" 2>/dev/null || true
for port in $P1 $P2; do
    for stem in $SIM_REQS; do
        curl -fsS -X POST --data-binary "@$TESTDATA/${stem}_req.json" \
            "http://$HOST:$port/v1/simulate" -o "$TMP/degraded${port}_$stem.json"
        if ! cmp -s "$TMP/degraded${port}_$stem.json" "$TMP/ref_$stem.json"; then
            echo "FAIL: degraded node :$port $stem body differs from reference" >&2
            exit 1
        fi
    done
    echo "ok node :$port serves every request with peer :$P3 dead"
done

# --- Durability: snapshot on SIGTERM, warm restore on boot --------------
for pid in $PIDS; do kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; done
PIDS=""
"$TMP/stochschedd" -addr "$HOST:$P0" -state-dir "$TMP/solo-state" &
SOLO=$!
PIDS="$SOLO"
wait_ready $P0
curl -fsS -X POST --data-binary "@$TESTDATA/simulate_req.json" \
    "http://$HOST:$P0/v1/simulate" -o "$TMP/before_restart.json"
kill -TERM "$SOLO"
wait "$SOLO" 2>/dev/null || true
[ -f "$TMP/solo-state/state.snap" ] || {
    echo "FAIL: SIGTERM left no snapshot in -state-dir" >&2
    exit 1
}
"$TMP/stochschedd" -addr "$HOST:$P0" -state-dir "$TMP/solo-state" &
PIDS="$!"
wait_ready $P0
hdr="$(curl -fsS -D - -o "$TMP/after_restart.json" -X POST \
    --data-binary "@$TESTDATA/simulate_req.json" "http://$HOST:$P0/v1/simulate")"
echo "$hdr" | grep -qi '^x-cache: hit' || {
    echo "FAIL: restarted daemon did not serve the restored entry as a warm hit:" >&2
    echo "$hdr" >&2
    exit 1
}
cmp -s "$TMP/after_restart.json" "$TMP/before_restart.json" || {
    echo "FAIL: restored warm hit differs from the pre-restart body" >&2
    exit 1
}
echo "ok snapshot/restore round trip serves warm, byte-identical hits"

echo "cluster smoke passed"

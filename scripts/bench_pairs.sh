#!/bin/sh
# bench_pairs.sh — paired end-to-end benchmark runs: a base commit against
# the working tree, on the workload BENCHMARK.json declares.
#
#   scripts/bench_pairs.sh BASE WORKLOAD PAIRS [SEED]
#
# Exports BASE with `git archive` into a temporary directory, then runs
# `bash bench/run.sh --workload WORKLOAD --seed S --seconds 20 --trace 0`
# there and in the working tree, PAIRS times, on seeds SEED, SEED+1, ...
# (default 101), the two sides of a pair on the same seed. Odd pairs run
# the base first, even pairs the change, so drift of the machine over a
# pair does not favour one side. Each pair takes about a minute and a half.
#
# Per pair it prints, for each side, the three end-to-end metrics, the
# daemon CPU per open-loop op the log prints before calibration scales it
# ("cpu_raw"), the calibration factor, and whether the run was correct
# with no failed op. Then, per metric, each side's median and quartiles
# (Python's statistics.quantiles, n=4, as bench/README.md does), the
# number of pairs in which the change is lower, and whether a claimed gain
# would hold: lower in at least 9 of every 10 pairs, and medians apart by
# more than the base's quartile spread. Every metric is lower-is-better.
#
# It reads bench/'s output and changes nothing there. Run logs stay in
# BENCH_PAIRS_DIR (default: a new temporary directory), whose path is
# printed at the end. Not a CI job: ten pairs take about fifteen minutes.
set -eu

if [ $# -lt 3 ]; then
    echo "usage: $0 BASE WORKLOAD PAIRS [SEED]" >&2
    exit 2
fi
base_rev="$1"
workload="$2"
pairs="$3"
seed="${4:-101}"

cd "$(dirname "$0")/.."
tree="$PWD"
dir="${BENCH_PAIRS_DIR:-$(mktemp -d)}"
mkdir -p "$dir/base"
git archive --format=tar "$base_rev" | tar -x -C "$dir/base"

# run SIDE CHECKOUT SEED: one benchmark run, its log kept as SIDE-SEED.log,
# and one summary line appended to SIDE.tsv:
# seed setup_s cpu_ms_per_op rss_mb cpu_raw factor ok
run() {
    log="$dir/$1-$3.log"
    status=0
    (cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --seconds 20 --trace 0) > "$log" 2>&1 || status=$?
    awk -v seed="$3" -v status="$status" '
        /daemon CPU/ { for (i = 1; i < NF; i++) if ($i == "CPU") raw = $(i + 1) }
        /scaled by/ { factor = $NF }
        /^\{/ {
            line = $0
            ok = (line ~ /"correct":true/ && line ~ /"failed":0[,}]/) ? "yes" : "no"
            n = split("setup_s cpu_ms_per_op rss_mb", names, " ")
            for (k = 1; k <= n; k++) {
                rest = substr(line, index(line, "\"" names[k] "\""))
                sub(/^[^:]*:\{"value":/, "", rest)
                sub(/[,}].*/, "", rest)
                v[k] = rest
            }
        }
        END {
            if (status != 0) ok = "no"
            printf "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", seed, v[1], v[2], v[3], raw, factor, ok
        }' "$log" >> "$dir/$1.tsv"
}

: > "$dir/base.tsv"
: > "$dir/change.tsv"
i=1
while [ "$i" -le "$pairs" ]; do
    s=$((seed + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        run base "$dir/base" "$s"
        run change "$tree" "$s"
    else
        run change "$tree" "$s"
        run base "$dir/base" "$s"
    fi
    b=$(tail -n 1 "$dir/base.tsv")
    c=$(tail -n 1 "$dir/change.tsv")
    printf '%s\n%s\n' "$b" "$c" | awk -v pair="$i" -v first="$([ $((i % 2)) -eq 1 ] && echo base || echo change)" '
        NR == 1 { split($0, b, "\t") }
        NR == 2 { split($0, c, "\t") }
        END {
            printf "pair %d, seed %s, %s first\n", pair, b[1], first
            printf "  %-7s setup_s %.4f  cpu_ms_per_op %.4f  rss_mb %.2f  cpu_raw %.4f  factor %.4f  correct %s\n", "base", b[2], b[3], b[4], b[5], b[6], b[7]
            printf "  %-7s setup_s %.4f  cpu_ms_per_op %.4f  rss_mb %.2f  cpu_raw %.4f  factor %.4f  correct %s\n", "change", c[2], c[3], c[4], c[5], c[6], c[7]
        }'
    i=$((i + 1))
done

# summary: per metric, medians and quartiles of each side, wins, the rule.
paste "$dir/base.tsv" "$dir/change.tsv" | awk '
    # quartiles of sorted x[1..n] at q = 1, 2, 3, as Python statistics.quantiles(n=4) computes them
    function quart(x, n, q,    m, j, d) {
        if (n == 1) return x[1]
        m = n + 1
        j = int(q * m / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        d = q * m - j * 4
        return (x[j] * (4 - d) + x[j + 1] * d) / 4
    }
    function median(x, n) { return n % 2 ? x[(n + 1) / 2] : (x[n / 2] + x[n / 2 + 1]) / 2 }
    function sortn(x, n,    i, j, t) {
        for (i = 2; i <= n; i++) for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
    }
    {
        n++
        for (k = 2; k <= 5; k++) { b[k, n] = $k + 0; c[k, n] = $(k + 7) + 0 }
        if ($7 != "yes" || $14 != "yes") bad++
    }
    END {
        split("x setup_s cpu_ms_per_op rss_mb cpu_raw", name, " ")
        need = int((9 * n + 9) / 10)
        printf "\n%d pairs; %d with a run not correct or with failed ops\n", n, bad
        printf "%-14s %-30s %-30s %-5s %s\n", "metric", "base median [Q1, Q3]", "change median [Q1, Q3]", "lower", "gain holds (>= " need "/" n " lower, gap > base Q3-Q1)"
        for (k = 2; k <= 5; k++) {
            wins = 0
            for (i = 1; i <= n; i++) { xb[i] = b[k, i]; xc[i] = c[k, i]; if (xc[i] < xb[i]) wins++ }
            sortn(xb, n); sortn(xc, n)
            mb = median(xb, n); mc = median(xc, n)
            spread = quart(xb, n, 3) - quart(xb, n, 1)
            holds = (wins >= need && mb - mc > spread) ? "yes" : "no"
            printf "%-14s %-30s %-30s %2d/%-2d %s (gap %.4f, spread %.4f, %+.1f%%)\n", name[k],
                sprintf("%.4f [%.4f, %.4f]", mb, quart(xb, n, 1), quart(xb, n, 3)),
                sprintf("%.4f [%.4f, %.4f]", mc, quart(xc, n, 1), quart(xc, n, 3)),
                wins, n, holds, mb - mc, spread, 100 * (mc - mb) / mb
        }
    }'
echo "logs: $dir"

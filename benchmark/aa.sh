#!/usr/bin/env bash
# A/A check: the same build, two interleaved sets of runs (A B A B ...).
#
#   benchmark/aa.sh            # 3 runs per set, BENCHMARK.json's run_seconds
#   RUNS=5 SEED=7 benchmark/aa.sh
#
# For every workload x end-to-end metric it prints both sets' medians and
# their relative gap, and fails if the gap exceeds the metric's bound in
# BENCHMARK.json (in either direction: one set is the worse one). One
# traced run per set then checks that the exact counts (messages, bytes,
# chunks and rounds per job, cache ratios at a fixed 100 units) are
# identical. Output is committed as out/aa.txt.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
spec="$here/../BENCHMARK.json"
runs="${RUNS:-3}"
seed="${SEED:-42}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$spec")"
workloads="$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$spec")"
# "name bound" per end-to-end metric (one metric per line in the spec).
gated="$(sed -n 's/.*{"name": "\([^"]*\)", "unit": "[^"]*", "better": "[a-z]*", "bound": \([0-9.]*\)}.*/\1 \2/p' "$spec")"
exact="comm.messages_per_job comm.bytes_per_job comm.chunks_per_job engine.rounds_per_job serve.hit_ratio serve.evictions_per_unit run.units"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Prints "metric value" for every metric of a run's result line.
metrics_of() {
    tail -n 1 | grep -o '"[A-Za-z0-9_.]*": {"value": [^,]*' | sed 's/"\([^"]*\)": {"value": /\1 /'
}

echo "# A/A on $(date -u +%Y-%m-%dT%H:%MZ), nproc=$(nproc), seed=$seed, $runs runs per set x ${seconds}s"
"$here/run.sh" --smoke >/dev/null # builds once; later runs find it built
for w in $workloads; do
    for i in $(seq "$runs"); do
        for set in A B; do
            "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                | metrics_of | sed "s/^/$w $set /" >>"$tmp/gated"
        done
    done
    for set in A B; do
        "$here/run.sh" --workload "$w" --seed "$seed" --seconds 1 --trace 1 \
            | metrics_of | sed "s/^/$w $set /" >>"$tmp/traced"
    done
done

status=0
printf '%-16s %-16s %14s %14s %9s %7s\n' workload metric median_A median_B gap bound
for w in $workloads; do
    while read -r name bound; do
        line="$(awk -v w="$w" -v m="$name" -v bound="$bound" '
            function median(a, n,    i, j, t) {
                for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
                return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
            }
            $1 == w && $3 == m { if ($2 == "A") a[++na] = $4; else b[++nb] = $4 }
            END {
                ma = median(a, na); mb = median(b, nb)
                gap = (mb > ma ? mb - ma : ma - mb) / ma
                printf "%-16s %-16s %14.4f %14.4f %8.2f%% %6.0f%% %s\n", w, m, ma, mb, 100 * gap, 100 * bound, (gap > bound ? "FAIL" : "ok")
            }' "$tmp/gated")"
        echo "$line"
        case "$line" in *FAIL) status=1 ;; esac
    done <<<"$gated"
done

echo
echo "# exact counts, one traced 100-unit run per set"
for w in $workloads; do
    for m in $exact; do
        a="$(awk -v w="$w" -v m="$m" '$1 == w && $2 == "A" && $3 == m { print $4 }' "$tmp/traced")"
        b="$(awk -v w="$w" -v m="$m" '$1 == w && $2 == "B" && $3 == m { print $4 }' "$tmp/traced")"
        verdict=ok
        if [ -z "$a" ] || [ "$a" != "$b" ]; then
            verdict=FAIL
            status=1
        fi
        printf '%-16s %-28s %18s %18s %s\n' "$w" "$m" "$a" "$b" "$verdict"
    done
done
[ "$status" -eq 0 ] && echo "A/A ok" || echo "A/A FAILED"
exit "$status"

#!/usr/bin/env bash
# Tracked benchmark harness: runs the perf-trajectory benches with JSON
# recording enabled (see crates/bench/src/json.rs) and wraps the records
# into BENCH_<date>.json at the repo root.
#
#   scripts/bench.sh            full run; writes BENCH_$(date +%F).json
#   scripts/bench.sh --smoke    CI mode: one tiny graph through the fig11
#                               harness, asserts records were emitted,
#                               writes nothing to the repo
#
# Knobs: KIMBAP_SCALE / KIMBAP_THREADS / KIMBAP_SKIP_MC as usual, plus
# KIMBAP_BENCH_BASELINE=<jsonl file> to embed before-numbers (e.g. from a
# run on the previous commit) as a "baseline" array in the output.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
[ "${1:-}" = "--smoke" ] && SMOKE=1

TMP_JSONL="$(mktemp /tmp/kimbap-bench-XXXXXX.jsonl)"
trap 'rm -f "$TMP_JSONL"' EXIT
export KIMBAP_BENCH_JSON="$TMP_JSONL"

if [ "$SMOKE" = 1 ]; then
    export KIMBAP_SCALE=tiny KIMBAP_SKIP_MC=1 KIMBAP_HOSTS_MEDIUM=2 KIMBAP_BENCH_SMOKE=1
    cargo bench -q -p kimbap-bench --bench fig11_runtime_variants
    # The Fig. 11 ablation: each of the three Kimbap rows must have run.
    for system in sgr_only sgr_cf sgr_cf_gar; do
        if ! grep '"bench":"fig11_runtime_variants"' "$TMP_JSONL" \
                | grep -q "\"system\":\"$system\""; then
            echo "bench smoke: no fig11_runtime_variants record for $system" >&2
            exit 1
        fi
    done
    cargo bench -q -p kimbap-bench --bench max_graph_size
    # The frontier bench asserts internally that rounds after round 2 ran a
    # strict subset of the node space; here we additionally check that its
    # records made it into the JSONL with the sparse flag set.
    cargo bench -q -p kimbap-bench --bench frontier_cclp
    if ! grep -q '"system":"sparse".*"sparse":true' "$TMP_JSONL"; then
        echo "bench smoke: sparse frontier path not exercised" >&2
        exit 1
    fi
    # Chunked collectives: the fig11 records must show wire chunks sent.
    if ! grep -q '"chunks_sent":[1-9]' "$TMP_JSONL"; then
        echo "bench smoke: no wire chunks recorded" >&2
        exit 1
    fi
    # Compressed storage tier: every run record must carry the footprint
    # columns, and the size records must show compressed beating raw.
    if ! grep '"bench":"fig11_runtime_variants"' "$TMP_JSONL" \
            | grep -q '"graph_bytes":[1-9][0-9]*,"max_host_graph_bytes":[1-9]'; then
        echo "bench smoke: run records missing graph_bytes columns" >&2
        exit 1
    fi
    if ! grep -q '"bench":"max_graph_size".*"system":"compressed".*"bytes_per_edge"' "$TMP_JSONL"; then
        echo "bench smoke: no compressed size record emitted" >&2
        exit 1
    fi
    if ! grep '"bench":"fig11_runtime_variants"' "$TMP_JSONL" \
            | grep -q '"peak_rss_bytes":[1-9]'; then
        echo "bench smoke: peak_rss_bytes not recorded" >&2
        exit 1
    fi
    # Elastic membership counters: every run record must serialize the
    # join and re-shard columns (zero in fault-free runs, but always
    # present so the perf history can diff churn experiments).
    if ! grep '"bench":"fig11_runtime_variants"' "$TMP_JSONL" \
            | grep '"joins":[0-9]' | grep -q '"resharded_keys":[0-9]'; then
        echo "bench smoke: run records missing joins/resharded_keys columns" >&2
        exit 1
    fi
    # Serving layer: the mixed job stream repeats queries, so its record
    # must show real cache hits — a hitless run means the result cache
    # (or its HostStats accounting) is broken.
    cargo bench -q -p kimbap-bench --bench serve_throughput
    if ! grep '"bench":"serve_throughput"' "$TMP_JSONL" \
            | grep -q '"cache_hits":[1-9]'; then
        echo "bench smoke: serve_throughput recorded no cache hits" >&2
        exit 1
    fi
    lines=$(wc -l < "$TMP_JSONL")
    if [ "$lines" -lt 1 ]; then
        echo "bench smoke: no JSON records produced" >&2
        exit 1
    fi
    echo "bench smoke: $lines JSON record(s) produced OK (sparse + chunked paths exercised)"
    exit 0
fi

cargo bench -q -p kimbap-bench --bench micro_npm
cargo bench -q -p kimbap-bench --bench fig11_runtime_variants
cargo bench -q -p kimbap-bench --bench table3_single_host
cargo bench -q -p kimbap-bench --bench frontier_cclp
cargo bench -q -p kimbap-bench --bench max_graph_size
cargo bench -q -p kimbap-bench --bench serve_throughput

# Never clobber an already-tracked file from an earlier run the same day.
OUT="BENCH_$(date +%F).json"
n=2
while [ -e "$OUT" ]; do
    OUT="BENCH_$(date +%F).$n.json"
    n=$((n + 1))
done
{
    echo "{"
    echo "  \"date\": \"$(date +%F)\","
    echo "  \"scale\": \"${KIMBAP_SCALE:-small}\","
    echo "  \"threads_per_host\": ${KIMBAP_THREADS:-2},"
    if [ -n "${KIMBAP_BENCH_BASELINE:-}" ] && [ -f "$KIMBAP_BENCH_BASELINE" ]; then
        echo "  \"baseline\": ["
        sed 's/^/    /;$!s/$/,/' "$KIMBAP_BENCH_BASELINE"
        echo "  ],"
    fi
    echo "  \"records\": ["
    sed 's/^/    /;$!s/$/,/' "$TMP_JSONL"
    echo "  ]"
    echo "}"
} > "$OUT"
echo "wrote $OUT ($(wc -l < "$TMP_JSONL") records)"

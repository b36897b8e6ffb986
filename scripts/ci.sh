#!/usr/bin/env bash
# Tier-1 CI gate: build, full test suite, lints, rustdoc, the `unsafe`
# line ratchet, the fixed-seed fault-injection matrix (3 plans x the 7
# rows of the algorithm table, on the simulation backend; see
# crates/kimbap/tests/fault_injection.rs::fault_matrix_smoke), the
# cross-backend fault matrix, seed-replayable simulation fuzz smokes
# (fixed, shrinking and growing membership; hand-written loops and both
# compiled plans), output diffs across transports, fault plans, storage
# tiers and launchers (`kimbap run` in-proc and over TCP vs `kimbap
# serve`, all seven algorithms), an 8-host smoke, kill and join smokes on
# both transports,
# Louvain / Leiden across thread counts and repeats, the partitioner's
# host-balance budget, and the benchmark package's own
# tests and smoke run (benchmark/run.sh is the performance gate).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo clippy --workspace --benches --tests -- -D warnings"
cargo clippy --workspace --benches --tests -- -D warnings

echo "==> cargo doc (rustdoc warnings, e.g. links to renamed or deleted items, fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> unsafe ratchet (non-comment 'unsafe' lines in non-test sources under crates/)"
UNSAFE_MAX=10
unsafe_lines=$(grep -rn --include='*.rs' -w unsafe crates | grep -v '/tests/' \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | wc -l)
echo "    $unsafe_lines unsafe lines (ratchet: $UNSAFE_MAX)"
if [ "$unsafe_lines" -gt "$UNSAFE_MAX" ]; then
    echo "more unsafe lines than the ratchet allows; remove one or justify raising UNSAFE_MAX" >&2
    exit 1
fi

echo "==> cargo bench --no-run (bench targets must compile)"
cargo bench -q --workspace --no-run

echo "==> fault-matrix smoke (fixed seeds)"
cargo test --release -q -p kimbap --test fault_injection fault_matrix_smoke

echo "==> cross-backend fault matrix (sim vs in-proc vs TCP loopback)"
cargo test --release -q -p kimbap --test transport_robustness

echo "==> simulation fuzz smoke (seed-replayable; failures print a replay cmd)"
./target/release/kimbap sim --algo cc-lp --seeds 50
./target/release/kimbap sim --algo msf --seeds 50
./target/release/kimbap sim --algo mis --seeds 25
./target/release/kimbap sim --algo cc-sv --seeds 25

echo "==> elastic fuzz smoke (kill-bearing plans; survivors must shrink+converge)"
# The plan rows resume from re-sharded checkpoints (cc-sv inside its
# do-while body); the hand-written rows restart on the survivors.
./target/release/kimbap sim --algo cc-lp --seeds 25 --hosts 4 --faults kill
./target/release/kimbap sim --algo cc-sv --seeds 25 --hosts 4 --faults kill
./target/release/kimbap sim --algo cc-sclp --seeds 25 --hosts 4 --faults kill

echo "==> churn fuzz smoke (seeded join/kill plans; every interleaving must converge)"
./target/release/kimbap sim --algo cc-lp --seeds 25 --hosts 4 --faults churn
./target/release/kimbap sim --algo cc-sv --seeds 25 --hosts 4 --faults churn

echo "==> serve scheduler fuzz smoke (seeded job mixes + banded faults; per-job diff vs serial)"
./target/release/kimbap serve-sim --seeds 25 --hosts 3

echo "==> TCP-loopback smoke (multi-process kimbap bin vs in-proc, diffed)"
# Every --port-base below sits under Linux's default ephemeral port range
# (32768-60999): a listener port that an earlier connection still holds as
# its local end, even in TIME_WAIT, fails to bind.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
# A fault smoke must prove its fault fired: the launcher names every host
# it saw killed or admitted, and a diff alone passes just as well when the
# run finished before the fault was due.
fired() { # fired LOG LINE
    if ! grep -q -- "$2" "$1"; then
        echo "no '$2' line: the smoke's fault never fired. Output:" >&2
        cat "$1" >&2
        exit 1
    fi
}
./target/release/kimbap gen --kind rmat --scale 8 --ef 4 --seed 9 \
    --out "$SMOKE_DIR/g.kg"
./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
    --faults drop --seed 1 --out "$SMOKE_DIR/inproc.txt"
./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
    --transport tcp --port-base 26800 --faults drop --seed 1 \
    --out "$SMOKE_DIR/tcp.txt"
diff "$SMOKE_DIR/inproc.txt" "$SMOKE_DIR/tcp.txt"
echo "    in-proc and TCP labels identical"

echo "==> unknown-flag smoke (a mistyped option must fail, naming the flag)"
if ./target/release/kimbap run cc-lp "$SMOKE_DIR/g.kg" --allow-shrnk \
        2> "$SMOKE_DIR/flag.err"; then
    echo "kimbap run accepted an unknown flag" >&2
    exit 1
fi
grep -q -- "--allow-shrnk" "$SMOKE_DIR/flag.err"
# Removed options must fail the same way. Hub splitting is gone (serve was
# the last place its knob reached cc-sv); the fault plan, not a switch,
# decides whether the membership may change.
removed() { # removed NAME KIMBAP-ARGS... (runs them with --NAME)
    local flag="--$1" status=0
    shift
    ./target/release/kimbap "$@" "$flag" 2> "$SMOKE_DIR/flag.err" || status=$?
    if [ "$status" -ne 1 ] || ! grep -q -- "unknown flag '$flag'" "$SMOKE_DIR/flag.err"; then
        echo "kimbap $1 $flag: exit $status, stderr:" >&2
        cat "$SMOKE_DIR/flag.err" >&2
        exit 1
    fi
}
removed hub-threshold serve "$SMOKE_DIR/g.kg" --job cc-sv
for name in allow-shrink allow-grow; do
    removed "$name" run cc-lp "$SMOKE_DIR/g.kg" --faults kill
    removed "$name" sim --algo cc-lp
done
echo "    unknown flags rejected by name"

echo "==> kill smoke (host 1 killed mid-run, in-proc and TCP; survivors' output diffed)"
# A plan that kills a host runs elastic, with no switch: the plan rows
# (cc-sv, cc-lp) resume from re-sharded checkpoints, and the hand-written
# loops (cc-sclp; mis, whose phases each publish a round) restart on the
# survivors. Each is diffed against its own fault-free output.
port=26900
for algo in cc-sv cc-lp cc-sclp mis; do
    ./target/release/kimbap run "$algo" "$SMOKE_DIR/g.kg" --hosts 4 --threads 2 \
        --out "$SMOKE_DIR/clean-$algo.txt" > /dev/null
    ./target/release/kimbap run "$algo" "$SMOKE_DIR/g.kg" --hosts 4 --threads 2 \
        --faults kill --out "$SMOKE_DIR/killed-$algo.txt" \
        | tee "$SMOKE_DIR/killed-$algo.log"
    fired "$SMOKE_DIR/killed-$algo.log" "host 1 was killed"
    diff "$SMOKE_DIR/clean-$algo.txt" "$SMOKE_DIR/killed-$algo.txt"
    ./target/release/kimbap run "$algo" "$SMOKE_DIR/g.kg" --hosts 4 --threads 2 \
        --transport tcp --port-base "$port" --faults kill \
        --out "$SMOKE_DIR/killed-tcp-$algo.txt" | tee "$SMOKE_DIR/killed-tcp-$algo.log"
    fired "$SMOKE_DIR/killed-tcp-$algo.log" "worker 1 was killed"
    diff "$SMOKE_DIR/clean-$algo.txt" "$SMOKE_DIR/killed-tcp-$algo.txt"
    port=$((port + 10))
done
echo "    degraded (3-host) and fault-free (4-host) outputs identical, in-proc and TCP"

echo "==> 8-host smoke (every host, in-proc and each TCP worker, builds only its own part; output diffed)"
# Fixed membership, and a kill that shrinks 8 hosts to 7 (each survivor
# re-partitions per attempt), in-proc and over TCP, each against the
# 2-host in-proc output: eight parts, each built by its own host, and the
# seven re-built after the kill, must compute what two do.
./target/release/kimbap gen --kind rmat --scale 12 --ef 16 --seed 9 \
    --out "$SMOKE_DIR/r12.kg"
port=28000
for algo in cc-lp cc-sv; do
    ./target/release/kimbap run "$algo" "$SMOKE_DIR/r12.kg" --hosts 2 --threads 1 \
        --out "$SMOKE_DIR/h2-$algo.txt" > /dev/null
    tcp_port=$port
    for faults in none kill; do
        ./target/release/kimbap run "$algo" "$SMOKE_DIR/r12.kg" --hosts 8 --threads 1 \
            --faults "$faults" --out "$SMOKE_DIR/h8-$algo-$faults.txt" \
            > "$SMOKE_DIR/h8-$algo-$faults.log"
        [ "$faults" = none ] || fired "$SMOKE_DIR/h8-$algo-$faults.log" "host 1 was killed"
        diff "$SMOKE_DIR/h2-$algo.txt" "$SMOKE_DIR/h8-$algo-$faults.txt"
        ./target/release/kimbap run "$algo" "$SMOKE_DIR/r12.kg" --hosts 8 --threads 1 \
            --transport tcp --port-base "$tcp_port" --faults "$faults" \
            --out "$SMOKE_DIR/h8-tcp-$algo-$faults.txt" > "$SMOKE_DIR/h8-tcp-$algo-$faults.log"
        [ "$faults" = none ] || fired "$SMOKE_DIR/h8-tcp-$algo-$faults.log" "worker 1 was killed"
        diff "$SMOKE_DIR/h2-$algo.txt" "$SMOKE_DIR/h8-tcp-$algo-$faults.txt"
        tcp_port=$((tcp_port + 10))
    done
    port=$((port + 100))
done
echo "    8-host (fixed, and 8 -> 7 under a kill; in-proc and TCP) and 2-host outputs identical"

echo "==> grow smoke (a joiner admitted mid-run, in-proc and a TCP worker process; output diffed)"
# The grid is large enough that the members are still computing when the
# late joiner knocks (50 ms in), though cc-lp settles each host's slab in
# one round.
./target/release/kimbap gen --kind grid --rows 400 --cols 400 --seed 9 \
    --out "$SMOKE_DIR/grid.kg"
./target/release/kimbap run cc-lp "$SMOKE_DIR/grid.kg" --hosts 3 --threads 2 \
    --out "$SMOKE_DIR/grid-clean.txt"
port=27200
for algo in cc-sv cc-lp; do
    ./target/release/kimbap run "$algo" "$SMOKE_DIR/grid.kg" --hosts 3 --threads 2 \
        --faults join --out "$SMOKE_DIR/grown-$algo.txt" \
        | tee "$SMOKE_DIR/grown-$algo.log"
    fired "$SMOKE_DIR/grown-$algo.log" "host 3 was admitted mid-run"
    diff "$SMOKE_DIR/grid-clean.txt" "$SMOKE_DIR/grown-$algo.txt"
    ./target/release/kimbap run "$algo" "$SMOKE_DIR/grid.kg" --hosts 3 --threads 2 \
        --transport tcp --port-base "$port" --faults join \
        --out "$SMOKE_DIR/grown-tcp-$algo.txt" | tee "$SMOKE_DIR/grown-tcp-$algo.log"
    fired "$SMOKE_DIR/grown-tcp-$algo.log" "host 3 was admitted mid-run"
    diff "$SMOKE_DIR/grid-clean.txt" "$SMOKE_DIR/grown-tcp-$algo.txt"
    port=$((port + 10))
done
echo "    grown (3 -> 4 host) and fault-free labels identical, in-proc and TCP"

echo "==> churn smoke (TCP worker 1 exits on the grid; survivors re-shard its replica)"
./target/release/kimbap run cc-lp "$SMOKE_DIR/grid.kg" --hosts 4 --threads 2 \
    --transport tcp --port-base 27500 --faults kill \
    --out "$SMOKE_DIR/grid-killed.txt" | tee "$SMOKE_DIR/grid-killed.log"
fired "$SMOKE_DIR/grid-killed.log" "worker 1 was killed"
diff "$SMOKE_DIR/grid-clean.txt" "$SMOKE_DIR/grid-killed.txt"
echo "    elastic survivors (4 -> 3 host) and fault-free labels identical over TCP"

echo "==> compressed-vs-raw smoke (cc-lp + louvain + leiden, inproc and sim, diffed)"
for algo in cc-lp louvain leiden; do
    ./target/release/kimbap run "$algo" "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
        --seed 1 --out "$SMOKE_DIR/$algo-comp.txt"
    ./target/release/kimbap run "$algo" "$SMOKE_DIR/g.kg" --hosts 3 --threads 2 \
        --seed 1 --raw --out "$SMOKE_DIR/$algo-raw.txt"
    diff "$SMOKE_DIR/$algo-comp.txt" "$SMOKE_DIR/$algo-raw.txt"
    ./target/release/kimbap sim --algo "$algo" --seed 5 --hosts 3 \
        --out "$SMOKE_DIR/sim-$algo-comp.txt"
    ./target/release/kimbap sim --algo "$algo" --seed 5 --hosts 3 --raw \
        --out "$SMOKE_DIR/sim-$algo-raw.txt"
    diff "$SMOKE_DIR/sim-$algo-comp.txt" "$SMOKE_DIR/sim-$algo-raw.txt"
done
echo "    compressed and raw storage tiers produce identical outputs"

echo "==> louvain / leiden determinism (threads 1 vs 3, a repeat, hosts 1 vs 4: modularity, counts, labels diffed)"
# Candidate communities are scored in edge-list order and coarse edges are
# sorted, so neither the thread count nor the run may move a label; and no
# partition knob steers a move, so neither may the host count.
for algo in louvain leiden; do
    for run in t1:1 t3:3 t3again:3; do
        ./target/release/kimbap run "$algo" "$SMOKE_DIR/g.kg" --hosts 3 \
            --threads "${run#*:}" --out "$SMOKE_DIR/det-$algo-${run%:*}.txt" \
            | sed -n 's/^\(q=.* communities\) in .*/\1/p' \
            > "$SMOKE_DIR/det-$algo-${run%:*}.q"
        grep -q '^q=' "$SMOKE_DIR/det-$algo-${run%:*}.q"
    done
    for other in t3 t3again; do
        diff "$SMOKE_DIR/det-$algo-t1.q" "$SMOKE_DIR/det-$algo-$other.q"
        diff "$SMOKE_DIR/det-$algo-t1.txt" "$SMOKE_DIR/det-$algo-$other.txt"
    done
    for hosts in 1 4; do
        ./target/release/kimbap run "$algo" "$SMOKE_DIR/g.kg" --hosts "$hosts" \
            --threads 2 --out "$SMOKE_DIR/det-$algo-h$hosts.txt" > /dev/null
    done
    diff "$SMOKE_DIR/det-$algo-h1.txt" "$SMOKE_DIR/det-$algo-h4.txt"
    echo "    $algo: $(cat "$SMOKE_DIR/det-$algo-t1.q") at 1 and 3 threads, twice; same labels on 1 and 4 hosts"
done

echo "==> run-vs-serve smoke (one table, one executor per name, every launcher: outputs diffed)"
# msf's edge list is unique only under distinct weights, and run
# partitions it differently from serve's resident EdgeCutBlocked. Every
# row runs in-proc and over TCP, fault-free and under a crash, and must
# match the in-proc fault-free output byte for byte.
./target/release/kimbap gen --kind rmat --scale 8 --ef 4 --seed 9 \
    --weights 65536 --out "$SMOKE_DIR/w.kg"
port=27800
for algo in cc-sv cc-lp cc-sclp mis msf louvain leiden; do
    g="$SMOKE_DIR/g.kg"
    [ "$algo" = msf ] && g="$SMOKE_DIR/w.kg"
    ./target/release/kimbap run "$algo" "$g" --hosts 3 --threads 2 \
        --out "$SMOKE_DIR/run-$algo.txt"
    ./target/release/kimbap serve "$g" --hosts 3 --threads 2 \
        --job "$algo" --out-dir "$SMOKE_DIR/serve-$algo"
    diff "$SMOKE_DIR/run-$algo.txt" "$SMOKE_DIR/serve-$algo/job0-$algo.txt"
    for faults in none crash; do
        ./target/release/kimbap run "$algo" "$g" --hosts 3 --threads 2 \
            --faults "$faults" --out "$SMOKE_DIR/run-$algo-$faults.txt" > /dev/null
        diff "$SMOKE_DIR/run-$algo.txt" "$SMOKE_DIR/run-$algo-$faults.txt"
        ./target/release/kimbap run "$algo" "$g" --hosts 3 --threads 2 \
            --transport tcp --port-base "$port" --faults "$faults" \
            --out "$SMOKE_DIR/tcp-$algo-$faults.txt" > /dev/null
        diff "$SMOKE_DIR/run-$algo.txt" "$SMOKE_DIR/tcp-$algo-$faults.txt"
        port=$((port + 10))
    done
done
echo "    run (in-proc, TCP; none, crash) and serve outputs identical for all seven"

echo "==> compile smoke (an ill-formed .kv is a positioned error, not a panic)"
cat > "$SMOKE_DIR/bad.kv" <<'KV'
program bad {
    map m : min;
    init m = node;
    while updated(m) {
        let a = m[node];
        m[dst] <- a;
    }
}
KV
status=0
./target/release/kimbap compile "$SMOKE_DIR/bad.kv" 2> "$SMOKE_DIR/bad.err" || status=$?
if [ "$status" -ne 1 ] || grep -q panicked "$SMOKE_DIR/bad.err" \
    || ! grep -q "parse error at 6:11" "$SMOKE_DIR/bad.err"; then
    echo "kimbap compile on 'dst' outside 'for edges': exit $status, stderr:" >&2
    cat "$SMOKE_DIR/bad.err" >&2
    exit 1
fi
echo "    $(cat "$SMOKE_DIR/bad.err")"

echo "==> bytes-per-edge budget (unit-weight R-MAT must compress < 4 B/edge)"
./target/release/kimbap gen --kind rmat --scale 10 --ef 8 --seed 7 \
    --unit-weights --out "$SMOKE_DIR/unit.kg"
stats_line=$(./target/release/kimbap stats "$SMOKE_DIR/unit.kg" | grep '^compressed:')
echo "    $stats_line"
bpe=$(echo "$stats_line" | sed -n 's/.*(\([0-9.]*\) B\/edge.*/\1/p')
ratio=$(echo "$stats_line" | sed -n 's/.* \([0-9.]*\)x smaller.*/\1/p')
awk -v b="$bpe" 'BEGIN { exit !(b != "" && b < 4.0) }' \
    || { echo "bytes/edge budget blown: $bpe >= 4.0" >&2; exit 1; }
awk -v r="$ratio" 'BEGIN { exit !(r != "" && r >= 2.5) }' \
    || { echo "compression ratio too low: ${ratio}x < 2.5x" >&2; exit 1; }

echo "==> host balance (power-law graph: max/mean host weight <= 1.05)"
./target/release/kimbap gen --kind rmat --scale 12 --ef 16 --seed 42 \
    --out "$SMOKE_DIR/skew.kg"
for hosts in 2 4; do
    ./target/release/kimbap stats "$SMOKE_DIR/skew.kg" --hosts "$hosts" \
        > "$SMOKE_DIR/balance.txt"
    sed -n '/^partition:/,$p' "$SMOKE_DIR/balance.txt" | sed 's/^/    /'
    bal=$(sed -n 's/^balance: \([0-9.]*\) .*/\1/p' "$SMOKE_DIR/balance.txt")
    awk -v b="$bal" 'BEGIN { exit !(b != "" && b <= 1.05) }' \
        || { echo "hosts are skewed: max/mean weight $bal > 1.05" >&2; exit 1; }
done

echo "==> bench harness smoke (tiny graph, JSON records)"
scripts/bench.sh --smoke

echo "==> benchmark package (BENCHMARK.json gate) builds, tests and smokes against this tree"
# benchmark/ is a package of its own with path deps on crates/*: a product
# API change that breaks it must fail here, not at the bench gate.
cargo test -q --manifest-path benchmark/Cargo.toml --offline
benchmark/run.sh --smoke

echo "==> CI green"

#!/usr/bin/env bash
# The benchmark's single entry point (BENCHMARK.json names it):
#
#   benchmark/run.sh <workload> [--seed N] [--seconds S] [--trace] [--smoke]
#   benchmark/run.sh --workload <workload> --seed N --seconds S --trace 0|1
#   benchmark/run.sh --smoke          # plumbing check over every workload
#
# Builds the benchmark package (release, offline; a no-op when up to date)
# and runs it. Build chatter goes to stderr, so the last line of stdout is
# the result object. Run it from anywhere; nothing is written outside
# benchmark/out and the cargo target directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
# Cargo resolves a relative CARGO_TARGET_DIR against the caller's
# directory, which is still ours: no `cd` above.
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/kimbap-benchmark" --out "$here/out" --spec "$here/../BENCHMARK.json" "$@"

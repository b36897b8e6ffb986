#!/usr/bin/env bash
# Prints the non-test line count of the Rust sources under crates/: every
# `.rs` file outside a `tests/` directory, each counted up to its trailing
# `#[cfg(test)] mod tests` block of any visibility (the whole file when it
# has none). Files that a parent declares as `#[cfg(test)] mod name;` are
# test-only and do not count.
#
# Usage: scripts/loc.sh [ROOT]   (ROOT, a checkout, defaults to this one)
set -euo pipefail
cd "${1:-"$(dirname "$0")/.."}"
files=$(find crates -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' | sort)
# `mod name;` in lib.rs, main.rs or mod.rs lives beside its parent; in
# any other `parent.rs` it lives under `parent/`. Either as `name.rs` or
# `name/mod.rs`.
test_only=$(awk 'FNR == 1 { last = "" }
    last ~ /^#\[cfg\(test\)\]$/ && /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;$/ {
        name = $NF; sub(/;$/, "", name)
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        base = FILENAME; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
        if (base != "lib" && base != "main" && base != "mod") dir = dir "/" base
        print dir "/" name ".rs"; print dir "/" name "/mod.rs"
    }
    { last = $0 }' $files)
for f in $files; do
    grep -qxF "$f" <<<"$test_only" && continue
    awk 'last ~ /^#\[cfg\(test\)\]$/ && /^(pub(\([a-z]+\))? )?mod tests/ { cut = NR - 2 }
         { last = $0 }
         END { print (cut == "" ? NR : cut) }' "$f"
done | awk '{ total += $1 } END { print total " non-test lines under crates/" }'

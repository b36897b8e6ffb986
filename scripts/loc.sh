#!/usr/bin/env bash
# Prints the non-test line count of the Rust sources under crates/: every
# `.rs` file outside a `tests/` directory, each counted up to its trailing
# `#[cfg(test)] mod tests` block (the whole file when it has none). Files
# that are themselves `#[cfg(test)]` modules count in full.
#
# Usage: scripts/loc.sh [ROOT]   (ROOT, a checkout, defaults to this one)
set -euo pipefail
cd "${1:-"$(dirname "$0")/.."}"
find crates -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' \
    | while read -r f; do
        awk 'last ~ /^#\[cfg\(test\)\]$/ && /^mod tests/ { cut = NR - 2 }
             { last = $0 }
             END { print (cut == "" ? NR : cut) }' "$f"
    done \
    | awk '{ total += $1 } END { print total " non-test lines under crates/" }'

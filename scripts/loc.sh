#!/usr/bin/env bash
# Non-test Rust line count of the workspace: every tracked `.rs` file
# under crates/, tests/ and examples/, minus test code. Test code is an
# integration-test file (one under a `tests/` directory, or a `tests.rs`
# module file) and every item marked `#[cfg(test)]` (brace-matched, so
# code after a test module still counts).
#
# Usage: scripts/loc.sh [REPO_DIR]   (default: this script's repository)
# Prints one line per top-level directory, each crate under crates/
# indented below it, then the total.
set -euo pipefail

repo="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$repo"

count() {
    awk '
    FNR == 1 { skip = 0 }
    {
        if (!skip && $0 ~ /^[ \t]*#\[cfg\(test\)\]/) {
            skip = 1; depth = 0; opened = 0; next
        }
        if (skip) {
            line = $0
            o = gsub(/\{/, "", line); c = gsub(/\}/, "", line)
            depth += o - c
            if (o > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && $0 ~ /;[ \t]*$/)) skip = 0
            next
        }
        n++
    }
    END { print n + 0 }' "$@"
}

# Non-test lines of the tracked `.rs` files under directory $1.
lines() {
    local files
    mapfile -t files < <(git ls-files "$1/*.rs" | grep -v -e '/tests/' -e '^tests/' -e '/tests\.rs$' || true)
    if [ "${#files[@]}" -gt 0 ]; then
        count "${files[@]}"
    else
        echo 0
    fi
}

total=0
for dir in crates tests examples; do
    n=$(lines "$dir")
    printf '%-14s %6d\n' "$dir/" "$n"
    if [ "$dir" = crates ]; then
        for krate in $(git ls-files 'crates/*.rs' | cut -d/ -f2 | sort -u); do
            printf '  %-12s %6d\n' "$krate/" "$(lines "crates/$krate")"
        done
    fi
    total=$((total + n))
done
printf '%-14s %6d\n' "total" "$total"

#!/usr/bin/env bash
# count_gate.sh — both tiers' noise-free columns as a hard gate.
#
# Runs stackbench's quick ledger pass (`run --quick --trace 1 --seed 1`)
# for the ordered tier's `wire_scan` and `direct_skip_update` and the
# hash tier's `wire_pipe` and `direct_map_read`, and fails unless every
# count listed in scripts/count_gate.expected comes out exactly as committed:
# the paper's step count per operation, the median search length, the
# share of failed C&S, the high-water mark of retired-but-unfreed nodes,
# the reply bytes per command and the busiest shard's share of routed
# operations. These repeat to the last digit for a given seed on any
# host (the ledger replays one seeded plan on one thread), so a change
# that moves one of them changed what the program does — not how fast.
# A faster scan that takes an extra step, defers freeing, or alters the
# wire form fails here whatever its timings say.
#
# A deliberate change to a count updates scripts/count_gate.expected in
# the same commit, with the reason in CHANGES.md. stackbench itself is
# only run and read, never edited.
#
#   ./scripts/count_gate.sh
set -euo pipefail

cd "$(dirname "$0")/.."
EXPECTED=scripts/count_gate.expected
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

for workload in $(grep -v '^#' "$EXPECTED" | cut -d' ' -f1 | sort -u); do
    echo "== count gate: stackbench run --quick --trace 1 --seed 1 --workload $workload =="
    cargo run --release --offline --quiet --manifest-path stackbench/Cargo.toml -- \
        run --quick --trace 1 --seed 1 --workload "$workload" --out "$OUT" > /dev/null
done

python3 - "$EXPECTED" "$OUT" <<'PY'
import json
import sys

expected, out = sys.argv[1], sys.argv[2]
results, moved = {}, 0
for line in open(expected):
    if line.startswith("#") or not line.strip():
        continue
    workload, metric, want = line.split()
    if workload not in results:
        results[workload] = json.load(open(f"{out}/result-{workload}-trace1.json"))
    result = results[workload]
    if result["sizes"] != "quick" or result["seed"] != 1 or not result["correct"]:
        sys.exit(f"count gate: {workload}: not a correct quick seed-1 result")
    # Exact equality of the parsed values: 12 == 12.0, but no digit of
    # a fraction is forgiven.
    got = result["metrics"][metric]["value"]
    same = float(want) == float(got)
    moved += not same
    print(f"{'ok   ' if same else 'MOVED'} {workload:20} {metric:28} expected {want} got {got!r}")
if moved:
    sys.exit(f"count gate: {moved} count(s) moved — see scripts/count_gate.sh")
print("count gate: every count repeats exactly")
PY

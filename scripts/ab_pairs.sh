#!/usr/bin/env bash
# ab_pairs.sh — A/B one stackbench workload between a base revision and
# the working tree, in alternating pairs, and print a verdict per
# end-to-end metric.
#
# Builds stackbench twice: at <base-rev> (extracted with `git archive`
# into a temporary directory, its own target dir) and at the working
# tree (stackbench's usual target dir). Then runs
#   stackbench run --workload W --seed S --seconds T --trace 0
# once per side per pair, alternating which side goes first, and reads
# each run's result-<workload>-trace0.json. For every metric that
# BENCHMARK.json lists as end-to-end it prints each pair, each side's
# median and quartiles, the change's wins, and a verdict:
#
#   gain        the change wins at least 9/10 of the pairs (ties count for
#               neither) and the medians differ by more than the base's
#               interquartile range
#   worse       the change's median is worse than the base's by more than
#               the metric's bound
#   unresolved  either side's interquartile range exceeds the bound (the
#               host is too noisy to call it), unless every change run
#               reads better than every base run
#   within      none of the above: no gain shown, no loss beyond the bound
#
# It only runs stackbench: nothing under stackbench/ and no
# BENCHMARK.json is edited. Run nothing else on the host meanwhile; a
# build beside a run moves every metric.
#
#   ./scripts/ab_pairs.sh <base-rev> <workload> [pairs=10] [seconds=20] [seed=1]
#
# Exit status: 0 when every run succeeded with no failed operation,
# 1 otherwise (the verdicts are information, not a gate).
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,31p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-20}
seed=${5:-1}

repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo"
base_sha=$(git rev-parse --verify "$base_rev^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/bin" "$tmp/runs"

echo "== building stackbench at $base_rev ($base_sha)"
git archive "$base_sha" | tar -x -C "$tmp/base"
CARGO_TARGET_DIR="$tmp/base-target" cargo build --release --offline --quiet \
    --manifest-path "$tmp/base/stackbench/Cargo.toml"
cp "$tmp/base-target/release/stackbench" "$tmp/bin/base"

echo "== building stackbench at the working tree"
CARGO_TARGET_DIR="$repo/stackbench/target" cargo build --release --offline --quiet \
    --manifest-path "$repo/stackbench/Cargo.toml"
cp "$repo/stackbench/target/release/stackbench" "$tmp/bin/change"

status=0
run() { # side pair
    local out="$tmp/runs/$1-$2"
    mkdir -p "$out"
    if ! "$tmp/bin/$1" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
        --trace 0 --out "$out" > "$out/stdout.txt" 2>&1; then
        echo "   $1 run of pair $2 exited non-zero (see its output below)"
        tail -5 "$out/stdout.txt"
        status=1
    fi
}

echo "== $pairs pairs · workload $workload · seed $seed · $seconds s per run"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then order="base change"; else order="change base"; fi
    for side in $order; do
        run "$side" "$i"
    done
    echo "   pair $i done ($order)"
done

python3 - "$repo/BENCHMARK.json" "$tmp/runs" "$workload" "$pairs" <<'PY' || status=1
import json
import os
import statistics
import sys

bench, runs, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
metrics = json.load(open(bench))["end_to_end"]

def load(side, i):
    path = os.path.join(runs, f"{side}-{i}", f"result-{workload}-trace0.json")
    try:
        return json.load(open(path))
    except (OSError, ValueError):
        return None

res = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("base", "change")}
bad = 0
for side, rows in res.items():
    for i, r in enumerate(rows, 1):
        if r is None:
            print(f"{side} pair {i}: no result file")
            bad += 1
        elif r.get("failed", 0) or not r.get("correct", False):
            print(f"{side} pair {i}: {r.get('failed')} failed of {r.get('attempted')} attempted")
            bad += 1

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

need = -(-9 * pairs // 10)  # ceil(0.9 * pairs)
print(f"\n{workload}: {pairs} pairs, a gain needs >= {need} wins")
for m in metrics:
    name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
    pts = [
        (b["metrics"][name]["value"], c["metrics"][name]["value"])
        for b, c in zip(res["base"], res["change"])
        if b and c and name in b["metrics"] and name in c["metrics"]
    ]
    if not pts:
        print(f"\n{name}: no complete pairs")
        continue
    base = [p[0] for p in pts]
    chg = [p[1] for p in pts]
    better = (lambda c, b: c > b) if higher else (lambda c, b: c < b)
    wins = sum(better(c, b) for b, c in pts)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(chg)
    rel = (cmed - bmed) / bmed if bmed else 0.0
    worse_by = -rel if higher else rel
    spread = max((bq3 - bq1) / bmed if bmed else 0.0, (cq3 - cq1) / cmed if cmed else 0.0)
    all_better = all(better(c, b) for c in chg for b in base)
    if wins >= need and abs(cmed - bmed) > (bq3 - bq1) and better(cmed, bmed):
        verdict = "gain"
    elif worse_by > bound:
        verdict = "worse"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within"
    print(f"\n{name} ({m['unit']}, {m['better']} is better, bound {bound:.0%})")
    for i, (b, c) in enumerate(pts, 1):
        print(f"  pair {i:2}: base {b:14.4f}  change {c:14.4f}  {(c - b) / b if b else 0:+8.2%}")
    print(f"  base   median {bmed:14.4f}  [q1 {bq1:.4f}, q3 {bq3:.4f}]")
    print(f"  change median {cmed:14.4f}  [q1 {cq1:.4f}, q3 {cq3:.4f}]")
    print(f"  change {rel:+.2%} · wins {wins}/{len(pts)} · base IQR {bq3 - bq1:.4f}"
          f" · widest spread {spread:.1%} · verdict: {verdict}")
sys.exit(1 if bad else 0)
PY
exit $status

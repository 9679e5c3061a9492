#!/usr/bin/env bash
# Parent-vs-change pair runs of the whole-stack benchmark on this machine:
# the procedure a performance claim is judged by, as one command.
#
# Builds the benchmark at a base revision (a `git archive` copy, so nothing
# is registered in .git) and in the working tree, refuses to go on if
# benchmark/ or BENCHMARK.json differ between the two (a claim is measured
# with identical benchmark code), then runs <pairs> pairs of one workload at
# BENCHMARK.json's run length, tracing off, pair i on seed i, flipping which
# side goes first every pair. Prints, per end-to-end metric, each side's
# quartiles, the pairs the change won, and whether the claim rule holds
# (wins >= 9/10 of pairs, ties for neither side, and medians further apart
# than the parent's own interquartile range); then the failed-op totals.
# Every run's result JSON is kept in the output directory
# (<workload>.<side>.<pair>.json), so one directory — and one parent build —
# serves several workloads.
#
# Usage: scripts/bench_pair.sh <workload> <pairs> [base-rev] [out-dir]
#   base-rev  default: HEAD if the working tree has uncommitted changes,
#             else HEAD~1
#   out-dir   default: a fresh `mktemp -d`
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: scripts/bench_pair.sh <workload> <pairs> [base-rev] [out-dir]" >&2
    exit 2
fi
workload=$1
pairs=$2
cd "$(dirname "$0")/.."
if [ $# -ge 3 ]; then
    base=$3
elif git diff --quiet HEAD; then
    base=HEAD~1
else
    base=HEAD
fi
out=${4:-$(mktemp -d)}
mkdir -p "$out/parent"
out=$(cd "$out" && pwd)

if ! git diff --quiet "$base" -- benchmark BENCHMARK.json; then
    echo "benchmark/ or BENCHMARK.json differ from $base: the two sides would not be measured alike" >&2
    exit 2
fi
seconds=$(python3 -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")

echo "parent = $(git rev-parse --short "$base"), change = working tree, $workload, $pairs pairs x $seconds s -> $out"
git archive "$base" | tar -x -C "$out/parent"
cargo build --release --quiet --manifest-path "$out/parent/benchmark/Cargo.toml"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
cp "$out/parent/benchmark/target/release/biq_benchmark" "$out/parent.bin"
cp benchmark/target/release/biq_benchmark "$out/change.bin"

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        # The last stdout line is the result JSON.
        (cd "$out" && "./$side.bin" --workload "$workload" --seed "$i" --seconds "$seconds" \
            --trace 0 2>"$workload.$side.$i.log" | tail -n 1 >"$workload.$side.$i.json")
        echo "pair $i $side: $(cat "$out/$workload.$side.$i.json")"
    done
done

python3 - "$out/$workload" "$pairs" BENCHMARK.json <<'EOF'
import json, statistics, sys

stem, pairs, spec = sys.argv[1], int(sys.argv[2]), json.load(open(sys.argv[3]))
runs = {
    side: [json.load(open(f"{stem}.{side}.{i}.json")) for i in range(1, pairs + 1)]
    for side in ("parent", "change")
}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"\n{'metric':<14}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}   change won")
for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    ties = sum(c == p for p, c in zip(values["parent"], values["change"]))
    (p1, p2, p3), (_, c2, _) = quartiles(values["parent"]), quartiles(values["change"])
    gain = (p2 - c2) if lower else (c2 - p2)
    holds = wins >= 0.9 * pairs and gain > p3 - p1
    for side in ("parent", "change"):
        q1, q2, q3 = quartiles(values[side])
        tail = ""
        if side == "change":
            tail = f"   {wins}/{pairs} ({ties} ties), median {(c2 / p2 - 1) * 100:+.1f} %"
            tail += f", bound {metric['bound'] * 100:.0f} %, gain rule {'holds' if holds else 'does not hold'}"
        print(f"{name:<14}{side:<8}{q1:>12.1f}{q2:>12.1f}{q3:>12.1f}{tail}")
for side in ("parent", "change"):
    failed = sum(r["failed"] for r in runs[side])
    attempted = sum(r["attempted"] for r in runs[side])
    wrong = sum(not r["correct"] for r in runs[side])
    print(f"{side}: failed {failed} of {attempted} ops, {wrong} of {pairs} runs not correct")
EOF

#!/usr/bin/env bash
# Paired wall-clock runs of the full-stack benchmark: <rev> against the
# working tree. Wall time on a shared machine drifts between minutes, so
# a change is judged by pairs run back to back, not by two batches.
#
# Usage: scripts/bench_pairs.sh <rev> [pairs]   (pairs defaults to 10)
#
# <rev> is extracted (git archive) into target/bench-pairs/<sha>/, and
# `benchmark/` is built on both sides, each into a target dir of its own
# under target/bench-pairs/. Pair i runs every workload BENCHMARK.json
# names, on both sides, in the driver's form
# (`--workload W --seed i --seconds 15 --trace 0`); odd pairs run <rev>
# first, even pairs the working tree first. Each run's JSON result line is
# kept under target/bench-pairs/runs/.
#
# The summary prints, per workload and end-to-end metric, the median of
# each side, the spread of <rev>'s runs (the distance between their
# quartiles), the ratio of the medians (change / rev), the pairs the
# change won (a tie counts for neither), the pairs whose two values are
# identical and `!` where the change is worse by more than a third of
# the metric's bound; then, per side, the failed share of operations and
# the runs that were incorrect: a run that exited non-zero, whose last
# line is not JSON or whose result is not `"correct": true`. The medians
# are over the pairs where both runs are correct. The script exits 1 if
# any run was incorrect.
# Nothing under benchmark/ is changed.
set -euo pipefail
cd "$(dirname "$0")/.."
here=$PWD

rev=${1:?usage: scripts/bench_pairs.sh <rev> [pairs]}
pairs=${2:-10}
sha=$(git rev-parse --verify "$rev^{commit}")
work=$here/target/bench-pairs
there=$work/$sha
runs=$work/runs

if [ ! -d "$there" ]; then
    mkdir -p "$there"
    git archive "$sha" | tar -x -C "$there"
fi

build() {
    echo "==> build $1"
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release --offline -q \
        --manifest-path benchmark/Cargo.toml)
}
build "$there" "$work/target-rev"
build "$here" "$work/target-here"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

rm -rf "$runs"
mkdir -p "$runs"
# one <side> <workload> <pair>: one benchmark run, its last line kept; a
# run that fails gets a last line that is not JSON.
one() {
    local root=$here out=$runs/$1-$2-$3.json
    [ "$1" = rev ] && root=$there
    if ! (cd "$root" && "$work/target-$1/release/gdb-benchmark" --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace 0) | tail -n 1 >"$out"; then
        echo "run failed" >>"$out"
    fi
}
for i in $(seq 1 "$pairs"); do
    for w in $workloads; do
        echo "==> pair $i $w"
        if [ $((i % 2)) = 1 ]; then
            one rev "$w" "$i"
            one here "$w" "$i"
        else
            one here "$w" "$i"
            one rev "$w" "$i"
        fi
    done
done

python3 - "$runs" "$pairs" $workloads <<'EOF'
import json, statistics, sys

runs, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

def result(side, w, i):
    """The run's result, or None if the run was incorrect."""
    try:
        r = json.load(open(f"{runs}/{side}-{w}-{i}.json"))
    except ValueError:
        return None
    return r if isinstance(r, dict) and r.get("correct") is True else None

def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return q[2] - q[0]

incorrect = 0
for w in workloads:
    rev = [result("rev", w, i) for i in range(1, pairs + 1)]
    here = [result("here", w, i) for i in range(1, pairs + 1)]
    both = [(x, y) for x, y in zip(rev, here) if x and y]
    print(f"\n{w} ({len(both)} of {pairs} pairs correct on both sides)")
    print(f"  {'metric':<24}{'rev':>12}{'rev IQR':>11}{'change':>12}{'ratio':>8}{'wins':>7}{'same':>7}")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        if not both or any(name not in r["metrics"] for pair in both for r in pair):
            continue
        a = [x["metrics"][name]["value"] for x, _ in both]
        b = [y["metrics"][name]["value"] for _, y in both]
        ma, mb = statistics.median(a), statistics.median(b)
        ratio = mb / ma if ma else float("nan")
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        same = sum(x == y for x, y in zip(a, b))
        worse = ((ma - mb) if higher else (mb - ma)) / ma if ma else 0.0
        flag = " !" if worse > m["bound"] / 3 else ""
        print(
            f"  {name:<24}{ma:>12.4g}{iqr(a):>11.3g}{mb:>12.4g}{ratio:>8.3f}"
            f"{wins:>4}/{len(both)}{same:>4}/{len(both)}{flag}"
        )
    for side, rs in (("rev", rev), ("change", here)):
        ok = [r for r in rs if r]
        failed = sum(r["failed"] for r in ok)
        attempted = sum(r["attempted"] for r in ok)
        bad = len(rs) - len(ok)
        incorrect += bad
        print(f"  failed share ({side}): {failed}/{attempted}, incorrect runs: {bad}/{pairs}")
if incorrect:
    print(f"\n{incorrect} incorrect run(s)")
    sys.exit(1)
EOF

#!/usr/bin/env bash
# Virtual-time diff: is every deterministic output of the working tree
# byte-identical to <rev>'s? The simulation draws one topology-RNG value
# per message, so a refactor that reorders, adds or drops a single send
# on any path shows up here as a changed latency, count or trace line.
#
# Usage: scripts/vt_diff.sh <rev>
#
# <rev> is extracted (git archive) into target/vt-diff/<sha>/ and built
# there with its own target dir; both sides then run the same surface —
# inputs (scenario files, the shell golden script) always come from the
# working tree, so a difference is a difference in behaviour:
#   * the 7 bench-smoke runs (6 figures + nemesis seed 1), stdout and the
#     full --json artifact (every metric in the registry);
#   * nemesis seeds 1-5, plain and --overlap --migrations --elastic;
#     seeds 51-53 --elastic;
#   * every canned --plan;
#   * both scenarios/*.toml replayed through gdb-shell;
#   * the shell golden script (crates/shell/tests/golden.rs SCRIPT).
# Prints a unified diff per differing file and exits 1 if any differ.
set -euo pipefail
cd "$(dirname "$0")/.."
here=$PWD

rev=${1:?usage: scripts/vt_diff.sh <rev>}
sha=$(git rev-parse --verify "$rev^{commit}")
work=$here/target/vt-diff
there=$work/$sha

if [ ! -d "$there" ]; then
    mkdir -p "$there"
    git archive "$sha" | tar -x -C "$there"
fi

build() {
    echo "==> build $1"
    (cd "$1" && cargo build --release --offline -q -p gdb-bench -p gdb-chaos -p gdb-shell)
}

# The golden script is the body of `const SCRIPT` in the shell's test.
golden=$work/golden.script
awk '/^const SCRIPT: &str = "$/ {on = 1; next} on && /^";$/ {exit} on' \
    crates/shell/tests/golden.rs >"$golden"

# surface <root> <outdir>: run every deterministic entry point of the
# build under <root>, one output file each (from inside <outdir>, so no
# output names its side).
surface() {
    local bin=$1/target/release out=$2
    rm -rf "$out"
    mkdir -p "$out"
    (
        cd "$out"
        for fig in fig1a fig6a fig6b fig6c fig6d ablation_rebalance; do
            GDB_BENCH_SCALE=tiny GDB_BENCH_SECS=2 GDB_BENCH_TERMINALS=8 \
                "$bin/$fig" --json "$fig.json" >"$fig.out" 2>&1
        done
        "$bin/nemesis" --seed 1 --duration 2s --json nemesis.json \
            >nemesis-json.out 2>&1 || true
        for seed in 1 2 3 4 5; do
            "$bin/nemesis" --seed "$seed" --duration 2s \
                >"nemesis-$seed.out" 2>&1 || true
            "$bin/nemesis" --seed "$seed" --duration 2s --overlap --migrations --elastic \
                >"nemesis-$seed-all.out" 2>&1 || true
        done
        for seed in 51 52 53; do
            "$bin/nemesis" --seed "$seed" --duration 2s --elastic \
                >"nemesis-$seed-elastic.out" 2>&1 || true
        done
        for plan in $plans; do
            "$bin/nemesis" --plan "$plan" >"plan-$plan.out" 2>&1 || true
        done
        for scn in "$here"/scenarios/*.toml; do
            "$bin/gdb-shell" scenario run "$scn" \
                >"scenario-$(basename "$scn" .toml).out" 2>&1 || true
        done
        "$bin/gdb-shell" --seed 7 --script "$golden" >"shell-golden.out" 2>&1 || true
    )
}

build "$there"
build "$here"
plans=$("$here/target/release/nemesis" --help 2>&1 | sed -n 's/^plans: //p' | tr -d ',' || true)
echo "==> run $sha"
surface "$there" "$work/out-rev"
echo "==> run working tree"
surface "$here" "$work/out-here"

echo "==> diff ($(ls "$work/out-here" | wc -l) files per side)"
if diff -ru "$work/out-rev" "$work/out-here"; then
    echo "vt-diff: byte-identical to $rev"
else
    echo "vt-diff: outputs differ from $rev" >&2
    exit 1
fi

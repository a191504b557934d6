#!/usr/bin/env bash
# Virtual-time diff: is every deterministic output of the working tree
# byte-identical to <rev>'s? The simulation draws one topology-RNG value
# per message, so a refactor that reorders, adds or drops a single send
# on any path shows up here as a changed latency, count or trace line.
# It answers "did anything move"; whether the paper's results still hold
# after a change that is meant to move virtual time is tests/claims.rs.
#
# Usage: scripts/vt_diff.sh <rev>
#
# <rev> is extracted (git archive) into target/vt-diff/<sha>/ and built
# there with its own target dir; both sides then run the same surface —
# inputs (scenario files, the shell golden script) always come from the
# working tree, so a difference is a difference in behaviour:
#   * all 12 experiments at tiny scale (`gdb-bench <name> --scale tiny
#     --secs 2 --terminals 8`): stdout, plus the full --json artifact
#     (every metric in the registry) of the six that record one; the six
#     ablations without an artifact diff stdout only. <rev> must have the
#     `gdb-bench` runner (c8f4e5a or later);
#   * fig6a once more with `--trace`: its stdout and the Chrome trace of
#     its span tree, so a change to span recording shows here too;
#   * nemesis seed 1, stdout and the --json artifact;
#   * nemesis seeds 1-5, plain and --overlap --migrations --elastic;
#     seeds 51-53 --elastic and --migrations;
#   * every canned --plan;
#   * every scenarios/*.toml replayed through gdb-shell;
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
        for exp in $experiments; do
            local json=()
            case $exp in
            fig* | ablation_rebalance) json=(--json "$exp.json") ;;
            esac
            "$bin/gdb-bench" "$exp" --scale tiny --secs 2 --terminals 8 "${json[@]}" \
                >"$exp.out" 2>&1
        done
        "$bin/gdb-bench" fig6a --scale tiny --secs 2 --terminals 8 --trace fig6a-trace.json \
            >fig6a-traced.out 2>&1
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
            "$bin/nemesis" --seed "$seed" --duration 2s --migrations \
                >"nemesis-$seed-migrations.out" 2>&1 || true
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
experiments=$("$here/target/release/gdb-bench" 2>&1 | sed -n 's/^experiments: //p' | tr -d ',' || true)
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

#!/usr/bin/env bash
# Regenerate and bless the committed bench baselines:
#
#   BENCH_smoke.json  - tiny-scale bundle of all five figures, the
#                       rebalance ablation and one nemesis run; the CI
#                       perf gate compares every push against it
#                       (scripts/ci.sh bench-smoke).
#   BENCH_fig6a.json  - the small-scale Fig. 6a artifact, with the
#                       per-phase commit-wait vs execute breakdown.
#
# Both are virtual-time artifacts: the same commit reproduces them
# bit-for-bit on any machine. Wall-clock time is measured by benchmark/
# (see BENCHMARK.json) and never blessed into the repo.
#
# Run this after an intended performance change, eyeball the diff
# (throughput should move the way you expect, nothing else), and commit
# the updated files.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "==> tiny-scale smoke bundle -> BENCH_smoke.json"
for fig in fig1a fig6a fig6b fig6c fig6d ablation_rebalance; do
    GDB_BENCH_SCALE=tiny GDB_BENCH_SECS=2 GDB_BENCH_TERMINALS=8 \
        cargo run --release -q -p gdb-bench --bin "$fig" -- \
        --json "$tmp/$fig.json" >/dev/null
done
cargo run --release -q -p gdb-chaos --bin nemesis -- \
    --seed 1 --duration 2s --json "$tmp/nemesis.json" >/dev/null
cargo run --release -q -p gdb-bench --bin benchcmp -- merge \
    BENCH_smoke.json \
    "$tmp"/fig1a.json "$tmp"/fig6a.json "$tmp"/fig6b.json \
    "$tmp"/fig6c.json "$tmp"/fig6d.json "$tmp"/ablation_rebalance.json \
    "$tmp"/nemesis.json

echo "==> small-scale Fig. 6a -> BENCH_fig6a.json"
GDB_BENCH_SCALE=small GDB_BENCH_SECS=10 GDB_BENCH_TERMINALS=24 \
    cargo run --release -q -p gdb-bench --bin fig6a -- --json BENCH_fig6a.json

echo "baselines regenerated; review the diff and commit"

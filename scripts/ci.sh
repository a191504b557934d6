#!/usr/bin/env bash
# Full CI gate: formatting, lints, release build, tests (the paper's
# claims among them), a 5-seed smoke run of the chaos nemesis binary, a
# quick run of the full-stack wall-clock benchmark, the real backends and
# the TPC-C medium-scale soak.
# Everything runs offline against the vendored dependency set.
#
# Usage: scripts/ci.sh [STAGE]
#   all            every stage below (default; what local runs use)
#   main           lint + build + test + benchmark (the CI "ci" job)
#   lint           cargo fmt --check && cargo clippy -D warnings
#   build          cargo build --release --locked
#   test           cargo test -q: the workspace's default-members — the
#                  root package (incl. the paper's claims in
#                  tests/claims.rs, run on the same experiment definitions
#                  as `gdb-bench`, and the deterministic hot-path budgets
#                  in tests/budgets.rs), the ten paper-component crates,
#                  model .. core, the seven deterministic tooling crates
#                  (simnet, simclock, obs, workloads, rebalance, chaos,
#                  bench), the real backends (realnet) and the shell's
#                  sim-backend tests. The `#[ignore]`d tests — realnet's
#                  wall-clock-bound link-delay tests, the shell's
#                  thread-backend test and the workloads' TPC-C soak — run
#                  in their own timeout-bounded stages; `cargo test
#                  --workspace` runs every crate
#   nemesis-smoke  nemesis seeds 1..5, the elastic-under-fire plan and
#                  elastic seeds 51..53 (the CI "nemesis" job)
#   shell          gdb-shell tests, the ignored thread-backend one
#                  included, + committed scenario replays (the CI "shell"
#                  job; the only stage that replays them)
#   benchmark      benchmark/ builds against the current crates, its
#                  tests pass, and `all --quick` exits 0
#   realnet        real-backend tests, the ignored wall-clock-bound
#                  ones included (the CI "realnet" job)
#   soak           the ignored TPC-C medium-scale soak (gdb-workloads):
#                  medium-scale redo windows shipped under the TPC-C
#                  consistency checks; in `all`, not `main`
#   vt-diff REV    on demand, not part of `main`/`all`: build REV (one
#                  with the `gdb-bench` runner, c8f4e5a or later) beside
#                  the working tree and diff every deterministic output
#                  (scripts/vt_diff.sh: all twelve `gdb-bench` experiments
#                  at tiny scale, nemesis seeds and plans, the scenario
#                  replays and the shell golden script) — run it for any
#                  change that claims virtual time is untouched
set -euo pipefail
cd "$(dirname "$0")/.."

stage_lint() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy --workspace -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
}

# `--locked` here and in the benchmark stage: a change that would rewrite
# Cargo.lock or benchmark/Cargo.lock fails instead of rewriting it.
stage_build() {
    echo "==> cargo build --release --locked"
    cargo build --release --locked
}

stage_test() {
    echo "==> cargo test -q"
    cargo test -q
}

stage_nemesis_smoke() {
    echo "==> nemesis smoke (5 seeds)"
    for seed in 1 2 3 4 5; do
        cargo run --release -q -p gdb-chaos --bin nemesis -- --seed "$seed" --duration 2s \
            | tail -n 1
    done

    # Elastic membership under fire: node add, host drain with a
    # mid-flight source crash, and the re-issued drain that retires the
    # host. Virtual time cannot wedge, but a drain that never finishes
    # would loop the executor forever — hence the hard timeout.
    echo "==> elastic-under-fire canned plan"
    timeout 300 cargo run --release -q -p gdb-chaos --bin nemesis -- \
        --plan elastic-under-fire | tail -n 1
    echo "==> elastic nemesis (3 seeds)"
    for seed in 51 52 53; do
        timeout 300 cargo run --release -q -p gdb-chaos --bin nemesis -- \
            --seed "$seed" --duration 2s --elastic | tail -n 1
    done
}

# Operator-console gate: the shell's unit + golden-transcript tests
# (byte-identical replay, thread-backend agreement — the one test
# `cargo test` skips), then both committed scenario files replayed end to
# end. Scenario runs are virtual-time chaos runs and cannot wedge, but
# the thread-backend test joins real threads — hence the hard timeouts.
stage_shell() {
    echo "==> gdb-shell tests (golden transcript + thread backend)"
    timeout 600 cargo test --release -q -p gdb-shell -- --include-ignored

    echo "==> committed scenario replays via gdb-shell"
    for scn in scenarios/*.toml; do
        timeout 300 cargo run --release -q -p gdb-shell --bin gdb-shell -- \
            scenario run "$scn" | tail -n 1
    done
}

# The full-stack wall-clock benchmark is its own workspace under
# benchmark/ and calls deep into the crates' public API; building it,
# running its tests and a quick pass over all four workloads (~20 s)
# fails CI when a change breaks that surface. Timings are not gated
# here — BENCHMARK.json's driver compares them against the parent commit.
stage_benchmark() {
    echo "==> benchmark/ (build, tests, all --quick)"
    cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml
    timeout 600 cargo run --release --offline --locked --quiet \
        --manifest-path benchmark/Cargo.toml -- all --quick
}

# Real-backend gate: the realnet crate's tests (unit + sim/real
# divergence + seam scans), with the `#[ignore]`d ones `cargo test`
# skips: those assert on physically slept link delays, which a loaded
# machine can stretch. Real threads and sockets can wedge in ways
# virtual time cannot, hence the hard timeout. (Wall-clock cost of the
# backends is benchmark/'s `tpcc_tcp` workload and `realnet.*` probes.)
stage_realnet() {
    echo "==> realnet tests (thread + tcp backends)"
    timeout 600 cargo test --release -q -p gdb-realnet -- --include-ignored
}

# The TPC-C medium-scale soak: the one test that ships medium-scale
# windows through the replication path under the TPC-C consistency
# checks. Too slow for `cargo test` (hence `#[ignore]`); bounded here.
stage_soak() {
    echo "==> TPC-C medium-scale soak"
    timeout 600 cargo test --release -q -p gdb-workloads -- --ignored tpcc_medium_scale_soak
}

case "${1:-all}" in
lint) stage_lint ;;
build) stage_build ;;
test) stage_test ;;
nemesis-smoke) stage_nemesis_smoke ;;
shell) stage_shell ;;
benchmark) stage_benchmark ;;
realnet) stage_realnet ;;
soak) stage_soak ;;
vt-diff) scripts/vt_diff.sh "${2:?usage: scripts/ci.sh vt-diff <rev>}" ;;
main)
    stage_lint
    stage_build
    stage_test
    stage_benchmark
    echo "CI OK"
    ;;
all)
    stage_lint
    stage_build
    stage_test
    stage_nemesis_smoke
    stage_shell
    stage_benchmark
    stage_realnet
    stage_soak
    echo "CI OK"
    ;;
*)
    echo "unknown stage: $1 (see scripts/ci.sh header)" >&2
    exit 2
    ;;
esac

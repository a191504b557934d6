#!/usr/bin/env bash
# Full CI gate: formatting, lints, release build, tests, a 5-seed smoke
# run of the chaos nemesis binary, the virtual-time bench regression
# gate, and a quick run of the full-stack wall-clock benchmark.
# Everything runs offline against the vendored dependency set.
#
# Usage: scripts/ci.sh [STAGE]
#   all            every stage below (default; what local runs use)
#   main           lint + build + test + bench-smoke + benchmark (the CI
#                  "ci" job)
#   lint           cargo fmt --check && cargo clippy -D warnings, plus
#                  benchcmp validate over every committed BENCH_*.json
#   build          cargo build --release
#   test           cargo test -q: the workspace's default-members — the
#                  root package (incl. the deterministic hot-path budgets
#                  in tests/budgets.rs), the ten paper-component crates,
#                  model .. core, and the seven deterministic tooling
#                  crates (simnet, simclock, obs, workloads, rebalance,
#                  chaos, bench). The shell and realnet suites join real
#                  threads and sockets and keep their own
#                  timeout-bounded stages; `cargo test --workspace` runs
#                  every crate
#   nemesis-smoke  nemesis seeds 1..5 (the CI "nemesis" job)
#   shell          gdb-shell tests + committed scenario replays (the CI
#                  "shell" job)
#   bench-smoke    tiny-scale figure runs gated against BENCH_smoke.json
#   benchmark      benchmark/ builds against the current crates, its
#                  tests pass, and `all --quick` exits 0
#   realnet        real-backend tests (the CI "realnet" job)
#   vt-diff REV    on demand, not part of `main`/`all`: build REV beside
#                  the working tree and diff every deterministic output
#                  (scripts/vt_diff.sh) — run it for any change that
#                  claims virtual time is untouched
set -euo pipefail
cd "$(dirname "$0")/.."

stage_lint() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy --workspace -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> cargo bench --no-run (benches must keep compiling)"
    cargo bench --workspace --no-run -q

    echo "==> benchcmp validate (committed baselines + scenario files)"
    cargo run --release -q -p gdb-bench --bin benchcmp -- validate BENCH_*.json scenarios/*.toml
}

stage_build() {
    echo "==> cargo build --release"
    cargo build --release
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

    # The same two drills as committed scenario files, replayed through
    # the operator console (oracle must stay green).
    echo "==> committed scenario replays"
    for scn in scenarios/*.toml; do
        timeout 300 cargo run --release -q -p gdb-shell --bin gdb-shell -- \
            scenario run "$scn" | tail -n 1
    done
}

# Operator-console gate: the shell's unit + golden-transcript tests
# (byte-identical replay, thread-backend agreement), then both committed
# scenario files replayed end to end. Scenario runs are virtual-time
# chaos runs and cannot wedge, but the thread-backend test joins real
# threads — hence the hard timeouts.
stage_shell() {
    echo "==> gdb-shell tests (golden transcript + thread backend)"
    timeout 600 cargo test --release -q -p gdb-shell

    echo "==> committed scenario replays via gdb-shell"
    for scn in scenarios/*.toml; do
        timeout 300 cargo run --release -q -p gdb-shell --bin gdb-shell -- \
            scenario run "$scn" | tail -n 1
    done
}

# Regenerate every figure artifact at tiny scale and compare throughput
# against the committed baseline. The simulation is deterministic, so on
# unchanged code this reproduces the baseline exactly; the 20% tolerance
# only absorbs intended performance shifts (bless bigger ones with
# scripts/regen_bench.sh).
stage_bench_smoke() {
    echo "==> bench smoke (tiny scale) + perf gate"
    local out=target/bench-smoke
    rm -rf "$out"
    mkdir -p "$out"
    for fig in fig1a fig6a fig6b fig6c fig6d ablation_rebalance; do
        GDB_BENCH_SCALE=tiny GDB_BENCH_SECS=2 GDB_BENCH_TERMINALS=8 \
            cargo run --release -q -p gdb-bench --bin "$fig" -- \
            --json "$out/$fig.json" >/dev/null
    done
    cargo run --release -q -p gdb-chaos --bin nemesis -- \
        --seed 1 --duration 2s --json "$out/nemesis.json" >/dev/null
    cargo run --release -q -p gdb-bench --bin benchcmp -- merge \
        "$out/BENCH_smoke.json" \
        "$out"/fig1a.json "$out"/fig6a.json "$out"/fig6b.json \
        "$out"/fig6c.json "$out"/fig6d.json "$out"/ablation_rebalance.json \
        "$out"/nemesis.json
    cargo run --release -q -p gdb-bench --bin benchcmp -- check \
        BENCH_smoke.json "$out/BENCH_smoke.json" --tolerance 0.20
}

# The full-stack wall-clock benchmark is its own workspace under
# benchmark/ and calls deep into the crates' public API; building it,
# running its tests and a quick pass over all four workloads (~20 s)
# fails CI when a change breaks that surface. Timings are not gated
# here — BENCHMARK.json's driver compares them against the parent commit.
stage_benchmark() {
    echo "==> benchmark/ (build, tests, all --quick)"
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
    timeout 600 cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- all --quick
}

# Real-backend gate: the realnet crate's tests (unit + sim/real
# divergence + seam scans). Real threads and sockets can wedge in ways
# virtual time cannot, hence the hard timeout. (Wall-clock cost of the
# backends is benchmark/'s `tpcc_tcp` workload and `realnet.*` probes.)
stage_realnet() {
    echo "==> realnet tests (thread + tcp backends)"
    timeout 600 cargo test --release -q -p gdb-realnet
}

case "${1:-all}" in
lint) stage_lint ;;
build) stage_build ;;
test) stage_test ;;
nemesis-smoke) stage_nemesis_smoke ;;
shell) stage_shell ;;
bench-smoke) stage_bench_smoke ;;
benchmark) stage_benchmark ;;
realnet) stage_realnet ;;
vt-diff) scripts/vt_diff.sh "${2:?usage: scripts/ci.sh vt-diff <rev>}" ;;
main)
    stage_lint
    stage_build
    stage_test
    stage_bench_smoke
    stage_benchmark
    echo "CI OK"
    ;;
all)
    stage_lint
    stage_build
    stage_test
    stage_nemesis_smoke
    stage_shell
    stage_bench_smoke
    stage_benchmark
    stage_realnet
    echo "CI OK"
    ;;
*)
    echo "unknown stage: $1 (see scripts/ci.sh header)" >&2
    exit 2
    ;;
esac

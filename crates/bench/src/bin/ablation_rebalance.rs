//! Ablation — online rebalancing under a skewed workload.
//!
//! Sysbench Update-Index with Zipfian keys, every client pinned to a
//! region-0 CN: the hot keys pile onto a handful of shards whose
//! primaries sit in remote regions, so the static cluster pays the
//! cross-region round trip on most commits. The rebalance run ticks a
//! [`RebalanceController`](gdb_rebalance::RebalanceController) at every
//! window boundary; its placement cost model scores the whole cluster
//! view (cross-region traffic, per-host load spread, replica balance)
//! and starts one batched migration plan whenever a move clears the
//! hysteresis margin — snapshot copy, redo catch-up, cutover barrier, one
//! routing-epoch bump per batch — without any window dropping to zero
//! commits.
//!
//! The PR 4 policy chain (since removed; EXPERIMENTS.md keeps the dated
//! result) thrashed here: with every client in one region, its affinity
//! and load-spread policies optimized conflicting objectives and
//! oscillated (16 ping-pong migrations in a 10 s run).
//! The cost model's single objective plus the decaying per-shard
//! hysteresis penalty converges instead: the `rebalance-skew` run must
//! localize the hot shards in at most [`MAX_MIGRATIONS`] moves (the root
//! claims test asserts the same bound on the same run).
//!
//! Regenerate with: `cargo run -p gdb-bench --release --bin ablation_rebalance`

use gdb_bench::windowed::{rebalance_controller, rebalance_run, window, MAX_MIGRATIONS};
use gdb_bench::{artifact, emit_artifact, print_table, ratio, series_from_run, BenchParams};

fn main() {
    let params = BenchParams::from_env();
    let mut art = artifact("ablation_rebalance", &params);

    let (mut c_static, r_static, _) = rebalance_run(&params, None);
    let mut controller = rebalance_controller(&params);
    let (mut c_rebal, r_rebal, mut windows) = rebalance_run(&params, Some(&mut controller));

    art.series
        .push(series_from_run("static-skew", &mut c_static, &r_static));
    art.series
        .push(series_from_run("rebalance-skew", &mut c_rebal, &r_rebal));

    let rows: Vec<Vec<String>> = windows
        .iter_mut()
        .enumerate()
        .map(|(i, w)| {
            vec![
                format!(
                    "{}..{} ms",
                    i as u64 * window().as_millis(),
                    (i as u64 + 1) * window().as_millis()
                ),
                format!("{}", w.commits),
                format!("{}", w.latency.percentile(95.0)),
                w.event.clone(),
            ]
        })
        .collect();
    print_table(
        "Ablation — Sysbench Update-Index (Zipf 0.99, clients in region 0) with online rebalancing",
        &["window", "commits", "p95", "event"],
        &rows,
    );

    let snap = c_rebal.db.metrics_snapshot();
    let c = |n: &str| snap.counter(n).unwrap_or(0);
    let s = r_static.throughput_per_sec();
    let g = r_rebal.throughput_per_sec();
    println!(
        "static: {s:.0} txn/s; with rebalancing: {g:.0} txn/s ({}). Migrations: \
         {} started, {} completed, {} aborted; routing epoch {}.",
        ratio(g, s),
        c("rebalance.migrations_started"),
        c("rebalance.migrations_completed"),
        c("rebalance.migrations_aborted"),
        c("rebalance.routing_epoch"),
    );
    for p in &controller.history {
        println!("  - {}", p.reason);
    }
    // Time to converge: once the last plan started, the cost model was
    // satisfied for every remaining window.
    if let Some(last) = windows.iter().rposition(|w| !w.event.is_empty()) {
        println!(
            "converged after {} ms ({} windows): no further proposals",
            (last as u64 + 1) * window().as_millis(),
            last + 1
        );
    }

    // The convergence claim: a bounded number of migrations (the removed
    // policy chain ping-ponged 16 times here) ...
    let started = c("rebalance.migrations_started");
    assert!(
        started <= MAX_MIGRATIONS,
        "cost model failed to converge: {started} migrations started (budget {MAX_MIGRATIONS})"
    );
    // ... and zero downtime: the cutovers must never starve a window.
    let min = windows.iter().map(|w| w.commits).min().unwrap_or(0);
    assert!(min > 0, "a window starved during a migration!");
    emit_artifact(&art);
}

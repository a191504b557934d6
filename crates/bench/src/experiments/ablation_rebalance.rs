//! Ablation — online rebalancing under a skewed workload.
//!
//! Sysbench Update-Index with Zipfian keys, every client pinned to a
//! region-0 CN: the hot keys pile onto a handful of shards whose
//! primaries sit in remote regions, so the static cluster pays the
//! cross-region round trip on most commits. The rebalance run ticks a
//! [`RebalanceController`] at every window boundary; its placement cost
//! model scores the whole cluster view (cross-region traffic, per-host
//! load spread, replica balance) and starts one batched migration plan
//! whenever a move clears the hysteresis margin — snapshot copy, redo
//! catch-up, cutover barrier, one routing-epoch bump per batch — without
//! any window dropping to zero commits.
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
//! The run is its own closed loop rather than a
//! [`run_workload`](gdb_workloads::driver::run_workload) call: it counts
//! commits per 500 ms [`window`] and ticks the controller between them.
//!
//! Regenerate with: `cargo run -p gdb-bench --release -- ablation_rebalance`

use crate::{artifact, print_table, ratio, series_from_run, BenchParams};
use gdb_obs::BenchArtifact;
use gdb_rebalance::RebalanceController;
use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::{SimDuration, SimTime};
use gdb_workloads::driver::{KeyDistribution, Workload};
use gdb_workloads::sysbench::{SysbenchMode, SysbenchScale, SysbenchWorkload};
use gdb_workloads::WorkloadReport;
use globaldb::{Cluster, ClusterConfig};

/// The width of one counted window.
pub fn window() -> SimDuration {
    SimDuration::from_millis(500)
}

/// What one window of a windowed run saw.
pub struct WindowStat {
    pub commits: u64,
    pub latency: LatencyHistogram,
    /// The migration plan the controller started at the window's end.
    pub event: String,
}

/// The convergence budget of the rebalancing run: one-sided traffic must
/// localize in at most this many migrations (the removed policy chain
/// needed 16 and kept going).
pub const MAX_MIGRATIONS: u64 = 4;

/// The rebalancing controller the ablation runs. At tiny scale a 500 ms
/// window carries too few ops to clear the default noise floor, so it is
/// lowered there: the smoke run then exercises real migrations rather
/// than a silent no-op twin.
pub fn controller(params: &BenchParams) -> RebalanceController {
    let mut controller = RebalanceController::new();
    if params.scale_name == "tiny" {
        controller.policy.min_shard_ops = 8;
    }
    controller
}

/// One windowed closed-loop run of Sysbench Update-Index with Zipfian
/// keys (θ = 0.99), every client pinned to a region-0 CN, on the
/// Three-City GlobalDB cluster; `controller` ticks at window boundaries
/// when present (the sweep is static, then rebalanced).
pub fn point(
    params: &BenchParams,
    mut controller: Option<&mut RebalanceController>,
) -> (Cluster, WorkloadReport, Vec<WindowStat>) {
    let mut cluster = Cluster::new(ClusterConfig::globaldb_three_city());
    let scale = match params.scale_name {
        "tiny" => SysbenchScale::tiny(),
        _ => SysbenchScale::small(),
    };
    let mut wl = SysbenchWorkload::new(scale, SysbenchMode::UpdateIndex, params.seed)
        .with_key_dist(KeyDistribution::Zipfian { theta: 0.99 });
    wl.pin_cn = Some(0);
    wl.setup(&mut cluster).expect("sysbench setup");

    let windows = ((params.run.duration.as_nanos() / window().as_nanos()).max(4)) as usize;
    let t0 = cluster.now();
    let t_end = t0 + window() * windows as u64;
    let mut report = WorkloadReport {
        duration: window() * windows as u64,
        ..Default::default()
    };
    let mut stats: Vec<WindowStat> = (0..windows)
        .map(|_| WindowStat {
            commits: 0,
            latency: LatencyHistogram::new(),
            event: String::new(),
        })
        .collect();

    let mut next_at: Vec<SimTime> = (0..params.run.terminals)
        .map(|i| t0 + SimDuration::from_micros(1 + i as u64 * 137))
        .collect();
    let mut cur_w = 0usize;
    while let Some((term, &at)) = next_at.iter().enumerate().min_by_key(|(_, t)| t.as_nanos()) {
        if at >= t_end {
            break;
        }
        let w = ((at.since(t0).as_nanos() / window().as_nanos()) as usize).min(windows - 1);
        while cur_w < w {
            // Window boundary: let the controller read the finished
            // window's shard counters and (maybe) start a batched plan.
            if let Some(c) = controller.as_deref_mut() {
                let batch = c.tick(&mut cluster);
                if !batch.is_empty() {
                    stats[cur_w].event = if batch.len() == 1 {
                        batch[0].reason.clone()
                    } else {
                        format!("batch of {}: {}", batch.len(), batch[0].reason)
                    };
                }
            }
            cur_w += 1;
        }
        let (kind, res) = wl.run_one(&mut cluster, term, at);
        match res {
            Ok(outcome) => {
                report.record_commit(kind, outcome.latency);
                stats[w].commits += 1;
                stats[w].latency.record(outcome.latency);
                next_at[term] = outcome.completed_at + params.run.think_time;
            }
            Err(e) if e.is_retryable() => {
                report.record_abort(kind);
                next_at[term] = at + params.run.think_time;
            }
            Err(e) => panic!("sysbench error ({kind}): {e}"),
        }
    }
    cluster.run_until(t_end);
    (cluster, report, stats)
}

pub fn run(params: &BenchParams) -> BenchArtifact {
    let mut art = artifact("ablation_rebalance", params);

    let (mut c_static, r_static, _) = point(params, None);
    let mut controller = controller(params);
    let (mut c_rebal, r_rebal, mut windows) = point(params, Some(&mut controller));

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

    let snap = c_rebal.metrics_snapshot();
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
    art
}

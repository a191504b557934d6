//! The two experiments that are their own closed loop rather than a
//! [`run_workload`](gdb_workloads::driver::run_workload) call: online
//! rebalancing under skew and the GTM↔GClock transition. Each counts
//! commits per 500 ms window; the `ablation_rebalance` and
//! `ablation_transition` binaries print these runs and the root claims
//! test asserts on them.

use crate::BenchParams;
use gdb_rebalance::RebalanceController;
use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::{SimDuration, SimTime};
use gdb_workloads::driver::{KeyDistribution, Workload};
use gdb_workloads::sysbench::{SysbenchMode, SysbenchScale, SysbenchWorkload};
use gdb_workloads::tpcc::{loader, txns, TpccScale};
use gdb_workloads::WorkloadReport;
use globaldb::{Cluster, ClusterConfig, TmMode, TransitionDirection};
use rand::rngs::SmallRng;
use rand::SeedableRng;

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
pub fn rebalance_controller(params: &BenchParams) -> RebalanceController {
    let mut controller = RebalanceController::new();
    if params.scale_name == "tiny" {
        controller.policy.min_shard_ops = 8;
    }
    controller
}

/// One windowed closed-loop run of Sysbench Update-Index with Zipfian
/// keys (θ = 0.99), every client pinned to a region-0 CN, on the
/// Three-City GlobalDB cluster; `controller` ticks at window boundaries
/// when present.
pub fn rebalance_run(
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
            latency: LatencyHistogram::bounded(),
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

/// Windows of the transition run; the switch to GClock starts at window
/// [`TO_GCLOCK_AT`] and the switch back to GTM at [`TO_GTM_AT`].
pub const TRANSITION_WINDOWS: usize = 16;
pub const TO_GCLOCK_AT: usize = 4;
pub const TO_GTM_AT: usize = 10;

/// The transition run's per-window result.
pub struct TransitionRun {
    pub cluster: Cluster,
    /// New-Order commits per window.
    pub commits: Vec<u64>,
    /// The mode of the last committing CN in each window.
    pub modes: Vec<String>,
}

/// New-Order on the tiny-scale One-Region GlobalDB cluster started in GTM
/// mode, 8 closed-loop terminals, with the online transition to GClock
/// and back kicked mid-run. New-Order only keeps the harness simple;
/// mixed kinds would obscure the per-window signal.
pub fn transition_run(seed: u64) -> TransitionRun {
    let scale = TpccScale::tiny();
    let mut config = ClusterConfig::globaldb_one_region();
    config.tm_mode = TmMode::Gtm;
    let mut cluster = Cluster::new(config);
    loader::load(&mut cluster, &scale, seed).expect("load");
    let st = txns::Statements::prepare(&cluster).expect("prepare");
    let mut rng = SmallRng::seed_from_u64(seed);

    let mut commits = vec![0u64; TRANSITION_WINDOWS];
    let mut modes = vec![String::new(); TRANSITION_WINDOWS];
    let mut next_at: Vec<SimTime> = (0..8)
        .map(|i| SimTime::from_millis(10 + i as u64))
        .collect();
    let t_end = SimTime::from_millis(10) + window() * TRANSITION_WINDOWS as u64;
    let mut transition_started = 0usize; // 0 = none, 1 = to GClock, 2 = back

    while let Some((term, &at)) = next_at.iter().enumerate().min_by_key(|(_, t)| t.as_nanos()) {
        if at >= t_end {
            break;
        }
        let widx = ((at.as_millis().saturating_sub(10)) / window().as_millis()) as usize;
        if widx >= TO_GCLOCK_AT && transition_started == 0 {
            cluster.start_transition(TransitionDirection::ToGClock);
            transition_started = 1;
        }
        if widx >= TO_GTM_AT && transition_started == 1 {
            cluster.start_transition(TransitionDirection::ToGtm);
            transition_started = 2;
        }
        let w = (term as i64 % scale.warehouses) + 1;
        let dist = ((term as i64 / scale.warehouses) % scale.districts_per_warehouse) + 1;
        let cn = term % cluster.db.cns().len();
        let res = txns::new_order(&mut cluster, &st, &mut rng, &scale, cn, at, w, dist, 0.0);
        let done = match res {
            Ok(outcome) => {
                if widx < TRANSITION_WINDOWS {
                    commits[widx] += 1;
                    modes[widx] = format!("{}", cluster.db.cn_mode(cn));
                }
                outcome.completed_at
            }
            Err(_) => at + SimDuration::from_millis(5),
        };
        next_at[term] = done + SimDuration::from_millis(10);
    }
    TransitionRun {
        cluster,
        commits,
        modes,
    }
}

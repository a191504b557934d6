//! Ablation — zero-downtime online transition (paper §III-A, Figs. 2–3).
//!
//! Runs TPC-C in GTM mode, switches the cluster to GClock mid-run (and
//! later back to GTM), and reports throughput in 500 ms windows counted
//! from the end of setup (the table's "10..510 ms" is its first). The
//! paper's claim: the cluster keeps accepting transactions throughout —
//! no window drops to zero, versus the strawman of blocking the system
//! until all GTM transactions drain.
//!
//! The run is its own closed loop rather than a
//! [`run_workload`](gdb_workloads::driver::run_workload) call, and fixed
//! at tiny scale: only the seed comes from the command line.
//!
//! Regenerate with: `cargo run -p gdb-bench --release -- ablation_transition`

use super::ablation_rebalance::window;
use crate::{print_table, BenchParams};
use gdb_simnet::{SimDuration, SimTime};
use gdb_workloads::tpcc::{loader, txns, TpccScale};
use globaldb::{Cluster, ClusterConfig, TmMode, TransitionDirection};
use rand::rngs::SmallRng;
use rand::SeedableRng;

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
pub fn point(seed: u64) -> TransitionRun {
    let scale = TpccScale::tiny();
    let mut config = ClusterConfig::globaldb_one_region();
    config.tm_mode = TmMode::Gtm;
    let mut cluster = Cluster::new(config);
    loader::load(&mut cluster, &scale, seed).expect("load");
    let st = txns::Statements::prepare(&cluster).expect("prepare");
    let mut rng = SmallRng::seed_from_u64(seed);

    let mut commits = vec![0u64; TRANSITION_WINDOWS];
    let mut modes = vec![String::new(); TRANSITION_WINDOWS];
    let origin = cluster.now() + SimDuration::from_millis(10);
    let mut next_at: Vec<SimTime> = (0..8)
        .map(|i| origin + SimDuration::from_millis(i))
        .collect();
    let t_end = origin + window() * TRANSITION_WINDOWS as u64;
    let mut transition_started = 0usize; // 0 = none, 1 = to GClock, 2 = back

    while let Some((term, &at)) = next_at.iter().enumerate().min_by_key(|(_, t)| t.as_nanos()) {
        if at >= t_end {
            break;
        }
        let widx = (at.since(origin).as_millis() / window().as_millis()) as usize;
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

pub fn run(params: &BenchParams) {
    let run = point(params.seed);

    let rows: Vec<Vec<String>> = run
        .commits
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let note = match i {
                TO_GCLOCK_AT => "→ transition to GClock starts",
                TO_GTM_AT => "→ transition back to GTM starts",
                _ => "",
            };
            vec![
                format!("{}..{} ms", 10 + i * 500, 10 + (i + 1) * 500),
                format!("{c}"),
                run.modes[i].clone(),
                note.to_string(),
            ]
        })
        .collect();
    print_table(
        "Ablation — throughput through online GTM↔GClock transitions",
        &["window", "NewOrder commits", "CN mode at end", "event"],
        &rows,
    );
    let min = run.commits.iter().min().unwrap();
    println!(
        "Minimum window: {min} commits — zero-downtime requires every window > 0. \
         Last transition completed: {:?}",
        run.cluster.db.last_transition_completed()
    );
    assert!(*min > 0, "a window starved during the transition!");
}

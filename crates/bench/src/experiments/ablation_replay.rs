//! Ablation — parallel redo replay (paper §II-B: GlobalDB "applies Redo
//! logs in parallel which significantly improves log replay speed").
//!
//! Sweeps replay workers 1..8 under a write-heavy load and reports replica
//! freshness (RCP lag): serial replay falls behind, parallel replay keeps
//! the RCP close to the present, which is what makes ROR reads fresh.
//!
//! Regenerate with: `cargo run -p gdb-bench --release -- ablation_replay`

use super::{rcp_lag_ms, Run};
use crate::{print_table, tpcc_run, BenchParams};
use gdb_replication::ReplayCostModel;
use gdb_simnet::SimDuration;
use gdb_workloads::tpcc::TpccMix;
use globaldb::ClusterConfig;

/// Replay workers per replica.
pub const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The TPC-C standard mix, every transaction local, on Three-City
/// GlobalDB whose replicas replay with `workers` workers.
pub fn point(params: &BenchParams, workers: usize) -> Run {
    let config = ClusterConfig {
        replay: ReplayCostModel {
            // A deliberately expensive per-record cost so replay is the
            // bottleneck being ablated.
            per_record: SimDuration::from_micros(150),
            workers,
            per_batch: SimDuration::from_micros(20),
        },
        ..ClusterConfig::globaldb_three_city()
    };
    tpcc_run(config, params, TpccMix::standard(), |wl| {
        wl.set_all_local();
    })
}

pub fn run(params: &BenchParams) {
    let mut rows = Vec::new();
    for workers in SWEEP {
        let (cluster, report) = point(params, workers);
        let fallbacks = cluster.db.stats().replica_blocked_fallbacks;
        rows.push(vec![
            format!("{workers}"),
            format!("{:.0}", report.tpmc()),
            format!("{:.1} ms", rcp_lag_ms(&cluster)),
            format!("{fallbacks}"),
        ]);
    }
    print_table(
        "Ablation — parallel replay workers (write-heavy, Three-City)",
        &[
            "replay workers",
            "tpmC (sim)",
            "RCP lag",
            "blocked fallbacks",
        ],
        &rows,
    );
    println!("Expected: more workers ⇒ fresher replicas (smaller RCP lag).");
}

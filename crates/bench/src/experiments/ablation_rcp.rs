//! Ablation — RCP freshness vs heartbeat / collection cadence
//! (paper §IV-A: heartbeats guarantee the max commit timestamp advances
//! even on idle replicas; the collector CN periodically recomputes and
//! distributes the RCP).
//!
//! Sweeps the heartbeat interval under the read-only TPC-C workload and
//! reports the RCP lag (how stale ROR snapshots are) and throughput.
//!
//! Regenerate with: `cargo run -p gdb-bench --release -- ablation_rcp`

use super::{rcp_lag_ms, Run};
use crate::{print_table, tpcc_run, BenchParams};
use gdb_simnet::SimDuration;
use gdb_workloads::tpcc::TpccMix;
use globaldb::ClusterConfig;

/// Heartbeat intervals, in ms.
pub const SWEEP: [u64; 5] = [5, 10, 50, 200, 1000];

/// Read-only TPC-C (half the queries multi-shard) on Three-City GlobalDB
/// with a `hb_ms` heartbeat and an RCP round every half of it (≥ 5 ms).
pub fn point(params: &BenchParams, hb_ms: u64) -> Run {
    let config = ClusterConfig {
        heartbeat_interval: SimDuration::from_millis(hb_ms),
        rcp_interval: SimDuration::from_millis((hb_ms / 2).max(5)),
        ..ClusterConfig::globaldb_three_city()
    };
    tpcc_run(config, params, TpccMix::read_only(), |wl| {
        wl.multi_shard_read_fraction = 0.5;
    })
}

pub fn run(params: &BenchParams) {
    let mut rows = Vec::new();
    for hb_ms in SWEEP {
        let (cluster, report) = point(params, hb_ms);
        rows.push(vec![
            format!("{hb_ms} ms"),
            format!("{:.0}", report.throughput_per_sec()),
            format!("{:.1} ms", rcp_lag_ms(&cluster)),
            format!("{}", cluster.db.stats().rcp_rounds),
            format!("{}", report.reads_on_replica),
        ]);
    }
    print_table(
        "Ablation — heartbeat cadence vs RCP freshness (read-only TPC-C)",
        &[
            "heartbeat",
            "txn/s (sim)",
            "RCP lag",
            "RCP rounds",
            "replica reads",
        ],
        &rows,
    );
    println!(
        "Expected: slower heartbeats ⇒ staler RCP snapshots (bounded \
         freshness knob); throughput is largely unaffected."
    );
}

//! Ablation — TCP tuning: Nagle's algorithm and congestion control
//! (paper §V-A: GlobalDB disables Nagle and uses BBR).
//!
//! Runs the synchronous-replication configuration on the Three-City WAN
//! with the four combinations of {Nagle on/off} × {Reno, BBR}. Sync
//! commits wait on WAN shipping, so both knobs surface directly in commit
//! latency and throughput.
//!
//! Regenerate with: `cargo run -p gdb-bench --release -- ablation_network`

use super::Run;
use crate::{print_table, BenchParams};
use gdb_simnet::{CongestionModel, LinkParams, SimDuration};
use gdb_workloads::driver::{run_workload, Workload};
use gdb_workloads::tpcc::{TpccMix, TpccWorkload};
use globaldb::{Cluster, ClusterConfig, ReplicationMode};

const RENO: CongestionModel = CongestionModel::Reno {
    window_bytes: 1 << 20,
};

/// The network stacks compared: `(label, Nagle on, congestion control)`.
pub const SWEEP: [(&str, bool, CongestionModel); 4] = [
    ("Nagle on,  Reno", true, RENO),
    ("Nagle on,  BBR", true, CongestionModel::Bbr),
    ("Nagle off, Reno", false, RENO),
    ("Nagle off, BBR (GlobalDB)", false, CongestionModel::Bbr),
];

/// The TPC-C standard mix, every transaction local, on Three-City
/// GlobalDB with quorum-synchronous replication and every inter-region
/// link running `nagle` and `congestion`.
pub fn point(params: &BenchParams, nagle: bool, congestion: CongestionModel) -> Run {
    let config = ClusterConfig {
        replication: ReplicationMode::SyncRemoteQuorum { quorum: 1 },
        ..ClusterConfig::globaldb_three_city()
    };
    let mut cluster = Cluster::new(config);
    // Apply the combo to every inter-region link before loading.
    let regions = cluster.db.regions().to_vec();
    for i in 0..regions.len() {
        for j in (i + 1)..regions.len() {
            let base = cluster.db.topo().link(regions[i], regions[j]);
            cluster.db.topo_mut().set_link(
                regions[i],
                regions[j],
                LinkParams {
                    nagle,
                    nagle_delay: SimDuration::from_millis(5),
                    congestion,
                    ..base
                },
            );
        }
    }
    let mut wl = TpccWorkload::new(params.scale, TpccMix::standard(), params.seed);
    wl.set_all_local();
    wl.setup(&mut cluster).expect("setup");
    let report = run_workload(&mut cluster, &mut wl, params.run);
    (cluster, report)
}

pub fn run(params: &BenchParams) {
    let mut rows = Vec::new();
    for (label, nagle, congestion) in SWEEP {
        let (_, report) = point(params, nagle, congestion);
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", report.tpmc()),
            format!("{}", report.mean_latency("new_order")),
            format!("{}", report.p99_latency("new_order")),
        ]);
    }
    print_table(
        "Ablation — Nagle × congestion control (sync replication, Three-City)",
        &[
            "network stack",
            "tpmC (sim)",
            "NewOrder mean",
            "NewOrder p99",
        ],
        &rows,
    );
    println!("Expected: Nagle-off and BBR each improve sync-commit latency; combined is best.");
}

//! Every experiment of the paper's evaluation, each defined once.
//!
//! An experiment is one module holding:
//! * `SWEEP`, the values its table varies;
//! * `point`, the run of one sweep value: cluster config, workload and
//!   workload tweak;
//! * `run`, the whole sweep: it prints the paper-style table and returns
//!   the `--json` artifact of the experiments that record one.
//!
//! `gdb-bench <name>` calls `run` through [`EXPERIMENTS`]; the root
//! package's `tests/claims.rs` calls `point` on the sweep values it
//! asserts on. The quantities derived from a run are defined below, once:
//! [`replica_read_share`], [`compression_ratio`], [`commit_wait_us`] and
//! [`rcp_lag_ms`].

pub mod ablation_clock;
pub mod ablation_compression;
pub mod ablation_network;
pub mod ablation_rcp;
pub mod ablation_rebalance;
pub mod ablation_replay;
pub mod ablation_transition;
pub mod fig1a;
pub mod fig6a;
pub mod fig6b;
pub mod fig6c;
pub mod fig6d;

use crate::BenchParams;
use gdb_obs::BenchArtifact;
use gdb_workloads::WorkloadReport;
use globaldb::{Cluster, ClusterConfig};
use std::path::Path;

/// One finished point: the cluster as its run left it, and the
/// workload's report.
pub type Run = (Cluster, WorkloadReport);

/// How `gdb-bench` runs an experiment, and so which output flags it
/// takes.
#[derive(Clone, Copy)]
pub enum Runner {
    /// Prints its table.
    Table(fn(&BenchParams)),
    /// Prints its table and returns its `--json` artifact.
    Artifact(fn(&BenchParams) -> BenchArtifact),
    /// As `Artifact`, and writes a `--trace` of its headline run.
    Traced(fn(&BenchParams, Option<&Path>) -> BenchArtifact),
}

/// Every experiment `gdb-bench` runs, by name, figures first.
pub const EXPERIMENTS: [(&str, Runner); 12] = [
    ("fig1a", Runner::Artifact(fig1a::run)),
    ("fig6a", Runner::Traced(fig6a::run)),
    ("fig6b", Runner::Artifact(fig6b::run)),
    ("fig6c", Runner::Artifact(fig6c::run)),
    ("fig6d", Runner::Artifact(fig6d::run)),
    ("ablation_clock", Runner::Table(ablation_clock::run)),
    (
        "ablation_compression",
        Runner::Table(ablation_compression::run),
    ),
    ("ablation_network", Runner::Table(ablation_network::run)),
    ("ablation_rcp", Runner::Table(ablation_rcp::run)),
    (
        "ablation_rebalance",
        Runner::Artifact(ablation_rebalance::run),
    ),
    ("ablation_replay", Runner::Table(ablation_replay::run)),
    (
        "ablation_transition",
        Runner::Table(ablation_transition::run),
    ),
];

/// How `gdb-bench` runs the experiment called `name`.
pub fn runner(name: &str) -> Option<Runner> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, r)| *r)
}

/// The two systems the paper compares: baseline GaussDB (centralized
/// GTM, synchronous replication, primary reads) and GlobalDB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Baseline,
    GlobalDb,
}

/// Where a system is deployed (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    OneRegion,
    ThreeCity,
}

/// The paper's cluster for `system` on `deployment`.
pub fn config(system: System, deployment: Deployment) -> ClusterConfig {
    match (system, deployment) {
        (System::Baseline, Deployment::OneRegion) => ClusterConfig::baseline_one_region(),
        (System::Baseline, Deployment::ThreeCity) => ClusterConfig::baseline_three_city(),
        (System::GlobalDb, Deployment::OneRegion) => ClusterConfig::globaldb_one_region(),
        (System::GlobalDb, Deployment::ThreeCity) => ClusterConfig::globaldb_three_city(),
    }
}

/// The share of reads served by replicas (0 when nothing was read).
pub fn replica_read_share(report: &WorkloadReport) -> f64 {
    let total = report.reads_on_primary + report.reads_on_replica;
    if total == 0 {
        0.0
    } else {
        report.reads_on_replica as f64 / total as f64
    }
}

/// Redo bytes shipped to every replica, `(raw, wire)`: before and after
/// compression.
pub fn redo_bytes(cluster: &Cluster) -> (u64, u64) {
    cluster
        .db
        .shards()
        .iter()
        .flat_map(|s| s.replicas.iter())
        .fold((0, 0), |(raw, wire), rep| {
            (
                raw + rep.channel.stats.raw_bytes,
                wire + rep.channel.stats.wire_bytes,
            )
        })
}

/// Raw over wire redo bytes (1 when nothing was shipped).
pub fn compression_ratio(cluster: &Cluster) -> f64 {
    match redo_bytes(cluster) {
        (_, 0) => 1.0,
        (raw, wire) => raw as f64 / wire as f64,
    }
}

/// Mean commit wait per write commit, in µs: the `commit_wait` phase
/// over the whole run, the same span as Fig. 6a's phase breakdown (0
/// when nothing was written).
pub fn commit_wait_us((cluster, _): &Run) -> f64 {
    let metrics = &cluster.db.obs().metrics;
    let wait = metrics.histogram(gdb_txnmgr::metrics::PHASE_COMMIT_WAIT_US);
    wait.map_or(0.0, |h| h.sum_us() as f64 / h.len() as f64)
}

/// Mean RCP lag across regions in milliseconds (freshness metric).
pub fn rcp_lag_ms(cluster: &Cluster) -> f64 {
    let now_us = cluster.now().as_micros() as f64;
    let regions = cluster.db.rcp_calculators().len().max(1) as f64;
    let total: f64 = cluster
        .db
        .rcp_calculators()
        .iter()
        .map(|r| (now_us - r.current().as_micros() as f64).max(0.0))
        .sum();
    total / regions / 1_000.0
}

//! Fig. 1a — OLTP performance degrades as the cluster spans more distant
//! regions (same rack → same city → three cities), for a classic
//! shared-nothing deployment (centralized GTM + synchronous replication).
//!
//! Regenerate with: `cargo run -p gdb-bench --release -- fig1a`

use super::Run;
use crate::{artifact, print_table, ratio, series_from_run, tpcc_run, BenchParams};
use gdb_obs::BenchArtifact;
use gdb_workloads::tpcc::TpccMix;
use globaldb::{ClusterConfig, Geometry, SimDuration};

/// The deployments, narrowest first: one region with `Some(ms)` of
/// injected delay, or three cities.
pub const SWEEP: [(&str, Option<u64>); 3] = [
    ("same rack", Some(0)),
    ("same city (2 ms)", Some(2)),
    ("three cities", None),
];

/// Baseline GaussDB running the TPC-C standard mix on one deployment.
pub fn point(params: &BenchParams, one_region_delay_ms: Option<u64>) -> Run {
    let config = match one_region_delay_ms {
        Some(ms) => ClusterConfig {
            geometry: Geometry::OneRegion {
                injected_delay: SimDuration::from_millis(ms),
            },
            ..ClusterConfig::baseline_one_region()
        },
        None => ClusterConfig::baseline_three_city(),
    };
    tpcc_run(config, params, TpccMix::standard(), |_| {})
}

pub fn run(params: &BenchParams) -> BenchArtifact {
    let mut art = artifact("fig1a", params);
    let mut rows = Vec::new();
    let mut base = 0.0;
    for (label, delay) in SWEEP {
        let (mut cluster, report) = point(params, delay);
        art.series
            .push(series_from_run(label, &mut cluster, &report));
        let tpmc = report.tpmc();
        if base == 0.0 {
            base = tpmc;
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", tpmc),
            ratio(tpmc, base),
            format!("{}", report.mean_latency("new_order")),
        ]);
    }
    print_table(
        "Fig. 1a — baseline GaussDB TPC-C vs geographic span",
        &["deployment", "tpmC (sim)", "vs same rack", "NewOrder mean"],
        &rows,
    );
    println!(
        "Paper shape: throughput falls sharply as the cluster spans more \
         distant regions (Fig. 1a)."
    );
    art
}

//! Fig. 6a — TPC-C throughput (100% local transactions):
//! * baseline GaussDB loses ~2/3 of its throughput moving from One-Region
//!   to Three-City (GTM round trips + synchronous WAN replication +
//!   untuned log shipping);
//! * GlobalDB recovers to ~91% of the One-Region figure (GClock + async
//!   replication + LZ4 + BBR + Nagle-off);
//! * GlobalDB shows no regression when deployed on One-Region.
//!
//! Regenerate with: `cargo run -p gdb-bench --release -- fig6a`
//! (add `--json fig6a.json` to also write the machine-readable
//! artifact, and `--trace trace.json` to export a Chrome trace-event
//! span timeline of the GlobalDB three-city run).

use super::Deployment::{OneRegion, ThreeCity};
use super::System::{Baseline, GlobalDb};
use super::{config, Deployment, Run, System};
use crate::{artifact, print_table, ratio, series_from_run, tpcc_run_with, BenchParams};
use gdb_obs::BenchArtifact;
use gdb_workloads::tpcc::TpccMix;
use std::path::Path;

/// Each system on each deployment.
pub const SWEEP: [(&str, System, Deployment); 4] = [
    ("baseline @ one-region", Baseline, OneRegion),
    ("baseline @ three-city", Baseline, ThreeCity),
    ("GlobalDB @ one-region", GlobalDb, OneRegion),
    ("GlobalDB @ three-city", GlobalDb, ThreeCity),
];

/// The TPC-C standard mix with 100% local transactions (§V-A); with a
/// `trace` path, the run's span tree is exported there as a Chrome trace.
pub fn point(
    params: &BenchParams,
    system: System,
    deployment: Deployment,
    trace: Option<&Path>,
) -> Run {
    let (cluster, report) = tpcc_run_with(
        config(system, deployment),
        params,
        TpccMix::standard(),
        |wl| {
            wl.set_all_local();
        },
        |c| {
            if trace.is_some() {
                c.db.obs_mut().tracer.enable(1_000_000);
            }
        },
    );
    if let Some(path) = trace {
        let doc = gdb_obs::to_chrome_trace(&cluster.db.obs().tracer);
        std::fs::write(path, doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!(
            "wrote {} ({} spans, {} dropped)",
            path.display(),
            cluster.db.obs().tracer.spans().len(),
            cluster.db.obs().tracer.dropped()
        );
    }
    (cluster, report)
}

pub fn run(params: &BenchParams, trace: Option<&Path>) -> BenchArtifact {
    let mut art = artifact("fig6a", params);
    let mut results = Vec::new();
    for (label, system, deployment) in SWEEP {
        // The trace export follows the paper's headline configuration.
        let headline = (system, deployment) == (GlobalDb, ThreeCity);
        let (mut cluster, report) = point(params, system, deployment, trace.filter(|_| headline));
        art.series
            .push(series_from_run(label, &mut cluster, &report));
        results.push((label, report.tpmc(), report.mean_latency("new_order")));
    }

    let baseline_one = results[0].1;
    let globaldb_one = results[2].1;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(label, tpmc, lat)| {
            vec![
                label.to_string(),
                format!("{:.0}", tpmc),
                ratio(*tpmc, baseline_one),
                format!("{lat}"),
            ]
        })
        .collect();
    print_table(
        "Fig. 6a — TPC-C throughput, One-Region vs Three-City",
        &[
            "system",
            "tpmC (sim)",
            "vs baseline@one-region",
            "NewOrder mean",
        ],
        &rows,
    );

    println!(
        "baseline three-city retains {:.0}% of one-region (paper: ~33%)",
        100.0 * results[1].1 / baseline_one
    );
    println!(
        "GlobalDB three-city retains {:.0}% of GlobalDB one-region (paper: ~91%)",
        100.0 * results[3].1 / globaldb_one
    );
    println!(
        "GlobalDB one-region vs baseline one-region: {} (paper: no regression)",
        ratio(globaldb_one, baseline_one)
    );
    art
}

//! Fig. 6b — TPC-C throughput under injected network delay (Linux `tc`
//! style) on the One-Region cluster, measured at a CN that is NOT
//! co-located with the GTM server. Baseline GaussDB degrades by up to
//! ~90% at 100 ms; GlobalDB is flat (no timestamp round trips).
//!
//! Regenerate with: `cargo run -p gdb-bench --release -- fig6b`

use super::Run;
use crate::{artifact, print_table, series_from_run, tpcc_run, BenchParams};
use gdb_obs::BenchArtifact;
use gdb_workloads::tpcc::TpccMix;
use globaldb::{ClusterConfig, Geometry, ReplicationMode, SimDuration, TmMode};

/// Injected delays, in ms; each runs GTM (the baseline) and GClock.
pub const SWEEP: [u64; 5] = [0, 10, 25, 50, 100];

/// TPC-C on One-Region under `mode` with `delay_ms` injected, every
/// transaction local and submitted at CN 1, which is on a different host
/// than the GTM (host 0).
pub fn point(params: &BenchParams, mode: TmMode, delay_ms: u64) -> Run {
    let config = ClusterConfig {
        geometry: Geometry::OneRegion {
            injected_delay: SimDuration::from_millis(delay_ms),
        },
        tm_mode: mode,
        // Async replication for both so the isolated effect is the
        // transaction-management network overhead (§V-A).
        replication: ReplicationMode::Async,
        ..ClusterConfig::baseline_one_region()
    };
    tpcc_run(config, params, TpccMix::standard(), |wl| {
        wl.set_all_local();
        wl.pin_cn = Some(1);
        wl.local_warehouses_only = true;
    })
}

pub fn run(params: &BenchParams) -> BenchArtifact {
    let mut art = artifact("fig6b", params);
    let mut rows = Vec::new();
    let mut base_gtm = 0.0;
    let mut base_gclock = 0.0;
    for delay in SWEEP {
        let (mut c_gtm, r_gtm) = point(params, TmMode::Gtm, delay);
        let (mut c_gclock, r_gclock) = point(params, TmMode::GClock, delay);
        art.series.push(series_from_run(
            format!("gtm @ {delay}ms"),
            &mut c_gtm,
            &r_gtm,
        ));
        art.series.push(series_from_run(
            format!("gclock @ {delay}ms"),
            &mut c_gclock,
            &r_gclock,
        ));
        if delay == 0 {
            base_gtm = r_gtm.tpmc();
            base_gclock = r_gclock.tpmc();
        }
        rows.push(vec![
            format!("{delay} ms"),
            format!("{:.0}", r_gtm.tpmc()),
            format!("{:.0}%", 100.0 * r_gtm.tpmc() / base_gtm.max(1e-9)),
            format!("{:.0}", r_gclock.tpmc()),
            format!("{:.0}%", 100.0 * r_gclock.tpmc() / base_gclock.max(1e-9)),
        ]);
    }
    print_table(
        "Fig. 6b — TPC-C throughput vs injected delay (CN not co-located with GTM)",
        &[
            "injected delay",
            "baseline tpmC",
            "baseline vs 0ms",
            "GlobalDB tpmC",
            "GlobalDB vs 0ms",
        ],
        &rows,
    );
    println!(
        "Paper shape: baseline loses up to ~90% at 100 ms; GlobalDB holds \
         its throughput regardless of delay."
    );
    art
}

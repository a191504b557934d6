//! Fig. 6c — read-only TPC-C (Order-Status + Stock-Level, 50% of the
//! queries multi-shard) on the Three-City cluster. GlobalDB's
//! Read-On-Replica serves reads from local replicas at the RCP snapshot;
//! the baseline routes every read to (mostly remote) primaries. The paper
//! reports up to 14× improvement.
//!
//! Regenerate with: `cargo run -p gdb-bench --release -- fig6c`

use super::{config, rcp_lag_ms, Deployment, Run, System};
use crate::{artifact, print_table, ratio, series_from_run, tpcc_run, BenchParams};
use gdb_obs::BenchArtifact;
use gdb_workloads::tpcc::TpccMix;
use globaldb::SimDuration;

/// "Up to 14x": the offered load, in closed-loop terminals.
pub const SWEEP: [usize; 3] = [8, 24, 64];

/// Read-only TPC-C on `system` at three cities with `terminals`
/// terminals. The paper drives 600 terminals with negligible think time;
/// the throughput gap is the per-query latency gap.
pub fn point(params: &BenchParams, system: System, terminals: usize) -> Run {
    let mut p = *params;
    p.run.think_time = SimDuration::from_millis(1);
    p.run.terminals = terminals;
    tpcc_run(
        config(system, Deployment::ThreeCity),
        &p,
        TpccMix::read_only(),
        |wl| {
            wl.multi_shard_read_fraction = 0.5;
            wl.remote_cn_fraction = 0.0;
        },
    )
}

pub fn run(params: &BenchParams) -> BenchArtifact {
    let mut art = artifact("fig6c", params);
    let mut rows = Vec::new();
    let mut last_rcp_lag = 0.0;
    for terminals in SWEEP {
        let (mut c_base, baseline) = point(params, System::Baseline, terminals);
        let (mut cluster, globaldb) = point(params, System::GlobalDb, terminals);
        last_rcp_lag = rcp_lag_ms(&cluster);
        art.series.push(series_from_run(
            format!("baseline @ {terminals}t"),
            &mut c_base,
            &baseline,
        ));
        art.series.push(series_from_run(
            format!("globaldb @ {terminals}t"),
            &mut cluster,
            &globaldb,
        ));
        let b = baseline.throughput_per_sec();
        let g = globaldb.throughput_per_sec();
        rows.push(vec![
            format!("{terminals}"),
            format!("{b:.0}"),
            format!("{}", baseline.mean_latency("stock_level")),
            format!("{g:.0}"),
            format!("{}", globaldb.mean_latency("stock_level")),
            ratio(g, b),
        ]);
    }
    print_table(
        "Fig. 6c — read-only TPC-C on Three-City (50% multi-shard)",
        &[
            "terminals",
            "baseline txn/s",
            "baseline StockLevel",
            "GlobalDB txn/s",
            "GlobalDB StockLevel",
            "speedup",
        ],
        &rows,
    );
    println!(
        "Paper shape: up to 14x read throughput from replica reads plus \
         decentralized timestamps. RCP lag at end: {last_rcp_lag:.1} ms."
    );
    art
}

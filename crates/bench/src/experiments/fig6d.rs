//! Fig. 6d — Sysbench Point-Select on the Three-City cluster. With hash
//! sharding, ~2/3 of uniform keys live on a shard whose primary is remote
//! from the submitting CN; GlobalDB reads them from local replicas
//! instead. The paper reports up to 8.9× improvement.
//!
//! Regenerate with: `cargo run -p gdb-bench --release -- fig6d`

use super::{config, rcp_lag_ms, replica_read_share, Deployment, Run, System};
use crate::{artifact, print_table, ratio, series_from_run, BenchParams};
use gdb_obs::BenchArtifact;
use gdb_workloads::driver::{run_workload, Workload};
use gdb_workloads::sysbench::{SysbenchMode, SysbenchScale, SysbenchWorkload};
use globaldb::Cluster;

/// Small-scale Sysbench Point-Select on `system` at three cities.
pub fn point(params: &BenchParams, system: System) -> Run {
    let mut cluster = Cluster::new(config(system, Deployment::ThreeCity));
    let mut wl = SysbenchWorkload::new(
        SysbenchScale::small(),
        SysbenchMode::PointSelect,
        params.seed,
    );
    wl.setup(&mut cluster).expect("sysbench setup");
    let report = run_workload(&mut cluster, &mut wl, params.run);
    (cluster, report)
}

pub fn run(params: &BenchParams) -> BenchArtifact {
    let mut art = artifact("fig6d", params);
    let (mut c_base, baseline) = point(params, System::Baseline);
    let (mut cluster, globaldb) = point(params, System::GlobalDb);
    art.series
        .push(series_from_run("baseline", &mut c_base, &baseline));
    art.series
        .push(series_from_run("globaldb", &mut cluster, &globaldb));

    let b = baseline.throughput_per_sec();
    let g = globaldb.throughput_per_sec();
    let rows = vec![
        vec![
            "baseline (primary reads)".into(),
            format!("{b:.0}"),
            "1.00x".into(),
            format!("{}", baseline.mean_latency("point_select")),
            format!("{:.0}%", 100.0 * replica_read_share(&baseline)),
        ],
        vec![
            "GlobalDB (ROR)".into(),
            format!("{g:.0}"),
            ratio(g, b),
            format!("{}", globaldb.mean_latency("point_select")),
            format!("{:.0}%", 100.0 * replica_read_share(&globaldb)),
        ],
    ];
    print_table(
        "Fig. 6d — Sysbench Point-Select on Three-City",
        &[
            "system",
            "QPS (sim)",
            "speedup",
            "mean latency",
            "replica-read share",
        ],
        &rows,
    );
    println!(
        "Paper shape: up to 8.9x from reading local replicas (2/3 of \
         tuples are remote for the baseline). RCP lag: {:.1} ms.",
        rcp_lag_ms(&cluster)
    );
    art
}

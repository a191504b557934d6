//! The paper's evaluation (§V, Fig. 1a and Fig. 6a–d) and its ablations,
//! run by one binary:
//!
//! ```text
//! gdb-bench <experiment> [--scale tiny|small|medium] [--secs N] [--terminals N]
//!                        [--json PATH] [--trace PATH]
//! ```
//!
//! [`experiments`] defines each of the twelve experiments once: its
//! sweep, the run of one sweep point, and the table it prints. Absolute
//! numbers are simulated (the substrate is a deterministic virtual-time
//! cluster, not the authors' hardware); the *shape* — who wins, by what
//! factor, where the crossovers are — is the reproduction target, and the
//! root package's `tests/claims.rs` asserts it at tiny scale on the same
//! point functions.
//!
//! Defaults: small scale, 10 measured virtual seconds, 24 closed-loop
//! terminals. `--json` writes the `gdb-bench/v1` artifact of the
//! experiments that record one; `--trace`, the Chrome trace of Fig. 6a's
//! GlobalDB three-city run.

pub mod experiments;
pub mod txnpath;

use gdb_obs::{Args, BenchArtifact, BenchSeries, HistSummary};
use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::SimDuration;
use gdb_workloads::driver::{run_workload, RunConfig, Workload};
use gdb_workloads::tpcc::{TpccMix, TpccScale, TpccWorkload};
use gdb_workloads::WorkloadReport;
use globaldb::{Cluster, ClusterConfig};

/// Scale/duration parameters shared by the experiments.
#[derive(Debug, Clone, Copy)]
pub struct BenchParams {
    pub scale: TpccScale,
    /// The `--scale` name (recorded in artifacts).
    pub scale_name: &'static str,
    pub run: RunConfig,
    pub seed: u64,
}

impl BenchParams {
    /// The run `--scale`, `--secs` and `--terminals` describe (defaults:
    /// small scale, 10 virtual seconds, 24 terminals). A scale name other
    /// than the three, or a count that is not a positive integer, is an
    /// error.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let (scale, scale_name) = args
            .read("--scale", |v| match v {
                "tiny" => Some((TpccScale::tiny(), "tiny")),
                "small" => Some((TpccScale::small(), "small")),
                "medium" => Some((TpccScale::medium(), "medium")),
                _ => None,
            })?
            .unwrap_or((TpccScale::small(), "small"));
        let positive = |v: &str| v.parse().ok().filter(|&n: &u64| n > 0);
        let secs = args.read("--secs", positive)?.unwrap_or(10);
        let terminals = args.read("--terminals", positive)?.unwrap_or(24);
        Ok(BenchParams {
            scale,
            scale_name,
            run: RunConfig {
                terminals: terminals as usize,
                duration: SimDuration::from_secs(secs),
                warmup: SimDuration::from_secs(1),
                think_time: SimDuration::from_millis(10),
            },
            seed: 42,
        })
    }
}

/// Build a cluster, load TPC-C, run the mix, and return the report.
pub fn tpcc_run(
    config: ClusterConfig,
    params: &BenchParams,
    mix: TpccMix,
    tweak: impl FnOnce(&mut TpccWorkload),
) -> (Cluster, WorkloadReport) {
    tpcc_run_with(config, params, mix, tweak, |_| {})
}

/// [`tpcc_run`] with a pre-load cluster hook (e.g. enabling the span
/// tracer for a `--trace` export). The hook must not perturb virtual
/// time or the topology RNG, or the run diverges from its untraced twin.
pub fn tpcc_run_with(
    config: ClusterConfig,
    params: &BenchParams,
    mix: TpccMix,
    tweak: impl FnOnce(&mut TpccWorkload),
    prep: impl FnOnce(&mut Cluster),
) -> (Cluster, WorkloadReport) {
    let mut cluster = Cluster::new(config);
    prep(&mut cluster);
    let mut wl = TpccWorkload::new(params.scale, mix, params.seed);
    tweak(&mut wl);
    wl.setup(&mut cluster).expect("tpcc setup");
    let report = run_workload(&mut cluster, &mut wl, params.run);
    (cluster, report)
}

/// Print an aligned results table (one per experiment, paper-style).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    println!();
}

/// Format a throughput relative to a baseline ("3.2x").
pub fn ratio(value: f64, base: f64) -> String {
    if base <= 0.0 {
        "n/a".into()
    } else {
        format!("{:.2}x", value / base)
    }
}

/// Start a `gdb-bench/v1` artifact for one figure, recording the run
/// configuration (scale, virtual seconds, terminals, seed).
pub fn artifact(figure: &str, params: &BenchParams) -> BenchArtifact {
    let mut a = BenchArtifact::new(figure);
    a.config_kv("scale", params.scale_name);
    a.config_kv("secs", params.run.duration.as_secs_f64());
    a.config_kv("terminals", params.run.terminals);
    a.config_kv("seed", params.seed);
    a
}

/// Build one artifact series from a finished run: workload-window
/// throughput/latency plus the cluster's full metrics snapshot
/// ([`globaldb::bench_series`]).
pub fn series_from_run(
    label: impl Into<String>,
    cluster: &mut Cluster,
    report: &WorkloadReport,
) -> BenchSeries {
    // Measured-window latency across all transaction types.
    let mut lat = LatencyHistogram::new();
    for h in report.latency.values() {
        lat.merge(h);
    }
    globaldb::bench_series(
        label.into(),
        report.throughput_per_sec(),
        report.tpmc(),
        report.total_commits(),
        report.total_aborts(),
        HistSummary::of(&lat),
        cluster.metrics_snapshot(),
    )
}

//! Ablation — LZ4 redo-log compression (paper §V-A).
//!
//! GlobalDB compresses redo batches before shipping them across regions.
//! This ablation compares cross-region shipped bytes, replica freshness,
//! and TPC-C throughput with the codec on and off, on the Three-City
//! cluster with reduced WAN bandwidth (where shipping is the bottleneck).
//!
//! Regenerate with: `cargo run -p gdb-bench --release -- ablation_compression`

use super::{compression_ratio, rcp_lag_ms, redo_bytes, Run};
use crate::{print_table, tpcc_run, BenchParams};
use gdb_workloads::tpcc::TpccMix;
use globaldb::{ClusterConfig, Codec, Geometry};

/// The redo codecs compared: none, and the GlobalDB preset's own (LZ4).
pub const SWEEP: [(&str, Option<Codec>); 2] =
    [("no compression", Some(Codec::None)), ("LZ4", None)];

/// The TPC-C standard mix, every transaction local, on Three-City
/// GlobalDB over a 2 Mb/s WAN, shipping redo through `codec` or, for
/// `None`, through the preset's own codec.
pub fn point(params: &BenchParams, codec: Option<Codec>) -> Run {
    let mut config = ClusterConfig {
        geometry: Geometry::ThreeCity {
            tuned: true,
            bandwidth_mbps: 2, // constrained WAN: raw shipping saturates
        },
        ..ClusterConfig::globaldb_three_city()
    };
    if let Some(codec) = codec {
        config.codec = codec;
    }
    tpcc_run(config, params, TpccMix::standard(), |wl| {
        wl.set_all_local();
    })
}

pub fn run(params: &BenchParams) {
    let mut rows = Vec::new();
    for (label, codec) in SWEEP {
        let (cluster, report) = point(params, codec);
        let (_, shipped) = redo_bytes(&cluster);
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", report.tpmc()),
            format!("{:.1} MB", shipped as f64 / 1e6),
            format!("{:.2}x", compression_ratio(&cluster)),
            format!("{:.1} ms", rcp_lag_ms(&cluster)),
        ]);
    }
    print_table(
        "Ablation — redo log compression on constrained WAN (2 Mb/s)",
        &[
            "codec",
            "tpmC (sim)",
            "cross-region bytes",
            "compression",
            "RCP lag",
        ],
        &rows,
    );
    println!("Expected: LZ4 cuts shipped bytes multiple-fold and keeps replicas fresher.");
}

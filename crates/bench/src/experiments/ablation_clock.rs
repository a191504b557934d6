//! Ablation — commit-wait cost vs clock quality (paper §III).
//!
//! The GClock commit wait is `≈ T_err = T_sync + T_drift`. Sweeping the
//! clock-sync round trip (the paper's hardware achieves ≤ 60 µs) shows how
//! timestamp-oracle quality turns into commit latency — the reason the
//! paper deploys GPS/atomic time devices rather than NTP (whose errors are
//! milliseconds, as in CockroachDB's HLC approach).
//!
//! Regenerate with: `cargo run -p gdb-bench --release -- ablation_clock`

use super::{commit_wait_us, Run};
use crate::{print_table, tpcc_run, BenchParams};
use gdb_simclock::GClockConfig;
use gdb_simnet::SimDuration;
use gdb_workloads::tpcc::TpccMix;
use globaldb::ClusterConfig;

/// Clock-sync round trips (`T_sync`), in µs.
pub const SWEEP: [u64; 5] = [10, 60, 500, 2_000, 10_000];

/// The default GClock with a `sync_rtt_us` sync round trip.
pub fn clock(sync_rtt_us: u64) -> GClockConfig {
    GClockConfig {
        sync_rtt: SimDuration::from_micros(sync_rtt_us),
        ..GClockConfig::default()
    }
}

/// The TPC-C standard mix, every transaction local, on Three-City
/// GlobalDB with [`clock`]`(sync_rtt_us)`.
pub fn point(params: &BenchParams, sync_rtt_us: u64) -> Run {
    let config = ClusterConfig {
        gclock: clock(sync_rtt_us),
        ..ClusterConfig::globaldb_three_city()
    };
    tpcc_run(config, params, TpccMix::standard(), |wl| {
        wl.set_all_local();
    })
}

pub fn run(params: &BenchParams) {
    let mut rows = Vec::new();
    for rtt_us in SWEEP {
        let run = point(params, rtt_us);
        let report = &run.1;
        rows.push(vec![
            format!("{rtt_us} us"),
            format!("{:.0}", report.tpmc()),
            format!("{:.0} us", commit_wait_us(&run)),
            format!("{}", report.mean_latency("new_order")),
        ]);
    }
    print_table(
        "Ablation — clock sync quality vs commit wait (GClock, Three-City)",
        &[
            "sync RTT (T_sync)",
            "tpmC (sim)",
            "mean commit wait",
            "NewOrder mean",
        ],
        &rows,
    );
    println!(
        "Expected: commit wait tracks the clock error bound; NTP-grade \
         (ms) errors visibly tax every commit, the paper's 60 us device \
         does not."
    );
}

//! The paper's evaluation, asserted.
//!
//! Each test runs one EXPERIMENTS.md result at tiny scale through the
//! harness its `crates/bench` binary uses (`gdb_bench::tpcc_run`,
//! `series_from_run`, `rcp_lag_ms`, `windowed::*`) and asserts the
//! result's *shape*: who wins, by roughly what factor, what stays flat.
//! Every threshold's comment gives the paper's number, the value these
//! runs measure, and the slack between them. The runs are deterministic,
//! so a change that moves virtual time either keeps every claim or
//! fails a named one. DESIGN.md "How performance is judged" maps each
//! claim to the mechanism it rests on and to a mutation that breaks it.

use gdb_bench::windowed::{rebalance_controller, rebalance_run, transition_run, MAX_MIGRATIONS};
use gdb_bench::{rcp_lag_ms, series_from_run, tpcc_run, BenchParams};
use gdb_replication::ReplayCostModel;
use gdb_simclock::GClockConfig;
use gdb_workloads::driver::{run_workload, RunConfig, Workload};
use gdb_workloads::sysbench::{SysbenchMode, SysbenchScale, SysbenchWorkload};
use gdb_workloads::tpcc::{TpccMix, TpccScale, TpccWorkload};
use gdb_workloads::WorkloadReport;
use globaldb::{
    Cluster, ClusterConfig, Codec, Geometry, ReplicationMode, SimDuration, TmMode,
    TransitionDirection,
};

/// Tiny-scale TPC-C with `terminals` closed-loop terminals measuring
/// `secs` virtual seconds, seed 42 (the binaries' seed).
fn tiny(terminals: usize, secs: u64) -> BenchParams {
    BenchParams {
        scale: TpccScale::tiny(),
        scale_name: "tiny",
        run: RunConfig {
            terminals,
            duration: SimDuration::from_secs(secs),
            warmup: SimDuration::from_millis(500),
            think_time: SimDuration::from_millis(10),
        },
        seed: 42,
    }
}

/// A TPC-C standard-mix run with every transaction local (§V-A).
fn local_tpcc(config: ClusterConfig, params: &BenchParams) -> (Cluster, WorkloadReport) {
    tpcc_run(config, params, TpccMix::standard(), |wl| wl.set_all_local())
}

/// `T_err` of the default clock right before a sync: the sync round trip
/// plus 200 PPM drift over the 1 ms sync interval (paper Eq. 1).
fn t_err_us(clock: &GClockConfig) -> f64 {
    clock.sync_rtt.as_micros() as f64
        + clock.max_drift_ppm * 1e-6 * clock.sync_interval.as_micros() as f64
}

/// Fig. 1a: baseline GaussDB's throughput collapses monotonically as the
/// cluster spans more distant regions.
#[test]
fn fig1a_throughput_collapses_with_span() {
    let params = tiny(8, 1);
    let one_region = |delay_ms| ClusterConfig {
        geometry: Geometry::OneRegion {
            injected_delay: SimDuration::from_millis(delay_ms),
        },
        ..ClusterConfig::baseline_one_region()
    };
    let tpmc: Vec<f64> = [
        one_region(0),
        one_region(2),
        ClusterConfig::baseline_three_city(),
    ]
    .into_iter()
    .map(|config| {
        tpcc_run(config, &params, TpccMix::standard(), |_| {})
            .1
            .tpmc()
    })
    .collect();
    println!("fig1a tpmC same rack / same city / three cities: {tpmc:?}");
    // Paper: "falls sharply" at each step. Measured: ×0.37 from rack to
    // city, ×0.14 from city to three cities. Slack: each step must still
    // lose a quarter.
    for step in tpmc.windows(2) {
        assert!(step[1] < 0.75 * step[0], "no collapse with span: {tpmc:?}");
    }
}

/// Fig. 6a: the baseline loses most of its throughput at three cities,
/// GlobalDB keeps it, and the phase breakdown says why.
#[test]
fn fig6a_globaldb_keeps_its_throughput_at_three_cities() {
    let params = tiny(8, 1);
    let run = |config| {
        let (mut cluster, report) = local_tpcc(config, &params);
        series_from_run("", &mut cluster, &report)
    };
    let base_one = run(ClusterConfig::baseline_one_region());
    let base_three = run(ClusterConfig::baseline_three_city());
    let gdb_one = run(ClusterConfig::globaldb_one_region());
    let gdb_three = run(ClusterConfig::globaldb_three_city());
    let tput = |s: &globaldb::BenchSeries| s.throughput_txn_s;
    println!(
        "fig6a txn/s baseline {} / {}, GlobalDB {} / {}",
        tput(&base_one),
        tput(&base_three),
        tput(&gdb_one),
        tput(&gdb_three)
    );
    // Paper: the baseline keeps ~33 % at three cities. Measured: 18.9 %.
    // Slack: the paper's own figure is the ceiling.
    assert!(tput(&base_three) < tput(&base_one) / 3.0);
    // Paper: GlobalDB keeps 91 %. Measured: 100 %. Slack: 90 %.
    assert!(tput(&gdb_three) >= 0.90 * tput(&gdb_one));
    // Paper: no regression on one region. Measured: 1.04× the baseline.
    // Slack: none, at least equal.
    assert!(tput(&gdb_one) >= tput(&base_one));

    let mean = |s: &globaldb::BenchSeries, phase: &str| {
        s.phases
            .get(phase)
            .unwrap_or_else(|| panic!("no {phase} phase"))
            .mean_us as f64
    };
    // GlobalDB's commit wait is the clock's error bound: paper ≤ 60 µs
    // device, T_err = 60.2 µs. Measured: 60 µs mean. Slack: ×2 either way.
    let t_err = t_err_us(&GClockConfig::default());
    let wait = mean(&gdb_three, "commit_wait");
    assert!(
        (t_err / 2.0..=2.0 * t_err).contains(&wait),
        "GlobalDB commit wait {wait} µs vs T_err {t_err} µs"
    );
    // Asynchronous replication: no commit waits for a replica. Paper:
    // zero. Measured: zero (max 0 µs). Slack: none.
    let ack = &gdb_three.phases["replication_ack"];
    assert!(ack.count > 0 && ack.max_us == 0, "{ack:?}");
    // The baseline's synchronous remote quorum waits a WAN round trip.
    // Paper: 25 ms is the nearest city pair's RTT. Measured: 35.3 ms.
    // Slack: at least that nearest RTT.
    let base_ack = mean(&base_three, "replication_ack");
    println!("fig6a GlobalDB commit wait {wait} µs, baseline replication ack {base_ack} µs");
    assert!(
        base_ack >= 25_000.0,
        "baseline replication ack {base_ack} µs"
    );
}

/// Fig. 6b: with the CN away from the GTM, injected delay taxes every
/// baseline timestamp and no GlobalDB one.
#[test]
fn fig6b_globaldb_is_flat_under_injected_delay() {
    let params = tiny(8, 1);
    let run = |tm_mode, delay_ms| {
        let config = ClusterConfig {
            geometry: Geometry::OneRegion {
                injected_delay: SimDuration::from_millis(delay_ms),
            },
            tm_mode,
            replication: ReplicationMode::Async,
            ..ClusterConfig::baseline_one_region()
        };
        // CN 1 is on a different host than the GTM (host 0).
        let localize = |wl: &mut TpccWorkload| {
            wl.set_all_local();
            wl.pin_cn = Some(1);
            wl.local_warehouses_only = true;
        };
        tpcc_run(config, &params, TpccMix::standard(), localize)
            .1
            .tpmc()
    };
    let (gtm_0, gtm_100) = (run(TmMode::Gtm, 0), run(TmMode::Gtm, 100));
    let (gclock_0, gclock_100) = (run(TmMode::GClock, 0), run(TmMode::GClock, 100));
    println!("fig6b tpmC at 0 / 100 ms: GTM {gtm_0} / {gtm_100}, GClock {gclock_0} / {gclock_100}");
    // Paper: GlobalDB "achieves the same throughput regardless of network
    // delay". Measured: 100 %. Slack: 95 %.
    assert!(gclock_100 >= 0.95 * gclock_0);
    // Paper: the baseline loses up to ~90 % at 100 ms. Measured: 98.8 %.
    // Slack: a loss of at least 85 %.
    assert!(gtm_100 <= 0.15 * gtm_0);
}

/// Fig. 6c: read-only TPC-C on three cities, half the queries
/// multi-shard: replica reads at the RCP replace cross-city primary reads.
#[test]
fn fig6c_replica_reads_speed_up_read_only_tpcc() {
    let mut params = tiny(8, 1);
    params.run.think_time = SimDuration::from_millis(1);
    let run = |config| {
        tpcc_run(config, &params, TpccMix::read_only(), |wl| {
            wl.multi_shard_read_fraction = 0.5;
            wl.remote_cn_fraction = 0.0;
        })
        .1
        .throughput_per_sec()
    };
    let baseline = run(ClusterConfig::baseline_three_city());
    let globaldb = run(ClusterConfig::globaldb_three_city());
    let speedup = globaldb / baseline;
    println!("fig6c txn/s baseline {baseline}, GlobalDB {globaldb}: {speedup:.2}x");
    // Paper: up to 14×. Measured: 15.2×. Slack: 10×.
    assert!(speedup >= 10.0, "speedup {speedup:.2}x");
}

/// Fig. 6d: Sysbench point selects on three cities; two thirds of the
/// uniform keys have a remote primary and GlobalDB reads them locally.
#[test]
fn fig6d_point_selects_read_two_thirds_on_replicas() {
    let params = tiny(8, 1);
    let run = |config| {
        let mut cluster = Cluster::new(config);
        let mut wl = SysbenchWorkload::new(
            SysbenchScale::small(),
            SysbenchMode::PointSelect,
            params.seed,
        );
        wl.setup(&mut cluster).expect("sysbench setup");
        run_workload(&mut cluster, &mut wl, params.run)
    };
    let baseline = run(ClusterConfig::baseline_three_city());
    let globaldb = run(ClusterConfig::globaldb_three_city());
    let speedup = globaldb.throughput_per_sec() / baseline.throughput_per_sec();
    let reads = (globaldb.reads_on_replica + globaldb.reads_on_primary) as f64;
    let share = globaldb.reads_on_replica as f64 / reads;
    println!("fig6d speedup {speedup:.2}x, replica-read share {share:.3}");
    // Paper: up to 8.9×. Measured: 5.9×. Slack: 4×.
    assert!(speedup >= 4.0, "speedup {speedup:.2}x");
    // Paper: 2/3 of the tuples are remote. Measured: 0.643. Slack: ±0.05.
    assert!(
        (share - 2.0 / 3.0).abs() <= 0.05,
        "replica share {share:.3}"
    );
    // The baseline reads primaries only. Paper: 0 %. Measured: 0.
    assert_eq!(baseline.reads_on_replica, 0);
}

/// §III, Eq. 1: the GClock commit wait tracks the clock's error bound.
#[test]
fn ablation_commit_wait_tracks_clock_error() {
    let params = tiny(8, 1);
    let mut waits = Vec::new();
    for sync_rtt_us in [60, 10_000] {
        let gclock = GClockConfig {
            sync_rtt: SimDuration::from_micros(sync_rtt_us),
            ..GClockConfig::default()
        };
        let config = ClusterConfig {
            gclock,
            ..ClusterConfig::globaldb_three_city()
        };
        let (cluster, report) = local_tpcc(config, &params);
        let commits = report.total_commits().max(1) as f64;
        let wait = cluster.db.stats().commit_wait_total.as_micros() as f64 / commits;
        let t_err = t_err_us(&gclock);
        println!("clock: sync RTT {sync_rtt_us} µs, mean commit wait {wait:.1} µs");
        // Paper: wait until the commit timestamp T_clock + T_err has
        // passed on every clock, between T_err and 2·T_err. Measured:
        // 1.39 T_err (60 µs) and 1.41 T_err (10 ms). Slack: none.
        assert!(
            (t_err..=2.0 * t_err).contains(&wait),
            "commit wait {wait} µs outside [T_err, 2 T_err], T_err = {t_err} µs"
        );
        waits.push(wait);
    }
    // Paper: NTP-grade error would tax every commit. Measured: the 10 ms
    // clock waits 169× the 60 µs device. Slack: 100×.
    assert!(waits[1] >= 100.0 * waits[0], "{waits:?}");
}

/// §V-A: on a 2 Mb/s WAN raw redo saturates the stream and the RCP falls
/// behind; GlobalDB's LZ4 keeps it fresh.
#[test]
fn ablation_lz4_bounds_rcp_lag_on_a_thin_wan() {
    let params = tiny(8, 1);
    let thin = |codec| {
        let mut config = ClusterConfig {
            geometry: Geometry::ThreeCity {
                tuned: true,
                bandwidth_mbps: 2,
            },
            ..ClusterConfig::globaldb_three_city()
        };
        if let Some(codec) = codec {
            config.codec = codec;
        }
        let (cluster, _) = local_tpcc(config, &params);
        let (raw, wire) = cluster
            .db
            .shards()
            .iter()
            .flat_map(|s| s.replicas.iter())
            .fold((0u64, 0u64), |(r, w), rep| {
                (
                    r + rep.channel.stats.raw_bytes,
                    w + rep.channel.stats.wire_bytes,
                )
            });
        (rcp_lag_ms(&cluster), raw as f64 / wire.max(1) as f64)
    };
    let (raw_lag, _) = thin(Some(Codec::None));
    // The GlobalDB preset's own codec.
    let (lz4_lag, ratio) = thin(None);
    println!("compression: RCP lag raw {raw_lag:.1} ms, LZ4 {lz4_lag:.1} ms, ratio {ratio:.2}");
    // Paper: compression cuts shipped bytes; EXPERIMENTS.md measures
    // 2.15× at small scale. Measured: 2.13×. Slack: 1.5×.
    assert!(ratio >= 1.5, "compression ratio {ratio:.2}");
    // Paper: LZ4 keeps replicas fresh on a constrained link. Measured:
    // 29.3 ms, about one RCP round. Slack: 100 ms.
    assert!(lz4_lag <= 100.0, "LZ4 lag {lz4_lag:.1} ms");
    // Paper: raw shipping saturates the link (no number given).
    // Measured: it lags 12× as far as LZ4. Slack: 5×.
    assert!(
        raw_lag >= 5.0 * lz4_lag,
        "raw {raw_lag:.1} ms vs LZ4 {lz4_lag:.1} ms"
    );
}

/// §II-B: serial replay falls behind a write-heavy load; parallel replay
/// keeps the RCP fresh.
#[test]
fn ablation_parallel_replay_keeps_the_rcp_fresh() {
    let params = tiny(16, 1);
    let lag = |workers| {
        let config = ClusterConfig {
            replay: ReplayCostModel {
                // Expensive enough that replay is the bottleneck.
                per_record: SimDuration::from_micros(150),
                workers,
                per_batch: SimDuration::from_micros(20),
            },
            ..ClusterConfig::globaldb_three_city()
        };
        rcp_lag_ms(&local_tpcc(config, &params).0)
    };
    let (serial, parallel) = (lag(1), lag(2));
    println!("replay: RCP lag 1 worker {serial:.1} ms, 2 workers {parallel:.1} ms");
    // Paper: parallel replay "significantly improves log replay speed".
    // Measured: 2 workers stay within about one RCP round, 28.4 ms.
    // Slack: 100 ms.
    assert!(parallel <= 100.0, "parallel replay lag {parallel:.1} ms");
    // Paper: no number for serial replay. Measured: 1 worker lags 15×
    // as far. Slack: 5×.
    assert!(serial >= 5.0 * parallel, "serial {serial:.1} ms");
}

/// §III-A, Figs. 2–3: the online GTM → GClock → GTM transition never
/// stops the cluster.
#[test]
fn ablation_transition_never_drops_a_window() {
    let run = transition_run(42);
    println!("transition: New-Order commits per window {:?}", run.commits);
    let (min, max) = (
        *run.commits.iter().min().unwrap(),
        *run.commits.iter().max().unwrap(),
    );
    // Paper: zero downtime. Measured: the worst window keeps 77 of the
    // best window's 88 commits. Slack: half.
    assert!(min > 0 && 2 * min >= max, "{:?}", run.commits);
    // Paper: the switch completes online in both directions. Measured:
    // GClock in windows 4–9, back to GTM from window 10. Slack: none.
    assert!(run.modes.iter().any(|m| m == "GClock"), "{:?}", run.modes);
    assert_eq!(
        run.cluster.db.last_transition_completed(),
        Some(TransitionDirection::ToGtm)
    );
}

/// The rebalancer localizes a one-region Zipfian hot set in a bounded
/// number of migrations, with no window dropping to zero.
#[test]
fn ablation_rebalancer_converges_in_four_migrations() {
    let params = tiny(8, 2);
    let (_, r_static, _) = rebalance_run(&params, None);
    let mut controller = rebalance_controller(&params);
    let (mut cluster, r_rebal, windows) = rebalance_run(&params, Some(&mut controller));
    let started = cluster
        .db
        .metrics_snapshot()
        .counter("rebalance.migrations_started")
        .unwrap_or(0);
    let commits: Vec<u64> = windows.iter().map(|w| w.commits).collect();
    let gain = r_rebal.throughput_per_sec() / r_static.throughput_per_sec();
    println!("rebalance: {started} migrations, commits per window {commits:?}, {gain:.2}x");
    // Paper: no rebalancing figure; the removed policy chain ping-ponged
    // 16 times (EXPERIMENTS.md). Measured: 4. Slack: none; at least one
    // must happen.
    assert!(
        (1..=MAX_MIGRATIONS).contains(&started),
        "{started} migrations started"
    );
    // Zero downtime across every cutover, as for the paper's online
    // transition. Measured: ≥ 47 per window. Slack: any commit.
    assert!(commits.iter().all(|&c| c > 0), "{commits:?}");
    // EXPERIMENTS.md: 8.95× at small scale. Measured: 4.67× the static
    // placement. Slack: 2×.
    assert!(gain >= 2.0, "rebalancing gained {gain:.2}x");
}

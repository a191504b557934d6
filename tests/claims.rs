//! The paper's evaluation, asserted.
//!
//! Each test runs one EXPERIMENTS.md result at tiny scale through the
//! point function of its `gdb_bench::experiments` module — the run
//! `gdb-bench <experiment>` makes for that sweep value — over the sweep
//! values it asserts on, and asserts the result's *shape*: who wins, by
//! roughly what factor, what stays flat.
//! Every threshold's comment gives the paper's number, the value these
//! runs measure, and the slack between them. The runs are deterministic,
//! so a change that moves virtual time either keeps every claim or
//! fails a named one. DESIGN.md "How performance is judged" maps each
//! claim to the mechanism it rests on and to a mutation that breaks it.

use gdb_bench::experiments::Deployment::{OneRegion, ThreeCity};
use gdb_bench::experiments::System::{Baseline, GlobalDb};
use gdb_bench::experiments::{
    ablation_clock, ablation_compression, ablation_network, ablation_rcp, ablation_rebalance,
    ablation_replay, ablation_transition, commit_wait_us, compression_ratio, fig1a, fig6a, fig6b,
    fig6c, fig6d, rcp_lag_ms, replica_read_share,
};
use gdb_bench::{series_from_run, BenchParams};
use gdb_simclock::GClockConfig;
use gdb_workloads::driver::RunConfig;
use gdb_workloads::tpcc::TpccScale;
use globaldb::{Codec, SimDuration, TmMode, TransitionDirection};

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

/// `T_err` of the default clock right before a sync: the sync round trip
/// plus 200 PPM drift over the 1 ms sync interval (paper Eq. 1).
fn t_err_us(clock: &GClockConfig) -> f64 {
    clock.sync_rtt.as_micros() as f64
        + clock.max_drift_ppm * 1e-6 * clock.sync_interval.as_micros() as f64
}

/// The longest commit wait the paper's rule allows, in µs. The wait lasts
/// until the commit timestamp `T_clock + T_err` has passed on every clock,
/// i.e. until the CN's own lower bound `T_clock − T_err` exceeds it:
/// 2·`T_err`, plus at most 2 µs of rounding (the timestamp is rounded up
/// to a whole µs, and the bound must pass it by one more). Meanwhile the
/// clock may run 200 PPM slow while its bound grows 200 PPM, which
/// stretches the wait by 1 / (1 − 2 · 200 PPM): 0.05 µs at the 60 µs
/// device, 8 µs at a 10 ms clock.
fn commit_wait_bound_us(clock: &GClockConfig) -> f64 {
    (2.0 * t_err_us(clock) + 2.0) / (1.0 - 2.0 * clock.max_drift_ppm * 1e-6)
}

/// Fig. 1a: baseline GaussDB's throughput collapses monotonically as the
/// cluster spans more distant regions.
#[test]
fn fig1a_throughput_collapses_with_span() {
    let params = tiny(8, 1);
    let tpmc: Vec<f64> = fig1a::SWEEP
        .into_iter()
        .map(|(_, delay)| fig1a::point(&params, delay).1.tpmc())
        .collect();
    println!("fig1a tpmC same rack / same city / three cities: {tpmc:?}");
    // Paper: "falls sharply" at each step. Measured: ×0.47 from rack to
    // city, ×0.18 from city to three cities. Slack: each step must still
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
    let run = |system, deployment| {
        let (mut cluster, report) = fig6a::point(&params, system, deployment, None);
        series_from_run("", &mut cluster, &report)
    };
    let base_one = run(Baseline, OneRegion);
    let base_three = run(Baseline, ThreeCity);
    let gdb_one = run(GlobalDb, OneRegion);
    let gdb_three = run(GlobalDb, ThreeCity);
    let tput = |s: &globaldb::BenchSeries| s.throughput_txn_s;
    println!(
        "fig6a txn/s baseline {} / {}, GlobalDB {} / {}",
        tput(&base_one),
        tput(&base_three),
        tput(&gdb_one),
        tput(&gdb_three)
    );
    // Paper: the baseline keeps ~33 % at three cities. Measured: 17.9 %.
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
    // GlobalDB's commit wait lasts until the commit timestamp has passed
    // on every clock: at most 2·T_err + 2 µs (`commit_wait_bound_us`).
    // Paper: ≤ 60 µs device, T_err = 60.2 µs. Measured: 121 µs mean.
    // Slack: down to T_err.
    let clock = GClockConfig::default();
    let (t_err, bound) = (t_err_us(&clock), commit_wait_bound_us(&clock));
    let wait = mean(&gdb_three, "commit_wait");
    assert!(
        (t_err..=bound).contains(&wait),
        "GlobalDB commit wait {wait} µs outside [T_err, {bound} µs], T_err = {t_err} µs"
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
    // CN 1 is on a different host than the GTM (host 0).
    let run = |tm_mode, delay_ms| fig6b::point(&params, tm_mode, delay_ms).1.tpmc();
    let (gtm_0, gtm_100) = (run(TmMode::Gtm, 0), run(TmMode::Gtm, 100));
    let (gclock_0, gclock_100) = (run(TmMode::GClock, 0), run(TmMode::GClock, 100));
    println!("fig6b tpmC at 0 / 100 ms: GTM {gtm_0} / {gtm_100}, GClock {gclock_0} / {gclock_100}");
    // Paper: GlobalDB "achieves the same throughput regardless of network
    // delay". Measured: 100 %. Slack: 95 %.
    assert!(gclock_100 >= 0.95 * gclock_0);
    // Paper: the baseline loses up to ~90 % at 100 ms. Measured: 98.9 %.
    // Slack: a loss of at least 85 %.
    assert!(gtm_100 <= 0.15 * gtm_0);
}

/// Fig. 6c: read-only TPC-C on three cities, half the queries
/// multi-shard: replica reads at the RCP replace cross-city primary reads.
#[test]
fn fig6c_replica_reads_speed_up_read_only_tpcc() {
    let params = tiny(8, 1);
    let run = |system| fig6c::point(&params, system, 8).1.throughput_per_sec();
    let baseline = run(Baseline);
    let globaldb = run(GlobalDb);
    let speedup = globaldb / baseline;
    println!("fig6c txn/s baseline {baseline}, GlobalDB {globaldb}: {speedup:.2}x");
    // Paper: up to 14×. Measured: 14.6×. Slack: 10×.
    assert!(speedup >= 10.0, "speedup {speedup:.2}x");
}

/// Fig. 6d: Sysbench point selects on three cities; two thirds of the
/// uniform keys have a remote primary and GlobalDB reads them locally.
#[test]
fn fig6d_point_selects_read_two_thirds_on_replicas() {
    let params = tiny(8, 1);
    let baseline = fig6d::point(&params, Baseline).1;
    let globaldb = fig6d::point(&params, GlobalDb).1;
    let speedup = globaldb.throughput_per_sec() / baseline.throughput_per_sec();
    let share = replica_read_share(&globaldb);
    println!("fig6d speedup {speedup:.2}x, replica-read share {share:.3}");
    // Paper: up to 8.9×. Measured: 5.8×. Slack: 4×.
    assert!(speedup >= 4.0, "speedup {speedup:.2}x");
    // Paper: 2/3 of the tuples are remote. Measured: 0.676. Slack: ±0.05.
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
        let wait = commit_wait_us(&ablation_clock::point(&params, sync_rtt_us));
        let clock = ablation_clock::clock(sync_rtt_us);
        let (t_err, bound) = (t_err_us(&clock), commit_wait_bound_us(&clock));
        println!("clock: sync RTT {sync_rtt_us} µs, mean commit wait {wait:.1} µs");
        // Paper: wait until the commit timestamp T_clock + T_err has
        // passed on every clock: at most 2·T_err + 2 µs, stretched by the
        // drift bound (`commit_wait_bound_us`). Measured: 2.014 T_err
        // (60 µs) and 2.0006 T_err (10 ms). Slack: down to T_err.
        assert!(
            (t_err..=bound).contains(&wait),
            "commit wait {wait} µs outside [T_err, {bound} µs], T_err = {t_err} µs"
        );
        waits.push(wait);
    }
    // Paper: NTP-grade error would tax every commit. Measured: the 10 ms
    // clock waits 165× the 60 µs device. Slack: 100×.
    assert!(waits[1] >= 100.0 * waits[0], "{waits:?}");
}

/// §V-A: on a 2 Mb/s WAN raw redo saturates the stream and the RCP falls
/// behind; GlobalDB's LZ4 keeps it fresh.
#[test]
fn ablation_lz4_bounds_rcp_lag_on_a_thin_wan() {
    let params = tiny(8, 1);
    let thin = |codec| {
        let (cluster, _) = ablation_compression::point(&params, codec);
        (rcp_lag_ms(&cluster), compression_ratio(&cluster))
    };
    let (raw_lag, _) = thin(Some(Codec::None));
    // The GlobalDB preset's own codec.
    let (lz4_lag, ratio) = thin(None);
    println!("compression: RCP lag raw {raw_lag:.1} ms, LZ4 {lz4_lag:.1} ms, ratio {ratio:.2}");
    // Paper: compression cuts shipped bytes; EXPERIMENTS.md measures
    // 2.17× at small scale. Measured: 2.16×. Slack: 1.5×.
    assert!(ratio >= 1.5, "compression ratio {ratio:.2}");
    // Paper: LZ4 keeps replicas fresh on a constrained link. Measured:
    // 36.7 ms, under two RCP rounds. Slack: 100 ms.
    assert!(lz4_lag <= 100.0, "LZ4 lag {lz4_lag:.1} ms");
    // Paper: raw shipping saturates the link (no number given).
    // Measured: it lags 12.4× as far as LZ4. Slack: 5×.
    assert!(
        raw_lag >= 5.0 * lz4_lag,
        "raw {raw_lag:.1} ms vs LZ4 {lz4_lag:.1} ms"
    );
}

/// §V-A: GlobalDB turns Nagle's algorithm off on its WAN links; under
/// quorum-synchronous replication every commit waits on a WAN round,
/// so batching small segments shows in commit latency. (BBR vs Reno
/// makes no difference at tiny scale — DESIGN.md says why — so only
/// Nagle is asserted.)
#[test]
fn ablation_nagle_off_speeds_up_sync_commits() {
    let params = tiny(8, 1);
    let bbr = |nagle| {
        let (label, _, congestion) = ablation_network::SWEEP[if nagle { 1 } else { 3 }];
        let (_, report) = ablation_network::point(&params, nagle, congestion);
        let mean = report.mean_latency("new_order").as_micros() as f64 / 1e3;
        println!(
            "network {label}: tpmC {:.0}, NewOrder mean {mean:.1} ms",
            report.tpmc()
        );
        (report.tpmc(), mean)
    };
    let ((on_tpmc, on_ms), (off_tpmc, off_ms)) = (bbr(true), bbr(false));
    // Paper: Nagle off is part of GlobalDB's WAN tuning (no number
    // given). Measured: NewOrder mean 37.1 → 27.2 ms (×0.73). Slack: it
    // must still fall below ×0.85.
    assert!(
        off_ms < 0.85 * on_ms,
        "NewOrder {on_ms:.1} → {off_ms:.1} ms"
    );
    // Measured: tpmC 4 500 → 6 180 (×1.37). Slack: above ×1.15.
    assert!(
        off_tpmc > 1.15 * on_tpmc,
        "tpmC {on_tpmc:.0} → {off_tpmc:.0}"
    );
}

/// §IV-A: heartbeats advance every replica's max commit ts, so on a
/// read-only load the RCP — and with it ROR staleness — trails by up to
/// one heartbeat spacing, and sparser heartbeats leave it staler.
#[test]
fn ablation_rcp_lag_tracks_the_heartbeat_spacing() {
    let params = tiny(8, 1);
    let lag = |hb_ms| rcp_lag_ms(&ablation_rcp::point(&params, hb_ms).0);
    let (fast, slow) = (lag(50), lag(1000));
    println!("rcp: lag at 50 ms heartbeats {fast:.1} ms, at 1000 ms {slow:.1} ms");
    // Paper: heartbeats bound the RCP's staleness (no number given).
    // Measured: 50.0 ms at 50 ms heartbeats. Slack: half a spacing.
    assert!(fast <= 75.0, "lag {fast:.1} ms at 50 ms");
    // The lag is a sawtooth over one spacing, sampled where the run
    // ends: measured 1 000.0 ms at 1000 ms, a whole spacing up
    // (`gdb-bench`'s longer run samples 500.0). Slack: 2× of the 10×
    // ratio, and never past one and a half spacings.
    assert!(
        slow >= 5.0 * fast && slow <= 1500.0,
        "lag {slow:.1} ms at 1000 ms"
    );
}

/// §II-B: serial replay falls behind a write-heavy load; parallel replay
/// keeps the RCP fresh.
#[test]
fn ablation_parallel_replay_keeps_the_rcp_fresh() {
    let params = tiny(16, 1);
    let lag = |workers| rcp_lag_ms(&ablation_replay::point(&params, workers).0);
    let (serial, parallel) = (lag(1), lag(2));
    println!("replay: RCP lag 1 worker {serial:.1} ms, 2 workers {parallel:.1} ms");
    // Paper: parallel replay "significantly improves log replay speed".
    // Measured: 2 workers stay within two RCP rounds, 36.7 ms.
    // Slack: 100 ms.
    assert!(parallel <= 100.0, "parallel replay lag {parallel:.1} ms");
    // Paper: no number for serial replay. Measured: 1 worker lags 16×
    // as far. Slack: 5×.
    assert!(serial >= 5.0 * parallel, "serial {serial:.1} ms");
}

/// §III-A, Figs. 2–3: the online GTM → GClock → GTM transition never
/// stops the cluster.
#[test]
fn ablation_transition_never_drops_a_window() {
    let run = ablation_transition::point(42);
    println!("transition: New-Order commits per window {:?}", run.commits);
    let (min, max) = (
        *run.commits.iter().min().unwrap(),
        *run.commits.iter().max().unwrap(),
    );
    // Paper: zero downtime. Measured: the worst window keeps 143 of the
    // best window's 157 commits. Slack: half.
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
    let (_, r_static, _) = ablation_rebalance::point(&params, None);
    let mut controller = ablation_rebalance::controller(&params);
    let (mut cluster, r_rebal, windows) = ablation_rebalance::point(&params, Some(&mut controller));
    let started = cluster
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
        (1..=ablation_rebalance::MAX_MIGRATIONS).contains(&started),
        "{started} migrations started"
    );
    // Zero downtime across every cutover, as for the paper's online
    // transition. Measured: ≥ 50 per window. Slack: any commit.
    assert!(commits.iter().all(|&c| c > 0), "{commits:?}");
    // EXPERIMENTS.md: 5.36× at small scale. Measured: 4.14× the static
    // placement. Slack: 2×.
    assert!(gain >= 2.0, "rebalancing gained {gain:.2}x");
}

//! End-to-end workload runs: full TPC-C and Sysbench through the SQL
//! layer on simulated clusters.

use gdb_simnet::SimDuration;
use gdb_workloads::driver::{run_workload, RunConfig, Workload};
use gdb_workloads::sysbench::{SysbenchMode, SysbenchScale, SysbenchWorkload};
use gdb_workloads::tpcc::{TpccMix, TpccScale, TpccWorkload};
use globaldb::{Cluster, ClusterConfig, SimTime};

fn small_run() -> RunConfig {
    RunConfig {
        terminals: 8,
        duration: SimDuration::from_secs(3),
        warmup: SimDuration::from_millis(500),
        think_time: SimDuration::from_millis(20),
    }
}

#[test]
fn tpcc_full_mix_runs_and_preserves_invariants() {
    let mut cluster = Cluster::new(ClusterConfig::globaldb_one_region());
    let mut wl = TpccWorkload::new(TpccScale::tiny(), TpccMix::standard(), 11);
    wl.setup(&mut cluster).unwrap();
    let report = run_workload(&mut cluster, &mut wl, small_run());

    assert!(
        *report.commits.get("new_order").unwrap_or(&0) > 20,
        "expected NewOrder throughput, got {:?}",
        report.commits
    );
    assert!(report.commits.contains_key("payment"));
    assert!(report.tpmc() > 0.0);

    // Full TPC-C consistency conditions C1–C4 after quiescing.
    let now = cluster.now() + SimDuration::from_secs(1);
    cluster.run_until(now);
    let checked =
        gdb_workloads::tpcc::consistency::verify(&mut cluster, &TpccScale::tiny()).unwrap();
    assert!(checked > 4, "consistency checks ran: {checked}");
}

#[test]
fn tpcc_read_only_mix_uses_replicas_under_ror() {
    let mut cluster = Cluster::new(ClusterConfig::globaldb_three_city());
    let mut wl = TpccWorkload::new(TpccScale::tiny(), TpccMix::read_only(), 13);
    wl.multi_shard_read_fraction = 0.5;
    wl.setup(&mut cluster).unwrap();
    let report = run_workload(&mut cluster, &mut wl, small_run());
    assert!(report.total_commits() > 30, "{}", report.summary());
    assert!(
        report.reads_on_replica > 0,
        "ROR must serve reads from replicas: {}",
        report.summary()
    );
    // Read-only mix writes nothing.
    assert_eq!(*report.commits.get("new_order").unwrap_or(&0), 0);
}

#[test]
fn tpcc_remote_transactions_cost_more_on_wan() {
    let run = |remote: f64| {
        let mut cluster = Cluster::new(ClusterConfig::globaldb_three_city());
        let mut wl = TpccWorkload::new(TpccScale::tiny(), TpccMix::standard(), 17);
        wl.remote_cn_fraction = remote;
        wl.setup(&mut cluster).unwrap();
        let report = run_workload(&mut cluster, &mut wl, small_run());
        report.p99_latency("new_order")
    };
    let local = run(0.0);
    let remote = run(1.0);
    assert!(
        remote.as_micros() > local.as_micros(),
        "remote txns must pay WAN latency: local {local} vs remote {remote}"
    );
}

#[test]
fn sysbench_point_select_runs() {
    let mut cluster = Cluster::new(ClusterConfig::globaldb_three_city());
    let mut wl = SysbenchWorkload::new(SysbenchScale::tiny(), SysbenchMode::PointSelect, 23);
    wl.setup(&mut cluster).unwrap();
    let report = run_workload(&mut cluster, &mut wl, small_run());
    assert!(
        *report.commits.get("point_select").unwrap_or(&0) > 50,
        "{}",
        report.summary()
    );
    assert_eq!(report.total_aborts(), 0);
}

#[test]
fn sysbench_updates_replicate() {
    let mut cluster = Cluster::new(ClusterConfig::globaldb_one_region());
    let mut wl = SysbenchWorkload::new(SysbenchScale::tiny(), SysbenchMode::UpdateIndex, 29);
    wl.setup(&mut cluster).unwrap();
    let report = run_workload(&mut cluster, &mut wl, small_run());
    assert!(*report.commits.get("update_index").unwrap_or(&0) > 20);
    // Replicas converge after the run.
    let end = cluster.now() + SimDuration::from_secs(1);
    cluster.run_until(end);
    let table = cluster.db.catalog().table_by_name("sbtest0").unwrap().id;
    for shard in cluster.db.shards() {
        let primary_ts = shard
            .storage
            .table(table)
            .map(|t| t.versions_installed)
            .unwrap_or(0);
        for replica in &shard.replicas {
            let replica_ts = replica
                .applier
                .storage
                .table(table)
                .map(|t| t.versions_installed)
                .unwrap_or(0);
            assert!(
                replica_ts >= primary_ts,
                "replica behind after quiesce: {replica_ts} < {primary_ts}"
            );
        }
    }
}

#[test]
fn deterministic_reports_for_same_seed() {
    let run = || {
        let mut cluster = Cluster::new(ClusterConfig::globaldb_one_region());
        let mut wl = TpccWorkload::new(TpccScale::tiny(), TpccMix::standard(), 31);
        wl.setup(&mut cluster).unwrap();
        let report = run_workload(
            &mut cluster,
            &mut wl,
            RunConfig {
                terminals: 4,
                duration: SimDuration::from_secs(2),
                warmup: SimDuration::from_millis(200),
                think_time: SimDuration::from_millis(15),
            },
        );
        (report.total_commits(), report.total_aborts())
    };
    assert_eq!(run(), run());
}

#[test]
fn tpcc_runs_during_mode_transition_without_downtime() {
    use globaldb::{TmMode, TransitionDirection};
    let mut cfg = ClusterConfig::globaldb_one_region();
    cfg.tm_mode = TmMode::Gtm;
    let mut cluster = Cluster::new(cfg);
    let mut wl = TpccWorkload::new(TpccScale::tiny(), TpccMix::standard(), 37);
    wl.setup(&mut cluster).unwrap();

    // Kick off the transition, then immediately run the workload on top.
    cluster.start_transition(TransitionDirection::ToGClock);
    let report = run_workload(&mut cluster, &mut wl, small_run());
    assert!(
        report.total_commits() > 50,
        "cluster must stay online during the transition: {}",
        report.summary()
    );
    assert_eq!(
        cluster.db.last_transition_completed(),
        Some(TransitionDirection::ToGClock)
    );
    assert_eq!(cluster.db.cn_mode(0), TmMode::GClock);
    let _ = SimTime::ZERO;
}

/// Heavier soak: medium-scale TPC-C on the Three-City cluster with the
/// consistency conditions checked at the end. Run with
/// `scripts/ci.sh soak` (part of `scripts/ci.sh all`).
#[test]
#[ignore = "heavier soak test (~1 min)"]
fn tpcc_medium_scale_soak() {
    let mut cluster = Cluster::new(ClusterConfig::globaldb_three_city());
    let mut wl = TpccWorkload::new(TpccScale::medium(), TpccMix::standard(), 99);
    wl.setup(&mut cluster).unwrap();
    let report = run_workload(
        &mut cluster,
        &mut wl,
        RunConfig {
            terminals: 48,
            duration: SimDuration::from_secs(20),
            warmup: SimDuration::from_secs(2),
            think_time: SimDuration::from_millis(10),
        },
    );
    assert!(report.tpmc() > 1000.0, "{}", report.summary());
    let end = cluster.now() + SimDuration::from_secs(2);
    cluster.run_until(end);
    let checked =
        gdb_workloads::tpcc::consistency::verify(&mut cluster, &TpccScale::medium()).unwrap();
    assert!(checked > 100);
}

//! The chaos integration suite: TPC-C under every canned fault plan and
//! a batch of random nemesis schedules, each run's recorded history
//! checked by the invariant oracle; plus determinism (same seed →
//! identical trace and history) and the collector-crash-mid-RCP-round
//! recovery path.

use gdb_chaos::{run, PlanSource, Scenario};
use globaldb::{Cluster, ReplicationMode, SimDuration};

/// The canned plan `name` on the quick chaos run of `seed`.
fn canned(name: &str, seed: u64) -> Scenario {
    Scenario {
        plan: PlanSource::Canned(name.into()),
        ..Scenario::quick(seed)
    }
}

/// A 2 s seeded nemesis schedule of `seed` drawing the families
/// `[overlap, migrations, elastic]` enable.
fn nemesis(seed: u64, [overlap, migrations, elastic]: [bool; 3]) -> Scenario {
    Scenario {
        duration: SimDuration::from_secs(2),
        plan: PlanSource::Generated {
            overlap,
            migrations,
            elastic,
        },
        ..Scenario::quick(seed)
    }
}

fn assert_clean(report: &gdb_chaos::ChaosReport) {
    assert!(
        report.ok(),
        "plan {} violated invariants:\n{}",
        report.plan_name,
        report.render()
    );
    assert!(
        report.txns_committed > 0,
        "plan {} made no progress",
        report.plan_name
    );
    assert!(
        report.checked.reads > 0,
        "plan {} checked no reads",
        report.plan_name
    );
}

#[test]
fn tpcc_survives_primary_failover_plan() {
    let report = run(&canned("primary-failover", 101));
    assert_clean(&report);
    // The plan both promotes a replica and rejoins the old primary.
    assert!(report.trace.iter().any(|l| l.contains("promote")));
    assert!(report.trace.iter().any(|l| l.contains("rejoin")));
}

#[test]
fn tpcc_survives_partition_and_delay_plan() {
    let report = run(&canned("partition-and-delay", 102));
    assert_clean(&report);
    assert!(report.trace.iter().any(|l| l.contains("partition")));
}

#[test]
fn tpcc_survives_gtm_and_collector_plan() {
    let report = run(&canned("gtm-and-collector", 103));
    assert_clean(&report);
    assert!(report.trace.iter().any(|l| l.contains("crash-gtm")));
    // Killing a collector CN forces a collector failover at a later round.
    assert!(report.collector_failovers >= 1, "{}", report.render());
}

#[test]
fn tpcc_survives_overlapping_faults_plan() {
    let report = run(&canned("overlapping-faults", 104));
    assert_clean(&report);
    // The partition, the delay spike, and the CN crash overlap in time.
    assert!(report.trace.iter().any(|l| l.contains("partition")));
    assert!(report.trace.iter().any(|l| l.contains("delay")));
    assert!(report.trace.iter().any(|l| l.contains("crash-cn")));
}

#[test]
fn tpcc_survives_heavy_overlap_plan() {
    let report = run(&canned("heavy-overlap", 105));
    assert_clean(&report);
    // A primary crash, a GTM crash, and a region partition are all
    // outstanding at once, and the heals are interleaved.
    assert!(report.trace.iter().any(|l| l.contains("crash-primary")));
    assert!(report.trace.iter().any(|l| l.contains("crash-gtm")));
    assert!(report.trace.iter().any(|l| l.contains("partition")));
    assert!(report.trace.iter().any(|l| l.contains("promote")));
    // The workload's transactions were recorded through the faults.
    assert!(
        report.checked.txns > 0 && !report.history.events.is_empty(),
        "no transaction history recorded"
    );
}

/// Online shard migrations under fire: the first migration's target dies
/// mid-copy (the executor aborts back to the source), a second migration
/// races a delay spike and a primary crash to its cutover — and every
/// oracle invariant (external consistency, RCP monotonicity, strict
/// durability) holds across the routing-epoch bump.
#[test]
fn tpcc_survives_migrate_under_fire_plan() {
    let report = run(&canned("migrate-under-fire", 107));
    assert_clean(&report);
    assert!(report.trace.iter().any(|l| l.contains("start-migration")));
    assert!(report
        .trace
        .iter()
        .any(|l| l.contains("crash-migration-target")));
    let c = |n: &str| report.metrics.counter(n).unwrap_or(0);
    assert!(
        c("rebalance.migrations_aborted") >= 1,
        "target crash must abort the first migration:\n{}",
        report.render()
    );
    assert!(
        c("rebalance.migrations_completed") >= 1,
        "second migration must reach its cutover:\n{}",
        report.render()
    );
    assert!(
        c("rebalance.routing_epoch") >= 1,
        "a completed cutover must bump the routing epoch"
    );
}

/// Elastic membership under fire: scale-out, a host drain whose source
/// crashes mid-flight (the member aborts, plan-mates still cut over),
/// and a re-issued drain that empties and retires the host — with a
/// delay spike, an unrelated migration, and a GTM failover in the mix.
#[test]
fn tpcc_survives_elastic_under_fire_plan() {
    let report = run(&canned("elastic-under-fire", 108));
    assert_clean(&report);
    assert!(report.trace.iter().any(|l| l.contains("add-node")));
    assert!(report.trace.iter().any(|l| l.contains("remove-node")));
    assert!(report
        .trace
        .iter()
        .any(|l| l.contains("crash-migration-source")));
    let c = |n: &str| report.metrics.counter(n).unwrap_or(0);
    assert!(
        c("rebalance.migrations_aborted") >= 1,
        "the source crash must abort its drain member:\n{}",
        report.render()
    );
    assert!(
        c("rebalance.migrations_completed") >= 2,
        "plan-mates and the re-issued drain must cut over:\n{}",
        report.render()
    );
    assert!(
        c("rebalance.routing_epoch") >= 1,
        "drain cutovers must bump the routing epoch"
    );
}

/// The nemesis's elastic family: seeded random schedules where node
/// adds, host drains, and mid-drain source crashes interleave with
/// every other fault family.
#[test]
fn tpcc_survives_nemesis_seeds_with_elastic() {
    let mut drains = 0usize;
    let mut adds = 0usize;
    for seed in 51..=60u64 {
        let report = run(&nemesis(seed, [false, false, true]));
        assert_clean(&report);
        adds += report
            .trace
            .iter()
            .filter(|l| l.contains("fault add-node"))
            .count();
        drains += report
            .trace
            .iter()
            .filter(|l| l.contains("fault remove-node"))
            .count();
    }
    assert!(
        adds > 0 && drains > 0,
        "ten elastic seeds never exercised membership changes (adds={adds}, drains={drains})"
    );
}

/// The nemesis's migration family: seeded random schedules where online
/// shard migrations (and mid-copy target crashes) interleave with every
/// other fault family.
#[test]
fn tpcc_survives_nemesis_seeds_with_migrations() {
    let mut migrations_started = 0u64;
    for seed in 1..=10u64 {
        let report = run(&nemesis(seed, [false, true, false]));
        assert_clean(&report);
        migrations_started += report
            .metrics
            .counter("rebalance.migrations_started")
            .unwrap_or(0);
    }
    assert!(
        migrations_started > 0,
        "ten seeds with the migration family never started a migration"
    );
}

/// The heavy-overlap seed sweep: random schedules where GTM crashes and
/// region partitions may land inside another fault's outage window.
#[test]
fn tpcc_survives_heavy_overlap_nemesis_seeds() {
    for seed in 31..=35u64 {
        let report = run(&nemesis(seed, [true, false, false]));
        assert_clean(&report);
    }
}

/// Async replication with a primary failover: acknowledged writes may
/// lose at most the shipping-window tail, and the oracle's bounded-loss
/// durability check (rather than the strict one) enforces exactly that.
#[test]
fn async_failover_durability_is_bounded_loss() {
    let mut scn = canned("primary-failover", 106);
    scn.cluster.replication = ReplicationMode::Async;
    let report = run(&scn);
    assert_clean(&report);
    assert!(report.trace.iter().any(|l| l.contains("promote")));
}

/// Two schedules on which fixed failover bugs come back when their fix
/// is undone: under async replication the elastic plan at seed 6 catches
/// a skipped commit wait (as stale reads) and an old primary's lock table
/// dropped at a takeover; the migration family at seed 47 catches a
/// promoted replica whose stream was not rewound.
#[test]
fn failover_regression_schedules_stay_clean() {
    let mut scn = canned("elastic-under-fire", 6);
    scn.cluster.replication = ReplicationMode::Async;
    assert_clean(&run(&scn));
    assert_clean(&run(&nemesis(47, [false, true, false])));
}

#[test]
fn tpcc_survives_overlapping_nemesis_schedule() {
    let report = run(&nemesis(23, [true, false, false]));
    assert_clean(&report);
}

#[test]
fn tpcc_survives_ten_random_nemesis_seeds() {
    for seed in 1..=10u64 {
        let report = run(&nemesis(seed, [false; 3]));
        assert_clean(&report);
        assert!(
            report.trace.iter().any(|l| l.contains("fault")),
            "seed {seed} injected nothing:\n{}",
            report.render()
        );
    }
}

#[test]
fn same_seed_replays_identical_trace() {
    let a = run(&nemesis(42, [false; 3]));
    let b = run(&nemesis(42, [false; 3]));
    assert_eq!(a.trace, b.trace, "seed 42 did not replay bit-for-bit");
    assert_eq!(a.txns_committed, b.txns_committed);
    assert_eq!(a.checked, b.checked);
    assert!(
        a.history == b.history,
        "seed 42 did not record the same history"
    );
    assert_eq!(a.violations, b.violations);

    let c = run(&nemesis(43, [false; 3]));
    assert_ne!(a.trace, c.trace, "different seeds produced the same trace");
}

/// A collector CN dying between the gather and distribute phases of an
/// RCP round: the round is abandoned (counted, RCP untouched) and the
/// next round elects a new collector and completes.
#[test]
fn collector_crash_mid_rcp_round_abandons_then_fails_over() {
    let mut cluster = Cluster::new(Scenario::quick(7).cluster);
    // Give replicas some applied state so rounds report real timestamps.
    cluster
        .ddl("CREATE TABLE t (id INT NOT NULL, v INT, PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)")
        .unwrap();
    let ins = cluster.prepare("INSERT INTO t VALUES (?, ?)").unwrap();
    for k in 0..8 {
        let at = cluster.now();
        cluster
            .run_transaction(0, at, false, true, |t| {
                t.execute(&ins, &[globaldb::Datum::Int(k), globaldb::Datum::Int(k)])
            })
            .unwrap();
    }
    // Let replication and a few background RCP rounds land.
    let now = cluster.now();
    cluster.run_until(now + SimDuration::from_millis(500));

    let db = &mut cluster.db;
    let rounds_before = db.stats().rcp_rounds;
    let abandoned_before = db.stats().rcp_rounds_abandoned;
    let rcps_before: Vec<_> = db.cns().iter().map(|c| c.rcp).collect();

    // Phase 1 gathers on the collector, which then dies mid-round.
    let now = cluster.sim.now();
    let collector = db.rcp_collect(0, now).expect("region 0 has a collector");
    db.crash_cn(collector);
    db.rcp_finish(0, collector, now);

    assert_eq!(db.stats().rcp_rounds_abandoned, abandoned_before + 1);
    assert_eq!(
        db.stats().rcp_rounds,
        rounds_before,
        "abandoned round counted as complete"
    );
    for (i, cn) in db.cns().iter().enumerate() {
        assert!(
            cn.rcp >= rcps_before[i],
            "RCP moved backwards on CN {i} across an abandoned round"
        );
    }

    // The next round elects a fresh collector and completes.
    let failovers_before = db.stats().collector_failovers;
    let new_collector = db.rcp_collect(0, now).expect("a standby CN takes over");
    assert_ne!(new_collector, collector, "dead collector re-elected");
    db.rcp_finish(0, new_collector, now);
    assert!(db.stats().collector_failovers > failovers_before);
    assert_eq!(db.stats().rcp_rounds, rounds_before + 1);
    for (i, cn) in db.cns().iter().enumerate() {
        assert!(cn.rcp >= rcps_before[i]);
    }
}

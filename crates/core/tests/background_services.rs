//! Background-service tests: collector-CN failover for RCP distribution,
//! the vacuum that rides RCP rounds pruning MVCC versions below the
//! horizon, a restarted CN's RCP, and log shipping across a region
//! partition.

use globaldb::{Cluster, ClusterConfig, Datum, SimDuration, SimTime};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

#[test]
fn rcp_survives_collector_cn_failure() {
    let mut c = Cluster::new(ClusterConfig::globaldb_one_region());
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    c.execute_sql(0, t(5), "INSERT INTO kv VALUES (1, 0)", &[])
        .unwrap();
    c.run_until(t(300));
    let rcp_before = c.db.cn_rcp(1);
    assert!(rcp_before.as_micros() > 0);

    // Kill CN 0 — the initial collector.
    let cn0 = c.db.cns()[0].node;
    c.db.topo_mut().set_node_down(cn0, true);
    c.run_until(t(800));
    let rcp_after = c.db.cn_rcp(1);
    assert!(
        rcp_after > rcp_before,
        "a surviving CN must take over RCP collection: {rcp_before:?} vs {rcp_after:?}"
    );

    // CN 0 comes back: it resumes receiving the RCP and stays monotone.
    c.db.topo_mut().set_node_down(cn0, false);
    let rcp_cn0_at_revival = c.db.cn_rcp(0);
    c.run_until(t(1200));
    assert!(c.db.cn_rcp(0) > rcp_cn0_at_revival);
}

/// Every background RCP round gathers the replicas' reports, then
/// publishes one gathering delay later (§IV-A), on every preset: on the
/// Three-City deployment a collector CN that crashes inside that window
/// abandons the round, and no CN's RCP moves backwards across it or the
/// rounds that follow.
#[test]
fn collector_crash_inside_the_gather_delay_abandons_the_round() {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city());
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    for k in 0..8 {
        let at = c.now();
        c.execute_sql(0, at, "INSERT INTO kv VALUES (?, 0)", &[Datum::Int(k)])
            .unwrap();
    }
    // Rounds start every `rcp_interval` from time zero: run up to the
    // one at 500 ms, which has gathered but not yet published.
    let interval = c.db.config().rcp_interval;
    let round = SimTime::ZERO + interval * 20;
    c.run_until(round);
    let region = c.db.regions()[0];
    let collector = (c.db.cns().iter().position(|cn| cn.region == region)).unwrap();
    let gather = c.db.rcp_gather_delay(0, collector);
    let abandoned = c.db.stats().rcp_rounds_abandoned;
    let mut rcps: Vec<_> = c.db.cns().iter().map(|cn| cn.rcp).collect();
    assert!(rcps.iter().all(|&rcp| rcp.as_micros() > 0));

    c.run_until(round + gather / 2);
    c.db.crash_cn(collector);
    let mut at = c.now();
    while at < round + interval * 4 {
        at += SimDuration::from_micros(100);
        c.run_until(at);
        for (i, cn) in c.db.cns().iter().enumerate() {
            assert!(cn.rcp >= rcps[i], "CN {i}'s RCP moved backwards by {at}");
            rcps[i] = cn.rcp;
        }
    }
    assert_eq!(c.db.stats().rcp_rounds_abandoned, abandoned + 1);
}

/// Vacuum rides the RCP round: a round that raises the cluster-wide
/// horizon prunes the versions below it, so a dead chain is gone a few
/// RCP intervals after its last write.
#[test]
fn periodic_vacuum_prunes_dead_versions() {
    let mut c = Cluster::new(ClusterConfig::globaldb_one_region());
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    c.execute_sql(0, t(5), "INSERT INTO kv VALUES (1, 0)", &[])
        .unwrap();
    // Hammer one row with updates: a long version chain accumulates.
    for i in 0..50u64 {
        c.execute_sql(
            0,
            t(10) + SimDuration::from_millis(i * 4),
            "UPDATE kv SET v = ? WHERE k = 1",
            &[Datum::Int(i as i64)],
        )
        .unwrap();
    }
    // Within a few RCP intervals of the last write, old versions go.
    let after = t(10 + 49 * 4) + c.db.config().rcp_interval * 4;
    c.run_until(after);
    assert!(
        c.db.stats().versions_vacuumed > 20,
        "vacuum must prune the dead chain: {}",
        c.db.stats().versions_vacuumed
    );
    // The newest value is intact.
    let (out, _) = c
        .execute_sql(0, after, "SELECT v FROM kv WHERE k = 1", &[])
        .unwrap();
    assert_eq!(out.rows()[0].0[0], Datum::Int(49));
}

/// A restarted CN reads at its region's published RCP, not at the RCP it
/// held before the crash: vacuum has since freed the versions below the
/// horizon, so a snapshot at the old value would miss a row that exists.
#[test]
fn restarted_cn_reads_at_its_regions_published_rcp() {
    let mut config = ClusterConfig::globaldb_three_city();
    // Two CNs per region: region 1 keeps a live collector while CN 1 is
    // down.
    config.cn_count = 6;
    let mut c = Cluster::new(config);
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    let at = c.now();
    c.execute_sql(0, at, "INSERT INTO kv VALUES (1, 0)", &[])
        .unwrap();
    c.run_until(c.now() + SimDuration::from_secs(1));
    c.db.crash_cn(1);
    for v in 1..=5 {
        let at = c.now();
        c.execute_sql(0, at, "UPDATE kv SET v = ? WHERE k = 1", &[Datum::Int(v)])
            .unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(6));
    assert!(c.db.stats().versions_vacuumed > 0);

    let at = c.now();
    c.db.restart_cn(1, at);
    let (out, _) = c
        .execute_sql(1, at, "SELECT v FROM kv WHERE k = 1", &[])
        .unwrap();
    assert_eq!(
        out.rows().first().map(|r| r.0[0].clone()),
        Some(Datum::Int(5)),
        "CN 1 read at RCP {:?}",
        c.db.cn_rcp(1)
    );
}

/// Log shipping to a partitioned replica: the flush probes the link
/// before it drains, so an unreachable replica costs no encode and leaves
/// no phantom batch in its channel's statistics. After the heal every
/// channel has shipped exactly what its replica applied, and the channel
/// totals are the cluster's shipping totals.
#[test]
fn unreachable_replica_leaves_no_phantom_batches() {
    let mut config = ClusterConfig::globaldb_three_city().with_seed(11);
    // No heartbeat records: once the updates stop the logs go quiet, so
    // "settled" means nothing is in flight.
    config.heartbeat_interval = SimDuration::from_secs(3600);
    let mut c = Cluster::new(config);
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    for k in 0..24i64 {
        c.execute_sql(0, t(5), "INSERT INTO kv VALUES (?, 0)", &[Datum::Int(k)])
            .unwrap();
    }
    c.run_until(t(200));

    // Cut regions 1 and 2 off from each other for one second. The CN in
    // region 0 still reaches every primary; primaries in region 1 cannot
    // ship to their region-2 replicas, and vice versa.
    let regions = c.db.regions().to_vec();
    let cn =
        c.db.cns()
            .iter()
            .position(|cn| cn.region == regions[0])
            .unwrap();
    let cut_off = |db: &globaldb::GlobalDb| -> usize {
        db.shards()
            .iter()
            .flat_map(|s| {
                let home = db.topo().node_region(s.primary);
                s.replicas.iter().map(move |r| (home, r.region))
            })
            .filter(|&(p, r)| {
                (p == regions[1] && r == regions[2]) || (p == regions[2] && r == regions[1])
            })
            .count()
    };
    assert!(
        cut_off(&c.db) > 0,
        "the partition must separate some primary from a replica"
    );
    c.db.partition_regions(1, 2);
    for i in 0..100u64 {
        c.execute_sql(
            cn,
            t(200) + SimDuration::from_millis(i * 10),
            "UPDATE kv SET v = v + 1 WHERE k = ?",
            &[Datum::Int((i % 24) as i64)],
        )
        .unwrap();
    }
    c.run_until(t(1200));
    let backlog: u64 =
        c.db.shards()
            .iter()
            .flat_map(|s| {
                s.replicas
                    .iter()
                    .map(move |r| r.channel.backlog(s.log.sealed()))
            })
            .sum();
    assert!(backlog > 0, "the partitioned replicas fell behind");
    c.db.heal_regions(1, 2);
    c.run_until(t(2500));

    let (mut batches, mut records, mut raw, mut wire) = (0, 0, 0, 0);
    for (s, shard) in c.db.shards().iter().enumerate() {
        for r in &shard.replicas {
            assert_eq!(
                r.channel.backlog(shard.log.sealed()),
                0,
                "shard {s} settled"
            );
            assert_eq!(
                r.channel.stats.records, r.applier.records_applied,
                "shard {s} replica {:?}: shipped vs applied",
                r.node
            );
            batches += r.channel.stats.batches;
            records += r.channel.stats.records;
            raw += r.channel.stats.raw_bytes;
            wire += r.channel.stats.wire_bytes;
        }
    }
    let m = c.metrics_snapshot();
    assert_eq!(m.counter("replication.ship.batches"), Some(batches));
    assert_eq!(m.counter("replication.ship.records"), Some(records));
    assert_eq!(m.counter("replication.ship.raw_bytes"), Some(raw));
    assert_eq!(m.counter("replication.ship.wire_bytes"), Some(wire));
}

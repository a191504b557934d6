//! Background-service tests: collector-CN failover for RCP distribution,
//! the periodic vacuum pruning MVCC versions below the RCP horizon, and
//! log shipping across a region partition.

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

#[test]
fn periodic_vacuum_prunes_dead_versions() {
    let mut config = ClusterConfig::globaldb_one_region();
    config.vacuum_interval = Some(SimDuration::from_millis(500));
    let mut c = Cluster::new(config);
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
    // After the vacuum interval (and RCP catching up), old versions go.
    c.run_until(t(3000));
    assert!(
        c.db.stats().versions_vacuumed > 20,
        "vacuum must prune the dead chain: {}",
        c.db.stats().versions_vacuumed
    );
    // The newest value is intact.
    let (out, _) = c
        .execute_sql(0, t(3010), "SELECT v FROM kv WHERE k = 1", &[])
        .unwrap();
    assert_eq!(out.rows()[0].0[0], Datum::Int(49));
}

#[test]
fn vacuum_disabled_keeps_versions() {
    let mut config = ClusterConfig::globaldb_one_region();
    config.vacuum_interval = None;
    let mut c = Cluster::new(config);
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    c.execute_sql(0, t(5), "INSERT INTO kv VALUES (1, 0)", &[])
        .unwrap();
    for i in 0..20u64 {
        c.execute_sql(
            0,
            t(10) + SimDuration::from_millis(i * 4),
            "UPDATE kv SET v = ? WHERE k = 1",
            &[Datum::Int(i as i64)],
        )
        .unwrap();
    }
    c.run_until(t(3000));
    assert_eq!(c.db.stats().versions_vacuumed, 0);
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
            .flat_map(|s| s.replicas.iter().map(move |r| (s.region, r.region)))
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

//! Primary-failure and promotion tests (paper §IV): replicas keep serving
//! reads while the primary is down; promotion restores writes; durability
//! of acknowledged commits follows the replication mode.

use globaldb::{Cluster, ClusterConfig, Datum, ReplicationMode, SimDuration, SimTime};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

struct Setup {
    cluster: Cluster,
    shard: usize,
    /// An id that hashes to `shard`.
    id: i64,
    /// A CN co-located with that shard's primary region.
    cn: usize,
}

fn setup(config: ClusterConfig) -> Setup {
    let mut cluster = Cluster::new(config);
    cluster
        .ddl(
            "CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) \
             DISTRIBUTE BY HASH(k)",
        )
        .unwrap();
    let table = cluster.db.catalog().table_by_name("kv").unwrap().id;
    cluster
        .bulk_load(
            table,
            (0..200i64)
                .map(|i| gdb_model::Row(vec![Datum::Int(i), Datum::Int(0)]))
                .collect(),
        )
        .unwrap();
    cluster.finish_load();
    let schema = cluster.db.catalog().table(table).unwrap().clone();
    let shard = 0usize;
    let id = (0..200i64)
        .find(|&i| {
            schema
                .shard_of_pk(
                    &gdb_model::RowKey::single(i),
                    cluster.db.shards().len() as u16,
                )
                .0 as usize
                == shard
        })
        .expect("some id on shard 0");
    let region = cluster
        .db
        .topo()
        .node_region(cluster.db.shards()[shard].primary);
    let cn = (0..cluster.db.cns().len())
        .find(|&i| cluster.db.cns()[i].region == region)
        .unwrap_or(0);
    Setup {
        cluster,
        shard,
        id,
        cn,
    }
}

#[test]
fn reads_survive_primary_failure_writes_fail_until_promotion() {
    let mut s = setup(ClusterConfig::globaldb_one_region());
    let c = &mut s.cluster;
    // Commit a value and let replication settle.
    c.execute_sql(
        s.cn,
        t(10),
        "UPDATE kv SET v = 7 WHERE k = ?",
        &[Datum::Int(s.id)],
    )
    .unwrap();
    c.run_until(t(500));

    c.db.crash_primary(s.shard);

    // Read-only queries keep working via ROR.
    let sel = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    let ((), o) = c
        .run_transaction(s.cn, t(510), true, true, |txn| {
            let out = txn.execute(&sel, &[Datum::Int(s.id)])?;
            let _: () = assert_eq!(out.rows()[0].0[0], Datum::Int(7));
            Ok(())
        })
        .unwrap();
    assert!(o.used_replica, "read must come from a replica");

    // Writes to the failed shard error.
    let res = c.execute_sql(
        s.cn,
        t(520),
        "UPDATE kv SET v = 8 WHERE k = ?",
        &[Datum::Int(s.id)],
    );
    assert!(res.is_err(), "writes must fail while the primary is down");

    // Promote a replica: writes recover, committed state intact.
    c.db.promote_replica_at(s.shard, 0, c.now()).unwrap();
    let (_, o) = c
        .execute_sql(
            s.cn,
            t(600),
            "UPDATE kv SET v = 9 WHERE k = ?",
            &[Datum::Int(s.id)],
        )
        .unwrap();
    assert!(o.commit_ts.is_some());
    let (out, _) = c
        .execute_sql(
            s.cn,
            t(700),
            "SELECT v FROM kv WHERE k = ?",
            &[Datum::Int(s.id)],
        )
        .unwrap();
    assert_eq!(out.rows()[0].0[0], Datum::Int(9));
}

#[test]
fn sync_quorum_promotion_loses_nothing() {
    let mut config = ClusterConfig::globaldb_three_city();
    config.replication = ReplicationMode::SyncRemoteQuorum { quorum: 2 };
    let mut s = setup(config);
    let c = &mut s.cluster;

    // Commit, then crash the primary at the exact instant the client
    // received the acknowledgment.
    let (_, o) = c
        .execute_sql(
            s.cn,
            t(10),
            "UPDATE kv SET v = 42 WHERE k = ?",
            &[Datum::Int(s.id)],
        )
        .unwrap();
    assert!(o.commit_ts.is_some());
    c.run_until(o.completed_at);
    c.db.crash_primary(s.shard);
    c.db.promote_replica_at(s.shard, 0, c.now()).unwrap();

    // The acknowledged commit survives on the promoted primary: it was
    // quorum-durable. (A replica read at the RCP may predate it.)
    let sel = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    let (out, _) = c
        .run_transaction(s.cn, t(50), false, false, |txn| {
            txn.execute(&sel, &[Datum::Int(s.id)])
        })
        .unwrap();
    assert_eq!(
        out.rows()[0].0[0],
        Datum::Int(42),
        "sync-replicated commit must survive failover"
    );
}

#[test]
fn async_promotion_may_lose_the_unreplicated_tail() {
    let mut s = setup(ClusterConfig::globaldb_one_region()); // Async mode
    let c = &mut s.cluster;

    // Commit and crash before any flush interval elapses.
    let (_, o) = c
        .execute_sql(
            s.cn,
            t(10),
            "UPDATE kv SET v = 42 WHERE k = ?",
            &[Datum::Int(s.id)],
        )
        .unwrap();
    assert!(o.commit_ts.is_some(), "async commit acknowledged");
    c.db.crash_primary(s.shard);
    c.db.promote_replica_at(s.shard, 0, c.now()).unwrap();

    // The tail never shipped: the acknowledged value is gone (the paper's
    // async durability trade-off), and the row is back at its loaded state.
    let (out, _) = c
        .execute_sql(
            s.cn,
            t(50),
            "SELECT v FROM kv WHERE k = ?",
            &[Datum::Int(s.id)],
        )
        .unwrap();
    assert_eq!(
        out.rows()[0].0[0],
        Datum::Int(0),
        "async tail is lost on immediate failover"
    );
}

#[test]
fn cluster_keeps_running_after_promotion() {
    let mut s = setup(ClusterConfig::globaldb_one_region());
    let c = &mut s.cluster;
    c.run_until(t(100));
    c.db.crash_primary(s.shard);
    c.db.promote_replica_at(s.shard, 1, c.now()).unwrap();

    // Sustained writes across ALL shards after the promotion.
    let upd = c.prepare("UPDATE kv SET v = v + 1 WHERE k = ?").unwrap();
    for i in 0..60u64 {
        let ((), _) = c
            .run_transaction(
                (i % 3) as usize,
                t(110) + SimDuration::from_millis(i * 3),
                false,
                true,
                |txn| {
                    txn.execute(&upd, &[Datum::Int((i % 200) as i64)])
                        .map(|_| ())
                },
            )
            .unwrap();
    }
    // Replication to the resynced replicas and the RCP still work.
    c.run_until(t(1500));
    let sel = c.prepare("SELECT COUNT(*) FROM kv").unwrap();
    let ((), o) = c
        .run_transaction(1, t(1510), true, true, |txn| {
            let out = txn.execute(&sel, &[])?;
            let _: () = assert_eq!(out.rows()[0].0[0], Datum::Int(200));
            Ok(())
        })
        .unwrap();
    let _ = o;
    // Heartbeats still advance the RCP past the promotion point.
    assert!(c.db.cn_rcp(0).as_micros() > 1_000_000);
}

#[test]
fn failed_primary_rejoins_as_replica_and_catches_up() {
    let mut s = setup(ClusterConfig::globaldb_one_region());
    let c = &mut s.cluster;
    c.run_until(t(100));
    let old_primary = c.db.shards()[s.shard].primary;
    c.db.crash_primary(s.shard);
    c.db.promote_replica_at(s.shard, 0, c.now()).unwrap();
    let replicas_before = c.db.shards()[s.shard].replicas.len();

    // The recovered node rejoins in the replica role.
    c.db.rejoin_as_replica_at(s.shard, old_primary, c.now())
        .unwrap();
    assert_eq!(c.db.shards()[s.shard].replicas.len(), replicas_before + 1);

    // New writes flow to it through the fresh redo stream.
    for i in 0..20u64 {
        c.execute_sql(
            s.cn,
            t(200) + SimDuration::from_millis(i * 5),
            "UPDATE kv SET v = ? WHERE k = ?",
            &[Datum::Int(i as i64), Datum::Int(s.id)],
        )
        .unwrap();
    }
    c.run_until(t(2000));
    let rejoined = c.db.shards()[s.shard]
        .replicas
        .iter()
        .find(|r| r.node == old_primary)
        .expect("rejoined replica present");
    // It has replayed the post-rejoin stream and reports a fresh
    // max-commit timestamp (so it participates in the RCP again).
    assert!(rejoined.applier.records_applied > 0, "stream followed");
    assert!(rejoined.applier.max_commit_ts().as_micros() > 200_000);
    // And its data matches the primary.
    let table = c.db.catalog().table_by_name("kv").unwrap().id;
    let key = gdb_model::RowKey::single(s.id);
    let snap = globaldb::Timestamp::MAX;
    let primary_val = c.db.shards()[s.shard]
        .storage
        .table(table)
        .unwrap()
        .read(&key, snap)
        .unwrap()
        .row
        .clone();
    let replica_val = c.db.shards()[s.shard]
        .replicas
        .iter()
        .find(|r| r.node == old_primary)
        .unwrap()
        .applier
        .storage
        .table(table)
        .unwrap()
        .read(&key, snap)
        .unwrap()
        .row
        .clone();
    assert_eq!(primary_val, replica_val);
}

#[test]
fn a_node_already_hosting_the_shard_cannot_rejoin_it() {
    let mut s = setup(ClusterConfig::globaldb_one_region());
    let c = &mut s.cluster;
    c.run_until(t(100));
    let primary = c.db.shards()[s.shard].primary;
    c.db.crash_primary(s.shard);
    c.run_until(t(200));
    let replicas = |c: &Cluster| -> Vec<u32> {
        c.db.shards()[s.shard]
            .replicas
            .iter()
            .map(|r| r.node.0)
            .collect()
    };
    let before = replicas(c);

    // Nobody was promoted: the crashed node still *is* the primary, and
    // as its own replica it would ship to — and serve replica reads as —
    // itself. The refusal changes nothing, including the node's health.
    let now = c.now();
    let err =
        c.db.rejoin_as_replica_at(s.shard, primary, now)
            .unwrap_err();
    assert!(err.to_string().contains("already hosts shard 0"), "{err}");
    assert_eq!(replicas(c), before);
    assert_eq!(c.db.shards()[s.shard].primary, primary);
    assert!(c.db.topo().is_node_down(primary));
    // Same for a node that already is a replica of the shard.
    let replica = c.db.shards()[s.shard].replicas[0].node;
    assert!(c.db.rejoin_as_replica_at(s.shard, replica, now).is_err());
    assert_eq!(replicas(c), before);

    // The way back for an unreplaced primary is a restart.
    c.db.restart_primary(s.shard);
    c.execute_sql(
        s.cn,
        t(300),
        "UPDATE kv SET v = 5 WHERE k = ?",
        &[Datum::Int(s.id)],
    )
    .unwrap();
}

//! Range-distributed tables end-to-end, load-based read balancing
//! (the skyline swapping out a busy replica — paper §IV-B: "we may swap
//! out a replica node for a different one if its response time goes up"),
//! and routing-epoch semantics across an online shard migration.

use gdb_simnet::{NetNodeId, NodeKind, RegionId};
use globaldb::{
    Cluster, ClusterConfig, Datum, GdbError, MigrationKind, MigrationSpec, SimDuration, SimTime,
};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

#[test]
fn range_distributed_table_routes_and_prunes() {
    let mut c = Cluster::new(ClusterConfig::globaldb_one_region());
    c.ddl(
        "CREATE TABLE events (seq INT NOT NULL, payload TEXT, PRIMARY KEY (seq)) \
         DISTRIBUTE BY RANGE(seq) SPLIT AT (100, 200, 300, 400, 500)",
    )
    .unwrap();
    // Rows land in their range shard.
    for seq in [50i64, 150, 250, 350, 450, 550] {
        c.execute_sql(
            0,
            t(10),
            "INSERT INTO events VALUES (?, ?)",
            &[Datum::Int(seq), Datum::from(format!("e{seq}"))],
        )
        .unwrap();
    }
    let table = c.db.catalog().table_by_name("events").unwrap().clone();
    let shard_count = c.db.shards().len() as u16;
    // Each row is on the expected shard: seq 50 → shard 0, 150 → 1, ...
    for (i, seq) in [50i64, 150, 250, 350, 450, 550].iter().enumerate() {
        let shard = table
            .shard_of_pk(&gdb_model::RowKey::single(*seq), shard_count)
            .0 as usize;
        assert_eq!(shard, i, "seq {seq}");
        assert_eq!(
            c.db.shards()[shard]
                .storage
                .table(table.id)
                .unwrap()
                .key_count(),
            1
        );
    }
    // Point and range queries return correct results across the splits.
    let (out, _) = c
        .execute_sql(1, t(100), "SELECT payload FROM events WHERE seq = 250", &[])
        .unwrap();
    assert_eq!(out.rows()[0].0[0], Datum::Text("e250".into()));
    let (out, _) = c
        .execute_sql(
            1,
            t(110),
            "SELECT seq FROM events WHERE seq BETWEEN 100 AND 400 ORDER BY seq",
            &[],
        )
        .unwrap();
    let seqs: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| r.0[0].as_int().unwrap())
        .collect();
    assert_eq!(seqs, vec![150, 250, 350]);
}

#[test]
fn busy_replica_is_swapped_out_by_the_skyline() {
    let mut c = Cluster::new(ClusterConfig::globaldb_one_region());
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    let table = c.db.catalog().table_by_name("kv").unwrap().id;
    c.bulk_load(
        table,
        (0..60i64)
            .map(|i| gdb_model::Row(vec![Datum::Int(i), Datum::Int(0)]))
            .collect(),
    )
    .unwrap();
    c.finish_load();
    c.run_until(t(300));

    // Find a key on a shard whose primary is not co-hosted with CN 1 so a
    // replica is the natural choice.
    let schema = c.db.catalog().table(table).unwrap().clone();
    let cn1_host = c.db.topo().node_host(c.db.cns()[1].node);
    let (key, shard) = (0..60i64)
        .find_map(|k| {
            let s = schema
                .shard_of_pk(&gdb_model::RowKey::single(k), c.db.shards().len() as u16)
                .0 as usize;
            (c.db.topo().node_host(c.db.shards()[s].primary) != cn1_host).then_some((k, s))
        })
        .expect("remote-shard key");

    let sel = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    let read = |c: &mut Cluster, at: SimTime| {
        let ((), o) = c
            .run_transaction(1, at, true, true, |txn| {
                txn.execute(&sel, &[Datum::Int(key)]).map(|_| ())
            })
            .unwrap();
        o
    };
    let o1 = read(&mut c, t(310));
    assert!(o1.used_replica);

    // Make the normally-chosen replica look overloaded: a huge replay
    // backlog inflates its load axis.
    let now = c.now();
    let overloaded: Vec<gdb_simnet::NetNodeId> = c.db.shards()[shard]
        .replicas
        .iter()
        .map(|r| r.node)
        .filter(|&n| c.db.topo().node_host(n) == cn1_host)
        .collect();
    for r in &mut c.db.shards_mut()[shard].replicas {
        if overloaded.contains(&r.node) {
            r.busy_until = now + SimDuration::from_secs(5);
        }
    }
    // The skyline now swaps reads to another node — still answered, and
    // not from the overloaded local replica unless nothing else qualifies.
    let o2 = read(&mut c, t(320));
    // The read is still served (availability), with the overloaded node's
    // load visible in the selection.
    let now = c.now();
    let sky = c.db.shard_candidates(1, shard, o2.snapshot, now);
    assert!(!sky.is_empty());
    let picked = sky.select(None).unwrap();
    // The picked node is not the overloaded one.
    let overloaded: Vec<_> = c.db.shards()[shard]
        .replicas
        .iter()
        .filter(|r| r.busy_until > c.now() + SimDuration::from_secs(1))
        .map(|r| r.node)
        .collect();
    assert!(
        !overloaded.contains(&picked.node),
        "skyline must avoid the overloaded replica"
    );
}

/// Hash-table fixture for the migration tests: returns the cluster and
/// a key that lives on shard 0.
fn migration_fixture() -> (Cluster, i64) {
    let mut c = Cluster::new(ClusterConfig::globaldb_one_region());
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    let table = c.db.catalog().table_by_name("kv").unwrap().id;
    c.bulk_load(
        table,
        (0..60i64)
            .map(|i| gdb_model::Row(vec![Datum::Int(i), Datum::Int(0)]))
            .collect(),
    )
    .unwrap();
    c.finish_load();
    c.run_until(t(300));
    let schema = c.db.catalog().table(table).unwrap().clone();
    let key = (0..60i64)
        .find(|&k| {
            schema
                .shard_of_pk(&gdb_model::RowKey::single(k), c.db.shards().len() as u16)
                .0
                == 0
        })
        .expect("a key on shard 0");
    (c, key)
}

/// Migrate shard 0 to another host and run the cluster until it
/// completes.
fn migrate_shard0(c: &mut Cluster) {
    let source_host = c.db.topo().node_host(c.db.shards()[0].primary);
    c.start_migration(0, c.db.regions()[0], (source_host + 1) % 3)
        .unwrap();
    c.run_until(c.now() + SimDuration::from_secs(2));
    assert_eq!(c.db.last_migration_completed(), Some(0));
    assert_eq!(c.db.routing_epoch(), 1);
}

#[test]
fn stale_routing_epoch_is_rejected_and_rerouted() {
    let (mut c, key) = migration_fixture();
    migrate_shard0(&mut c);

    // Pretend CN 0 never heard the cutover announcement: its cached
    // route table is one epoch behind.
    c.db.cns_mut()[0].route_epoch = 0;
    let upd = c.prepare("UPDATE kv SET v = ? WHERE k = ?").unwrap();
    let at = c.now() + SimDuration::from_millis(5);
    let err = c
        .run_transaction(0, at, false, true, |txn| {
            txn.execute(&upd, &[Datum::Int(1), Datum::Int(key)])
                .map(|_| ())
        })
        .expect_err("stale route must be rejected");
    assert!(matches!(err, GdbError::StaleRoute(_)), "got {err}");
    assert!(err.is_retryable(), "stale-route rejects are retryable");
    assert_eq!(c.db.stats().stale_route_rejects, 1);
    // The reject refreshed the CN's cache, so the retry re-routes and
    // succeeds.
    assert_eq!(c.db.cns()[0].route_epoch, 1);
    let at = c.now() + SimDuration::from_millis(5);
    c.run_transaction(0, at, false, true, |txn| {
        txn.execute(&upd, &[Datum::Int(1), Datum::Int(key)])
            .map(|_| ())
    })
    .expect("retry at the fresh epoch must succeed");
    assert_eq!(c.db.stats().stale_route_rejects, 1, "no second reject");
}

/// A batched plan — two primary moves plus a replica move onto a
/// freshly joined node — cuts over under ONE routing-epoch bump, and a
/// CN that missed the announcement gets exactly one StaleRoute reject
/// before its retry lands.
#[test]
fn batched_plan_bumps_epoch_once_and_stale_cn_retries() {
    let (mut c, key) = migration_fixture();
    assert_eq!(c.db.routing_epoch(), 0);

    // Scale out: a spare data node on a brand-new host slot.
    let joined = c.db.join_data_node(c.db.regions()[0], 3);

    let h0 = c.db.topo().node_host(c.db.shards()[0].primary);
    let h1 = c.db.topo().node_host(c.db.shards()[1].primary);
    let old_replica = c.db.shards()[2].replicas[0].node;
    let region = c.db.regions()[0];
    let plan = c
        .start_plan(vec![
            globaldb::MigrationSpec {
                shard: 0,
                kind: globaldb::MigrationKind::Primary,
                to_region: region,
                to_host: (h0 + 1) % 3,
            },
            globaldb::MigrationSpec {
                shard: 1,
                kind: globaldb::MigrationKind::Primary,
                to_region: region,
                to_host: (h1 + 1) % 3,
            },
            globaldb::MigrationSpec {
                shard: 2,
                kind: globaldb::MigrationKind::Replica { node: old_replica },
                to_region: region,
                to_host: 3,
            },
        ])
        .unwrap();
    assert_eq!(c.db.stats().migrations_started, 3);
    c.run_until(c.now() + SimDuration::from_secs(3));

    // All three members completed under the same plan...
    assert_eq!(c.db.stats().migrations_completed, 3);
    assert!(c.db.migrations().iter().all(|m| m.plan != plan));
    // ...with exactly ONE epoch bump for the whole batch.
    assert_eq!(c.db.routing_epoch(), 1, "batch must flip the epoch once");
    // The replica landed on the joined node's host and the old copy is
    // permanently gone.
    assert!(c.db.shards()[2]
        .replicas
        .iter()
        .any(|r| c.db.topo().node_host(r.node) == 3));
    assert!(c.db.shards()[2]
        .replicas
        .iter()
        .all(|r| r.node != old_replica));
    let _ = joined;

    // A CN with a stale route cache is rejected once, refreshed, and
    // its retry succeeds.
    c.db.cns_mut()[0].route_epoch = 0;
    let upd = c.prepare("UPDATE kv SET v = ? WHERE k = ?").unwrap();
    let at = c.now() + SimDuration::from_millis(5);
    let err = c
        .run_transaction(0, at, false, true, |txn| {
            txn.execute(&upd, &[Datum::Int(7), Datum::Int(key)])
                .map(|_| ())
        })
        .expect_err("stale route must be rejected");
    assert!(matches!(err, GdbError::StaleRoute(_)), "got {err}");
    assert!(err.is_retryable());
    assert_eq!(c.db.cns()[0].route_epoch, 1, "reject refreshes the cache");
    let at = c.now() + SimDuration::from_millis(5);
    c.run_transaction(0, at, false, true, |txn| {
        txn.execute(&upd, &[Datum::Int(7), Datum::Int(key)])
            .map(|_| ())
    })
    .expect("retry at the fresh epoch must succeed");
}

#[test]
fn migrated_shard_serves_prior_writes_from_every_cn() {
    let (mut c, key) = migration_fixture();
    // Commit a distinctive value before the migration...
    let upd = c.prepare("UPDATE kv SET v = ? WHERE k = ?").unwrap();
    let at = c.now() + SimDuration::from_millis(5);
    c.run_transaction(0, at, false, true, |txn| {
        txn.execute(&upd, &[Datum::Int(42), Datum::Int(key)])
            .map(|_| ())
    })
    .unwrap();

    migrate_shard0(&mut c);

    // ...and read it back through the migrated primary from every CN.
    let sel = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    for cn in 0..c.db.cns().len() {
        let at = c.now() + SimDuration::from_millis(5);
        let ((), _) = c
            .run_transaction(cn, at, true, true, |txn| {
                let out = txn.execute(&sel, &[Datum::Int(key)])?;
                assert_eq!(
                    out.rows()[0].0[0],
                    Datum::Int(42),
                    "cn {cn} must read the pre-migration write"
                );
                Ok(())
            })
            .unwrap();
    }
    // Writes keep flowing after the cutover, and read back correctly.
    let at = c.now() + SimDuration::from_millis(5);
    c.run_transaction(1, at, false, true, |txn| {
        txn.execute(&upd, &[Datum::Int(43), Datum::Int(key)])
            .map(|_| ())
    })
    .unwrap();
    // Let replication and the RCP catch up so an ROR read sees the new
    // version (reads run at the RCP snapshot, not read-your-writes).
    c.run_until(c.now() + SimDuration::from_millis(500));
    let at = c.now() + SimDuration::from_millis(5);
    let ((), _) = c
        .run_transaction(2, at, true, true, |txn| {
            let out = txn.execute(&sel, &[Datum::Int(key)])?;
            assert_eq!(out.rows()[0].0[0], Datum::Int(43));
            Ok(())
        })
        .unwrap();
}

/// Data nodes that are still part of the cluster but host no primary
/// and no replica of any shard — a leak, unless the node is a spare
/// someone provisioned on purpose.
fn orphaned_data_nodes(c: &Cluster) -> Vec<NetNodeId> {
    let topo = c.db.topo();
    (0..topo.node_count() as u32)
        .map(NetNodeId)
        .filter(|&n| {
            matches!(
                topo.node_kind(n),
                NodeKind::DataNodePrimary | NodeKind::DataNodeReplica
            ) && !topo.is_node_retired(n)
                && !c
                    .db
                    .shards()
                    .iter()
                    .any(|s| s.primary == n || s.replicas.iter().any(|r| r.node == n))
        })
        .collect()
}

#[test]
fn completed_primary_move_retires_the_old_primary() {
    let (mut c, _) = migration_fixture();
    let old_primary = c.db.shards()[0].primary;
    migrate_shard0(&mut c);
    assert_ne!(c.db.shards()[0].primary, old_primary);
    assert!(
        c.db.topo().is_node_retired(old_primary),
        "the replaced primary left the cluster for good"
    );
    assert_eq!(orphaned_data_nodes(&c), vec![]);
}

#[test]
fn aborted_move_retires_the_target_it_provisioned() {
    let (mut c, _) = migration_fixture();
    let primary = c.db.shards()[0].primary;
    let source_host = c.db.topo().node_host(primary);
    c.start_migration(0, c.db.regions()[0], (source_host + 1) % 3)
        .unwrap();
    let target = NetNodeId(c.db.topo().node_count() as u32 - 1);
    // The target dies mid-flight: the member aborts at its next tick.
    c.db.crash_node(target);
    c.run_until(c.now() + SimDuration::from_secs(2));
    assert_eq!(c.db.last_migration_aborted().unwrap().0, 0);
    assert_eq!(c.db.shards()[0].primary, primary, "ownership never moved");
    assert!(c.db.topo().is_node_retired(target));
    // A chaos heal sweep cannot bring it back as an empty `up` node.
    assert_eq!(c.db.topo().down_nodes(), vec![]);
    c.db.restore_node(target);
    assert!(c.db.topo().is_node_down(target));
    assert_eq!(orphaned_data_nodes(&c), vec![]);
}

/// An unknown target region is refused up front, for both member kinds:
/// nothing is provisioned and no plan id is spent.
#[test]
fn migration_to_an_unknown_region_is_refused_without_side_effects() {
    let (mut c, _) = migration_fixture();
    let nodes = c.db.topo().node_count();
    let nowhere = RegionId(9);
    assert!(c.start_migration(0, nowhere, 1).is_err());
    let spec = MigrationSpec {
        shard: 1,
        kind: MigrationKind::Replica {
            node: c.db.shards()[1].replicas[0].node,
        },
        to_region: nowhere,
        to_host: 1,
    };
    assert!(c.start_plan(vec![spec]).is_err());
    assert_eq!(c.db.topo().node_count(), nodes);
    assert!(c.db.migrations().is_empty());
    let to_region = c.db.regions()[0];
    let first = c.start_plan(vec![MigrationSpec { to_region, ..spec }]);
    assert_eq!(first.unwrap(), 1, "the refused plans took no plan id");
}

#[test]
fn drain_leaves_no_data_node_behind() {
    let (mut c, _) = migration_fixture();
    let region = c.db.regions()[0];
    let host = c.db.topo().node_host(c.db.shards()[0].primary);
    let to_host = (host + 1) % 3;
    c.db.mark_host_draining(region, host);
    let (primaries, replicas) = c.db.host_placements(region, host);
    assert!(!primaries.is_empty() && !replicas.is_empty());
    let mut moved_off = Vec::new();
    for shard in primaries {
        moved_off.push(c.db.shards()[shard].primary);
        c.start_migration(shard, region, to_host).unwrap();
        c.run_until(c.now() + SimDuration::from_secs(2));
        // Each replaced node is gone the moment its move lands, not
        // only once the whole host has emptied.
        assert!(c.db.topo().is_node_retired(*moved_off.last().unwrap()));
        assert_eq!(orphaned_data_nodes(&c), vec![]);
    }
    assert_eq!(c.db.retired_hosts(), &[], "replicas still on the host");
    for (shard, node) in replicas {
        moved_off.push(node);
        c.start_plan(vec![MigrationSpec {
            shard,
            kind: MigrationKind::Replica { node },
            to_region: region,
            to_host,
        }])
        .unwrap();
        c.run_until(c.now() + SimDuration::from_secs(2));
    }
    assert_eq!(c.db.retired_hosts(), &[(region, host)]);
    assert!(c.db.draining_hosts().is_empty());
    for node in moved_off {
        assert!(c.db.topo().is_node_retired(node), "n{}", node.0);
    }
    assert_eq!(orphaned_data_nodes(&c), vec![]);
}

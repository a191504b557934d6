//! End-to-end rebalancing: a skewed workload makes the detector propose
//! a migration, the migration completes without losing availability,
//! and the post-cutover load spread strictly improves. Plus the abort
//! path: a target crash mid-migration leaves routing and ownership
//! exactly at the source.

use gdb_rebalance::{drain_host, HotShardDetector, RebalanceController};
use gdb_simnet::RegionId;
use globaldb::{Cluster, ClusterConfig, Datum, SimTime};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// One-region cluster with a hash table and the keys grouped by shard.
fn setup() -> (Cluster, Vec<Vec<i64>>) {
    let mut c = Cluster::new(ClusterConfig::globaldb_one_region());
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    let table = c.db.catalog().table_by_name("kv").unwrap().id;
    c.bulk_load(
        table,
        (0..120i64)
            .map(|i| gdb_model::Row(vec![Datum::Int(i), Datum::Int(0)]))
            .collect(),
    )
    .unwrap();
    c.finish_load();
    c.run_until(t(300));
    let schema = c.db.catalog().table(table).unwrap().clone();
    let shard_count = c.db.shards().len();
    let mut by_shard = vec![Vec::new(); shard_count];
    for k in 0..120i64 {
        let s = schema
            .shard_of_pk(&gdb_model::RowKey::single(k), shard_count as u16)
            .0 as usize;
        by_shard[s].push(k);
    }
    (c, by_shard)
}

/// Run `n` single-shard point reads of `keys` (cycled), round-robin over
/// the CNs, starting at `at` with 1ms spacing. Returns the next free
/// instant.
fn read_window(c: &mut Cluster, keys: &[i64], n: usize, mut at: SimTime) -> SimTime {
    let sel = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    for i in 0..n {
        let key = keys[i % keys.len()];
        let cn = i % 3;
        at = at.max(c.now()) + gdb_simnet::SimDuration::from_millis(1);
        c.run_transaction(cn, at, true, true, |txn| {
            txn.execute(&sel, &[Datum::Int(key)]).map(|_| ())
        })
        .unwrap();
    }
    at
}

#[test]
fn skewed_load_triggers_migration_and_improves_spread() {
    let (mut c, by_shard) = setup();
    // Heat shard 0 and (less) its co-hosted shard 3, so moving shard 0
    // off their shared host strictly lowers the hottest host's load.
    let host_of = |c: &Cluster, s: usize| c.db.topo().node_host(c.db.shards()[s].primary);
    assert_eq!(
        host_of(&c, 0),
        host_of(&c, 3),
        "layout: shards 0 and 3 co-hosted"
    );
    let source_host = host_of(&c, 0);

    let mut probe = HotShardDetector::new();
    probe.observe(&mut c.db); // baseline: discard startup traffic

    let at = read_window(&mut c, &by_shard[0].clone(), 200, t(310));
    let at = read_window(&mut c, &by_shard[3].clone(), 80, at);
    let skewed_view = probe.observe(&mut c.db);
    let spread_before = skewed_view.spread();
    assert!(
        spread_before > 1.5,
        "window must look imbalanced, got {spread_before}"
    );

    // The controller sees the same counters and starts a migration of
    // the hot shard.
    let mut controller = RebalanceController::new();
    let batch = controller.tick(&mut c);
    assert!(!batch.is_empty(), "skew must trigger a migration");
    let proposal = batch[0].clone();
    assert_eq!(
        proposal.shard, 0,
        "hot shard is the one proposed: {}",
        proposal.reason
    );
    assert!(
        proposal.cost_after < proposal.cost_before,
        "accepted moves strictly reduce cost"
    );
    assert_ne!(proposal.to.host, source_host, "must leave the hot host");
    assert!(c.migration_in_flight().is_some());
    // A second tick while the plan is in flight must not start another.
    assert!(controller.tick(&mut c).is_empty());

    // Keep writing the hot keys while the migration runs: the source
    // stays available through snapshot/catch-up, and any post-cutover
    // stale-epoch reject is retryable (never a hard failure).
    let upd = c.prepare("UPDATE kv SET v = ? WHERE k = ?").unwrap();
    let hot = by_shard[0].clone();
    let mut at = at;
    let mut stale_retries = 0u32;
    for i in 0..200 {
        let key = hot[i % hot.len()];
        at = at.max(c.now()) + gdb_simnet::SimDuration::from_millis(2);
        let run = |c: &mut Cluster, at: SimTime| {
            c.run_transaction(0, at, false, true, |txn| {
                txn.execute(&upd, &[Datum::Int(i as i64), Datum::Int(key)])
                    .map(|_| ())
            })
        };
        match run(&mut c, at) {
            Ok(_) => {}
            Err(e) if e.is_retryable() => {
                stale_retries += 1;
                let retry_at = at + gdb_simnet::SimDuration::from_millis(1);
                run(&mut c, retry_at).expect("retry after re-route must succeed");
            }
            Err(e) => panic!("non-retryable failure during migration: {e}"),
        }
        if c.db.last_migration_completed().is_some() {
            break;
        }
    }
    c.run_until(c.now() + gdb_simnet::SimDuration::from_secs(2));
    assert_eq!(
        c.db.last_migration_completed(),
        Some(0),
        "migration must complete"
    );
    assert!(c.migration_in_flight().is_none());
    assert_eq!(c.db.routing_epoch(), 1);
    assert_eq!(c.db.shards()[0].owner_epoch, 1);
    assert_eq!(
        host_of(&c, 0),
        proposal.to.host,
        "primary landed on the target"
    );
    assert_eq!(c.db.stats().migrations_completed, 1);
    assert_eq!(c.db.stats().migrations_aborted, 0);
    let _ = stale_retries; // informational: may be 0 if no write hit the announce window

    // Read-your-writes across the cutover: the migrated primary serves
    // the latest committed value.
    let sel = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    let key = hot[0];
    let at2 = c.now() + gdb_simnet::SimDuration::from_millis(5);
    let ((), _) = c
        .run_transaction(0, at2, true, true, |txn| {
            let out = txn.execute(&sel, &[Datum::Int(key)])?;
            assert!(!out.rows().is_empty(), "migrated shard must serve the row");
            Ok(())
        })
        .unwrap();

    // Same skewed window against the new placement: the spread strictly
    // improves because the hot shard no longer shares a host with the
    // warm one.
    probe.observe(&mut c.db); // reset the window past the migration traffic
    let start = c.now() + gdb_simnet::SimDuration::from_millis(1);
    let at3 = read_window(&mut c, &by_shard[0].clone(), 200, start);
    read_window(&mut c, &by_shard[3].clone(), 80, at3);
    let spread_after = probe.observe(&mut c.db).spread();
    assert!(
        spread_after < spread_before,
        "post-cutover spread must strictly improve: {spread_after} !< {spread_before}"
    );
}

#[test]
fn target_crash_mid_migration_aborts_and_leaves_source_owner() {
    let (mut c, by_shard) = setup();
    let source = c.db.shards()[0].primary;
    let source_host = c.db.topo().node_host(source);
    let to_host = (source_host + 1) % 3;
    c.start_migration(0, RegionId(0), to_host).unwrap();
    let target = c.db.migration().unwrap().target.node;

    // Keep writing the shard so catch-up always has sealed redo to
    // drain (the migration can't reach the barrier), then kill the
    // target mid-catch-up.
    let upd = c.prepare("UPDATE kv SET v = ? WHERE k = ?").unwrap();
    let keys = by_shard[0].clone();
    let mut at = c.now();
    for i in 0..10i64 {
        let key = keys[i as usize % keys.len()];
        at = at.max(c.now()) + gdb_simnet::SimDuration::from_millis(1);
        c.run_transaction(0, at, false, true, |txn| {
            txn.execute(&upd, &[Datum::Int(i), Datum::Int(key)])
                .map(|_| ())
        })
        .unwrap();
    }
    assert!(c.migration_in_flight().is_some(), "must still be migrating");
    c.db.topo_mut().set_node_down(target, true);
    c.run_until(at + gdb_simnet::SimDuration::from_secs(1));

    let (shard, reason) =
        c.db.last_migration_aborted()
            .expect("migration must abort")
            .clone();
    assert_eq!(shard, 0);
    assert!(
        reason.contains("target"),
        "abort reason names the target: {reason}"
    );
    assert!(c.migration_in_flight().is_none());
    // Ownership and routing are exactly as before the migration.
    assert_eq!(c.db.shards()[0].primary, source);
    assert_eq!(c.db.shards()[0].owner_epoch, 0);
    assert_eq!(c.db.routing_epoch(), 0);
    assert_eq!(c.db.stats().migrations_aborted, 1);
    assert_eq!(c.db.stats().migrations_completed, 0);

    // The source keeps serving reads and writes.
    let upd = c.prepare("UPDATE kv SET v = ? WHERE k = ?").unwrap();
    let key = by_shard[0][0];
    let at2 = c.now() + gdb_simnet::SimDuration::from_millis(5);
    c.run_transaction(0, at2, false, true, |txn| {
        txn.execute(&upd, &[Datum::Int(7), Datum::Int(key)])
            .map(|_| ())
    })
    .expect("source must keep accepting writes after an abort");
}

#[test]
fn balanced_load_keeps_the_controller_idle() {
    let (mut c, _) = setup();
    let mut controller = RebalanceController::new();
    // Uniform traffic over every key: nothing to do.
    let keys: Vec<i64> = (0..120).collect();
    read_window(&mut c, &keys, 240, t(310));
    assert!(controller.tick(&mut c).is_empty());
    assert_eq!(c.db.stats().migrations_started, 0);
    assert_eq!(c.db.routing_epoch(), 0);
}

/// Elastic scale-in: drain a host onto the rest of the cluster (plus a
/// freshly joined spare), watch its data nodes retire, and verify every
/// shard keeps serving.
#[test]
fn drain_host_empties_and_retires_it() {
    let (mut c, by_shard) = setup();
    let epoch_before = c.db.routing_epoch();
    c.db.join_data_node(RegionId(0), 3);
    let (primaries, replicas) = c.db.host_placements(RegionId(0), 2);
    let expected_moves = primaries.len() + replicas.len();
    assert!(expected_moves > 0, "host 2 must start populated");

    let started = drain_host(&mut c.db, &mut c.sim, RegionId(0), 2).unwrap();
    assert_eq!(started, expected_moves, "one drain plan moves everything");
    c.run_until(c.now() + gdb_simnet::SimDuration::from_secs(3));

    // The host emptied, its data nodes retired, and the drain list is
    // clean again.
    let (p_after, r_after) = c.db.host_placements(RegionId(0), 2);
    assert!(
        p_after.is_empty() && r_after.is_empty(),
        "host 2 must empty"
    );
    assert!(c.db.draining_hosts().is_empty());
    assert_eq!(c.db.last_host_retired(), Some((RegionId(0), 2)));
    assert_eq!(c.db.retired_hosts(), &[(RegionId(0), 2)]);
    // One batched plan, one routing-epoch bump (it moved >= 1 primary).
    assert_eq!(c.db.routing_epoch(), epoch_before + 1);
    assert_eq!(c.db.stats().migrations_completed as usize, expected_moves);
    assert_eq!(c.db.stats().migrations_aborted, 0);

    // Every shard still serves its keys after the shuffle.
    let sel = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    let mut at = c.now() + gdb_simnet::SimDuration::from_millis(5);
    for keys in &by_shard {
        let key = keys[0];
        at = at.max(c.now()) + gdb_simnet::SimDuration::from_millis(1);
        c.run_transaction(0, at, true, true, |txn| {
            let out = txn.execute(&sel, &[Datum::Int(key)])?;
            assert!(!out.rows().is_empty(), "drained shard must serve key {key}");
            Ok(())
        })
        .unwrap();
    }

    // A second drain of the same (now empty, retired) host is a no-op.
    let again = drain_host(&mut c.db, &mut c.sim, RegionId(0), 2).unwrap();
    assert_eq!(again, 0);
}

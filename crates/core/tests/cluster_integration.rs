//! End-to-end integration tests for the GlobalDB cluster: SQL over
//! sharded MVCC storage, asynchronous replication with RCP-consistent
//! replica reads, 2PC, online mode transitions, and failure handling.

use gdb_wal::record::decode_all;
use gdb_wal::RedoPayload;
use globaldb::{
    Cluster, ClusterConfig, Datum, GdbError, Geometry, ReplicationMode, SimDuration, SimTime,
    TmMode, TransitionDirection,
};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// A small cluster with the accounts table loaded.
fn cluster_with_accounts(config: ClusterConfig, rows: i64) -> Cluster {
    let mut c = Cluster::new(config);
    c.ddl(
        "CREATE TABLE accounts (id INT NOT NULL, region TEXT, balance DECIMAL, \
         PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)",
    )
    .unwrap();
    let table = c.db.catalog().table_by_name("accounts").unwrap().id;
    let data: Vec<gdb_model::Row> = (0..rows)
        .map(|i| {
            gdb_model::Row(vec![
                Datum::Int(i),
                Datum::Text(if i % 2 == 0 { "east" } else { "west" }.into()),
                Datum::Decimal(i * 100),
            ])
        })
        .collect();
    c.bulk_load(table, data).unwrap();
    c.finish_load();
    c
}

#[test]
fn sql_insert_read_roundtrip() {
    let mut c = cluster_with_accounts(ClusterConfig::globaldb_one_region(), 0);
    let (out, outcome) = c
        .execute_sql(
            0,
            t(10),
            "INSERT INTO accounts VALUES (?, ?, ?)",
            &[
                Datum::Int(1),
                Datum::Text("east".into()),
                Datum::Decimal(500),
            ],
        )
        .unwrap();
    assert_eq!(out.count(), 1);
    assert!(outcome.commit_ts.is_some());
    assert!(!outcome.latency.is_zero(), "commit costs latency");

    // A replica read at the RCP: after the RCP round at 50 ms.
    let (rows, _) = c
        .execute_sql(
            0,
            t(60),
            "SELECT balance FROM accounts WHERE id = ?",
            &[Datum::Int(1)],
        )
        .unwrap();
    assert_eq!(rows.rows()[0].0[0], Datum::Decimal(500));
}

#[test]
fn multi_statement_transaction_reads_own_writes() {
    let mut c = cluster_with_accounts(ClusterConfig::globaldb_one_region(), 10);
    let ins = c.prepare("INSERT INTO accounts VALUES (?, ?, ?)").unwrap();
    let sel = c
        .prepare("SELECT balance FROM accounts WHERE id = ?")
        .unwrap();
    let upd = c
        .prepare("UPDATE accounts SET balance = balance + ? WHERE id = ?")
        .unwrap();

    let ((), outcome) = c
        .run_transaction(0, t(10), false, false, |txn| {
            txn.execute(
                &ins,
                &[
                    Datum::Int(100),
                    Datum::Text("east".into()),
                    Datum::Decimal(10),
                ],
            )?;
            // Read our own uncommitted insert.
            let out = txn.execute(&sel, &[Datum::Int(100)])?;
            assert_eq!(out.rows()[0].0[0], Datum::Decimal(10));
            // Update it twice; accumulation must be visible.
            txn.execute(&upd, &[Datum::Decimal(5), Datum::Int(100)])?;
            txn.execute(&upd, &[Datum::Decimal(7), Datum::Int(100)])?;
            let out = txn.execute(&sel, &[Datum::Int(100)])?;
            assert_eq!(out.rows()[0].0[0], Datum::Decimal(22));
            Ok(())
        })
        .unwrap();
    assert!(!outcome.shards_written.is_empty());

    // Committed state visible to a later transaction.
    let (rows, _) = c
        .execute_sql(1, t(60), "SELECT balance FROM accounts WHERE id = 100", &[])
        .unwrap();
    assert_eq!(rows.rows()[0].0[0], Datum::Decimal(22));
}

#[test]
fn aborted_transaction_leaves_no_trace() {
    let mut c = cluster_with_accounts(ClusterConfig::globaldb_one_region(), 5);
    let ins = c.prepare("INSERT INTO accounts VALUES (?, ?, ?)").unwrap();
    let res: Result<((), _), _> = c.run_transaction(0, t(10), false, false, |txn| {
        txn.execute(
            &ins,
            &[Datum::Int(99), Datum::Text("x".into()), Datum::Decimal(1)],
        )?;
        Err(GdbError::TxnAborted("client rollback".into()))
    });
    assert!(res.is_err());
    let (rows, _) = c
        .execute_sql(0, t(50), "SELECT id FROM accounts WHERE id = 99", &[])
        .unwrap();
    assert!(rows.rows().is_empty());
    // A later insert of the same key succeeds (locks were released).
    c.execute_sql(0, t(60), "INSERT INTO accounts VALUES (99, 'y', 2)", &[])
        .unwrap();
}

#[test]
fn replication_reaches_replicas_and_rcp_advances() {
    let mut c = cluster_with_accounts(ClusterConfig::globaldb_one_region(), 4);
    let (_, outcome) = c
        .execute_sql(0, t(10), "INSERT INTO accounts VALUES (50, 'east', 1)", &[])
        .unwrap();
    let commit_ts = outcome.commit_ts.unwrap();

    // Give shipping + replay + RCP rounds time to settle.
    c.run_until(t(500));
    let table = c.db.catalog().table_by_name("accounts").unwrap().id;
    let schema = c.db.catalog().table(table).unwrap().clone();
    let key = gdb_model::RowKey::single(50i64);
    let shard = schema.shard_of_key(&key, c.db.shards().len() as u16).0 as usize;
    for replica in &c.db.shards()[shard].replicas {
        assert!(
            replica.applier.max_commit_ts() >= commit_ts,
            "replica not caught up"
        );
    }
    // The RCP visible at every CN covers the commit.
    for cn in 0..3 {
        assert!(c.db.cn_rcp(cn) >= commit_ts, "cn {cn} rcp behind");
    }
}

/// A row image is shared, not copied: after a single-row UPDATE of a
/// numeric column commits and replays, each text datum of the new primary
/// version is the very string the previous version held, and so is that
/// datum in every replica's replayed version.
#[test]
fn update_shares_unchanged_text_with_old_version_and_replicas() {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(42));
    c.ddl(
        "CREATE TABLE sb (id INT NOT NULL, k INT, c TEXT, pad TEXT, \
         PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)",
    )
    .unwrap();
    c.execute_sql(0, t(10), "INSERT INTO sb VALUES (7, 0, 'c-7', 'pad')", &[])
        .unwrap();
    c.run_until(t(500));
    let table = c.db.catalog().table_by_name("sb").unwrap().id;
    let key = gdb_model::RowKey::single(7i64);
    let shards = c.db.shards().len() as u16;
    let shard =
        c.db.catalog()
            .table(table)
            .unwrap()
            .shard_of_pk(&key, shards)
            .0 as usize;
    let texts = |row: &gdb_model::Row| -> Vec<std::sync::Arc<str>> {
        let text = |d: &Datum| match d {
            Datum::Text(s) => Some(s.clone()),
            _ => None,
        };
        row.0.iter().filter_map(text).collect()
    };
    let old = c.db.shards()[shard]
        .storage
        .table(table)
        .unwrap()
        .read_newest(&key);
    let old = texts(old.unwrap().row);
    assert_eq!(old.len(), 2);

    let (_, outcome) = c
        .execute_sql(0, t(600), "UPDATE sb SET k = k + 1 WHERE id = 7", &[])
        .unwrap();
    let commit_ts = outcome.commit_ts.unwrap();
    c.run_until(t(1_500));
    let owner = &c.db.shards()[shard];
    let copies: Vec<_> = std::iter::once(&owner.storage)
        .chain(owner.replicas.iter().map(|r| &r.applier.storage))
        .collect();
    assert_eq!(copies.len(), 3, "a primary and two replicas");
    for (i, storage) in copies.into_iter().enumerate() {
        let new = storage.table(table).unwrap().read(&key, commit_ts).unwrap();
        assert_eq!(new.commit_ts, commit_ts, "copy {i} holds the update");
        assert_eq!(new.row.0[1], Datum::Int(1));
        let shared = texts(new.row)
            .iter()
            .zip(&old)
            .all(|(n, o)| std::sync::Arc::ptr_eq(n, o));
        assert!(
            shared,
            "copy {i} holds its own text, not the previous version's"
        );
    }
}

#[test]
fn ror_reads_hit_replicas_with_rcp_snapshot() {
    let mut c = cluster_with_accounts(ClusterConfig::globaldb_one_region(), 20);
    c.run_until(t(200)); // let the load + heartbeats settle into an RCP
    let sel = c
        .prepare("SELECT balance FROM accounts WHERE id = ?")
        .unwrap();
    let ((), outcome) = c
        .run_transaction(1, t(210), true, true, |txn| {
            assert!(txn.is_ror(), "read-only txn should use ROR");
            let out = txn.execute(&sel, &[Datum::Int(3)])?;
            assert_eq!(out.rows()[0].0[0], Datum::Decimal(300));
            Ok(())
        })
        .unwrap();
    assert!(outcome.used_replica, "read must be served by a replica");
    assert!(c.db.stats().reads_on_replica > 0);
}

#[test]
fn ror_respects_freshness_of_rcp_snapshot() {
    // A write committed but not yet replicated is invisible to ROR reads
    // (bounded staleness), then becomes visible once the RCP catches up.
    let mut c = cluster_with_accounts(ClusterConfig::globaldb_one_region(), 10);
    c.run_until(t(200));
    c.execute_sql(
        0,
        t(210),
        "UPDATE accounts SET balance = 7777 WHERE id = 2",
        &[],
    )
    .unwrap();
    let sel = c
        .prepare("SELECT balance FROM accounts WHERE id = ?")
        .unwrap();
    // Immediately after: ROR snapshot (RCP) predates the update.
    let ((), o1) = c
        .run_transaction(1, t(212), true, true, |txn| {
            let out = txn.execute(&sel, &[Datum::Int(2)])?;
            let _: () = assert_eq!(out.rows()[0].0[0], Datum::Decimal(200));
            Ok(())
        })
        .unwrap();
    // Later: the RCP passed the commit; the new value is visible.
    let ((), o2) = c
        .run_transaction(1, t(600), true, true, |txn| {
            let out = txn.execute(&sel, &[Datum::Int(2)])?;
            let _: () = assert_eq!(out.rows()[0].0[0], Datum::Decimal(7777));
            Ok(())
        })
        .unwrap();
    assert!(o2.snapshot > o1.snapshot, "RCP advanced monotonically");
}

#[test]
fn multi_shard_transactions_use_2pc_and_cost_more() {
    let mut c = cluster_with_accounts(ClusterConfig::globaldb_one_region(), 100);
    // Find two ids on different shards.
    let table = c.db.catalog().table_by_name("accounts").unwrap().id;
    let schema = c.db.catalog().table(table).unwrap().clone();
    let shard_of = |i: i64| schema.shard_of_key(&gdb_model::RowKey::single(i), 6).0;
    let a = 1i64;
    let b = (2..100).find(|&i| shard_of(i) != shard_of(a)).unwrap();

    let upd = c
        .prepare("UPDATE accounts SET balance = balance + 1 WHERE id = ?")
        .unwrap();
    // Single-shard write.
    let ((), o1) = c
        .run_transaction(0, t(10), false, false, |txn| {
            txn.execute(&upd, &[Datum::Int(a)])?;
            Ok(())
        })
        .unwrap();
    assert_eq!(o1.shards_written.len(), 1);
    // Cross-shard write: 2PC.
    let ((), o2) = c
        .run_transaction(0, t(100), false, false, |txn| {
            txn.execute(&upd, &[Datum::Int(a)])?;
            txn.execute(&upd, &[Datum::Int(b)])?;
            Ok(())
        })
        .unwrap();
    assert_eq!(o2.shards_written.len(), 2);
    assert!(
        o2.latency > o1.latency,
        "2PC must cost more: {} vs {}",
        o2.latency,
        o1.latency
    );
}

#[test]
fn lock_conflicts_serialize_hot_row_updates() {
    let mut c = cluster_with_accounts(ClusterConfig::globaldb_one_region(), 5);
    let upd = c
        .prepare("UPDATE accounts SET balance = balance + 1 WHERE id = 0")
        .unwrap();
    // Two transactions updating the same row at overlapping times.
    let ((), o1) = c
        .run_transaction(0, t(10), false, false, |txn| {
            txn.execute(&upd, &[])?;
            Ok(())
        })
        .unwrap();
    // Second starts before the first's commit applies.
    let start2 = t(10) + SimDuration::from_micros(100);
    let ((), o2) = c
        .run_transaction(1, start2, false, false, |txn| {
            txn.execute(&upd, &[])?;
            Ok(())
        })
        .unwrap();
    assert!(
        c.db.stats().lock_waits > 0,
        "second txn must wait for the lock"
    );
    assert!(o2.completed_at > o1.completed_at);
    // Both increments applied.
    let (rows, _) = c
        .execute_sql(2, t(500), "SELECT balance FROM accounts WHERE id = 0", &[])
        .unwrap();
    assert_eq!(rows.rows()[0].0[0], Datum::Decimal(2));
}

/// GClock external consistency (§III) across skewed clocks: every
/// transaction that starts after a commit is acknowledged takes a snapshot
/// at or above its timestamp. Clock sync is cut off on CN 0 (drifting
/// −100 PPM) for 5 s and on CN 5 (+85 PPM) for the last 3 s, so their
/// readings stray ≈ −0.5 and +0.25 ms from true time while their error
/// bounds grow to ≈ 1.06 and 0.66 ms. CN 5 commits; right at its ack
/// CN 1 (synced) begins a multi-shard transaction and CN 0 a single-shard
/// one. A commit wait that ends when CN 5's own reading passes the
/// timestamp, not its lower bound, acks while the timestamp is still
/// ≈ 0.25 ms ahead of true time and above CN 1's snapshot; a single-shard
/// snapshot at `T_clock` instead of `T_clock + T_err` puts CN 0's
/// ≈ 0.5 ms below true time.
#[test]
fn snapshots_begun_at_an_ack_cover_it_across_skewed_clocks() {
    let mut config = ClusterConfig::globaldb_one_region();
    config.cn_count = 6;
    let mut c = cluster_with_accounts(config, 10);
    c.db.block_clock_sync(0);
    // A transaction syncs its CN's clock as it begins.
    c.run_transaction(5, t(2_000), false, false, |_| Ok(()))
        .unwrap();
    c.db.block_clock_sync(5);
    let (_, write) = c
        .execute_sql(
            5,
            t(5_000),
            "UPDATE accounts SET balance = 7 WHERE id = 1",
            &[],
        )
        .unwrap();
    let committed = write.commit_ts.expect("a write commits");
    let ack = write.completed_at;
    for (cn, single_shard) in [(1, false), (0, true)] {
        let (_, begun) = c
            .run_transaction(cn, ack, false, single_shard, |_| Ok(()))
            .unwrap();
        assert!(
            begun.snapshot >= committed,
            "CN {cn} (single-shard {single_shard}) began at the ack {ack} with \
             snapshot {} below the commit at {committed}",
            begun.snapshot
        );
    }
}

/// Heartbeats and DDL stamp through the commit path (§III, §IV-A): a
/// record that moves replicas' max commit ts is staged only once its
/// timestamp has passed on every clock, so every transaction whose
/// PENDING_COMMIT is staged after it commits above it. CN 0, which drives
/// both, has clock sync cut for 5 s: its error bound grows to ≈ 1.06 ms
/// and what it stamps runs ≈ 0.5 ms ahead of true time. Synced CN 1
/// commits a single-shard write 1 µs after a heartbeat and another right
/// after a DDL. A record staged at its stamping instant puts each write's
/// PENDING_COMMIT behind it and its commit below it: replicas' max commit
/// ts, and the RCP with it, would pass a write they have not seen.
#[test]
fn writes_staged_after_a_heartbeat_or_ddl_commit_above_it() {
    let mut config = ClusterConfig::globaldb_one_region();
    config.cn_count = 6;
    let mut c = cluster_with_accounts(config, 10);
    c.db.block_clock_sync(0);
    let update = "UPDATE accounts SET balance = balance + 1 WHERE id = 1";
    // Heartbeats fire every 10 ms, one of them at 5 s.
    c.execute_sql(1, t(5_000) + SimDuration::from_micros(1), update, &[])
        .unwrap();
    c.ddl("CREATE INDEX acc_by_region ON accounts (region)")
        .unwrap();
    let now = c.now();
    c.execute_sql(1, now, update, &[]).unwrap();
    let now = c.now();
    c.run_until(now + SimDuration::from_millis(50));

    let mut checked = 0;
    for (s, shard) in c.db.shards().iter().enumerate() {
        // The durable segment keeps every record; vacuum trims the
        // shipping buffer.
        let records =
            decode_all(shard.log.durable().segment()).unwrap_or_else(|e| panic!("shard {s}: {e}"));
        let commit_ts = |txn| {
            records.iter().find_map(|r| match r.payload {
                RedoPayload::Commit { commit_ts } | RedoPayload::CommitPrepared { commit_ts }
                    if r.txn == txn =>
                {
                    Some(commit_ts)
                }
                _ => None,
            })
        };
        let mut barrier = None;
        for r in &records {
            match &r.payload {
                RedoPayload::Heartbeat { commit_ts } | RedoPayload::Ddl { commit_ts, .. } => {
                    barrier = barrier.max(Some(*commit_ts));
                }
                RedoPayload::PendingCommit => {
                    let (Some(barrier), Some(ts)) = (barrier, commit_ts(r.txn)) else {
                        continue;
                    };
                    assert!(
                        ts > barrier,
                        "shard {s}: {:?} staged its PENDING_COMMIT after a heartbeat or \
                         DDL at {barrier} and committed below it, at {ts}",
                        r.txn
                    );
                    checked += 1;
                }
                _ => {}
            }
        }
    }
    assert_eq!(checked, 2, "both writes are checked");
}

#[test]
fn gclock_mode_avoids_gtm_roundtrip_under_injected_delay() {
    // With 50 ms injected inter-host delay, GTM-mode commits pay the GTM
    // round trips; GClock commits only pay the (local) shard round trip
    // plus the microsecond-scale commit wait. Run from CN 1 (not
    // co-located with the GTM).
    let mk = |mode: TmMode| {
        let mut cfg = ClusterConfig::baseline_one_region();
        cfg.geometry = Geometry::OneRegion {
            injected_delay: SimDuration::from_millis(50),
        };
        cfg.tm_mode = mode;
        cfg.replication = ReplicationMode::Async;
        cluster_with_accounts(cfg, 10)
    };
    let run = |c: &mut Cluster| {
        let (_, o) = c
            .execute_sql(
                1,
                t(10),
                "UPDATE accounts SET balance = 1 WHERE id = 1",
                &[],
            )
            .unwrap();
        o.latency
    };
    let mut gtm = mk(TmMode::Gtm);
    let mut gclock = mk(TmMode::GClock);
    let l_gtm = run(&mut gtm);
    let l_gclock = run(&mut gclock);
    assert!(
        l_gtm.as_millis() >= l_gclock.as_millis() + 100,
        "GTM {} vs GClock {}",
        l_gtm,
        l_gclock
    );
}

#[test]
fn sync_remote_quorum_pays_wan_latency_async_does_not() {
    let mk = |repl: ReplicationMode| {
        let mut cfg = ClusterConfig::globaldb_three_city();
        cfg.replication = repl;
        cluster_with_accounts(cfg, 10)
    };
    let run = |c: &mut Cluster| {
        let (_, o) = c
            .execute_sql(
                0,
                t(10),
                "UPDATE accounts SET balance = 1 WHERE id = 1",
                &[],
            )
            .unwrap();
        o.latency
    };
    let mut sync = mk(ReplicationMode::SyncRemoteQuorum { quorum: 1 });
    let mut async_ = mk(ReplicationMode::Async);
    let l_sync = run(&mut sync);
    let l_async = run(&mut async_);
    assert!(
        l_sync.as_millis() >= l_async.as_millis() + 10,
        "sync {} vs async {}",
        l_sync,
        l_async
    );
}

#[test]
fn online_transition_gtm_to_gclock_without_downtime() {
    let mut cfg = ClusterConfig::globaldb_one_region();
    cfg.tm_mode = TmMode::Gtm;
    let mut c = cluster_with_accounts(cfg, 50);
    assert_eq!(c.db.cn_mode(0), TmMode::Gtm);

    let upd = c
        .prepare("UPDATE accounts SET balance = balance + 1 WHERE id = ?")
        .unwrap();
    // Keep writing while the transition runs.
    c.run_until(t(100));
    c.start_transition(TransitionDirection::ToGClock);
    let mut committed = 0;
    for i in 0..40u64 {
        let at = t(100) + SimDuration::from_millis(i * 2);
        if c.run_transaction((i % 3) as usize, at, false, false, |txn| {
            txn.execute(&upd, &[Datum::Int((i % 50) as i64)])
                .map(|_| ())
        })
        .is_ok()
        {
            committed += 1;
        }
    }
    c.run_until(t(2000));
    assert_eq!(
        c.db.last_transition_completed(),
        Some(TransitionDirection::ToGClock)
    );
    for cn in 0..3 {
        assert_eq!(c.db.cn_mode(cn), TmMode::GClock);
    }
    assert_eq!(c.db.gtm().mode(), TmMode::GClock);
    // Zero downtime: every transaction issued during the transition
    // committed (none were rejected; at most stragglers abort, and these
    // all ran to completion within events).
    assert_eq!(committed, 40);

    // And writes work in the new mode.
    c.execute_sql(
        0,
        t(2100),
        "UPDATE accounts SET balance = 0 WHERE id = 1",
        &[],
    )
    .unwrap();
}

#[test]
fn online_transition_back_to_gtm_after_clock_failure() {
    let mut c = cluster_with_accounts(ClusterConfig::globaldb_one_region(), 20);
    assert_eq!(c.db.cn_mode(0), TmMode::GClock);
    c.run_until(t(100));
    // Some GClock commits happen first.
    c.execute_sql(
        0,
        t(110),
        "UPDATE accounts SET balance = 5 WHERE id = 3",
        &[],
    )
    .unwrap();
    // Clock trouble: fall back to GTM (Fig. 3).
    c.start_transition(TransitionDirection::ToGtm);
    c.run_until(t(1500));
    assert_eq!(
        c.db.last_transition_completed(),
        Some(TransitionDirection::ToGtm)
    );
    assert_eq!(c.db.gtm().mode(), TmMode::Gtm);
    // New GTM timestamps exceed all previous GClock timestamps: a new
    // write is visible to a subsequent read.
    let (_, o) = c
        .execute_sql(
            1,
            t(1600),
            "UPDATE accounts SET balance = 6 WHERE id = 3",
            &[],
        )
        .unwrap();
    let commit = o.commit_ts.unwrap();
    let (rows, o2) = c
        .execute_sql(2, t(1700), "SELECT balance FROM accounts WHERE id = 3", &[])
        .unwrap();
    assert!(o2.snapshot >= commit);
    assert_eq!(rows.rows()[0].0[0], Datum::Decimal(6));
}

#[test]
fn replicated_table_writes_fan_out_reads_stay_local() {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city());
    c.ddl(
        "CREATE TABLE item (i_id INT NOT NULL, i_name TEXT, PRIMARY KEY (i_id)) \
         DISTRIBUTE BY REPLICATION",
    )
    .unwrap();
    let (_, o) = c
        .execute_sql(0, t(10), "INSERT INTO item VALUES (1, 'widget')", &[])
        .unwrap();
    // A replicated-table write touches every shard.
    assert_eq!(o.shards_written.len(), c.db.shards().len());
    // Readable from every CN.
    for cn in 0..3 {
        let (rows, _) = c
            .execute_sql(
                cn,
                t(200 + cn as u64 * 10),
                "SELECT i_name FROM item WHERE i_id = 1",
                &[],
            )
            .unwrap();
        assert_eq!(rows.rows()[0].0[0], Datum::Text("widget".into()));
    }
}

#[test]
fn heartbeats_advance_rcp_without_writes() {
    let mut c = cluster_with_accounts(ClusterConfig::globaldb_one_region(), 2);
    c.run_until(t(300));
    let rcp1 = c.db.cn_rcp(0);
    c.run_until(t(800));
    let rcp2 = c.db.cn_rcp(0);
    assert!(
        rcp2 > rcp1,
        "idle cluster RCP must advance via heartbeats: {rcp1:?} vs {rcp2:?}"
    );
    assert!(c.db.stats().heartbeats_sent > 10);
}

#[test]
fn replica_down_falls_back_to_primary() {
    let mut c = cluster_with_accounts(ClusterConfig::globaldb_one_region(), 20);
    c.run_until(t(300));
    // Kill every replica of every shard.
    let replica_nodes: Vec<_> =
        c.db.shards()
            .iter()
            .flat_map(|s| s.replicas.iter().map(|r| r.node))
            .collect();
    for n in replica_nodes {
        c.db.topo_mut().set_node_down(n, true);
    }
    let sel = c
        .prepare("SELECT balance FROM accounts WHERE id = ?")
        .unwrap();
    let ((), outcome) = c
        .run_transaction(0, t(310), true, true, |txn| {
            let out = txn.execute(&sel, &[Datum::Int(4)])?;
            let _: () = assert_eq!(out.rows()[0].0[0], Datum::Decimal(400));
            Ok(())
        })
        .unwrap();
    assert!(!outcome.used_replica, "must fall back to primary");
}

/// A DDL statement runs on the CN it was issued from: it fails while that
/// CN is down, and through a live CN it reports its commit like any write.
/// `Cluster::ddl` names no CN and runs on the first one that is up.
#[test]
fn ddl_runs_on_the_cn_it_was_issued_from() {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city());
    c.db.crash_cn(0);
    let sql = "CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)";
    let err = c.execute_sql(0, t(10), sql, &[]).unwrap_err();
    assert!(matches!(err, GdbError::NodeUnavailable(_)), "{err:?}");
    assert!(c.db.catalog().table_by_name("t").is_err());
    let (_, o) = c.execute_sql(1, t(20), sql, &[]).unwrap();
    assert!(o.commit_ts.is_some());
    assert!(!o.latency.is_zero(), "a DDL commit waits like any commit");
    assert_eq!(o.completed_at, c.now());
    assert!(c.db.catalog().table_by_name("t").is_ok());
    c.ddl("CREATE INDEX t_by_v ON t (v)").unwrap();
}

/// A catalog's tables (id, name) and indexes (id, name, table, columns),
/// in id order.
type Layout = (
    Vec<(gdb_model::TableId, String)>,
    Vec<(gdb_model::IndexId, String, gdb_model::TableId, Vec<usize>)>,
);

fn layout(catalog: &gdb_storage::Catalog) -> Layout {
    let mut tables: Vec<_> = catalog.tables().map(|t| (t.id, t.name.clone())).collect();
    tables.sort();
    let indexes = tables
        .iter()
        .flat_map(|&(id, _)| catalog.indexes_on(id))
        .map(|ix| (ix.id, ix.name.clone(), ix.table, ix.columns.clone()))
        .collect();
    (tables, indexes)
}

/// Each DDL kind leaves the CN catalog, every primary and, once the
/// stream has flushed and replayed, every replica with the same tables
/// and indexes.
#[test]
fn every_node_agrees_after_each_ddl_kind() {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city());
    for sql in [
        "CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)",
        "CREATE TABLE u (k INT NOT NULL, v TEXT, PRIMARY KEY (k)) DISTRIBUTE BY REPLICATION",
        "CREATE INDEX t_by_v ON t (v)",
        "CREATE INDEX t_by_vk ON t (v, k)",
        "CREATE INDEX u_by_v ON u (v)",
        "DROP INDEX t_by_v",
        "DROP TABLE u",
    ] {
        c.ddl(sql).unwrap();
        c.run_until(c.now() + SimDuration::from_millis(500));
        let want = layout(c.db.catalog());
        let mut replicas = 0;
        for (s, shard) in c.db.shards().iter().enumerate() {
            assert_eq!(layout(shard.storage.catalog()), want, "{sql}: primary {s}");
            for (r, replica) in shard.replicas.iter().enumerate() {
                let got = layout(replica.applier.storage.catalog());
                assert_eq!(got, want, "{sql}: shard {s} replica {r}");
                replicas += 1;
            }
        }
        assert!(replicas > 0);
    }
    // What is left: table t and its index over (v, k).
    let (tables, indexes) = layout(c.db.catalog());
    let t_id = tables[0].0;
    assert_eq!(tables, [(t_id, "t".to_string())]);
    assert_eq!(
        indexes,
        [(indexes[0].0, "t_by_vk".to_string(), t_id, vec![1, 0])]
    );
}

#[test]
fn ddl_gates_ror_until_replicas_catch_up() {
    let mut c = cluster_with_accounts(ClusterConfig::globaldb_one_region(), 10);
    c.run_until(t(300));
    // A fresh DDL on the accounts table.
    c.run_until(t(310));
    c.ddl("CREATE INDEX acc_by_region ON accounts (region)")
        .unwrap();
    let sel = c
        .prepare("SELECT balance FROM accounts WHERE id = ?")
        .unwrap();
    // Immediately after the DDL: RCP has not passed the DDL timestamp, so
    // ROR falls back (condition check fails) to a fresh primary snapshot
    // above the RCP it began at, and not for a blocked replica read.
    c.run_until(t(311));
    let rcp = c.db.cn_rcp(1);
    let blocked = c.db.stats().replica_blocked_fallbacks;
    let ((), o) = c
        .run_transaction(1, t(311), true, true, |txn| {
            txn.execute(&sel, &[Datum::Int(1)]).map(|_| ())
        })
        .unwrap();
    assert!(o.snapshot > rcp, "snapshot {:?} rcp {rcp:?}", o.snapshot);
    assert_eq!(c.db.stats().replica_blocked_fallbacks, blocked);
    assert!(!o.used_replica);
    // Much later the DDL has replayed everywhere; ROR works again. Pick an
    // id whose shard primary is NOT co-hosted with CN 1 (otherwise the
    // skyline correctly prefers the local primary).
    c.run_until(t(1000));
    let table = c.db.catalog().table_by_name("accounts").unwrap().id;
    let schema = c.db.catalog().table(table).unwrap().clone();
    let cn1_host = c.db.topo().node_host(c.db.cns()[1].node);
    let id = (0..10i64)
        .find(|&i| {
            let s = schema
                .shard_of_key(&gdb_model::RowKey::single(i), c.db.shards().len() as u16)
                .0 as usize;
            c.db.topo().node_host(c.db.shards()[s].primary) != cn1_host
        })
        .expect("some id on a non-local shard");
    let ((), o2) = c
        .run_transaction(1, t(1001), true, true, |txn| {
            txn.execute(&sel, &[Datum::Int(id)]).map(|_| ())
        })
        .unwrap();
    assert!(o2.used_replica);
}

#[test]
fn deterministic_under_same_seed() {
    let run = || {
        let mut c = cluster_with_accounts(ClusterConfig::globaldb_three_city(), 30);
        let upd = c
            .prepare("UPDATE accounts SET balance = balance + 1 WHERE id = ?")
            .unwrap();
        let mut latencies = Vec::new();
        for i in 0..10u64 {
            let ((), o) = c
                .run_transaction((i % 3) as usize, t(10 + i * 20), false, false, |txn| {
                    txn.execute(&upd, &[Datum::Int((i % 30) as i64)])
                        .map(|_| ())
                })
                .unwrap();
            latencies.push(o.latency);
        }
        latencies
    };
    assert_eq!(run(), run(), "same seed ⇒ identical execution");
}

/// A key range whose bounds cross (`lo > hi`) reads no rows on every
/// path — replica or primary, and merged with the transaction's own
/// writes — instead of panicking in the storage B-tree.
#[test]
fn inverted_key_range_returns_no_rows() {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city());
    c.ddl(
        "CREATE TABLE t (a INT NOT NULL, b INT NOT NULL, PRIMARY KEY (a, b)) \
         DISTRIBUTE BY HASH(a)",
    )
    .unwrap();
    c.execute_sql(0, t(10), "INSERT INTO t VALUES (1, 2), (1, 3), (1, 4)", &[])
        .unwrap();
    let queries = [
        c.prepare("SELECT b FROM t WHERE a = 1 AND b BETWEEN 4 AND 2")
            .unwrap(),
        c.prepare("SELECT b FROM t WHERE a = 1 AND b >= 4 AND b <= 2")
            .unwrap(),
    ];
    for (cn, q) in queries.iter().enumerate() {
        let (rows, _) = c.execute_prepared(cn, t(1_000), q, &[]).unwrap();
        assert_eq!(rows.rows(), vec![], "{}", q.sql);
    }
    let insert = c.prepare("INSERT INTO t VALUES (1, 5)").unwrap();
    c.run_transaction(0, t(1_200), false, false, |txn| {
        txn.execute(&insert, &[])?;
        for q in &queries {
            assert_eq!(txn.execute(q, &[])?.rows(), vec![], "{}", q.sql);
        }
        Ok(())
    })
    .unwrap();
}

/// A primary-key prefix reads every row that extends it, whatever its
/// later key columns hold: a text column sorting above any fixed
/// "+∞" stand-in too — on the replica path, through the transaction's
/// own writes, and under `COUNT(*)`.
#[test]
fn prefix_range_reads_keys_with_high_text_columns() {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city());
    c.ddl(
        "CREATE TABLE t (a INT NOT NULL, b TEXT NOT NULL, v INT, PRIMARY KEY (a, b)) \
         DISTRIBUTE BY HASH(a)",
    )
    .unwrap();
    let high = "\u{10FFFF}".repeat(4) + "z";
    let insert = c.prepare("INSERT INTO t VALUES (1, ?, ?)").unwrap();
    for (b, v) in [("x", 1), (high.as_str(), 2)] {
        c.execute_prepared(0, t(10), &insert, &[Datum::Text(b.into()), Datum::Int(v)])
            .unwrap();
    }
    let select = c.prepare("SELECT v FROM t WHERE a = 1").unwrap();
    let count = c.prepare("SELECT COUNT(*) FROM t WHERE a = 1").unwrap();
    let ints = |rows: Vec<gdb_model::Row>| -> Vec<Datum> {
        rows.into_iter().map(|r| r.0[0].clone()).collect()
    };
    c.run_until(t(1_000));
    let mut on_replica = false;
    for cn in 0..3 {
        let ((), outcome) = c
            .run_transaction(cn, t(1_000 + cn as u64), true, true, |txn| {
                let rows = txn.execute(&select, &[])?.rows();
                assert_eq!(ints(rows), vec![Datum::Int(1), Datum::Int(2)]);
                assert_eq!(txn.execute(&count, &[])?.scalar_int(), Some(2));
                Ok(())
            })
            .unwrap();
        on_replica |= outcome.used_replica;
    }
    assert!(on_replica, "a read ran on a replica");
    let higher = "\u{10FFFF}".repeat(5);
    c.run_transaction(0, t(1_200), false, false, |txn| {
        txn.execute(
            &insert,
            &[Datum::Text(higher.as_str().into()), Datum::Int(3)],
        )?;
        let rows = txn.execute(&select, &[])?.rows();
        assert_eq!(
            ints(rows),
            vec![Datum::Int(1), Datum::Int(2), Datum::Int(3)]
        );
        assert_eq!(txn.execute(&count, &[])?.scalar_int(), Some(3));
        Ok(())
    })
    .unwrap();
}

/// A transaction's own writes, staged once in its write set and found
/// through the overlay's index into it, read back on every path: a row
/// updated twice, one deleted and re-inserted, one moved out of an index
/// prefix, and inserts before, inside and after a scanned range. After
/// the commit the primary and both replicas of each shard hold the same
/// versions.
#[test]
fn own_writes_read_back_on_every_path_and_replicate() {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city());
    c.ddl(
        "CREATE TABLE t (w INT NOT NULL, id INT NOT NULL, tag TEXT, v INT, \
         PRIMARY KEY (w, id)) DISTRIBUTE BY HASH(w)",
    )
    .unwrap();
    c.ddl("CREATE INDEX t_by_tag ON t (w, tag)").unwrap();
    let table = c.db.catalog().table_by_name("t").unwrap().id;
    let rows = [2, 4, 6, 8]
        .into_iter()
        .map(|id| {
            gdb_model::Row(vec![
                Datum::Int(1),
                Datum::Int(id),
                Datum::Text("a".into()),
                Datum::Int(id * 10),
            ])
        })
        .collect();
    c.bulk_load(table, rows).unwrap();
    c.finish_load();
    let stmt = |c: &Cluster, sql: &str| c.prepare(sql).unwrap();
    let add = stmt(&c, "UPDATE t SET v = v + ? WHERE w = 1 AND id = ?");
    let retag = stmt(&c, "UPDATE t SET tag = ? WHERE w = 1 AND id = ?");
    let delete = stmt(&c, "DELETE FROM t WHERE w = 1 AND id = ?");
    let insert = stmt(&c, "INSERT INTO t VALUES (1, ?, ?, ?)");
    let point = stmt(&c, "SELECT v FROM t WHERE w = 1 AND id = ?");
    let locked = stmt(&c, "SELECT v FROM t WHERE w = 1 AND id = ? FOR UPDATE");
    let range = stmt(&c, "SELECT id, v FROM t WHERE w = 1");
    let bounded = stmt(&c, "SELECT id FROM t WHERE w = 1 AND id BETWEEN 3 AND 7");
    let by_tag = stmt(&c, "SELECT id FROM t WHERE w = 1 AND tag = ?");
    let sum = stmt(&c, "SELECT SUM(v) FROM t WHERE w = 1");
    let int = Datum::Int;
    let text = |s: &str| Datum::Text(s.into());
    let pairs =
        |rows: Vec<gdb_model::Row>| -> Vec<Vec<Datum>> { rows.into_iter().map(|r| r.0).collect() };
    c.run_transaction(0, t(100), false, false, |txn| {
        txn.execute(&add, &[int(1), int(2)])?;
        txn.execute(&add, &[int(2), int(2)])?;
        txn.execute(&delete, &[int(4)])?;
        txn.execute(&insert, &[int(4), text("b"), int(44)])?;
        txn.execute(&retag, &[text("c"), int(6)])?;
        for (id, tag) in [(1, "a"), (5, "a"), (9, "b")] {
            txn.execute(&insert, &[int(id), text(tag), int(id * 10)])?;
        }
        txn.execute(&delete, &[int(8)])?;
        assert_eq!(
            pairs(txn.execute(&point, &[int(2)])?.rows()),
            vec![vec![int(23)]]
        );
        assert_eq!(
            pairs(txn.execute(&point, &[int(8)])?.rows()),
            Vec::<Vec<Datum>>::new()
        );
        assert_eq!(
            pairs(txn.execute(&locked, &[int(4)])?.rows()),
            vec![vec![int(44)]]
        );
        assert_eq!(
            pairs(txn.execute(&range, &[])?.rows()),
            [(1, 10), (2, 23), (4, 44), (5, 50), (6, 60), (9, 90)]
                .map(|(id, v)| vec![int(id), int(v)])
        );
        assert_eq!(
            pairs(txn.execute(&bounded, &[])?.rows()),
            [4, 5, 6].map(|id| vec![int(id)])
        );
        assert_eq!(
            pairs(txn.execute(&by_tag, &[text("a")])?.rows()),
            [1, 2, 5].map(|id| vec![int(id)])
        );
        assert_eq!(
            pairs(txn.execute(&by_tag, &[text("b")])?.rows()),
            [4, 9].map(|id| vec![int(id)])
        );
        assert_eq!(txn.execute(&sum, &[])?.scalar_int(), Some(277));
        Ok(())
    })
    .unwrap();
    let (rows, _) = c.execute_prepared(1, t(2_000), &range, &[]).unwrap();
    assert_eq!(rows.rows().len(), 6, "committed");
    c.run_until(t(3_000));
    let at = gdb_model::Timestamp::MAX;
    for shard in c.db.shards_mut() {
        let versions = |storage: &mut gdb_storage::DataNodeStorage| -> Vec<_> {
            storage
                .scan(table, at)
                .unwrap()
                .map(|v| (v.key.clone(), v.row.clone(), v.commit_ts))
                .collect()
        };
        let primary = versions(&mut shard.storage);
        for replica in &mut shard.replicas {
            assert_eq!(versions(&mut replica.applier.storage), primary);
        }
    }
}

/// Index entries every node of `shard` has written: the primary's, then
/// each replica's.
fn index_writes(c: &Cluster, shard: usize) -> Vec<u64> {
    let s = &c.db.shards()[shard];
    let replicas = s.replicas.iter().map(|r| &r.applier.storage);
    std::iter::once(&s.storage)
        .chain(replicas)
        .map(|st| st.index_writes)
        .collect()
}

/// An index entry is written only where the indexed columns change: a
/// Payment-shaped customer UPDATE (balance only) writes no entry of
/// `cust_by_last` on the primary or on either replica, and the lookup
/// still finds the row at its new version; a `c_last` change writes
/// exactly one on each node, and the old name no longer finds the row.
#[test]
fn index_entries_are_written_only_where_indexed_columns_change() {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(5));
    c.ddl(
        "CREATE TABLE customer (c_w_id INT NOT NULL, c_d_id INT NOT NULL, c_id INT NOT NULL, \
         c_last TEXT, c_balance DECIMAL, PRIMARY KEY (c_w_id, c_d_id, c_id)) \
         DISTRIBUTE BY HASH(c_w_id)",
    )
    .unwrap();
    c.ddl("CREATE INDEX cust_by_last ON customer (c_w_id, c_d_id, c_last)")
        .unwrap();
    let schema = c.db.catalog().table_by_name("customer").unwrap().clone();
    let rows = (1..=20)
        .map(|id| {
            let last = ["ABLE", "BAR", "CALLY"][id as usize % 3];
            gdb_model::Row(vec![
                Datum::Int(1),
                Datum::Int(1),
                Datum::Int(id),
                Datum::Text(last.into()),
                Datum::Decimal(0),
            ])
        })
        .collect();
    c.bulk_load(schema.id, rows).unwrap();
    c.finish_load();
    let key = gdb_model::RowKey::new(vec![Datum::Int(1), Datum::Int(1), Datum::Int(7)]);
    let shard = schema.shard_of_pk(&key, c.db.shards().len() as u16).0 as usize;
    let loaded = index_writes(&c, shard);
    assert_eq!(loaded.len(), 3, "a primary and two replicas");

    let pay = c
        .prepare(
            "UPDATE customer SET c_balance = c_balance - ? \
             WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
        )
        .unwrap();
    let rename = c
        .prepare("UPDATE customer SET c_last = ? WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?")
        .unwrap();
    let by_last = c
        .prepare(
            "SELECT c_id, c_balance FROM customer \
             WHERE c_w_id = ? AND c_d_id = ? AND c_last = ? ORDER BY c_id",
        )
        .unwrap();
    let (one, seven) = (Datum::Int(1), Datum::Int(7));
    let ids = |c: &mut Cluster, at: SimTime, last: &str| {
        let params = [one.clone(), one.clone(), Datum::Text(last.into())];
        let (out, _) = c.execute_prepared(0, at, &by_last, &params).unwrap();
        out.rows()
    };

    let params = [Datum::Decimal(150), one.clone(), one.clone(), seven.clone()];
    c.execute_prepared(0, t(100), &pay, &params).unwrap();
    c.run_until(t(1_000));
    assert_eq!(index_writes(&c, shard), loaded, "balance only");
    let found = ids(&mut c, t(1_000), "BAR");
    let row7 = gdb_model::Row(vec![seven.clone(), Datum::Decimal(-150)]);
    assert!(found.contains(&row7), "{found:?}");

    let params = [Datum::Text("DOE".into()), one.clone(), one.clone(), seven];
    c.execute_prepared(0, t(1_100), &rename, &params).unwrap();
    c.run_until(t(2_000));
    let renamed: Vec<u64> = loaded.iter().map(|n| n + 1).collect();
    assert_eq!(index_writes(&c, shard), renamed, "one new c_last");
    assert_eq!(ids(&mut c, t(2_000), "DOE"), vec![row7.clone()]);
    assert!(!ids(&mut c, t(2_000), "BAR").contains(&row7));
}

//! Workspace-level integration tests: exercise the umbrella crate's public
//! API across every subsystem at once (SQL → txn management → replication
//! → RCP → ROR), including invariants under randomized concurrent load.

use gaussdb_global::{
    Cluster, ClusterConfig, Datum, GdbError, ReplicationMode, RoutingPolicy, SimDuration, SimTime,
    TmMode, TransitionDirection,
};
use gdb_chaos::LossWindows;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// A bank cluster with n accounts of `initial` each.
fn bank(config: ClusterConfig, n: i64, initial: i64) -> Cluster {
    let mut c = Cluster::new(config);
    c.ddl(
        "CREATE TABLE bank (id INT NOT NULL, balance DECIMAL, PRIMARY KEY (id)) \
         DISTRIBUTE BY HASH(id)",
    )
    .unwrap();
    let table = c.db.catalog().table_by_name("bank").unwrap().id;
    c.bulk_load(
        table,
        (0..n)
            .map(|i| gdb_model::Row(vec![Datum::Int(i), Datum::Decimal(initial)]))
            .collect(),
    )
    .unwrap();
    c.finish_load();
    c
}

/// Money conservation under randomized concurrent transfers, with 2PC
/// across shards and occasional aborts — on every TM mode.
#[test]
fn money_conservation_across_modes() {
    for (label, mode) in [("gtm", TmMode::Gtm), ("gclock", TmMode::GClock)] {
        let mut config = ClusterConfig::globaldb_three_city();
        config.tm_mode = mode;
        let mut c = bank(config, 60, 1_000);
        let read = c
            .prepare("SELECT balance FROM bank WHERE id = ? FOR UPDATE")
            .unwrap();
        let write = c
            .prepare("UPDATE bank SET balance = ? WHERE id = ?")
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut committed = 0;
        for i in 0..150u64 {
            let from = rng.gen_range(0..60i64);
            let mut to = rng.gen_range(0..59i64);
            if to >= from {
                to += 1;
            }
            let amount = rng.gen_range(1..200i64);
            let abort_on_purpose = rng.gen_ratio(1, 10);
            let res = c.run_transaction(
                (i % 3) as usize,
                t(10) + SimDuration::from_millis(i * 3),
                false,
                false,
                |txn| {
                    let out = txn.execute(&read, &[Datum::Int(from)])?;
                    let bal = out.rows()[0].0[0].as_decimal().unwrap();
                    txn.execute(&write, &[Datum::Decimal(bal - amount), Datum::Int(from)])?;
                    let out = txn.execute(&read, &[Datum::Int(to)])?;
                    let tb = out.rows()[0].0[0].as_decimal().unwrap();
                    txn.execute(&write, &[Datum::Decimal(tb + amount), Datum::Int(to)])?;
                    if abort_on_purpose {
                        return Err(GdbError::TxnAborted("chaos".into()));
                    }
                    Ok(())
                },
            );
            if res.is_ok() {
                committed += 1;
            }
        }
        assert!(committed > 100, "{label}: too few commits");
        c.run_until(c.now() + SimDuration::from_secs(1));
        let (out, _) = c
            .execute_sql(0, c.now(), "SELECT SUM(balance) FROM bank", &[])
            .unwrap();
        assert_eq!(
            out.rows()[0].0[0].as_decimal().unwrap(),
            60 * 1_000,
            "{label}: money not conserved"
        );
    }
}

/// Replicas converge to exactly the primary state after quiescing, and ROR
/// reads then return identical results to primary reads.
#[test]
fn replica_convergence_equals_primary() {
    let mut c = bank(ClusterConfig::globaldb_three_city(), 40, 500);
    let upd = c
        .prepare("UPDATE bank SET balance = balance + ? WHERE id = ?")
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(9);
    for i in 0..120u64 {
        let id = rng.gen_range(0..40i64);
        let delta = rng.gen_range(-50..50i64);
        let _ = c.run_transaction(
            (i % 3) as usize,
            t(10) + SimDuration::from_millis(i * 2),
            false,
            true,
            |txn| {
                txn.execute(&upd, &[Datum::Decimal(delta), Datum::Int(id)])
                    .map(|_| ())
            },
        );
    }
    c.run_until(c.now() + SimDuration::from_secs(2));

    let sel = c.prepare("SELECT balance FROM bank WHERE id = ?").unwrap();
    for id in 0..40i64 {
        // Primary read.
        c.db.set_routing(RoutingPolicy::Primary);
        let ((), _) = c
            .run_transaction(1, c.now(), true, true, |txn| {
                let p = txn.execute(&sel, &[Datum::Int(id)])?;
                let _: () = assert_eq!(p.rows().len(), 1);
                Ok(())
            })
            .unwrap();
        let (primary_out, _) = c
            .execute_sql(
                1,
                c.now(),
                "SELECT balance FROM bank WHERE id = ?",
                &[Datum::Int(id)],
            )
            .unwrap();
        // Replica read.
        c.db.set_routing(RoutingPolicy::ReadOnReplica {
            freshness_bound: None,
        });
        let (ror_out, o) = c
            .execute_sql(
                1,
                c.now(),
                "SELECT balance FROM bank WHERE id = ?",
                &[Datum::Int(id)],
            )
            .unwrap();
        assert_eq!(primary_out.rows(), ror_out.rows(), "id {id}");
        let _ = o;
    }
}

/// Round-trip transition under concurrent writes: GTM → GClock → GTM, with
/// every write either committing or retrying — never corrupting state.
#[test]
fn transition_round_trip_under_load() {
    let mut config = ClusterConfig::globaldb_one_region();
    config.tm_mode = TmMode::Gtm;
    let mut c = bank(config, 20, 100);
    c.db.record_history();
    let upd = c
        .prepare("UPDATE bank SET balance = balance + 1 WHERE id = ?")
        .unwrap();
    let mut commits = 0u64;
    let write = |c: &mut Cluster, ms: u64, id: i64, commits: &mut u64| {
        if c.run_transaction((id % 3) as usize, t(ms), false, true, |txn| {
            txn.execute(&upd, &[Datum::Int(id)]).map(|_| ())
        })
        .is_ok()
        {
            *commits += 1;
        }
    };
    for i in 0..10 {
        write(&mut c, 10 + i, i as i64 % 20, &mut commits);
    }
    c.start_transition(TransitionDirection::ToGClock);
    for i in 0..30 {
        write(&mut c, 30 + i * 2, i as i64 % 20, &mut commits);
    }
    c.run_until(t(1000));
    assert_eq!(
        c.db.last_transition_completed(),
        Some(TransitionDirection::ToGClock)
    );
    c.start_transition(TransitionDirection::ToGtm);
    for i in 0..30 {
        write(&mut c, 1010 + i * 2, i as i64 % 20, &mut commits);
    }
    c.run_until(t(2500));
    assert_eq!(
        c.db.last_transition_completed(),
        Some(TransitionDirection::ToGtm)
    );
    // Through GTM → DUAL → GClock and back, every dependency edge of the
    // recorded history runs forward in timestamp order.
    let h = c.db.history().unwrap();
    let (_, found) = gdb_chaos::oracle::check(h, h.events.len(), &LossWindows::default());
    assert_eq!(found, Vec::<String>::new());
    // Every commit is durable: the sum reflects exactly `commits` increments.
    let (out, _) = c
        .execute_sql(0, c.now(), "SELECT SUM(balance) FROM bank", &[])
        .unwrap();
    assert_eq!(
        out.rows()[0].0[0].as_decimal().unwrap(),
        20 * 100 + commits as i64,
        "committed increments must all be durable"
    );
    assert!(
        commits >= 65,
        "zero-downtime: most writes commit ({commits})"
    );
}

/// Synchronous remote-quorum replication means a region partition blocks
/// writes (no quorum), while async keeps committing — and heals cleanly.
#[test]
fn partition_behaviour_by_replication_mode() {
    // Async: writes keep committing during a partition.
    let mut c = bank(ClusterConfig::globaldb_three_city(), 10, 100);
    let regions = c.db.regions().to_vec();
    c.db.topo_mut().partition(regions[0], regions[1]);
    c.db.topo_mut().partition(regions[0], regions[2]);
    // A write to a shard homed in region 0, from the region-0 CN.
    let shard0_region = c.db.topo().node_region(c.db.shards()[0].primary);
    let cn0 = (0..3)
        .find(|&i| c.db.cns()[i].region == shard0_region)
        .unwrap();
    let table = c.db.catalog().table_by_name("bank").unwrap().clone();
    let id_on_shard0 = (0..10i64)
        .find(|&i| {
            table
                .shard_of_pk(&gdb_model::RowKey::single(i), c.db.shards().len() as u16)
                .0
                == 0
        })
        .expect("some id on shard 0");
    let upd0 = c
        .prepare("UPDATE bank SET balance = 1 WHERE id = ?")
        .unwrap();
    let res = c.run_transaction(cn0, t(10), false, true, |txn| {
        txn.execute(&upd0, &[Datum::Int(id_on_shard0)]).map(|_| ())
    });
    assert!(
        res.is_ok(),
        "async commit must survive a partition: {res:?}"
    );

    // Sync remote quorum: the same write cannot reach a remote replica.
    let mut config = ClusterConfig::globaldb_three_city();
    config.replication = ReplicationMode::SyncRemoteQuorum { quorum: 1 };
    let mut c2 = bank(config, 10, 100);
    let regions = c2.db.regions().to_vec();
    c2.db.topo_mut().partition(regions[0], regions[1]);
    c2.db.topo_mut().partition(regions[0], regions[2]);
    let upd = c2
        .prepare("UPDATE bank SET balance = 1 WHERE id = ?")
        .unwrap();
    let res = c2.run_transaction(cn0, t(10), false, true, |txn| {
        txn.execute(&upd, &[Datum::Int(id_on_shard0)]).map(|_| ())
    });
    assert!(
        res.is_err(),
        "sync remote quorum must fail under a full partition"
    );
    // Heal and retry.
    c2.db.topo_mut().heal(regions[0], regions[1]);
    c2.db.topo_mut().heal(regions[0], regions[2]);
    let res = c2.run_transaction(cn0, t(50), false, true, |txn| {
        txn.execute(&upd, &[Datum::Int(id_on_shard0)]).map(|_| ())
    });
    assert!(res.is_ok(), "heals cleanly: {res:?}");
}

/// Monotone reads: a client routed across different CNs never observes the
/// RCP snapshot move backwards (paper §IV-A's motivation for the
/// collector-CN design).
#[test]
fn ror_snapshots_are_monotone_across_cns() {
    let mut c = bank(ClusterConfig::globaldb_one_region(), 20, 100);
    let upd = c
        .prepare("UPDATE bank SET balance = balance + 1 WHERE id = ?")
        .unwrap();
    let sel = c.prepare("SELECT balance FROM bank WHERE id = 1").unwrap();
    let mut last_snapshot = gaussdb_global::Timestamp::ZERO;
    for i in 0..40u64 {
        let _ = c.run_transaction(0, t(20 + i * 10), false, true, |txn| {
            txn.execute(&upd, &[Datum::Int((i % 20) as i64)])
                .map(|_| ())
        });
        let cn = (i % 3) as usize; // client bounces across CNs
        let ((), o) = c
            .run_transaction(cn, t(25 + i * 10), true, true, |txn| {
                txn.execute(&sel, &[]).map(|_| ())
            })
            .unwrap();
        assert!(
            o.snapshot >= last_snapshot,
            "snapshot moved backwards: {:?} < {:?} at i={i}",
            o.snapshot,
            last_snapshot
        );
        last_snapshot = o.snapshot;
    }
}

/// The WAL the real workload writes decodes and round-trips: TPC-C on
/// three-city, background events included; on every shard the durable
/// segment decodes to dense LSNs from 0, its suffix from the shipping
/// buffer's trim floor is exactly the records still resident there, and
/// LZ4 gives the segment back byte for byte.
#[test]
fn tpcc_wal_decodes_and_roundtrips_on_every_shard() {
    use gaussdb_global::Codec;
    use gdb_wal::record::decode_all;
    use gdb_workloads::driver::{run_workload, RunConfig};
    use gdb_workloads::tpcc::{TpccMix, TpccScale, TpccWorkload};

    let mut c = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(42));
    let mut wl = TpccWorkload::new(TpccScale::tiny(), TpccMix::standard(), 42);
    gdb_workloads::Workload::setup(&mut wl, &mut c).unwrap();
    run_workload(
        &mut c,
        &mut wl,
        RunConfig {
            terminals: 8,
            // Long past the first RCP round that raises the vacuum
            // horizon; its vacuum trims the shipping buffers.
            duration: SimDuration::from_secs(6),
            warmup: SimDuration::from_millis(200),
            think_time: SimDuration::from_millis(10),
        },
    );
    let committed = c.db.stats().committed;
    assert!(committed >= 200, "{committed} committed");
    let mut trimmed = 0;
    for (s, shard) in c.db.shards().iter().enumerate() {
        let segment = shard.log.durable().segment();
        let records = decode_all(segment).unwrap_or_else(|e| panic!("shard {s}: {e}"));
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.lsn.0, i as u64, "shard {s}: LSNs dense from 0");
        }
        let sealed = shard.log.sealed();
        assert_eq!(
            records.len(),
            sealed.len(),
            "shard {s}: one frame per record"
        );
        let base = sealed.base_lsn().0 as usize;
        assert!(
            records[base..].iter().eq(sealed.iter()),
            "shard {s}: the suffix from lsn {base} is the shipping buffer"
        );
        trimmed += base;
        let wire = Codec::Lz4.encode(segment);
        assert_eq!(Codec::Lz4.decode(&wire).unwrap(), segment, "shard {s}");
    }
    assert!(
        trimmed > 0,
        "no shard trimmed: the suffix check compared everything"
    );
}

//! What each write shape costs on a key owned in another city: a
//! locking statement pays one `DnWrite` round trip per shard it locks
//! on, and its reads-for-update and writes of a row it locked ride that
//! lock. A point UPDATE/DELETE/SELECT … FOR UPDATE is that one `DnWrite`
//! alone: the lock request reads the newest version, with no snapshot
//! read before it, and an absent key stays locked to commit. A range
//! UPDATE/DELETE is one `DnRead` (the snapshot read that finds its rows)
//! plus one `DnWrite` per shard; an INSERT is one `DnWrite`.
//!
//! Each shape runs as its own transaction from a CN in region 0, with
//! nothing else in flight. The script pins the `DnRead` and `DnWrite`
//! counts and the statements' latency of every shape, so a second lock
//! round trip — or any drift in the order or number of sends, which also
//! shifts the topology's jitter stream — fails here. It also pins the
//! rebalancer's load signal on the owning shard: `ShardLoad::ops` counts
//! data-node routing calls, not messages, so a point UPDATE is 2 (its
//! lock and its write).

use gdb_model::{Row, RowKey};
use globaldb::txn::history::Event;
use globaldb::{Cluster, ClusterConfig, Datum, Prepared, RpcKind, SimDuration, SimTime};

/// Rows per key group; every shape works on its own group.
const ROWS: i64 = 6;
/// The writing CN, in region 0.
const CN: usize = 0;

fn int(v: i64) -> Datum {
    Datum::Int(v)
}

/// A cluster with `kv`, hash-distributed on `k_w`, and `cfg`, replicated
/// to every shard; the `k_w` groups `groups` all live on one shard whose
/// primary is outside the CN's region.
struct Fixture {
    c: Cluster,
    groups: Vec<i64>,
    /// The shard that owns every group.
    remote: usize,
}

fn fixture() -> Fixture {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(11));
    c.ddl(
        "CREATE TABLE kv (k_w INT NOT NULL, k_id INT NOT NULL, v INT, \
         PRIMARY KEY (k_w, k_id)) DISTRIBUTE BY HASH(k_w)",
    )
    .unwrap();
    c.ddl("CREATE TABLE cfg (c_id INT NOT NULL, c_v INT, PRIMARY KEY (c_id)) DISTRIBUTE BY REPLICATION")
        .unwrap();
    let kv = c.db.catalog().table_by_name("kv").unwrap().clone();
    let shards = c.db.shards().len();
    let shard_of = |w: i64| {
        kv.shard_of_pk(&RowKey::new(vec![int(w), int(1)]), shards as u16)
            .0 as usize
    };
    let cn_region = c.db.cns()[CN].region;
    let remote = (0..64)
        .map(shard_of)
        .find(|&s| c.db.topo().node_region(c.db.shards()[s].primary) != cn_region)
        .unwrap();
    let groups: Vec<i64> = (0..256).filter(|&w| shard_of(w) == remote).collect();
    assert!(groups.len() >= 8, "enough groups on the remote shard");
    let rows: Vec<Row> = groups
        .iter()
        .flat_map(|&w| (1..=ROWS).map(move |id| Row(vec![int(w), int(id), int(100 + id)])))
        .collect();
    c.bulk_load(kv.id, rows).unwrap();
    let cfg = c.db.catalog().table_by_name("cfg").unwrap().id;
    let rows = (1..=ROWS).map(|id| Row(vec![int(id), int(id)])).collect();
    c.bulk_load(cfg, rows).unwrap();
    c.finish_load();
    Fixture { c, groups, remote }
}

/// What one transaction's statements cost: `DnRead` and `DnWrite`
/// messages, the `ShardLoad::ops` charged to `shard`, and the virtual
/// time from the first statement's start to the last one's end (commit
/// excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    dn_read: u64,
    dn_write: u64,
    load_ops: u64,
    latency_ns: u64,
}

/// Run `stmts` as one read-write transaction from the CN, a second after
/// the previous one began (long after it committed); returns each
/// statement's row count and the cost, its load counted on `shard`.
fn run(c: &mut Cluster, shard: usize, stmts: &[(&Prepared, &[Datum])]) -> (Vec<u64>, Cost) {
    let at = c.now() + SimDuration::from_secs(1);
    c.run_until(at);
    let msgs = |c: &Cluster| {
        let plane = c.db.plane();
        (
            plane.msgs(RpcKind::DnRead),
            plane.msgs(RpcKind::DnWrite),
            c.db.shard_load()[shard].ops,
        )
    };
    let before = msgs(c);
    let ((counts, latency_ns), _) = c
        .run_transaction(CN, at, false, false, |txn| {
            let start = txn.now;
            let mut counts = Vec::new();
            for (stmt, params) in stmts {
                counts.push(txn.execute(stmt, params)?.count());
            }
            Ok((counts, txn.now.since(start).as_nanos()))
        })
        .unwrap();
    let after = msgs(c);
    let cost = Cost {
        dn_read: after.0 - before.0,
        dn_write: after.1 - before.1,
        load_ops: after.2 - before.2,
        latency_ns,
    };
    (counts, cost)
}

/// The row of `kv` at `(w, id)` on its primary, newest version.
fn kv_value(c: &mut Cluster, w: i64, id: i64) -> Option<i64> {
    let sel = c
        .prepare("SELECT v FROM kv WHERE k_w = ? AND k_id = ?")
        .unwrap();
    let at = c.now() + SimDuration::from_secs(1);
    let (out, _) = c
        .run_transaction(CN, at, false, false, |txn| {
            txn.execute(&sel, &[int(w), int(id)])
        })
        .unwrap();
    out.rows().first().map(|r| match r.0[0] {
        Datum::Int(v) => v,
        ref other => panic!("not an int: {other:?}"),
    })
}

/// One round trip to one data node: the request and its reply.
const RT: u64 = 2;

#[test]
fn each_write_shape_costs_one_lock_round_trip_per_shard() {
    let Fixture {
        mut c,
        groups,
        remote,
    } = fixture();
    let shards = c.db.shards().len() as u64;
    let insert = c.prepare("INSERT INTO kv VALUES (?, ?, ?)").unwrap();
    let for_update = c
        .prepare("SELECT v FROM kv WHERE k_w = ? AND k_id = ? FOR UPDATE")
        .unwrap();
    let update = c
        .prepare("UPDATE kv SET v = v + 1 WHERE k_w = ? AND k_id = ?")
        .unwrap();
    let delete = c
        .prepare("DELETE FROM kv WHERE k_w = ? AND k_id = ?")
        .unwrap();
    let update_range = c
        .prepare("UPDATE kv SET v = v + 1 WHERE k_w = ? AND k_id BETWEEN ? AND ?")
        .unwrap();
    let update_cfg = c
        .prepare("UPDATE cfg SET c_v = c_v + 1 WHERE c_id = ?")
        .unwrap();

    let w = |i: usize| int(groups[i]);
    let mut costs = Vec::new();

    // INSERT: its own lock, which checks the key is new. No read.
    let (n, cost) = run(&mut c, remote, &[(&insert, &[w(0), int(ROWS + 1), int(7)])]);
    assert_eq!(n, [1]);
    assert_eq!((cost.dn_read, cost.dn_write), (0, RT));
    costs.push(cost);

    // SELECT … FOR UPDATE by key: the lock request reads the row.
    let (n, cost) = run(&mut c, remote, &[(&for_update, &[w(1), int(1)])]);
    assert_eq!(n, [1]);
    assert_eq!((cost.dn_read, cost.dn_write), (0, RT));
    costs.push(cost);

    // UPDATE and DELETE by key: the lock request reads the row, and the
    // write rides the statement's lock.
    let (n, cost) = run(&mut c, remote, &[(&update, &[w(2), int(1)])]);
    assert_eq!(n, [1]);
    assert_eq!((cost.dn_read, cost.dn_write), (0, RT));
    costs.push(cost);
    let (n, cost) = run(&mut c, remote, &[(&delete, &[w(3), int(1)])]);
    assert_eq!(n, [1]);
    assert_eq!((cost.dn_read, cost.dn_write), (0, RT));
    costs.push(cost);

    // A multi-row UPDATE by PK range on one shard: one range read, and
    // the four rows' locks in one request.
    let (n, cost) = run(&mut c, remote, &[(&update_range, &[w(4), int(2), int(5)])]);
    assert_eq!(n, [4]);
    assert_eq!((cost.dn_read, cost.dn_write), (RT, RT));
    costs.push(cost);

    // An UPDATE of a replicated table: locked on every shard in one
    // scatter, the row read at the first.
    let (n, cost) = run(&mut c, remote, &[(&update_cfg, &[int(1)])]);
    assert_eq!(n, [1]);
    assert_eq!((cost.dn_read, cost.dn_write), (0, RT * shards));
    costs.push(cost);

    // An UPDATE of an absent key finds nothing, and locks the key.
    let (n, cost) = run(&mut c, remote, &[(&update, &[w(5), int(ROWS + 9)])]);
    assert_eq!(n, [0]);
    assert_eq!((cost.dn_read, cost.dn_write), (0, RT));
    costs.push(cost);

    // SELECT … FOR UPDATE then UPDATE of the same row: each statement
    // locks once (the second finds the lock already held), and the
    // UPDATE's write rides its own statement's lock.
    let (n, cost) = run(
        &mut c,
        remote,
        &[(&for_update, &[w(6), int(1)]), (&update, &[w(6), int(1)])],
    );
    assert_eq!(n, [1, 1]);
    assert_eq!((cost.dn_read, cost.dn_write), (0, 2 * RT));
    costs.push(cost);

    // The writes landed.
    assert_eq!(kv_value(&mut c, groups[0], ROWS + 1), Some(7));
    assert_eq!(kv_value(&mut c, groups[2], 1), Some(102));
    assert_eq!(kv_value(&mut c, groups[3], 1), None);
    assert_eq!(kv_value(&mut c, groups[4], 1), Some(101));
    for id in 2..=5 {
        assert_eq!(kv_value(&mut c, groups[4], id), Some(101 + id));
    }
    assert_eq!(kv_value(&mut c, groups[6], 1), Some(102));

    // In round trips to the remote primary, the INSERT's being one: every
    // point shape is its lock request alone, the range UPDATE is its read
    // and one lock request, the replicated UPDATE locks everywhere in one
    // scatter, and the two-statement transaction pays one per statement.
    let one = costs[0].latency_ns as f64;
    let round_trips: Vec<u64> = costs
        .iter()
        .map(|c| (c.latency_ns as f64 / one).round() as u64)
        .collect();
    assert_eq!(round_trips, [1, 1, 1, 1, 2, 1, 1, 2]);

    // The rebalancer's load on the owning shard, in routing calls.
    let load: Vec<u64> = costs.iter().map(|c| c.load_ops).collect();
    assert_eq!(load, PINNED_LOAD_OPS);

    // ---- Pinned virtual-time behaviour ----
    let latencies: Vec<u64> = costs.iter().map(|c| c.latency_ns).collect();
    assert_eq!(latencies, PINNED_LATENCIES_NS);
}

/// INSERT, FOR UPDATE, UPDATE, DELETE, range UPDATE, replicated UPDATE,
/// absent-key UPDATE, FOR UPDATE + UPDATE.
const PINNED_LATENCIES_NS: [u64; 8] = [
    55_520_686,
    55_629_871,
    55_353_111,
    55_891_983,
    110_949_820,
    55_800_493,
    55_782_748,
    111_463_524,
];

/// `ShardLoad::ops` on the owning shard, shape by shape as above: one
/// per data-node access, a write that rides its statement's lock
/// included. A point UPDATE is its lock request and its write; the range
/// UPDATE is its read, one lock request and 4 × (read for update +
/// write).
const PINNED_LOAD_OPS: [u64; 8] = [1, 1, 2, 2, 10, 2, 1, 3];

/// An UPDATE of an absent key affects no row but locks the key on its
/// owner until the transaction commits, as a point predicate lock would:
/// a key deleted by an in-flight commit is waited out, never read as
/// absent early. An INSERT of the key in the same transaction rides on.
#[test]
fn absent_key_update_locks_the_key_to_commit() {
    let Fixture {
        mut c,
        groups,
        remote,
    } = fixture();
    let kv = c.db.catalog().table_by_name("kv").unwrap().id;
    let insert = c.prepare("INSERT INTO kv VALUES (?, ?, ?)").unwrap();
    let update = c
        .prepare("UPDATE kv SET v = v + 1 WHERE k_w = ? AND k_id = ?")
        .unwrap();
    let (w, id) = (groups[0], ROWS + 1);
    let key = RowKey::new(vec![int(w), int(id)]);
    c.db.record_history();

    // The UPDATE alone, so that any lock on the key is its own.
    let at = c.now() + SimDuration::from_secs(1);
    let (updated, outcome) = c
        .run_transaction(CN, at, false, false, |txn| {
            Ok(txn.execute(&update, &[int(w), int(id)])?.count())
        })
        .unwrap();
    assert_eq!(updated, 0);
    // Its locking read saw no version, as this transaction.
    let txn =
        c.db.history()
            .unwrap()
            .events
            .iter()
            .find_map(|e| match e {
                Event::Read {
                    txn,
                    table,
                    key: k,
                    seen: None,
                    locked: true,
                } if *table == kv && *k == key => Some(*txn),
                _ => None,
            })
            .expect("the UPDATE read the absent key under its lock");
    // The owner's lock on the key is the transaction's, released by its
    // commit and not before.
    let locks = &c.db.shards()[remote].storage.locks;
    let last_held = SimTime::from_nanos(outcome.completed_at.as_nanos() - 1);
    assert_eq!(locks.holder(kv, &key, last_held), Some(txn));
    assert_eq!(locks.holder(kv, &key, outcome.completed_at), None);

    // The UPDATE, then an INSERT of the key in the same transaction.
    let (n, _) = run(
        &mut c,
        remote,
        &[
            (&update, &[int(w), int(id)]),
            (&insert, &[int(w), int(id), int(7)]),
        ],
    );
    assert_eq!(n, [0, 1]);
    assert_eq!(kv_value(&mut c, w, id), Some(7));
}

//! The Read-On-Replica decision (paper §IV-B, Fig. 5) for every read
//! shape at the one instant it matters: a cross-region writer's
//! `PENDING_COMMIT` and row images have been replayed on the reader's
//! local replica, its commit record has not. A reader at the RCP must
//! then fall back to the primary for exactly the tuples (or ranges) the
//! in-progress transaction holds, and must still see the RCP snapshot.
//!
//! Besides rows and counters, the script pins its per-shape latency and
//! its per-`RpcKind` message counts: the statement layer is behaviour-
//! preserving on virtual time, so any drift in the order or number of
//! message-plane sends (which also shifts the topology's jitter stream)
//! fails here rather than only in `bench-smoke`.

use gdb_model::{Row, RowKey};
use globaldb::{
    Cluster, ClusterConfig, ClusterStats, Datum, ExecOutput, Prepared, SimDuration, SimTime,
    Timestamp, TxnOutcome, ALL_RPC_KINDS,
};

/// Items per warehouse; the writer updates item `HOT` of `remote_w`.
const ITEMS: i64 = 8;
const HOT: i64 = 3;
/// The reader's CN (region 0) and the writer's (region 2).
const READER: usize = 0;
const WRITER: usize = 2;

fn int(v: i64) -> Datum {
    Datum::Int(v)
}

fn item_name(id: i64) -> String {
    // Two items share each name, so the index prefix read returns a set.
    format!("name-{}", id % 4)
}

struct Fixture {
    c: Cluster,
    /// Warehouse on a shard whose primary is local to the reader.
    local_w: i64,
    /// Warehouse on a shard whose primary is in region 1: the reader's
    /// skyline picks the replica in its own region.
    remote_w: i64,
    /// A second replica-served warehouse nobody writes.
    quiet_w: i64,
    /// Shard of `remote_w` and the index of the reader-local replica.
    remote_shard: usize,
    local_replica: usize,
}

fn fixture() -> Fixture {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(7));
    c.ddl(
        "CREATE TABLE items (i_w INT NOT NULL, i_id INT NOT NULL, i_qty INT, i_name TEXT, \
         PRIMARY KEY (i_w, i_id)) DISTRIBUTE BY HASH(i_w)",
    )
    .unwrap();
    c.ddl("CREATE INDEX items_by_name ON items (i_w, i_name)")
        .unwrap();
    c.ddl(
        "CREATE TABLE lines (l_w INT NOT NULL, l_o INT NOT NULL, l_n INT NOT NULL, \
         l_sw INT, l_i INT, PRIMARY KEY (l_w, l_o, l_n)) DISTRIBUTE BY HASH(l_w)",
    )
    .unwrap();

    // Pick one warehouse per primary region (reader = region of shard 0).
    let items = c.db.catalog().table_by_name("items").unwrap().clone();
    let shards = c.db.shards().len();
    let shard_of = |w: i64| {
        items
            .shard_of_pk(&RowKey::new(vec![int(w), int(1)]), shards as u16)
            .0 as usize
    };
    let pick = |m: usize| (0..64).find(|&w| shard_of(w) % 3 == m).unwrap();
    let (local_w, remote_w, quiet_w) = (pick(0), pick(1), pick(2));
    let remote_shard = shard_of(remote_w);
    let reader_region = c.db.cns()[READER].region;
    let home = |s: usize| c.db.topo().node_region(c.db.shards()[s].primary);
    assert_eq!(home(shard_of(local_w)), reader_region);
    assert_ne!(home(remote_shard), reader_region);
    assert_ne!(
        home(remote_shard),
        c.db.cns()[WRITER].region,
        "the writer is cross-region to the shard it writes"
    );
    let local_replica = c.db.shards()[remote_shard]
        .replicas
        .iter()
        .position(|r| r.region == reader_region)
        .unwrap();

    let rows: Vec<Row> = [local_w, remote_w, quiet_w]
        .iter()
        .flat_map(|&w| {
            (1..=ITEMS)
                .map(move |id| Row(vec![int(w), int(id), int(100 + id), item_name(id).into()]))
        })
        .collect();
    c.bulk_load(items.id, rows).unwrap();
    // One order in the reader-local warehouse whose lines are supplied by
    // all three warehouses; line 1 names the tuple the writer holds.
    let lines = c.db.catalog().table_by_name("lines").unwrap().id;
    let supply = [
        (remote_w, HOT),
        (remote_w, HOT + 1),
        (local_w, 1),
        (quiet_w, 2),
    ];
    let rows: Vec<Row> = supply
        .iter()
        .enumerate()
        .map(|(n, &(sw, i))| {
            Row(vec![
                int(local_w),
                int(1),
                int(n as i64 + 1),
                int(sw),
                int(i),
            ])
        })
        .collect();
    c.bulk_load(lines, rows).unwrap();
    c.finish_load();
    Fixture {
        c,
        local_w,
        remote_w,
        quiet_w,
        remote_shard,
        local_replica,
    }
}

/// Counter movement of one read-only transaction.
struct Delta {
    fallbacks: u64,
    on_replica: u64,
    on_primary: u64,
    used_replica: bool,
    latency_ns: u64,
}

fn counters(s: &ClusterStats) -> (u64, u64, u64) {
    (
        s.replica_blocked_fallbacks,
        s.reads_on_replica,
        s.reads_on_primary,
    )
}

/// Run `stmt` as one read-only transaction from the reader's CN at `at`.
fn read_at(
    c: &mut Cluster,
    at: SimTime,
    stmt: &Prepared,
    params: &[Datum],
) -> (Vec<Row>, Timestamp, Delta) {
    let before = counters(c.db.stats());
    let ((out, snapshot), outcome): ((ExecOutput, Timestamp), TxnOutcome) = c
        .run_transaction(READER, at, true, false, |txn| {
            assert!(txn.is_ror(), "reader runs at the RCP");
            Ok((txn.execute(stmt, params)?, txn.snapshot()))
        })
        .unwrap();
    assert_eq!(c.now(), at, "no background event ran between the shapes");
    let after = counters(c.db.stats());
    let delta = Delta {
        fallbacks: after.0 - before.0,
        on_replica: after.1 - before.1,
        on_primary: after.2 - before.2,
        used_replica: outcome.used_replica,
        latency_ns: outcome.latency.as_nanos(),
    };
    (out.rows().to_vec(), snapshot, delta)
}

/// Every row of `table` the primaries hold at `snapshot`, in key order —
/// the primary-routed answer the replica path must agree with.
fn primary_rows(c: &mut Cluster, table: &str, snapshot: Timestamp) -> Vec<Row> {
    let id = c.db.catalog().table_by_name(table).unwrap().id;
    let mut rows: Vec<(RowKey, Row)> = Vec::new();
    for shard in c.db.shards_mut() {
        let vis = shard.storage.range(id, None, None, snapshot).unwrap();
        rows.extend(vis.into_iter().map(|v| (v.key.clone(), v.row.clone())));
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows.into_iter().map(|(_, r)| r).collect()
}

fn col(r: &Row, i: usize) -> i64 {
    match &r.0[i] {
        Datum::Int(v) => *v,
        other => panic!("not an int: {other:?}"),
    }
}

#[test]
fn blocked_replica_falls_back_per_shape() {
    let Fixture {
        mut c,
        local_w,
        remote_w,
        quiet_w,
        remote_shard,
        local_replica,
    } = fixture();
    let point = c
        .prepare("SELECT i_id, i_qty FROM items WHERE i_w = ? AND i_id = ?")
        .unwrap();
    let range = c
        .prepare("SELECT i_id, i_qty FROM items WHERE i_w = ? AND i_id BETWEEN ? AND ?")
        .unwrap();
    let index = c
        .prepare("SELECT i_id, i_qty FROM items WHERE i_w = ? AND i_name = ?")
        .unwrap();
    let join = c
        .prepare(
            "SELECT l_n, i_w, i_id, i_qty FROM lines, items \
             WHERE l_w = ? AND l_o BETWEEN ? AND ? AND i_w = l_sw AND i_id = l_i",
        )
        .unwrap();
    let update = c
        .prepare("UPDATE items SET i_qty = i_qty + 1000 WHERE i_w = ? AND i_id = ?")
        .unwrap();

    // Steady state first, then the cross-region writer.
    c.run_until(SimTime::from_millis(100));
    let (_, write) = c
        .execute_prepared(
            WRITER,
            SimTime::from_millis(100),
            &update,
            &[int(remote_w), int(HOT)],
        )
        .unwrap();
    assert_eq!(write.shards_written, vec![remote_shard]);

    // Advance to the first instant the reader-local replica has replayed
    // the writer's PENDING_COMMIT + row image but not its commit record.
    let mut now = SimTime::from_millis(100);
    while c.db.shards()[remote_shard].replicas[local_replica]
        .applier
        .pending_txns()
        == 0
    {
        now += SimDuration::from_millis(1);
        assert!(
            now < SimTime::from_millis(600),
            "replica never saw the PENDING_COMMIT"
        );
        c.run_until(now);
    }

    // The expectation for every shape: the primaries' state at the
    // reader's RCP snapshot, which predates the in-flight commit.
    let project = |rows: &[Row], keep: &dyn Fn(&Row) -> bool| -> Vec<Row> {
        rows.iter()
            .filter(|r| keep(r))
            .map(|r| Row(vec![r.0[1].clone(), r.0[2].clone()]))
            .collect()
    };

    // Point: the held tuple → replica picked, blocked, primary fallback.
    let (rows, snapshot, d) = read_at(&mut c, now, &point, &[int(remote_w), int(HOT)]);
    assert!(snapshot < write.commit_ts.unwrap());
    let items_at = primary_rows(&mut c, "items", snapshot);
    let lines_at = primary_rows(&mut c, "lines", snapshot);
    assert_eq!(
        rows,
        project(&items_at, &|r| col(r, 0) == remote_w && col(r, 1) == HOT)
    );
    assert_eq!(rows, vec![Row(vec![int(HOT), int(100 + HOT)])]);
    assert_eq!((d.fallbacks, d.on_replica, d.on_primary), (1, 0, 1));
    assert!(!d.used_replica);
    let point_blocked_ns = d.latency_ns;

    // Point: a neighbouring tuple of the same shard → served by the replica.
    let (rows, _, d) = read_at(&mut c, now, &point, &[int(remote_w), int(HOT + 1)]);
    assert_eq!(
        rows,
        project(&items_at, &|r| col(r, 0) == remote_w
            && col(r, 1) == HOT + 1)
    );
    assert_eq!((d.fallbacks, d.on_replica, d.on_primary), (0, 1, 0));
    assert!(d.used_replica);
    let point_replica_ns = d.latency_ns;
    assert!(
        point_blocked_ns > point_replica_ns,
        "the fallback pays the replica round trip and the WAN one"
    );

    // Range over the held tuple → one fallback, one primary read.
    let (rows, _, d) = read_at(&mut c, now, &range, &[int(remote_w), int(2), int(5)]);
    assert_eq!(
        rows,
        project(&items_at, &|r| col(r, 0) == remote_w
            && (2..=5).contains(&col(r, 1)))
    );
    assert_eq!(rows.len(), 4);
    assert_eq!((d.fallbacks, d.on_replica, d.on_primary), (1, 0, 1));
    assert!(!d.used_replica);
    let range_blocked_ns = d.latency_ns;

    // Range beside it → the probe honours the bounds: replica read.
    let (rows, _, d) = read_at(&mut c, now, &range, &[int(remote_w), int(5), int(7)]);
    assert_eq!(
        rows,
        project(&items_at, &|r| col(r, 0) == remote_w
            && (5..=7).contains(&col(r, 1)))
    );
    assert_eq!((d.fallbacks, d.on_replica, d.on_primary), (0, 1, 0));
    assert!(d.used_replica);
    let range_replica_ns = d.latency_ns;

    // Index prefix: conservative — any pending write to the table on the
    // replica blocks, even for a name the writer's tuple does not carry.
    let other_name = item_name(HOT + 1);
    let (rows, _, d) = read_at(
        &mut c,
        now,
        &index,
        &[int(remote_w), other_name.clone().into()],
    );
    assert_eq!(
        rows,
        project(&items_at, &|r| col(r, 0) == remote_w
            && r.0[3] == Datum::from(other_name.as_str()))
    );
    assert_eq!(rows.len(), 2);
    assert_eq!((d.fallbacks, d.on_replica, d.on_primary), (1, 0, 1));
    assert!(!d.used_replica);
    let index_blocked_ns = d.latency_ns;

    // Index prefix on an unwritten shard → replica.
    let (rows, _, d) = read_at(
        &mut c,
        now,
        &index,
        &[int(quiet_w), other_name.clone().into()],
    );
    assert_eq!(rows.len(), 2);
    assert_eq!((d.fallbacks, d.on_replica, d.on_primary), (0, 1, 0));
    assert!(d.used_replica);
    let index_replica_ns = d.latency_ns;

    // Join → multi-point. Outer range on the reader-local primary (one
    // primary read); inner keys scatter over three shards: the held
    // tuple (fallback + primary), its neighbour and the quiet warehouse
    // (replica each), the local warehouse (primary).
    let (rows, _, d) = read_at(&mut c, now, &join, &[int(local_w), int(1), int(1)]);
    let expected: Vec<Row> = lines_at
        .iter()
        .map(|l| {
            let item = items_at
                .iter()
                .find(|i| i.0[0] == l.0[3] && i.0[1] == l.0[4])
                .unwrap();
            Row(vec![
                l.0[2].clone(),
                item.0[0].clone(),
                item.0[1].clone(),
                item.0[2].clone(),
            ])
        })
        .collect();
    assert_eq!(rows, expected);
    assert_eq!(
        rows[0],
        Row(vec![int(1), int(remote_w), int(HOT), int(100 + HOT)])
    );
    assert_eq!((d.fallbacks, d.on_replica, d.on_primary), (1, 2, 3));
    assert!(d.used_replica);
    let join_ns = d.latency_ns;

    // Once the commit record replays and the RCP passes it, the same
    // point read is served by the replica and sees the new value.
    c.run_until(now + SimDuration::from_millis(200));
    let later = c.now();
    let (rows, snapshot, d) = read_at(&mut c, later, &point, &[int(remote_w), int(HOT)]);
    assert!(snapshot >= write.commit_ts.unwrap());
    assert_eq!(rows, vec![Row(vec![int(HOT), int(1100 + HOT)])]);
    assert_eq!((d.fallbacks, d.on_replica, d.on_primary), (0, 1, 0));

    // ---- Pinned virtual-time behaviour (values of the parent commit) ----
    let latencies = [
        point_blocked_ns,
        point_replica_ns,
        range_blocked_ns,
        range_replica_ns,
        index_blocked_ns,
        index_replica_ns,
        join_ns,
    ];
    let msgs: Vec<(&str, u64)> = ALL_RPC_KINDS
        .iter()
        .map(|&k| (k.name(), c.db.plane().msgs(k)))
        .filter(|&(_, n)| n > 0)
        .collect();
    assert_eq!(latencies, PINNED_LATENCIES_NS);
    assert_eq!(msgs, PINNED_MSGS);
}

/// Point/range/index blocked-then-served pairs, then the join. Replica
/// reads stay inside the reader's region (no jitter); each fallback adds
/// one jittered WAN round trip to the primary.
const PINNED_LATENCIES_NS: [u64; 7] = [
    25_204_989, 40_000, 25_280_276, 40_000, 25_143_853, 40_000, 25_194_860,
];
const PINNED_MSGS: &[(&str, u64)] = &[
    ("dn_read", 26),
    ("dn_write", 2),
    ("two_pc_commit", 2),
    ("log_ship_batch", 422),
    ("rcp_gather", 168),
    ("rcp_distribute", 42),
    ("skyline_probe", 33),
];

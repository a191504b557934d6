//! The follower lifecycle, end to end: every way a node comes to follow a
//! shard's redo stream (initial placement, the rebuild at setup's
//! `finish_load`, replica restart, the survivors of a promotion, a
//! rejoining old primary, the target of a primary or replica move) and
//! every way it stops (promotion, cutover, abort), on the three-city WAN
//! with a writer running throughout.
//!
//! Two kinds of assertion. Structural: right after a follower is
//! (re)built its shipping cursor sits on its applier's resume point, its
//! incarnation moved, a takeover starts an empty redo stream and keeps
//! the old lock table, the shipping log is never trimmed past a
//! follower, and every replica equals its primary at the RCP once the
//! cluster settles. Pinned: the virtual instants and per-`RpcKind`
//! message counts of each scenario, in nanoseconds and exact counts —
//! the topology RNG is drawn once per message, so any change to the
//! order or number of sends on these paths moves them.

use gdb_model::{Row, RowKey, TableId};
use gdb_simnet::NetNodeId;
use gdb_storage::DataNodeStorage;
use gdb_wal::record::decode_all;
use gdb_wal::{Lsn, RedoPayload};
use globaldb::{
    Cluster, ClusterConfig, Datum, MigrationKind, MigrationPhase, MigrationSpec, ReplicationMode,
    RpcKind, SimDuration, SimTime, SpanKind, Timestamp,
};
use std::ops::Range;

const KEYS: i64 = 48;
const SHARD: usize = 0;

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn read_row(storage: &DataNodeStorage, table: TableId, k: i64, at: Timestamp) -> Option<Row> {
    let version = storage.table(table).ok()?.read(&RowKey::single(k), at)?;
    Some(version.row.clone())
}

struct Rig {
    c: Cluster,
    table: TableId,
    /// The keys the writer cycles over.
    keys: Vec<i64>,
    /// Next writer instant (first: the end of setup) and value.
    next: SimTime,
    seq: i64,
}

fn rig(config: ClusterConfig) -> Rig {
    let mut c = Cluster::new(config);
    c.db.obs_mut().tracer.enable(1 << 16);
    assert_initial_placement(&c);
    let table = create_kv(&mut c, "kv");
    load_kv(&mut c, table, 0..KEYS);
    c.finish_load();
    let next = c.now();
    Rig {
        c,
        table,
        keys: (0..KEYS).collect(),
        next,
        seq: 0,
    }
}

/// Create the writer's table shape as `name`.
fn create_kv(c: &mut Cluster, name: &str) -> TableId {
    c.ddl(&format!(
        "CREATE TABLE {name} (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)"
    ))
    .unwrap();
    c.db.catalog().table_by_name(name).unwrap().id
}

/// Bulk-load `keys` into `table`, each with value 0.
fn load_kv(c: &mut Cluster, table: TableId, keys: Range<i64>) {
    let rows = keys.map(|k| Row(vec![Datum::Int(k), Datum::Int(0)]));
    c.bulk_load(table, rows.collect()).unwrap();
}

impl Rig {
    /// Run the writer (one single-row update every 2 ms from CN 0,
    /// cycling over [`Rig::keys`], errors ignored — a shard may be down)
    /// and the cluster up to `until`, checking the trim floor as it goes.
    fn write_until(&mut self, until: SimTime) {
        while self.next < until {
            self.seq += 1;
            let _ = self.c.execute_sql(
                0,
                self.next,
                "UPDATE kv SET v = ? WHERE k = ?",
                &[
                    Datum::Int(self.seq),
                    Datum::Int(self.keys[self.seq as usize % self.keys.len()]),
                ],
            );
            self.next += SimDuration::from_millis(2);
            assert_trim_floor(&self.c);
        }
        self.c.run_until(until);
        assert_trim_floor(&self.c);
    }

    /// Stop writing, let replication and the RCP settle, and compare
    /// every replica with its primary at the cluster-wide RCP.
    fn settle_and_compare(&mut self) {
        let until = self.c.now() + SimDuration::from_secs(2);
        self.c.run_until(until);
        assert_trim_floor(&self.c);
        let rcp = (0..self.c.db.cns().len())
            .map(|cn| self.c.db.cn_rcp(cn))
            .min()
            .unwrap();
        assert!(rcp > Timestamp::ZERO);
        let read = |storage: &DataNodeStorage, k: i64| read_row(storage, self.table, k, rcp);
        for (s, shard) in self.c.db.shards().iter().enumerate() {
            assert!(!shard.replicas.is_empty());
            for replica in &shard.replicas {
                assert!(
                    replica.applier.max_commit_ts() >= rcp,
                    "shard {s} replica n{} behind the RCP",
                    replica.node.0
                );
                for k in 0..KEYS {
                    assert_eq!(
                        read(&shard.storage, k),
                        read(&replica.applier.storage, k),
                        "shard {s} replica n{} key {k} at rcp {rcp:?}",
                        replica.node.0
                    );
                }
            }
        }
    }

    fn epochs(&self) -> Vec<(NetNodeId, u64)> {
        self.c.db.shards()[SHARD]
            .replicas
            .iter()
            .map(|r| (r.node, r.epoch))
            .collect()
    }

    /// End of the `Migration` root span of `SHARD` (completion or abort).
    fn migration_end(&self) -> SimTime {
        self.migration_span(SpanKind::Migration).1
    }

    /// Start and end of `SHARD`'s last migration span of `kind`.
    fn migration_span(&self, kind: SpanKind) -> (SimTime, SimTime) {
        let spans = self.c.db.obs().tracer.spans();
        let span = spans
            .iter()
            .rev()
            .find(|s| s.kind == kind && s.label == SHARD as u64)
            .expect("a migration span");
        (span.start, span.end)
    }

    /// Arrival of the first batch `SHARD` shipped at or after `from`.
    fn first_arrival_since(&self, from: SimTime) -> SimTime {
        self.c
            .db
            .obs()
            .tracer
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::LogShip && s.label == SHARD as u64 && s.start >= from)
            .map(|s| s.end)
            .min()
            .expect("a batch shipped after the failover")
    }

    /// Messages per kind: `[LogShipBatch, SyncQuorumShip, MigrateSnapshot,
    /// MigrateCatchup, MigrateCutover]`.
    fn msgs(&self) -> [u64; 5] {
        [
            RpcKind::LogShipBatch,
            RpcKind::SyncQuorumShip,
            RpcKind::MigrateSnapshot,
            RpcKind::MigrateCatchup,
            RpcKind::MigrateCutover,
        ]
        .map(|k| self.c.db.plane().msgs(k))
    }
}

fn assert_initial_placement(c: &Cluster) {
    for shard in c.db.shards() {
        assert_eq!(shard.log.sealed_head(), Lsn(0));
        assert_eq!(shard.owner_epoch, 0);
        assert_eq!(shard.replicas.len(), c.db.config().replicas_per_shard);
        for r in &shard.replicas {
            assert_eq!(r.epoch, 0);
            assert_eq!(r.channel.next_lsn(), Lsn(0));
            assert_eq!(r.applier.resume_from(), Lsn(0));
            assert_eq!(r.applier.max_commit_ts(), Timestamp::ZERO);
        }
    }
}

/// Replica `idx` of `SHARD` is freshly (re)built: cursor on the resume
/// point, nothing ahead of the sealed head.
fn assert_stream_aligned(c: &Cluster, idx: usize) {
    let shard = &c.db.shards()[SHARD];
    let r = &shard.replicas[idx];
    assert_eq!(
        r.channel.next_lsn(),
        r.applier.resume_from(),
        "replica n{} cursor off its resume point",
        r.node.0
    );
    assert!(r.channel.next_lsn() <= shard.log.sealed_head());
}

fn assert_streams_aligned(c: &Cluster) {
    for idx in 0..c.db.shards()[SHARD].replicas.len() {
        assert_stream_aligned(c, idx);
    }
}

/// The shipping log is never trimmed past a replica's resume point (the
/// in-flight migration target's is private; a move that completes with
/// equal data is its witness).
fn assert_trim_floor(c: &Cluster) {
    for (s, shard) in c.db.shards().iter().enumerate() {
        let trimmed = shard.log.sealed().base_lsn();
        for r in &shard.replicas {
            assert!(
                trimmed <= r.applier.resume_from(),
                "shard {s} trimmed to {trimmed:?}, replica n{} resumes at {:?}",
                r.node.0,
                r.applier.resume_from()
            );
        }
    }
}

/// After a takeover at this instant: empty redo stream, the old lock
/// table, survivors rebuilt on the new stream with a new incarnation.
fn assert_took_over(
    r: &Rig,
    new_primary: NetNodeId,
    locks: (usize, u64),
    before: &[(NetNodeId, u64)],
) {
    let shard = &r.c.db.shards()[SHARD];
    assert_eq!(shard.primary, new_primary);
    assert_eq!(shard.log.sealed_head(), Lsn(0));
    assert_eq!(shard.log.staged_len(), 0);
    assert!(locks.0 > 0, "the writer left lock entries to carry");
    assert_eq!(
        (shard.storage.locks.len(), shard.storage.locks.waits),
        locks
    );
    assert_streams_aligned(&r.c);
    for replica in &shard.replicas {
        assert_ne!(replica.node, new_primary);
        let (_, old) = before
            .iter()
            .find(|(n, _)| *n == replica.node)
            .expect("a survivor");
        assert!(
            replica.epoch > *old,
            "survivor n{} not bumped",
            replica.node.0
        );
        assert_eq!(replica.applier.resume_from(), Lsn(0));
    }
}

fn locks(r: &Rig) -> (usize, u64) {
    let l = &r.c.db.shards()[SHARD].storage.locks;
    (l.len(), l.waits)
}

/// `Cluster::finish_load` on `c`, checked against its contract: every
/// replica is rebuilt from its primary's snapshot under its next
/// incarnation, so it equals its primary row for row in each of `tables`,
/// and every alive CN's RCP covers the load heartbeat when it returns.
fn finish_load_checked(c: &mut Cluster, tables: &[TableId]) {
    let incarnations: Vec<Vec<u64>> =
        c.db.shards()
            .iter()
            .map(|s| s.replicas.iter().map(|r| r.epoch).collect())
            .collect();
    // Every heartbeat reaches every shard's log in the order it was sent,
    // and the load heartbeat is the next one.
    let sent = c.db.stats().heartbeats_sent as usize;
    c.finish_load();
    for (s, shard) in c.db.shards().iter().enumerate() {
        for (replica, old) in shard.replicas.iter().zip(&incarnations[s]) {
            assert_eq!(
                replica.epoch,
                old + 1,
                "shard {s} replica n{}",
                replica.node.0
            );
            for &table in tables {
                for k in 0..KEYS {
                    assert_eq!(
                        read_row(&shard.storage, table, k, Timestamp::MAX),
                        read_row(&replica.applier.storage, table, k, Timestamp::MAX),
                        "shard {s} replica n{} table {table:?} key {k}",
                        replica.node.0
                    );
                }
            }
        }
    }
    let sealed = decode_all(c.db.shards()[SHARD].log.durable().segment()).unwrap();
    let heartbeat = sealed
        .iter()
        .filter_map(|rec| match rec.payload {
            RedoPayload::Heartbeat { commit_ts } => Some(commit_ts),
            _ => None,
        })
        .nth(sent)
        .expect("the load heartbeat was sealed");
    for cn in 0..c.db.cns().len() {
        assert!(
            c.db.cn_rcp(cn) >= heartbeat,
            "cn {cn} below the load heartbeat"
        );
    }
}

/// `finish_load` at setup (DDL, two bulk loads), then again in the
/// middle of a stream: after a writer ran, on a table created and loaded
/// while replication was shipping.
#[test]
fn finish_load_rebuilds_replicas_and_waits_for_the_rcp() {
    /// The second background RCP round on Three-City: the load heartbeat
    /// ships with the 5 ms flush and crosses the WAN before it.
    const SETUP_END_NS: u64 = 50_050_000;
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city());
    let table = create_kv(&mut c, "kv");
    load_kv(&mut c, table, 0..KEYS / 2);
    load_kv(&mut c, table, KEYS / 2..KEYS);
    finish_load_checked(&mut c, &[table]);
    assert_eq!(c.now().as_nanos(), SETUP_END_NS);

    let next = c.now();
    let mut r = Rig {
        c,
        table,
        keys: (0..KEYS).collect(),
        next,
        seq: 0,
    };
    r.write_until(t(200));
    let second = create_kv(&mut r.c, "kv2");
    load_kv(&mut r.c, second, 0..KEYS);
    finish_load_checked(&mut r.c, &[table, second]);
    r.next = r.c.now();
    r.write_until(t(400));
    r.settle_and_compare();
}

/// The wait ends: with a replica down at setup, its region's RCP cannot
/// cover the load heartbeat, and `finish_load` names that region.
#[test]
#[should_panic(expected = "region RegionId(1)'s RCP did not cover the load heartbeat")]
fn finish_load_names_the_region_its_rcp_cannot_cover() {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city());
    let node = c.db.crash_replica(SHARD, 0).unwrap();
    assert_eq!(c.db.topo().node_region(node).0, 1);
    c.finish_load();
}

#[test]
fn restart_replica_rewinds_to_the_resume_point() {
    let mut r = rig(ClusterConfig::globaldb_three_city());
    r.write_until(t(100));
    let before = r.epochs();
    let node = r.c.db.crash_replica(SHARD, 1).unwrap();
    r.write_until(t(180));
    let now = r.c.now();
    r.c.db.restart_replica(SHARD, 1, now);
    assert_stream_aligned(&r.c, 1);
    let replica = &r.c.db.shards()[SHARD].replicas[1];
    assert_eq!(replica.node, node);
    assert!(
        replica.epoch > before[1].1,
        "crash orphans in-flight batches"
    );
    assert!(!r.c.db.topo().is_node_down(node));
    r.write_until(t(300));
    r.settle_and_compare();
    assert_eq!(r.msgs(), [2919, 0, 0, 0, 0]);
}

#[test]
fn async_promotion_resyncs_survivors_on_an_empty_stream() {
    let mut r = rig(ClusterConfig::globaldb_three_city());
    r.write_until(t(100));
    let old_primary = r.c.db.crash_primary(SHARD);
    r.write_until(t(150));
    let (before, held) = (r.epochs(), locks(&r));
    let promoted = before[0].0;
    r.c.db.promote_replica_at(SHARD, 0, r.c.now()).unwrap();
    assert_took_over(&r, promoted, held, &before);
    assert_eq!(r.c.db.shards()[SHARD].replicas.len(), before.len() - 1);
    assert_eq!(r.c.db.routing_epoch(), 0, "promotion keeps routes valid");

    // The old primary comes back in the replica role.
    r.write_until(t(250));
    let now = r.c.now();
    r.c.db
        .rejoin_as_replica_at(SHARD, old_primary, now)
        .unwrap();
    let shard = &r.c.db.shards()[SHARD];
    let rejoined = shard.replicas.last().unwrap();
    assert_eq!(rejoined.node, old_primary);
    assert_eq!(rejoined.channel.next_lsn(), rejoined.applier.resume_from());
    assert_eq!(rejoined.channel.next_lsn(), shard.log.sealed_head());
    // Records staged past the cut stay staged: the rejoined snapshot
    // holds their transactions, and sealing them early would put future
    // commit timestamps ahead of the other followers' stream.
    assert!(shard.log.staged_len() > 0, "the writer left records staged");
    assert!(shard.log.sealed_head() > Lsn(0));
    assert_eq!(shard.replicas.len(), before.len());

    r.write_until(t(400));
    r.settle_and_compare();
    assert_eq!(r.first_arrival_since(t(150)).as_nanos(), 182_532_566);
    assert_eq!(r.msgs(), [3114, 0, 0, 0, 0]);
}

#[test]
fn sync_promotion_drains_the_stream_before_the_switch() {
    let mut config = ClusterConfig::globaldb_three_city();
    config.replication = ReplicationMode::SyncRemoteQuorum { quorum: 1 };
    let mut r = rig(config);
    r.write_until(t(100));
    r.c.db.crash_primary(SHARD);
    // Nothing reaches the replicas while the primary is down, so the
    // acknowledged tail is still only on the primary's durable log.
    r.c.run_until(t(150));
    let (before, held) = (r.epochs(), locks(&r));
    let latest =
        |r: &Rig, k: i64| read_row(&r.c.db.shards()[SHARD].storage, r.table, k, Timestamp::MAX);
    let acked: Vec<Option<Row>> = (0..KEYS).map(|k| latest(&r, k)).collect();
    let promoted = before[1].0;
    r.c.db.promote_replica_at(SHARD, 1, r.c.now()).unwrap();
    assert_took_over(&r, promoted, held, &before);
    // No acknowledged commit is lost.
    for (k, row) in acked.iter().enumerate() {
        assert_eq!(&latest(&r, k as i64), row, "key {k}");
    }
    r.next = t(152);
    r.write_until(t(300));
    r.settle_and_compare();
    assert_eq!(r.first_arrival_since(t(150)).as_nanos(), 182_634_165);
    assert_eq!(r.msgs(), [2676, 374, 0, 0, 0]);
}

#[test]
fn primary_move_takes_over_like_a_promotion() {
    const DONE_NS: u64 = 172_828_909;
    let mut r = rig(ClusterConfig::globaldb_three_city());
    // Started at 120 ms, the move cuts over while the shard's lock table
    // holds entries the last RCP round's vacuum has not swept.
    r.write_until(t(120));
    let to_region = r.c.db.regions()[1];
    r.c.start_migration(SHARD, to_region, 1).unwrap();
    let target = NetNodeId(r.c.db.topo().node_count() as u32 - 1);
    let old_primary = r.c.db.shards()[SHARD].primary;
    // Up to one nanosecond before the cutover the source still owns the
    // shard …
    r.write_until(SimTime::from_nanos(DONE_NS - 1));
    assert_eq!(r.c.db.last_migration_completed(), None);
    assert_eq!(r.c.db.shards()[SHARD].primary, old_primary);
    let (before, held) = (r.epochs(), locks(&r));
    // … and at the cutover instant the target has taken over.
    r.c.run_until(SimTime::from_nanos(DONE_NS));
    assert_eq!(r.c.db.last_migration_completed(), Some(SHARD));
    assert_eq!(r.migration_end().as_nanos(), DONE_NS);
    assert_took_over(&r, target, held, &before);
    assert_eq!(r.c.db.shards()[SHARD].replicas.len(), before.len());
    assert_eq!(r.c.db.routing_epoch(), 1);
    assert_eq!(r.c.db.shards()[SHARD].owner_epoch, 1);
    assert!(r.c.db.migrations().is_empty());

    r.write_until(t(700));
    r.settle_and_compare();
    assert_eq!(r.msgs(), [3718, 0, 1, 7, 5]);
}

/// A write every 2 ms, all to the moving shard — more often than both
/// the flush (5 ms) and the heartbeat (10 ms) — does not hold the move in
/// catch-up: the first flush after the snapshot lands ends the phase, and
/// the cutover follows one barrier round trip after the last batch
/// shipped lands, while the writer keeps going.
#[test]
fn a_move_off_a_steadily_written_shard_completes() {
    /// From the snapshot's arrival to the cutover: one flush interval,
    /// the last batch's trip and the barrier round trip to region 1 come
    /// to ≈ 40 ms.
    const BOUND: SimDuration = SimDuration::from_millis(60);
    let mut r = rig(ClusterConfig::globaldb_three_city());
    let storage = &r.c.db.shards()[SHARD].storage;
    r.keys = (0..KEYS)
        .filter(|&k| read_row(storage, r.table, k, Timestamp::MAX).is_some())
        .collect();
    assert!(r.keys.len() > 1);
    r.write_until(t(100));
    let to_region = r.c.db.regions()[1];
    r.c.start_migration(SHARD, to_region, 1).unwrap();
    r.write_until(t(400));
    assert_eq!(r.c.db.last_migration_completed(), Some(SHARD));
    let (arrived, caught_up) = r.migration_span(SpanKind::MigrationCatchup);
    assert!(
        caught_up - arrived <= SimDuration::from_millis(5),
        "catch-up ran {:?}",
        caught_up - arrived
    );
    let done = r.migration_end();
    assert!(
        done - arrived <= BOUND,
        "cutover {:?} after the snapshot",
        done - arrived
    );
    r.write_until(t(500));
    r.settle_and_compare();
}

#[test]
fn replica_move_swaps_identity_and_keeps_the_stream() {
    const DONE_NS: u64 = 172_828_909;
    let mut r = rig(ClusterConfig::globaldb_three_city());
    r.write_until(t(120));
    let moved = r.epochs()[0];
    let to_region = r.c.db.topo().node_region(moved.0);
    let to_host = r.c.db.topo().node_host(moved.0) + 1;
    r.c.start_plan(vec![MigrationSpec {
        shard: SHARD,
        kind: MigrationKind::Replica { node: moved.0 },
        to_region,
        to_host,
    }])
    .unwrap();
    let target = NetNodeId(r.c.db.topo().node_count() as u32 - 1);
    let primary = r.c.db.shards()[SHARD].primary;
    r.write_until(SimTime::from_nanos(DONE_NS - 1));
    assert_eq!(r.c.db.last_migration_completed(), None);
    let head_before = r.c.db.shards()[SHARD].log.sealed_head();
    r.c.run_until(SimTime::from_nanos(DONE_NS));
    assert_eq!(r.c.db.last_migration_completed(), Some(SHARD));
    assert_eq!(r.migration_end().as_nanos(), DONE_NS);

    // Same primary, same redo stream; slot 0 is now the target, built up
    // to the sealed head, with a new incarnation.
    let shard = &r.c.db.shards()[SHARD];
    assert_eq!(shard.primary, primary);
    assert!(shard.log.sealed_head() >= head_before);
    let swapped = &shard.replicas[0];
    assert_eq!(swapped.node, target);
    assert_eq!(swapped.region, to_region);
    assert!(swapped.epoch > moved.1);
    assert_eq!(swapped.channel.next_lsn(), swapped.applier.resume_from());
    assert_eq!(swapped.channel.next_lsn(), shard.log.sealed_head());
    assert_eq!(r.c.db.routing_epoch(), 0, "routing only names primaries");
    assert!(r.c.db.topo().is_node_retired(moved.0));

    r.write_until(t(700));
    r.settle_and_compare();
    assert_eq!(r.msgs(), [3681, 0, 1, 7, 2]);
}

#[test]
fn aborted_move_leaves_every_follower_as_it_was() {
    const ABORT_NS: u64 = 130_000_000;
    let mut r = rig(ClusterConfig::globaldb_three_city());
    r.write_until(t(100));
    let to_region = r.c.db.regions()[2];
    r.c.start_migration(SHARD, to_region, 1).unwrap();
    let target = NetNodeId(r.c.db.topo().node_count() as u32 - 1);
    let primary = r.c.db.shards()[SHARD].primary;
    let before = r.epochs();
    // The target dies mid-catch-up (the snapshot lands at ≈ 128 ms and
    // the shard's next flush, at 130 ms, ends the phase); that flush
    // aborts the member.
    r.write_until(t(129));
    assert!(matches!(r.c.db.migrations(), [m] if m.shard == SHARD));
    assert_eq!(r.c.db.migrations()[0].phase, MigrationPhase::Catchup);
    r.c.db.crash_node(target);
    r.write_until(t(400));
    let (shard, reason) = r.c.db.last_migration_aborted().unwrap().clone();
    assert_eq!((shard, reason.as_str()), (SHARD, "target down"));
    assert_eq!(r.migration_end().as_nanos(), ABORT_NS);
    assert!(r.c.db.migrations().is_empty());
    assert_eq!(r.c.db.last_migration_completed(), None);
    assert_eq!(r.c.db.shards()[SHARD].primary, primary);
    assert_eq!(r.epochs(), before, "no follower was rebuilt");
    assert_eq!(r.c.db.routing_epoch(), 0);

    r.settle_and_compare();
    assert_eq!(r.msgs(), [3122, 0, 1, 4, 0]);
}

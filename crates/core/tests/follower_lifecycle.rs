//! The follower lifecycle, end to end: every way a node comes to follow a
//! shard's redo stream (initial placement, replica restart, the survivors
//! of a promotion, a rejoining old primary, the target of a primary or
//! replica move) and every way it stops (promotion, cutover, abort), on
//! the three-city WAN with a writer running throughout.
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
use gdb_wal::Lsn;
use globaldb::{
    Cluster, ClusterConfig, Datum, MigrationKind, MigrationPhase, MigrationSpec, ReplicationMode,
    RpcKind, SimDuration, SimTime, SpanKind, Timestamp,
};

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
    /// Next writer instant and value.
    next: SimTime,
    seq: i64,
}

fn rig(mut config: ClusterConfig) -> Rig {
    // Trim (and vacuum) often enough that every scenario crosses several
    // trim points with followers at different resume points.
    config.vacuum_interval = Some(SimDuration::from_millis(40));
    let mut c = Cluster::new(config);
    c.db.obs_mut().tracer.enable(1 << 16);
    assert_initial_placement(&c);
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    let table = c.db.catalog().table_by_name("kv").unwrap().id;
    c.bulk_load(
        table,
        (0..KEYS)
            .map(|k| Row(vec![Datum::Int(k), Datum::Int(0)]))
            .collect(),
    )
    .unwrap();
    c.finish_load();
    Rig {
        c,
        table,
        next: t(10),
        seq: 0,
    }
}

impl Rig {
    /// Run the writer (one single-row update every 2 ms from CN 0,
    /// cycling over every key, errors ignored — a shard may be down)
    /// and the cluster up to `until`, checking the trim floor as it goes.
    fn write_until(&mut self, until: SimTime) {
        while self.next < until {
            self.seq += 1;
            let _ = self.c.execute_sql(
                0,
                self.next,
                "UPDATE kv SET v = ? WHERE k = ?",
                &[Datum::Int(self.seq), Datum::Int(self.seq % KEYS)],
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
        self.c
            .db
            .obs()
            .tracer
            .spans()
            .iter()
            .rev()
            .find(|s| s.kind == SpanKind::Migration && s.label == SHARD as u64)
            .expect("a migration span")
            .end
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
    assert_eq!(shard.region, r.c.db.topo().node_region(new_primary));
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
    assert_eq!(r.msgs(), [3000, 0, 0, 0, 0]);
}

#[test]
fn async_promotion_resyncs_survivors_on_an_empty_stream() {
    let mut r = rig(ClusterConfig::globaldb_three_city());
    r.write_until(t(100));
    let old_primary = r.c.db.crash_primary(SHARD);
    r.write_until(t(150));
    let (before, held) = (r.epochs(), locks(&r));
    let promoted = before[0].0;
    r.c.promote_replica(SHARD, 0).unwrap();
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
    assert_eq!(
        shard.log.staged_len(),
        0,
        "the stream is cut at the snapshot"
    );
    assert!(shard.log.sealed_head() > Lsn(0));
    assert_eq!(shard.replicas.len(), before.len());

    r.write_until(t(400));
    r.settle_and_compare();
    assert_eq!(r.first_arrival_since(t(150)).as_nanos(), 177_535_203);
    assert_eq!(r.msgs(), [3172, 0, 0, 0, 0]);
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
    r.c.promote_replica(SHARD, 1).unwrap();
    assert_took_over(&r, promoted, held, &before);
    // No acknowledged commit is lost.
    for (k, row) in acked.iter().enumerate() {
        assert_eq!(&latest(&r, k as i64), row, "key {k}");
    }
    r.next = t(152);
    r.write_until(t(300));
    r.settle_and_compare();
    assert_eq!(r.first_arrival_since(t(150)).as_nanos(), 177_846_047);
    assert_eq!(r.msgs(), [2743, 454, 0, 0, 0]);
}

#[test]
fn primary_move_takes_over_like_a_promotion() {
    const DONE_NS: u64 = 180_604_865;
    let mut r = rig(ClusterConfig::globaldb_three_city());
    r.write_until(t(100));
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
    assert_eq!(r.msgs(), [3788, 0, 1, 3, 5]);
}

#[test]
fn replica_move_swaps_identity_and_keeps_the_stream() {
    const DONE_NS: u64 = 238_937_239;
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
    assert_eq!(shard.log.staged_len(), 0, "the cutover seals everything");
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
    assert_eq!(r.msgs(), [3774, 0, 1, 6, 2]);
}

#[test]
fn aborted_move_leaves_every_follower_as_it_was() {
    const ABORT_NS: u64 = 160_734_217;
    let mut r = rig(ClusterConfig::globaldb_three_city());
    r.write_until(t(100));
    let to_region = r.c.db.regions()[2];
    r.c.start_migration(SHARD, to_region, 1).unwrap();
    let target = NetNodeId(r.c.db.topo().node_count() as u32 - 1);
    let primary = r.c.db.shards()[SHARD].primary;
    let before = r.epochs();
    // The target dies mid-catch-up; the member aborts at its next tick.
    r.write_until(t(140));
    assert_eq!(r.c.db.migrating_shards(), vec![SHARD]);
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
    assert_eq!(r.msgs(), [3200, 0, 1, 1, 0]);
}

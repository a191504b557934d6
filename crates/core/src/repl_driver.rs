//! The replication driver: the one module that knows how a node comes to
//! follow, is fed from, and takes over a shard's redo stream.
//!
//! A *follower* is a [`Replica`]: an applier replaying the stream plus
//! the primary-side shipping channel and FIFO stream cursors that feed
//! it. A shard's replicas are followers, and so is the target of an
//! in-flight migration ([`crate::migrate::Migration::target`]). Four
//! functions cover every lifecycle transition (DESIGN.md, "Replication
//! followers"):
//!
//! * [`Shard::new_follower`] — build one from the primary's state
//!   ([`Shard::rebuild_replicas`] builds every replica anew: the
//!   survivors of a takeover, and setup's `Cluster::finish_load`);
//! * [`GlobalDb::ship_next`] (and [`GlobalDb::drain_now`], its loop) —
//!   feed it the next batch;
//! * [`GlobalDb::take_over`] — make it the primary;
//! * [`Replica::restart_stream`] — resume an existing one where its
//!   applier durably stands.
//!
//! Shipping is asynchronous by default (paper §IV): a recurring flush
//! event seals each shard's staged redo and ships whatever the channels
//! drain, modelling TCP stream serialization (a saturated link queues
//! batches behind each other) and replica replay backlog explicitly.
//! The propagation leg of each batch goes through the message plane with
//! a 1-byte probe; transmission time is computed from link bandwidth
//! separately, and the remaining batch bytes are accounted on the link
//! without a second latency draw.

use crate::cluster::GlobalDb;
use crate::config::FLUSH_INTERVAL;
use crate::event::{CoreEvent, CoreSim};
use crate::migrate::Migration;
use crate::net::RpcKind;
use crate::shardlog::ShardLog;
use gdb_compress::Codec;
use gdb_model::Timestamp;
use gdb_obs::SpanKind;
use gdb_replication::{ReplicaApplier, ShippingChannel};
use gdb_simnet::{NetNodeId, RegionId, SimDuration, SimTime};
use gdb_storage::{DataNodeStorage, LockTable};
use gdb_wal::RedoRecord;

/// One follower of a shard's redo stream: a replica data node, or the
/// target of an in-flight migration.
pub struct Replica {
    pub node: NetNodeId,
    pub region: RegionId,
    pub applier: ReplicaApplier,
    pub channel: ShippingChannel,
    /// Virtual time at which the replica finishes its current replay
    /// backlog (load / freshness modelling).
    pub busy_until: SimTime,
    /// When the shipping stream finishes transmitting its current backlog
    /// — TCP serializes batches, so a saturated link queues them (FIFO)
    /// and replica freshness degrades accordingly.
    pub stream_free: SimTime,
    /// Arrival time of the previous batch (jitter on the propagation leg
    /// must not reorder a FIFO stream).
    pub last_arrival: SimTime,
    /// Incarnation counter: bumped when the replica is rebuilt (failover
    /// resync), so in-flight delivery events from the old stream are
    /// dropped instead of corrupting the new one.
    pub epoch: u64,
}

impl Replica {
    /// Restart the stream at `now` from the applier's durable resume
    /// point: whatever was drained but not yet applied died with the
    /// connection and is shipped again (duplicates replay idempotently).
    /// The caller bumps [`Replica::epoch`] when batches of the old stream
    /// may still be in flight.
    pub(crate) fn restart_stream(&mut self, now: SimTime) {
        self.channel.rewind(self.applier.resume_from());
        self.busy_until = now;
        self.stream_free = now;
        self.last_arrival = now;
    }
}

/// One shard: primary data node plus replicas.
pub struct Shard {
    pub primary: NetNodeId,
    pub storage: DataNodeStorage,
    pub log: ShardLog,
    pub replicas: Vec<Replica>,
    /// Routing epoch at which the current primary took ownership (0 =
    /// initial placement). Requests carrying an older epoch are rejected
    /// with [`gdb_model::GdbError::StaleRoute`] and re-routed.
    pub owner_epoch: u64,
}

impl Shard {
    /// Build a follower on `node` from the primary's current state: a
    /// snapshot of the storage and a stream that resumes at the sealed
    /// head. `storage` already holds the versions of the transactions
    /// whose records are still staged (commit processing installs both
    /// synchronously, the records with future apply instants), so the
    /// follower replays those records for their timestamps only:
    /// replaying their writes would repeat what the snapshot contains,
    /// out of timestamp order. They are not sealed early to align the
    /// cut: that would put a future commit timestamp into the stream
    /// every follower shares, ahead of transactions that commit below it
    /// but have not written their `PENDING_COMMIT` yet, and the RCP would
    /// pass them. Initial placement and the resync after a takeover are
    /// the empty-log case. Incarnation 0; not yet in [`Shard::replicas`].
    pub(crate) fn new_follower(
        &mut self,
        node: NetNodeId,
        region: RegionId,
        codec: Codec,
        now: SimTime,
    ) -> Replica {
        let head = self.log.sealed_head();
        let held = self.log.staged_txns().collect();
        // The snapshot's high-water mark: only what the current replicas
        // have replayed is claimed (none during `rebuild_replicas`).
        let max_ts = self
            .replicas
            .iter()
            .map(|r| r.applier.max_commit_ts())
            .max()
            .unwrap_or(Timestamp::ZERO);
        let mut channel = ShippingChannel::new(codec);
        channel.rewind(head);
        // A replica never reads the row-lock table, and a takeover
        // installs the old primary's.
        let mut storage = self.storage.clone();
        storage.locks = LockTable::new();
        Replica {
            node,
            region,
            applier: ReplicaApplier::resumed(storage, head, max_ts, held),
            channel,
            busy_until: now,
            stream_free: now,
            last_arrival: now,
            epoch: 0,
        }
    }

    /// Rebuild every replica from the primary's current state at `now`
    /// under its next incarnation, which orphans every delivery of its
    /// old stream still in flight. Nothing is charged: the survivors of a
    /// takeover and setup's `Cluster::finish_load` call it.
    pub(crate) fn rebuild_replicas(&mut self, codec: Codec, now: SimTime) {
        for old in std::mem::take(&mut self.replicas) {
            let mut replica = self.new_follower(old.node, old.region, codec, now);
            replica.epoch = old.epoch + 1;
            self.replicas.push(replica);
        }
    }
}

/// Every follower of shard `shard_idx`'s redo stream: its replicas, then
/// the targets of its in-flight migrations.
pub(crate) fn followers<'a>(
    replicas: &'a mut [Replica],
    migrations: &'a mut [Migration],
    shard_idx: usize,
) -> impl Iterator<Item = &'a mut Replica> {
    let targets = migrations
        .iter_mut()
        .filter(move |m| m.shard == shard_idx)
        .map(|m| &mut m.target);
    replicas.iter_mut().chain(targets)
}

/// What one [`GlobalDb::ship_next`] call did.
pub(crate) enum Ship {
    /// The follower has drained everything sealed; nothing was sent.
    Idle,
    /// The propagation probe found the follower unreachable; nothing was
    /// drained.
    Unreachable,
    /// One batch left for the follower's incarnation `epoch` and lands at
    /// `arrive`.
    Sent {
        epoch: u64,
        arrive: SimTime,
        records: Vec<RedoRecord>,
        wire_bytes: u64,
    },
}

impl GlobalDb {
    /// Ship the next batch of shard `shard_idx`'s sealed redo — or, with
    /// `image`, that many bytes of storage snapshot — to its follower on
    /// `node`. Over `leg` the batch costs what a TCP stream costs: a
    /// 1-byte propagation probe (latency + jitter + injected delay; sent
    /// only when there is something to ship, and before the drain, so an
    /// unreachable follower costs no encode and leaves the channel's
    /// cursor and stats alone), transmission time at link bandwidth
    /// queued FIFO behind earlier batches, and the remaining bytes
    /// charged to the link without a second latency draw. Without a leg
    /// the batch is handed over at `now`, free: the bytes are already on
    /// the follower (a synchronous quorum acknowledged them) or move
    /// under a barrier whose round trip the caller charged.
    pub(crate) fn ship_next(
        &mut self,
        shard_idx: usize,
        node: NetNodeId,
        leg: Option<RpcKind>,
        now: SimTime,
        image: Option<u64>,
    ) -> Ship {
        let GlobalDb {
            shards,
            migrations,
            plane,
            topo,
            obs,
            hot,
            ..
        } = self;
        let Shard {
            primary,
            log,
            replicas,
            ..
        } = &mut shards[shard_idx];
        let primary = *primary;
        let Some(follower) = followers(replicas, migrations, shard_idx).find(|f| f.node == node)
        else {
            return Ship::Idle;
        };
        if image.is_none() && follower.channel.backlog(log.sealed()) == 0 {
            return Ship::Idle;
        }
        let mut propagation = SimDuration::ZERO;
        if let Some(kind) = leg {
            match plane.send(topo, kind, primary, node, 1) {
                Some(delay) => propagation = delay,
                None => return Ship::Unreachable, // retried at the next flush
            }
        }
        let (records, raw_bytes, wire_bytes) = match image {
            Some(bytes) => (Vec::new(), bytes, bytes),
            None => match log.drain(&mut follower.channel) {
                Some(wire) => (
                    wire.batch.records,
                    wire.raw_bytes as u64,
                    wire.wire_bytes as u64,
                ),
                None => return Ship::Idle,
            },
        };
        let mut arrive = now;
        if let Some(kind) = leg {
            let link = topo.link(topo.node_region(primary), topo.node_region(node));
            let tx = SimDuration::from_secs_f64(
                wire_bytes as f64 / link.effective_bandwidth().max(1) as f64,
            );
            follower.stream_free = now.max(follower.stream_free) + tx;
            arrive = (follower.stream_free + propagation).max(follower.last_arrival);
            follower.last_arrival = arrive;
            // The probe carried 1 byte; account the rest on the link so
            // traffic totals reflect shipping.
            plane.charge_bytes(topo, kind, primary, node, wire_bytes.saturating_sub(1));
            if kind == RpcKind::LogShipBatch {
                // Replica shipping totals are recorded here, not derived
                // from channel stats: channels are replaced on takeover
                // and rejoin and would lose their counters. (A migration
                // is counted and spanned per phase by `migrate`.)
                let (m, ship) = (&mut obs.metrics, hot.ship);
                m.bump(ship.batches);
                m.add(ship.records, records.len() as u64);
                m.add(ship.raw_bytes, raw_bytes);
                m.add(ship.wire_bytes, wire_bytes);
                m.record(ship.batch_us, arrive.since(now));
                obs.tracer
                    .record(SpanKind::LogShip, shard_idx as u64, now, arrive);
            }
        }
        Ship::Sent {
            epoch: follower.epoch,
            arrive,
            records,
            wire_bytes,
        }
    }

    /// Feed the follower on `node` everything sealed so far and replay it
    /// at `now`, whatever the arrival times (`leg` as in
    /// [`GlobalDb::ship_next`]). Returns the wire bytes moved.
    pub(crate) fn drain_now(
        &mut self,
        shard_idx: usize,
        node: NetNodeId,
        leg: Option<RpcKind>,
        now: SimTime,
    ) -> u64 {
        let mut moved = 0;
        while let Ship::Sent {
            epoch,
            records,
            wire_bytes,
            ..
        } = self.ship_next(shard_idx, node, leg, now, None)
        {
            moved += wire_bytes;
            self.apply_batch(shard_idx, node, epoch, records, now);
        }
        moved
    }

    /// `follower` (already removed from wherever it was held) becomes the
    /// shard's primary at `now`, on a fresh, empty redo stream. The
    /// surviving replicas full-resync from it under a new incarnation,
    /// which orphans every delivery of the old stream still in flight.
    /// The caller refreshes routes and RCP groups.
    pub(crate) fn take_over(&mut self, shard_idx: usize, follower: Replica, now: SimTime) {
        let codec = self.config.codec;
        let shard = &mut self.shards[shard_idx];
        shard.primary = follower.node;
        // The old primary's row locks outlive it: commits already on the
        // durable log can carry apply instants — and commit timestamps —
        // *later* than the takeover instant (the cursor execution stages
        // them in the virtual future), and only the lock release times
        // make the next writer of such a key wait them out. Dropping the
        // lock table here would let a later writer commit the same key
        // with a smaller timestamp than a drained record's.
        let old_locks = std::mem::take(&mut shard.storage.locks);
        // Pending (uncommitted) transactions die with their coordinators.
        shard.storage = follower.applier.into_storage();
        shard.storage.locks = old_locks;
        shard.log = ShardLog::new();
        shard.rebuild_replicas(codec, now);
    }

    fn follower_mut(
        &mut self,
        shard_idx: usize,
        node: NetNodeId,
        epoch: u64,
    ) -> Option<&mut Replica> {
        let replicas = &mut self.shards[shard_idx].replicas;
        followers(replicas, &mut self.migrations, shard_idx)
            .find(|f| f.node == node && f.epoch == epoch)
    }

    /// Deliver a shipped batch at a replica: model replay time, then
    /// apply. Returns `None` if the replica incarnation is gone (failover).
    pub(crate) fn deliver_batch(
        &mut self,
        shard_idx: usize,
        node: NetNodeId,
        epoch: u64,
        record_count: usize,
        arrived: SimTime,
    ) -> Option<SimTime> {
        let replay = self.config.replay;
        let replica = self.follower_mut(shard_idx, node, epoch)?;
        let start = replica.busy_until.max(arrived);
        let done = start + replay.batch_delay(record_count);
        replica.busy_until = done;
        Some(done)
    }

    pub(crate) fn apply_batch(
        &mut self,
        shard_idx: usize,
        node: NetNodeId,
        epoch: u64,
        records: Vec<RedoRecord>,
        at: SimTime,
    ) {
        let Some(follower) = self.follower_mut(shard_idx, node, epoch) else {
            return; // stale incarnation: the replica was rebuilt/promoted
        };
        if let Err(e) = follower.applier.apply_batch_owned(records, at) {
            panic!("redo replay failed (shard {shard_idx}, node {node:?}): {e}");
        }
    }
}

/// Recurring flush event: seal one shard's redo, ship each follower
/// whatever its channel drains (the replicas over `LogShipBatch`, an
/// in-flight migration's target over `MigrateCatchup`), schedule the
/// deliveries (typed, allocation-free; followers are addressed by node id
/// and incarnation so a failover never misroutes a batch in flight), and
/// re-arm.
pub(crate) fn flush_event(w: &mut GlobalDb, sim: &mut CoreSim, shard: usize) {
    let now = sim.now();
    w.shards[shard].log.seal_upto(now);
    for i in 0..w.shards[shard].replicas.len() {
        let node = w.shards[shard].replicas[i].node;
        ship_sealed(w, sim, shard, node, RpcKind::LogShipBatch, now);
    }
    // At most one migration per shard is in flight.
    if let Some(idx) = w.migrations.iter().position(|m| m.shard == shard) {
        crate::migrate::flush_target(w, sim, idx, now);
    }
    sim.schedule_event_after(FLUSH_INTERVAL, CoreEvent::FlushShard { shard });
}

/// Ship the follower on `node` everything sealed over `leg`, scheduling
/// each batch's delivery at its arrival. False when the follower was
/// unreachable (what is left ships at the next flush).
pub(crate) fn ship_sealed(
    w: &mut GlobalDb,
    sim: &mut CoreSim,
    shard: usize,
    node: NetNodeId,
    leg: RpcKind,
    now: SimTime,
) -> bool {
    loop {
        match w.ship_next(shard, node, Some(leg), now, None) {
            Ship::Sent {
                epoch,
                arrive,
                records,
                ..
            } => sim.schedule_event_at(
                arrive,
                CoreEvent::DeliverBatch {
                    shard,
                    node,
                    epoch,
                    records,
                },
            ),
            Ship::Idle => return true,
            Ship::Unreachable => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_model::{ColumnDef, DataType, Datum, Row, RowKey, SchemaBuilder, TableId, TxnId};
    use gdb_replication::MAX_BATCH_RECORDS;
    use gdb_wal::{Lsn, RedoPayload};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::ops::Range;

    const TABLE: TableId = TableId(1);

    fn follower(node: u32, codec: Codec) -> Replica {
        let mut storage = DataNodeStorage::new();
        let schema = SchemaBuilder::new("t")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("note", DataType::Text))
            .primary_key(&["id"])
            .build(TABLE)
            .unwrap();
        storage.create_table(schema).unwrap();
        Replica {
            node: NetNodeId(node),
            region: RegionId(0),
            applier: ReplicaApplier::new(storage),
            channel: ShippingChannel::new(codec),
            busy_until: SimTime::ZERO,
            stream_free: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            epoch: 0,
        }
    }

    /// Stage 0–11 transactions of 1–4 writes, some with a PENDING_COMMIT
    /// first, some applying a little in the future, plus an occasional
    /// heartbeat.
    fn stage(log: &mut ShardLog, rng: &mut SmallRng, now: SimTime, txn: &mut u64) {
        for _ in 0..rng.gen_range(0..12) {
            *txn += 1;
            let at = now + SimDuration::from_micros(rng.gen_range(0..15));
            // A key per write: staged apply instants reorder commits,
            // which same-key row locks would otherwise have to order.
            let keys = (0..rng.gen_range(1..=4)).map(|w| (*txn * 4 + w) as i64);
            stage_txn(log, rng, at, *txn, keys.collect());
        }
        if rng.gen_bool(0.2) {
            let commit_ts = Timestamp(*txn);
            log.append(now, TxnId(0), RedoPayload::Heartbeat { commit_ts });
        }
    }

    /// Stage one transaction writing `keys`, half the time behind a
    /// PENDING_COMMIT.
    fn stage_txn(log: &mut ShardLog, rng: &mut SmallRng, at: SimTime, txn: u64, keys: Vec<i64>) {
        let id = TxnId(txn);
        if rng.gen_bool(0.5) {
            log.append(at, id, RedoPayload::PendingCommit);
        }
        for k in keys {
            let note = Datum::from(format!("note-{}", rng.gen_range(0..1000)));
            let (key, row) = (RowKey::single(k), Row(vec![Datum::Int(k), note]));
            log.append(
                at,
                id,
                RedoPayload::Insert {
                    table: TABLE,
                    key,
                    row,
                },
            );
        }
        let commit_ts = Timestamp(txn);
        log.append(at, id, RedoPayload::Commit { commit_ts });
    }

    /// The records and durable bytes of the last seal.
    type Window = (Range<Lsn>, Range<usize>);

    /// `seal_all(now)` with `all`, else the flush's `seal_upto`; a
    /// non-empty seal becomes `window`.
    fn seal(log: &mut ShardLog, now: SimTime, all: bool, window: &mut Window) {
        let (first, from) = (log.sealed_head(), log.durable().segment().len());
        let sealed = if all {
            log.seal_all(now)
        } else {
            log.seal_upto(now)
        };
        if sealed > 0 {
            *window = (
                first..log.sealed_head(),
                from..log.durable().segment().len(),
            );
        }
    }

    #[derive(Default)]
    struct Tally {
        hits: u64,
        misses: u64,
    }

    /// A seeded redo stream through one shard log and three followers: a
    /// steady one, one partitioned for some flushes that catches up
    /// across windows, and one whose in-flight batches die with a
    /// [`Replica::restart_stream`]. Seals are the flush's `seal_upto`
    /// and, now and then, a migration-style `seal_all` between flushes.
    /// Every batch ships exactly `LogBatch::encode` of its records and the
    /// codec's length of those bytes; a batch shipped from the window is
    /// exactly the window's records and the durable frames of that seal.
    fn run_stream(seed: u64, codec: Codec) -> [Tally; 3] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut log = ShardLog::new();
        let mut followers = [follower(1, codec), follower(2, codec), follower(3, codec)];
        let mut in_flight: Vec<Vec<RedoRecord>> = Vec::new();
        let mut tally: [Tally; 3] = Default::default();
        let (mut txn, mut window): (u64, Window) = (0, (Lsn(0)..Lsn(0), 0..0));
        for flush in 1..=300u64 {
            let now = SimTime::from_micros(10 * flush);
            stage(&mut log, &mut rng, now, &mut txn);
            if flush % 100 == 50 {
                // A window longer than a batch: batches that start at its
                // first record stop short of its end. Negative keys stay
                // clear of the small transactions' keys.
                txn += 1;
                let keys = (0..=MAX_BATCH_RECORDS as i64).map(|w| -(w + 1) - txn as i64 * 8192);
                stage_txn(&mut log, &mut rng, now, txn, keys.collect());
            }
            if rng.gen_bool(0.1) {
                seal(&mut log, now, true, &mut window);
                stage(&mut log, &mut rng, now, &mut txn);
            }
            seal(&mut log, now, false, &mut window);
            let partitioned = rng.gen_bool(0.3);
            let restart = rng.gen_bool(0.15);
            for (i, f) in followers.iter_mut().enumerate() {
                if i == 1 && partitioned && flush < 300 {
                    continue;
                }
                if i == 2 {
                    if restart {
                        in_flight.clear();
                        f.restart_stream(now);
                    }
                    for batch in in_flight.drain(..) {
                        f.applier.apply_batch_owned(batch, now).unwrap();
                    }
                }
                loop {
                    let framed = f.channel.stats.framed_records;
                    let Some(wire) = log.drain(&mut f.channel) else {
                        break;
                    };
                    let raw = wire.batch.encode();
                    assert_eq!(wire.raw_bytes, raw.len(), "seed {seed} {codec:?}");
                    assert_eq!(wire.wire_bytes, codec.encode(&raw).len(), "seed {seed}");
                    let lsns = wire.batch.first_lsn..f.channel.next_lsn();
                    if f.channel.stats.framed_records == framed {
                        assert_eq!(lsns, window.0, "a window hit is the window");
                        let frames = &log.durable().segment()[window.1.clone()];
                        assert_eq!(frames, &raw[..], "a window hit ships the frames");
                        tally[i].hits += 1;
                    } else {
                        assert_eq!(
                            f.channel.stats.framed_records - framed,
                            wire.batch.len() as u64
                        );
                        tally[i].misses += 1;
                    }
                    if i == 2 && flush < 300 {
                        in_flight.push(wire.batch.records);
                    } else {
                        f.applier
                            .apply_batch_owned(wire.batch.records, now)
                            .unwrap();
                    }
                }
            }
            let floor = followers.iter().map(|f| f.applier.resume_from()).min();
            log.trim_shipped(floor.unwrap());
        }
        for f in &followers {
            assert_eq!(f.applier.applied_lsn(), log.sealed_head(), "seed {seed}");
        }
        tally
    }

    #[test]
    fn window_path_is_exact() {
        let mut totals: [Tally; 3] = Default::default();
        for codec in [Codec::None, Codec::Lz4] {
            for seed in 1..=3 {
                for (total, t) in totals.iter_mut().zip(run_stream(seed, codec)) {
                    total.hits += t.hits;
                    total.misses += t.misses;
                }
            }
        }
        for (name, t) in ["steady", "partitioned", "restarted"].iter().zip(&totals) {
            assert!(
                t.hits > 0 && t.misses > 0,
                "{name}: {} hits, {} misses",
                t.hits,
                t.misses
            );
        }
        // The steady follower misses only windows longer than a batch and
        // flushes that follow a `seal_all`.
        assert!(totals[0].hits > totals[0].misses);
    }
}

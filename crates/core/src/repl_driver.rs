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
//! * [`Shard::new_follower`] — build one from the primary's state;
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

use crate::cluster::{Cluster, GlobalDb};
use crate::event::{CoreEvent, CoreSim};
use crate::migrate::Migration;
use crate::net::RpcKind;
use crate::shardlog::ShardLog;
use gdb_compress::Codec;
use gdb_model::Timestamp;
use gdb_obs::SpanKind;
use gdb_replication::{ReplicaApplier, ShippingChannel};
use gdb_simnet::{NetNodeId, RegionId, SimDuration, SimTime};
use gdb_storage::DataNodeStorage;
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
    pub region: RegionId,
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
    /// head. The *entire* staged log is sealed first so the stream cut
    /// aligns with the snapshot: `storage` already holds versions whose
    /// records are staged with future apply instants (commit processing
    /// installs both synchronously), and shipping those after the cut
    /// would replay writes the snapshot contains — out of timestamp
    /// order. Initial placement and the resync after a takeover are the
    /// empty-log case. Incarnation 0; not yet in [`Shard::replicas`].
    pub(crate) fn new_follower(
        &mut self,
        node: NetNodeId,
        region: RegionId,
        codec: Codec,
        now: SimTime,
    ) -> Replica {
        self.log.seal_all(now);
        let head = self.log.sealed_head();
        // The snapshot's high-water mark: only what the current replicas
        // have replayed is claimed (none yet right after a takeover).
        let max_ts = self
            .replicas
            .iter()
            .map(|r| r.applier.max_commit_ts())
            .max()
            .unwrap_or(Timestamp::ZERO);
        let mut channel = ShippingChannel::new(codec);
        channel.rewind(head);
        Replica {
            node,
            region,
            applier: ReplicaApplier::resumed(self.storage.clone(), head, max_ts),
            channel,
            busy_until: now,
            stream_free: now,
            last_arrival: now,
            epoch: 0,
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
                None => return Ship::Unreachable, // retried at the next round
            }
        }
        let (records, raw_bytes, wire_bytes) = match image {
            Some(bytes) => (Vec::new(), bytes, bytes),
            None => match follower.channel.drain(log.sealed()) {
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
        shard.region = follower.region;
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
        for old in std::mem::take(&mut shard.replicas) {
            let mut replica = shard.new_follower(old.node, old.region, codec, now);
            replica.epoch = old.epoch + 1;
            shard.replicas.push(replica);
        }
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

impl Cluster {
    /// Ship and apply everything sealed so far without network delay
    /// (setup helper).
    pub(crate) fn sync_replicas_now(&mut self) {
        let now = self.sim.now();
        for s in 0..self.db.shards.len() {
            self.db.shards[s].log.seal_upto(now);
            for i in 0..self.db.shards[s].replicas.len() {
                let node = self.db.shards[s].replicas[i].node;
                self.db.drain_now(s, node, Some(RpcKind::LogShipBatch), now);
            }
        }
    }
}

/// Recurring flush event: seal one shard's redo, ship each replica
/// whatever its channel drains, schedule the deliveries (typed,
/// allocation-free; replicas are addressed by node id + incarnation so a
/// failover never misroutes a batch in flight), and re-arm.
pub(crate) fn flush_event(w: &mut GlobalDb, sim: &mut CoreSim, shard: usize) {
    let now = sim.now();
    w.shards[shard].log.seal_upto(now);
    for i in 0..w.shards[shard].replicas.len() {
        let node = w.shards[shard].replicas[i].node;
        while let Ship::Sent {
            epoch,
            arrive,
            records,
            ..
        } = w.ship_next(shard, node, Some(RpcKind::LogShipBatch), now, None)
        {
            sim.schedule_event_at(
                arrive,
                CoreEvent::DeliverBatch {
                    shard,
                    node,
                    epoch,
                    records,
                },
            );
        }
    }
    let interval = w.config.flush_interval;
    sim.schedule_event_after(interval, CoreEvent::FlushShard { shard });
}

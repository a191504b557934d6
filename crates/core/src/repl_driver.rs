//! The replication driver: redo log shipping from primaries to replicas.
//!
//! Owns the [`Replica`] / [`Shard`] state and the batch pipeline — seal,
//! drain, FIFO stream transmission, propagation, replay, apply. Shipping
//! is asynchronous by default (paper §IV): a recurring flush event seals
//! each shard's staged redo and ships whatever the channels drained,
//! modelling TCP stream serialization (a saturated link queues batches
//! behind each other) and replica replay backlog explicitly.
//!
//! The propagation leg of each batch goes through the message plane
//! ([`RpcKind::LogShipBatch`]) with a minimal payload; transmission time
//! is computed from link bandwidth separately, and the remaining batch
//! bytes are accounted on the link without a second latency draw.

use crate::cluster::{Cluster, GlobalDb};
use crate::event::{CoreEvent, CoreSim};
use crate::net::RpcKind;
use crate::shardlog::ShardLog;
use gdb_obs::SpanKind;
use gdb_replication::{ReplicaApplier, ShippingChannel};
use gdb_simnet::{NetNodeId, RegionId, SimDuration, SimTime};
use gdb_storage::DataNodeStorage;
use gdb_wal::RedoRecord;

/// One replica data node of a shard.
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

impl GlobalDb {
    /// Seal and ship one shard's redo to its replicas. Returns the
    /// deliveries to schedule: `(replica node, epoch, deliver_at, records)`
    /// — replicas are addressed by node id + incarnation so failover never
    /// misroutes in-flight batches.
    pub(crate) fn flush_shard(
        &mut self,
        shard_idx: usize,
        now: SimTime,
    ) -> Vec<(NetNodeId, u64, SimTime, Vec<RedoRecord>)> {
        let shard_region = self.shards[shard_idx].region;
        let shard = &mut self.shards[shard_idx];
        shard.log.seal_upto(now);
        let mut deliveries = Vec::new();
        let mut shipped: Vec<(NetNodeId, u64, u64, u64, SimTime)> = Vec::new();
        for replica in shard.replicas.iter_mut() {
            while replica.channel.backlog(shard.log.sealed()) > 0 {
                // Propagation (latency + jitter + injected delay) with a
                // minimal payload; transmission is modelled separately so
                // a saturated stream queues batches behind each other.
                // Probed before the drain: an unreachable replica costs no
                // encode and leaves the channel's cursor and stats alone.
                let Some(propagation) = self.plane.send(
                    &mut self.topo,
                    RpcKind::LogShipBatch,
                    shard.primary,
                    replica.node,
                    1,
                ) else {
                    break; // retried at the next flush
                };
                let Some(wire) = replica.channel.drain(shard.log.sealed()) else {
                    break;
                };
                let link = self
                    .topo
                    .link(shard_region, self.topo.node_region(replica.node));
                let tx = SimDuration::from_secs_f64(
                    wire.wire_bytes as f64 / link.effective_bandwidth().max(1) as f64,
                );
                let start = now.max(replica.stream_free);
                replica.stream_free = start + tx;
                let arrive = (replica.stream_free + propagation).max(replica.last_arrival);
                replica.last_arrival = arrive;
                shipped.push((
                    replica.node,
                    wire.batch.records.len() as u64,
                    wire.raw_bytes as u64,
                    wire.wire_bytes as u64,
                    arrive,
                ));
                deliveries.push((replica.node, replica.epoch, arrive, wire.batch.records));
            }
        }
        // Shipping totals are recorded here, not derived from channel
        // stats: channels are replaced on promote/rejoin and would lose
        // their counters.
        let primary = self.shards[shard_idx].primary;
        let ship = self.hot.ship;
        for (node, records, raw, wire, arrive) in shipped {
            let m = &mut self.obs.metrics;
            m.bump(ship.batches);
            m.add(ship.records, records);
            m.add(ship.raw_bytes, raw);
            m.add(ship.wire_bytes, wire);
            m.record(ship.batch_us, arrive.since(now));
            // The propagation probe above carried 1 byte; account the rest
            // of the batch on the link so traffic totals reflect shipping.
            self.plane.charge_bytes(
                &mut self.topo,
                RpcKind::LogShipBatch,
                primary,
                node,
                wire.saturating_sub(1),
            );
            self.obs
                .tracer
                .record(SpanKind::LogShip, shard_idx as u64, now, arrive);
        }
        deliveries
    }

    fn replica_mut(
        &mut self,
        shard_idx: usize,
        node: NetNodeId,
        epoch: u64,
    ) -> Option<&mut Replica> {
        self.shards[shard_idx]
            .replicas
            .iter_mut()
            .find(|r| r.node == node && r.epoch == epoch)
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
        let replica = self.replica_mut(shard_idx, node, epoch)?;
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
        let Some(replica) = self.replica_mut(shard_idx, node, epoch) else {
            return; // stale incarnation: the replica was rebuilt/promoted
        };
        if let Err(e) = replica.applier.apply_batch_owned(records, at) {
            panic!("replica replay failed (shard {shard_idx}, node {node:?}): {e}");
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
            let deliveries = self.db.flush_shard(s, now);
            for (node, epoch, _at, records) in deliveries {
                self.db.apply_batch(s, node, epoch, records, now);
            }
        }
    }
}

/// Recurring flush event: ship one shard's sealed redo, schedule the
/// deliveries and replays (typed, allocation-free), and re-arm.
pub(crate) fn flush_event(w: &mut GlobalDb, sim: &mut CoreSim, shard: usize) {
    let now = sim.now();
    let deliveries = w.flush_shard(shard, now);
    for (node, epoch, deliver_at, records) in deliveries {
        sim.schedule_event_at(
            deliver_at,
            CoreEvent::DeliverBatch {
                shard,
                node,
                epoch,
                records,
            },
        );
    }
    let interval = w.config.flush_interval;
    sim.schedule_event_after(interval, CoreEvent::FlushShard { shard });
}

//! Node lifecycle and fault injection: the chaos subsystem's entry points.
//!
//! Every method here takes `&mut GlobalDb` (not `Cluster`) so fault plans
//! can fire from *inside* scheduled simulation events, exactly like the
//! background activities they disturb. This module centralizes the
//! interleaved crash/heal ordering rules — what survives a crash (durable
//! WAL, applier state), when an incarnation bump orphans in-flight
//! deliveries, and which node may (re)join which shard — so overlapping
//! fault plans compose without bespoke per-test recovery code. How a
//! follower is rebuilt, drained or promoted is [`crate::repl_driver`]'s
//! business; the transitions here only decide *that* it happens.

use crate::cluster::GlobalDb;
use gdb_model::{GdbError, GdbResult};
use gdb_simnet::{NetNodeId, NodeKind, RegionId, SimDuration, SimTime};

impl GlobalDb {
    /// Crash an arbitrary node: messages to/from it are dropped.
    pub fn crash_node(&mut self, node: NetNodeId) {
        self.topo.set_node_down(node, true);
    }

    /// Bring a crashed node back (topology level only — see the typed
    /// restart methods for state resynchronization).
    pub fn restore_node(&mut self, node: NetNodeId) {
        self.topo.set_node_down(node, false);
    }

    /// Crash a shard's primary data node. Replicas keep serving reads at
    /// the RCP; writes to the shard fail (retryably) until the primary
    /// restarts or a replica is promoted. Returns the crashed node.
    pub fn crash_primary(&mut self, shard_idx: usize) -> NetNodeId {
        let node = self.shards[shard_idx].primary;
        self.crash_node(node);
        node
    }

    /// Restart a crashed primary in place: its WAL survived, so replicas
    /// simply resume draining the redo stream where they left off (the
    /// shipping loop retries automatically once the node is reachable).
    pub fn restart_primary(&mut self, shard_idx: usize) {
        let node = self.shards[shard_idx].primary;
        self.restore_node(node);
    }

    /// Crash one replica of a shard. In-flight redo batches die with the
    /// connection (the incarnation bump drops them); the applier's durable
    /// state — applied rows, pending-transaction buffers rebuilt from its
    /// WAL — survives for [`GlobalDb::restart_replica`].
    pub fn crash_replica(&mut self, shard_idx: usize, replica_idx: usize) -> Option<NetNodeId> {
        let replica = self.shards[shard_idx].replicas.get_mut(replica_idx)?;
        replica.epoch += 1; // orphan in-flight deliver events
        let node = replica.node;
        self.crash_node(node);
        Some(node)
    }

    /// Restart a crashed replica with WAL catch-up: the shipping channel
    /// rewinds to the applier's durable resume point and the lost tail is
    /// re-shipped (duplicates replay idempotently).
    pub fn restart_replica(&mut self, shard_idx: usize, replica_idx: usize, now: SimTime) {
        let Some(replica) = self.shards[shard_idx].replicas.get_mut(replica_idx) else {
            return;
        };
        replica.restart_stream(now);
        let node = replica.node;
        self.restore_node(node);
    }

    /// Crash the GTM server node. GClock-mode commits are unaffected; GTM
    /// and DUAL mode commits (and GTM-routed begins) fail retryably until
    /// [`GlobalDb::restart_gtm`].
    pub fn crash_gtm(&mut self) {
        self.crash_node(self.gtm_node);
    }

    /// GTM failover: a standby takes over at the same address. The
    /// timestamp counter never regresses — it was replicated via
    /// `observe_commit` and commit persistence, so the new incumbent
    /// resumes from the durable maximum.
    pub fn restart_gtm(&mut self) {
        self.restore_node(self.gtm_node);
    }

    /// Crash a computing node. Transactions routed to it fail retryably;
    /// if it was its region's RCP collector, the next alive CN in the
    /// region takes over at the next collection round.
    pub fn crash_cn(&mut self, cn: usize) {
        let node = self.cns[cn].node;
        self.crash_node(node);
    }

    /// Restart a crashed CN: it rejoins with a freshly synced clock and
    /// its old (monotone) RCP value, adopting newer values at the next
    /// distribution round.
    pub fn restart_cn(&mut self, cn: usize, now: SimTime) {
        let node = self.cns[cn].node;
        self.restore_node(node);
        self.sync_cn_clock(cn, now);
    }

    /// Cut a CN's clock-sync daemon off from its regional time device.
    /// The clock keeps running on its crystal: drift accumulates and the
    /// error bound grows without bound, stretching GClock commit waits,
    /// until [`GlobalDb::resume_clock_sync`].
    pub fn block_clock_sync(&mut self, cn: usize) {
        if cn < self.clock_sync_blocked.len() {
            self.clock_sync_blocked[cn] = true;
        }
    }

    /// Reconnect a CN's clock-sync daemon and sync immediately.
    pub fn resume_clock_sync(&mut self, cn: usize, now: SimTime) {
        if cn < self.clock_sync_blocked.len() {
            self.clock_sync_blocked[cn] = false;
        }
        self.sync_cn_clock(cn, now);
    }

    /// Partition two regions (by index into [`GlobalDb::regions`]):
    /// messages between them are dropped until healed.
    pub fn partition_regions(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.regions[a], self.regions[b]);
        self.topo.partition(ra, rb);
    }

    /// Heal a region partition.
    pub fn heal_regions(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.regions[a], self.regions[b]);
        self.topo.heal(ra, rb);
    }

    /// Inject a `tc`-style extra one-way delay on every inter-host
    /// message (transient jitter spike); `ZERO` clears it.
    pub fn set_injected_delay(&mut self, delay: SimDuration) {
        self.topo.set_injected_delay(delay);
    }

    /// Promote one of a shard's replicas to primary at virtual time `now`
    /// (see [`crate::Cluster::promote_replica`] for the durability
    /// semantics).
    pub fn promote_replica_at(
        &mut self,
        shard_idx: usize,
        replica_idx: usize,
        now: SimTime,
    ) -> GdbResult<()> {
        if replica_idx >= self.shards[shard_idx].replicas.len() {
            return Err(GdbError::Internal(format!(
                "shard {shard_idx} has no replica {replica_idx}"
            )));
        }

        if self.config.replication.is_sync() {
            // Acknowledged commits are durable on the quorum: deliver the
            // whole outstanding stream to the chosen replica first. Seal
            // everything, including records staged with a later apply
            // instant — appending happens when the commit's WAL write is
            // issued, so staged records are already on the durable log the
            // quorum acknowledged.
            self.shards[shard_idx].log.seal_all(now);
            // Batches drained for this replica but still in flight die
            // with the failover (their delivery events are orphaned once
            // the replica leaves the list below), so restart the stream
            // from the applier's durable resume point — otherwise the
            // drain would skip the in-flight tail and leave a replay gap.
            let replica = &mut self.shards[shard_idx].replicas[replica_idx];
            replica.restart_stream(now);
            let node = replica.node;
            self.drain_now(shard_idx, node, None, now);
        }
        let promoted = self.shards[shard_idx].replicas.remove(replica_idx);
        self.take_over(shard_idx, promoted, now);

        // Replica membership changed: rebuild the per-region RCP groups.
        self.rebuild_rcp_groups();
        // The primary moved (no routing-epoch bump on promotion — routes
        // to the shard stay valid, only the destination node changed):
        // refresh the flat routing table so O(1) lookups see the new
        // primary and the nearest-shard cache tracks the new placement.
        self.rebuild_routes();
        Ok(())
    }

    /// Re-admit a recovered node as a replica of `shard` at `now` (see
    /// [`crate::Cluster::rejoin_as_replica`]). Fails, changing nothing,
    /// when the node already hosts the shard — a crashed primary nobody
    /// replaced is restarted, not rejoined: as its own replica it would
    /// ship to, and serve replica reads as, itself — or was retired.
    pub fn rejoin_as_replica_at(
        &mut self,
        shard_idx: usize,
        node: NetNodeId,
        now: SimTime,
    ) -> GdbResult<()> {
        let shard = &self.shards[shard_idx];
        if node == shard.primary || shard.replicas.iter().any(|r| r.node == node) {
            return Err(GdbError::Execution(format!(
                "node {} already hosts shard {shard_idx}",
                node.0
            )));
        }
        if self.topo.is_node_retired(node) {
            return Err(GdbError::Execution(format!("node {} was retired", node.0)));
        }
        self.topo.set_node_down(node, false);
        let (region, codec) = (self.topo.node_region(node), self.config.codec);
        let shard = &mut self.shards[shard_idx];
        let replica = shard.new_follower(node, region, codec, now);
        shard.replicas.push(replica);
        self.rebuild_rcp_groups();
        Ok(())
    }

    // ---- Elastic membership: online node add / drain / retire ----------

    /// Provision a spare data node on `(region, host)` — elastic
    /// scale-out. The node carries no shards yet; it advertises the host
    /// slot to the rebalancer, which moves primaries/replicas onto it
    /// through the normal migration path. Draws no RNG, so an idle join
    /// leaves the trace unchanged.
    pub fn join_data_node(&mut self, region: RegionId, host: u16) -> NetNodeId {
        self.topo.add_node(region, host, NodeKind::DataNodeReplica)
    }

    /// Mark a host slot as draining (elastic scale-in): the rebalancer's
    /// cost model treats every placement on it as maximally expensive and
    /// proposes moves off it; once empty — and no in-flight migration
    /// touches it — its data nodes are retired permanently by
    /// [`GlobalDb::maybe_retire_drained`]. Co-located CNs/GTM stay.
    pub fn mark_host_draining(&mut self, region: RegionId, host: u16) {
        if !self.draining.contains(&(region, host)) {
            self.draining.push((region, host));
        }
    }

    /// Shard placements currently on `(region, host)`: primary shard
    /// indices and `(shard, replica node)` pairs.
    pub fn host_placements(
        &self,
        region: RegionId,
        host: u16,
    ) -> (Vec<usize>, Vec<(usize, NetNodeId)>) {
        let mut primaries = Vec::new();
        let mut replicas = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            if self.topo.node_region(shard.primary) == region
                && self.topo.node_host(shard.primary) == host
            {
                primaries.push(s);
            }
            for r in &shard.replicas {
                if self.topo.node_region(r.node) == region && self.topo.node_host(r.node) == host {
                    replicas.push((s, r.node));
                }
            }
        }
        (primaries, replicas)
    }

    /// Retire the data nodes of every draining host that has emptied
    /// (no primary, no replica, no in-flight migration endpoint on it).
    /// Called after every migration-plan completion or abort, so a
    /// drain self-completes the moment its last move lands; callable
    /// directly to force a sweep.
    pub fn maybe_retire_drained(&mut self) {
        let mut i = 0;
        while i < self.draining.len() {
            let (region, host) = self.draining[i];
            let (primaries, replicas) = self.host_placements(region, host);
            let busy = self.migrations.iter().any(|m| {
                [m.source, m.target.node]
                    .iter()
                    .any(|&n| self.topo.node_region(n) == region && self.topo.node_host(n) == host)
            });
            if primaries.is_empty() && replicas.is_empty() && !busy {
                for n in 0..self.topo.node_count() {
                    let node = NetNodeId(n as u32);
                    if self.topo.node_region(node) == region
                        && self.topo.node_host(node) == host
                        && matches!(
                            self.topo.node_kind(node),
                            NodeKind::DataNodePrimary | NodeKind::DataNodeReplica
                        )
                        && !self.topo.is_node_retired(node)
                    {
                        self.topo.retire_node(node);
                    }
                }
                self.draining.remove(i);
                self.last_host_retired = Some((region, host));
                if !self.retired_hosts.contains(&(region, host)) {
                    self.retired_hosts.push((region, host));
                }
            } else {
                i += 1;
            }
        }
    }
}

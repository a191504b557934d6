//! The fault taxonomy and its application to a live cluster.
//!
//! Each [`Fault`] maps onto the fault-injection API of
//! [`globaldb::GlobalDb`], so a fault fires from *inside* a scheduled
//! simulation event exactly like the background activity it disturbs.

use gdb_simnet::NetNodeId;
use globaldb::{CoreSim, GlobalDb, SimDuration, SimTime};
use std::collections::HashMap;

/// One injectable fault. Injection faults usually come paired with their
/// recovery counterpart later in the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Crash a shard's primary DN. Writes to the shard fail (retryably)
    /// until recovery; replicas keep serving RCP reads.
    CrashPrimary { shard: usize },
    /// Restart a crashed primary in place: its WAL survived, replicas
    /// catch up by resuming the redo stream where they left off.
    RestartPrimary { shard: usize },
    /// Fail over: promote a replica of the shard to primary (remaining
    /// replicas full-resync; sync-mode promotions lose nothing).
    PromoteReplica { shard: usize, replica: usize },
    /// Re-admit the most recently crashed primary of `shard` as a replica
    /// (full resync from the current primary, then stream-follow).
    RejoinOldPrimary { shard: usize },
    /// Crash one replica DN; in-flight redo batches die with it.
    CrashReplica { shard: usize, replica: usize },
    /// Restart a crashed replica with WAL catch-up (the channel rewinds
    /// to its durable resume point).
    RestartReplica { shard: usize, replica: usize },
    /// Crash the GTM server. GClock commits are unaffected; GTM/DUAL
    /// commits fail retryably.
    CrashGtm,
    /// GTM failover: the standby resumes from the durable counter.
    RestartGtm,
    /// Crash a computing node — if it is its region's RCP collector, the
    /// next alive CN takes over at the next round.
    CrashCn { cn: usize },
    /// Restart a crashed CN with a fresh clock sync.
    RestartCn { cn: usize },
    /// Partition two regions (indexes into `GlobalDb::regions`).
    PartitionRegions { a: usize, b: usize },
    /// Heal a region partition.
    HealRegions { a: usize, b: usize },
    /// `tc`-style transient delay spike on every inter-host message.
    DelaySpike { extra: SimDuration },
    /// End the delay spike.
    ClearDelay,
    /// Cut a CN's clock-sync daemon off its time device: drift (and the
    /// commit-wait error bound) grows until sync resumes.
    ClockSyncOutage { cn: usize },
    /// Reconnect the clock-sync daemon (immediate sync).
    ClockSyncResume { cn: usize },
    /// Start an online migration of `shard` to a freshly provisioned DN
    /// on `(to_region, to_host)` — rebalancing as a chaos event, racing
    /// the surrounding faults to its cutover. Skips (trace-visibly) when
    /// a migration is already in flight or the source is down.
    StartMigration {
        shard: usize,
        to_region: usize,
        to_host: u16,
    },
    /// Crash the in-flight migration's target DN mid-copy. The executor
    /// must abort and leave routing/ownership exactly at the source; a
    /// no-op when no migration is in flight.
    CrashMigrationTarget,
    /// Restore the migration target downed by [`Fault::CrashMigrationTarget`]
    /// (by then an orphan DN — the abort already dropped it from the
    /// shard map).
    RestoreMigrationTarget,
    /// Crash the *source* of an in-flight migration — preferring a member
    /// parked at its cutover barrier, so the batched plan's cutover-time
    /// guard re-check is what catches it. The executor must abort that
    /// member without disturbing its plan-mates; a no-op when no
    /// migration is in flight.
    CrashMigrationSource,
    /// Restore the node downed by [`Fault::CrashMigrationSource`] through
    /// its typed recovery path (it is still the shard's live primary or
    /// replica — the abort left ownership at the source).
    RestoreMigrationSource,
    /// Elastic scale-out: provision a spare data node on `(region, host)`
    /// mid-traffic. It carries nothing until a drain or the rebalancer
    /// moves placements onto it.
    AddNode { region: usize, host: u16 },
    /// Elastic scale-in: mark `(region, host)` draining and start the
    /// batched plan that empties it (skipping shards already migrating —
    /// re-issue to finish). Its data nodes retire once the last placement
    /// leaves.
    RemoveNode { region: usize, host: u16 },
}

/// Runtime memory the engine keeps while a plan executes — currently the
/// identity of crashed-and-replaced primaries, so `RejoinOldPrimary` can
/// name a node that only exists at execution time.
#[derive(Debug, Default)]
pub struct ChaosState {
    /// Last crashed primary node per shard (consumed by rejoin).
    pub crashed_primaries: HashMap<usize, NetNodeId>,
    /// Migration target downed by `CrashMigrationTarget` (consumed by
    /// `RestoreMigrationTarget`).
    pub crashed_migration_target: Option<NetNodeId>,
    /// `(node, shard)` downed by `CrashMigrationSource` (consumed by
    /// `RestoreMigrationSource`).
    pub crashed_migration_source: Option<(NetNodeId, usize)>,
}

impl Fault {
    /// Apply the fault to the world at virtual time `now`. Returns the
    /// trace line describing what actually happened — including the cases
    /// where the fault degenerates to a no-op (e.g. restarting a replica
    /// that a promotion removed in the meantime). Takes the event engine
    /// because starting a migration schedules its own follow-up ticks.
    pub fn apply(
        &self,
        db: &mut GlobalDb,
        sim: &mut CoreSim,
        state: &mut ChaosState,
        now: SimTime,
    ) -> String {
        if let Some(skip) = self.out_of_range(db) {
            return skip;
        }
        match *self {
            Fault::CrashPrimary { shard } => {
                let node = db.crash_primary(shard);
                state.crashed_primaries.insert(shard, node);
                format!("fault crash-primary shard={shard} node={}", node.0)
            }
            Fault::RestartPrimary { shard } => {
                db.restart_primary(shard);
                state.crashed_primaries.remove(&shard);
                format!("recover restart-primary shard={shard}")
            }
            Fault::PromoteReplica { shard, replica } => {
                if replica >= db.shards()[shard].replicas.len() {
                    return format!("skip promote shard={shard}: no replica {replica}");
                }
                match db.promote_replica_at(shard, replica, now) {
                    Ok(()) => format!("recover promote shard={shard} replica={replica}"),
                    Err(e) => format!("skip promote shard={shard}: {e}"),
                }
            }
            Fault::RejoinOldPrimary { shard } => {
                let Some(node) = state.crashed_primaries.remove(&shard) else {
                    return format!("skip rejoin shard={shard}: no crashed primary");
                };
                match db.rejoin_as_replica_at(shard, node, now) {
                    Ok(()) => format!("recover rejoin shard={shard} node={}", node.0),
                    Err(e) => format!("skip rejoin shard={shard}: {e}"),
                }
            }
            Fault::CrashReplica { shard, replica } => match db.crash_replica(shard, replica) {
                Some(node) => {
                    format!(
                        "fault crash-replica shard={shard} replica={replica} node={}",
                        node.0
                    )
                }
                None => format!("skip crash-replica shard={shard}: no replica {replica}"),
            },
            Fault::RestartReplica { shard, replica } => {
                db.restart_replica(shard, replica, now);
                format!("recover restart-replica shard={shard} replica={replica}")
            }
            Fault::CrashGtm => {
                db.crash_gtm();
                "fault crash-gtm".into()
            }
            Fault::RestartGtm => {
                db.restart_gtm();
                "recover restart-gtm".into()
            }
            Fault::CrashCn { cn } => {
                db.crash_cn(cn);
                format!("fault crash-cn cn={cn}")
            }
            Fault::RestartCn { cn } => {
                db.restart_cn(cn, now);
                format!("recover restart-cn cn={cn}")
            }
            Fault::PartitionRegions { a, b } => {
                db.partition_regions(a, b);
                format!("fault partition regions {a}<->{b}")
            }
            Fault::HealRegions { a, b } => {
                db.heal_regions(a, b);
                format!("recover heal regions {a}<->{b}")
            }
            Fault::DelaySpike { extra } => {
                db.set_injected_delay(extra);
                format!("fault delay-spike +{}us", extra.as_micros())
            }
            Fault::ClearDelay => {
                db.set_injected_delay(SimDuration::ZERO);
                "recover clear-delay".into()
            }
            Fault::ClockSyncOutage { cn } => {
                db.block_clock_sync(cn);
                format!("fault clock-sync-outage cn={cn}")
            }
            Fault::ClockSyncResume { cn } => {
                db.resume_clock_sync(cn, now);
                format!("recover clock-sync-resume cn={cn}")
            }
            Fault::StartMigration {
                shard,
                to_region,
                to_host,
            } => {
                if to_region >= db.regions().len() {
                    return format!("skip start-migration shard={shard}: no region {to_region}");
                }
                let region = db.regions()[to_region];
                match globaldb::migrate::start_migration(db, sim, shard, region, to_host) {
                    Ok(()) => {
                        format!("fault start-migration shard={shard} to=r{to_region}h{to_host}")
                    }
                    Err(e) => format!("skip start-migration shard={shard}: {e}"),
                }
            }
            Fault::CrashMigrationTarget => match db.migrations().first().map(|m| m.target.node) {
                Some(node) => {
                    db.topo_mut().set_node_down(node, true);
                    state.crashed_migration_target = Some(node);
                    format!("fault crash-migration-target node={}", node.0)
                }
                None => "skip crash-migration-target: no migration in flight".into(),
            },
            Fault::RestoreMigrationTarget => match state.crashed_migration_target.take() {
                Some(node) => {
                    db.restore_node(node);
                    format!("recover restore-migration-target node={}", node.0)
                }
                None => "skip restore-migration-target: nothing crashed".into(),
            },
            Fault::CrashMigrationSource => {
                let pick = db
                    .migrations()
                    .iter()
                    .find(|m| {
                        matches!(
                            m.phase,
                            globaldb::MigrationPhase::Barrier | globaldb::MigrationPhase::Ready
                        )
                    })
                    .or_else(|| db.migrations().first())
                    .map(|m| (m.source, m.shard));
                match pick {
                    Some((node, shard)) => {
                        db.topo_mut().set_node_down(node, true);
                        state.crashed_migration_source = Some((node, shard));
                        format!("fault crash-migration-source shard={shard} node={}", node.0)
                    }
                    None => "skip crash-migration-source: no migration in flight".into(),
                }
            }
            Fault::RestoreMigrationSource => match state.crashed_migration_source.take() {
                Some((node, shard)) => {
                    let still_primary = db.shards().get(shard).map(|s| s.primary) == Some(node);
                    let replica_idx = db
                        .shards()
                        .get(shard)
                        .and_then(|s| s.replicas.iter().position(|r| r.node == node));
                    if still_primary {
                        db.restart_primary(shard);
                        format!("recover restore-migration-source shard={shard} (primary restart)")
                    } else if let Some(ri) = replica_idx {
                        db.restart_replica(shard, ri, now);
                        format!("recover restore-migration-source shard={shard} (replica restart)")
                    } else {
                        db.restore_node(node);
                        format!("recover restore-migration-source node={} (orphan)", node.0)
                    }
                }
                None => "skip restore-migration-source: nothing crashed".into(),
            },
            Fault::AddNode { region, host } => {
                if region >= db.regions().len() {
                    return format!("skip add-node: no region {region}");
                }
                let r = db.regions()[region];
                let node = db.join_data_node(r, host);
                format!("fault add-node r{region}h{host} node={}", node.0)
            }
            Fault::RemoveNode { region, host } => {
                if region >= db.regions().len() {
                    return format!("skip remove-node: no region {region}");
                }
                let r = db.regions()[region];
                match gdb_rebalance::drain_host(db, sim, r, host) {
                    Ok(0) => format!("fault remove-node r{region}h{host}: empty, retired"),
                    Ok(n) => format!("fault remove-node r{region}h{host}: draining {n} placements"),
                    Err(e) => format!("skip remove-node r{region}h{host}: {e}"),
                }
            }
        }
    }

    /// Faults arrive from shell lines and scenario files: one naming a
    /// shard, CN or region the cluster does not have is skipped
    /// (trace-visibly) rather than indexed.
    fn out_of_range(&self, db: &GlobalDb) -> Option<String> {
        let (shards, cns, regions) = (db.shards().len(), db.cns().len(), db.regions().len());
        let (kind, what, index, len) = match *self {
            Fault::CrashPrimary { shard } => ("crash-primary", "shard", shard, shards),
            Fault::RestartPrimary { shard } => ("restart-primary", "shard", shard, shards),
            Fault::PromoteReplica { shard, .. } => ("promote-replica", "shard", shard, shards),
            Fault::RejoinOldPrimary { shard } => ("rejoin-old-primary", "shard", shard, shards),
            Fault::CrashReplica { shard, .. } => ("crash-replica", "shard", shard, shards),
            Fault::RestartReplica { shard, .. } => ("restart-replica", "shard", shard, shards),
            Fault::CrashCn { cn } => ("crash-cn", "cn", cn, cns),
            Fault::RestartCn { cn } => ("restart-cn", "cn", cn, cns),
            Fault::ClockSyncOutage { cn } => ("clock-sync-outage", "cn", cn, cns),
            Fault::ClockSyncResume { cn } => ("clock-sync-resume", "cn", cn, cns),
            Fault::PartitionRegions { a, b } => ("partition-regions", "region", a.max(b), regions),
            Fault::HealRegions { a, b } => ("heal-regions", "region", a.max(b), regions),
            _ => return None,
        };
        (index >= len).then(|| format!("skip {kind}: no {what} {index}"))
    }

    /// True for faults that break something (as opposed to recoveries).
    /// `StartMigration` is neither: an online admin action that keeps the
    /// shard available and self-recovers (cutover or abort).
    pub fn is_injection(&self) -> bool {
        matches!(
            self,
            Fault::CrashPrimary { .. }
                | Fault::CrashReplica { .. }
                | Fault::CrashGtm
                | Fault::CrashCn { .. }
                | Fault::PartitionRegions { .. }
                | Fault::DelaySpike { .. }
                | Fault::ClockSyncOutage { .. }
                | Fault::CrashMigrationTarget
                | Fault::CrashMigrationSource
        )
    }
}

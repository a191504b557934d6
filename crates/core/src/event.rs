//! Typed simulation events for the cluster world.
//!
//! The engine's hot events — log-ship flushes, batch deliveries and
//! replays, RCP rounds, heartbeats, vacuum ticks — form a small closed
//! set, so they are scheduled as [`CoreEvent`] values stored inline in the
//! queue instead of one `Box<dyn FnOnce>` allocation each (see
//! [`gdb_simnet::TypedEvent`]). Open-ended sites keep using closures:
//! chaos fault plans, mode transitions, and migration steps capture
//! arbitrary state and fire rarely, so boxing them costs nothing
//! measurable. `core::net` and `core::lifecycle` schedule nothing
//! themselves — message charges and crash/restore handling run inline in
//! whichever event invokes them.

use crate::cluster::GlobalDb;
use gdb_obs::SpanId;
use gdb_simnet::{NetNodeId, Sim, SimTime, TypedEvent};
use gdb_wal::RedoRecord;

/// The event engine specialized to the cluster world and its typed events.
pub type CoreSim = Sim<GlobalDb, CoreEvent>;

/// The closed set of recurring/hot engine events.
pub enum CoreEvent {
    /// Seal and ship one shard's redo, then re-arm (recurring).
    FlushShard { shard: usize },
    /// A shipped batch arrives at a replica incarnation; models replay
    /// time and schedules the apply.
    DeliverBatch {
        shard: usize,
        node: NetNodeId,
        epoch: u64,
        records: Vec<RedoRecord>,
    },
    /// Replay finished: install the batch at the replica.
    ApplyBatch {
        shard: usize,
        node: NetNodeId,
        epoch: u64,
        records: Vec<RedoRecord>,
    },
    /// Start a region's RCP round (collect phase), then re-arm (recurring).
    RcpRound { region: usize },
    /// Finish phase of a two-phase RCP round, scheduled one gathering
    /// delay after the collect phase (the collector-crash window).
    RcpFinish {
        region: usize,
        collector_cn: usize,
        span: Option<SpanId>,
        start: SimTime,
    },
    /// Cluster-wide heartbeat + clock-health watchdog (recurring).
    Heartbeat,
    /// Vacuum versions below the safe horizon (recurring).
    Vacuum,
}

impl TypedEvent<GlobalDb> for CoreEvent {
    fn fire(self, w: &mut GlobalDb, sim: &mut CoreSim) {
        match self {
            CoreEvent::FlushShard { shard } => crate::repl_driver::flush_event(w, sim, shard),
            CoreEvent::DeliverBatch {
                shard,
                node,
                epoch,
                records,
            } => {
                let Some(done) = w.deliver_batch(shard, node, epoch, records.len(), sim.now())
                else {
                    return; // stale incarnation: the replica was rebuilt
                };
                sim.schedule_event_at(
                    done,
                    CoreEvent::ApplyBatch {
                        shard,
                        node,
                        epoch,
                        records,
                    },
                );
            }
            CoreEvent::ApplyBatch {
                shard,
                node,
                epoch,
                records,
            } => {
                w.apply_batch(shard, node, epoch, records, sim.now());
            }
            CoreEvent::RcpRound { region } => crate::rcp_driver::rcp_event(w, sim, region),
            CoreEvent::RcpFinish {
                region,
                collector_cn,
                span,
                start,
            } => crate::rcp_driver::rcp_finish_event(w, sim, region, collector_cn, span, start),
            CoreEvent::Heartbeat => crate::rcp_driver::heartbeat_event(w, sim),
            CoreEvent::Vacuum => crate::rcp_driver::vacuum_event(w, sim),
        }
    }
}

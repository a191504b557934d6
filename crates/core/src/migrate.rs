//! Online shard migration: snapshot copy → redo catch-up → cutover.
//!
//! Moves a shard's **primary** — or one of its **replicas** — from its
//! current data node (the *source* of the data stream is always the
//! shard's primary) to a freshly provisioned data node (the *target*)
//! without losing availability: the shard keeps serving reads and writes
//! through the snapshot and catch-up phases, and the cutover is a brief
//! DUAL-style barrier — seal the source log, drain the remaining redo
//! into the target synchronously, swap ownership, and atomically bump
//! the cluster **routing epoch**. Requests routed with a stale epoch are
//! rejected with the retryable [`GdbError::StaleRoute`] and re-routed on
//! retry.
//!
//! Migrations are grouped into **plans** ([`start_plan`]): a plan moves
//! k distinct shards (each a primary or replica move) and cuts all of
//! them over under **one** routing-epoch bump — the members copy and
//! catch up independently, park in the `Ready` phase once their barrier
//! elapses, and the last member to become ready triggers the batched
//! cutover. Replica-only plans swap replica identity without touching
//! the routing epoch (routing only names primaries).
//!
//! Per-member state machine:
//!
//! ```text
//! Idle → Snapshot → Catchup → Barrier → Ready ─┐ (all plan members ready)
//!            \          \         \            ├──→ Batched cutover
//!             +----------+---------+--→ Abort ─┘ (drop member, plan goes on)
//! ```
//!
//! Every wire interaction is typed on the message plane —
//! [`RpcKind::MigrateSnapshot`] for the storage image,
//! [`RpcKind::MigrateCatchup`] for redo batches,
//! [`RpcKind::MigrateCutover`] for the barrier round trip and the
//! routing-epoch announcement fan-out to the CNs. The target is a
//! follower of the source's redo stream like any replica
//! ([`Migration::target`]): [`crate::repl_driver`] builds it, ships it
//! the storage image, feeds it from the shard's flush beside the
//! replicas, drains it at the cutover and — for a primary move — lets it
//! take over; this module only runs the state machine and decides who is
//! replaced. A crash of the source or target (or a concurrent promotion
//! replacing the source) at any point aborts that member and leaves its
//! routing/ownership exactly at the source — the target is private state
//! until cutover, so abort drops it and retires its node; surviving plan
//! members continue and cut over together. A cutover retires the node it
//! replaced (the old primary or the moved replica). After every plan
//! completion or abort the cluster checks whether a draining host has
//! emptied and can be retired ([`GlobalDb::maybe_retire_drained`] —
//! elastic scale-in).
//!
//! The whole run is spanned where its phases change: a `Migration` root
//! opens with its `MigrationSnapshot` phase at the start, the snapshot's
//! arrival opens `MigrationCatchup`, the cutover barrier opens
//! `MigrationCutover`, and the cutover or an abort closes the phase and
//! the root. The phases tile the root exactly (aborts up to the abort
//! instant); an unfinished migration leaves its root and current phase
//! open.

use crate::cluster::GlobalDb;
use crate::event::CoreSim;
use crate::net::RpcKind;
use crate::repl_driver::{ship_sealed, Replica, Ship};
use gdb_model::{GdbError, GdbResult};
use gdb_obs::{OpenPhases, SpanKind};
use gdb_simnet::{NetNodeId, NodeKind, RegionId, SimTime};

/// Metric names owned by the migration executor, mirrored into the
/// metrics registry at snapshot time for reports and dashboards.
/// `gdb-rebalance`'s hot-shard detector reads [`GlobalDb::shard_load`]
/// directly, not these names.
pub mod metrics {
    /// Migrations started (snapshot phase entered).
    pub const MIGRATIONS_STARTED: &str = "rebalance.migrations_started";
    /// Migrations that reached cutover.
    pub const MIGRATIONS_COMPLETED: &str = "rebalance.migrations_completed";
    /// Migrations aborted mid-flight (ownership stayed at the source).
    pub const MIGRATIONS_ABORTED: &str = "rebalance.migrations_aborted";
    /// Current cluster routing epoch (bumped at every cutover).
    pub const ROUTING_EPOCH: &str = "rebalance.routing_epoch";
    /// Per-shard op counter prefix: `rebalance.shard_ops.<shard>`, plus
    /// the per-region split `rebalance.shard_ops.<shard>.r<region>`.
    pub const SHARD_OPS_PREFIX: &str = "rebalance.shard_ops";
    /// Per-shard payload-byte counter prefix: `rebalance.shard_bytes.<shard>`.
    pub const SHARD_BYTES_PREFIX: &str = "rebalance.shard_bytes";
}

/// Nominal on-wire bytes per stored key for the snapshot-copy estimate.
const SNAPSHOT_ROW_BYTES: u64 = 128;

/// Live per-shard load accounting: every data-node operation a
/// transaction routes to a shard is counted here (and mirrored into the
/// metrics registry at snapshot time), giving the hot-shard detector its
/// input signal.
#[derive(Debug, Default, Clone)]
pub struct ShardLoad {
    /// Data-node operations routed to this shard.
    pub ops: u64,
    /// Payload bytes of those operations.
    pub bytes: u64,
    /// Ops attributed to the submitting CN's region (indexed like
    /// [`GlobalDb::regions`]) — the region-affinity policy's signal.
    pub by_region: Vec<u64>,
}

/// What a migration moves: the shard's primary, or the replica currently
/// hosted on a specific node (identified by node, not index — promotions
/// reshuffle the replica vector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationKind {
    Primary,
    Replica { node: NetNodeId },
}

/// One member of a migration plan: move `shard`'s primary (or the
/// replica on `kind`'s node) to a fresh data node on `(to_region,
/// to_host)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationSpec {
    pub shard: usize,
    pub kind: MigrationKind,
    pub to_region: RegionId,
    pub to_host: u16,
}

/// Phase of an in-flight migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPhase {
    /// The storage image is in flight to the target.
    Snapshot,
    /// The shard's flush feeds the target; the next flush that reaches
    /// it starts the barrier.
    Catchup,
    /// The cutover barrier round trip is in flight.
    Barrier,
    /// Barrier elapsed; parked until every plan member is ready, then the
    /// whole plan cuts over under one routing-epoch bump.
    Ready,
}

/// One in-flight migration (a member of a batched plan).
pub struct Migration {
    pub shard: usize,
    /// The data stream's source: the shard's primary for both kinds.
    pub source: NetNodeId,
    /// The freshly provisioned node, following the source's redo stream
    /// from the snapshot cut on — private to the migration until cutover.
    pub target: Replica,
    pub kind: MigrationKind,
    /// The batched plan this member belongs to.
    pub plan: u64,
    pub phase: MigrationPhase,
    /// The open `Migration` root span and its current phase.
    pub(crate) spans: OpenPhases,
    /// Guard for scheduled events: ticks for a finished/aborted
    /// migration carry a stale sequence number and are dropped.
    pub(crate) seq: u64,
}

/// Start migrating `shard_idx`'s primary to a freshly provisioned data
/// node on `(to_region, to_host)` at the current virtual time — a
/// single-member [`start_plan`]. Fails (without side effects) when the
/// shard is already migrating or its primary is down; once started,
/// watch [`GlobalDb::migrations`] / `rebalance.migrations_*` for the
/// outcome.
pub fn start_migration(
    db: &mut GlobalDb,
    sim: &mut CoreSim,
    shard_idx: usize,
    to_region: RegionId,
    to_host: u16,
) -> GdbResult<()> {
    start_plan(
        db,
        sim,
        vec![MigrationSpec {
            shard: shard_idx,
            kind: MigrationKind::Primary,
            to_region,
            to_host,
        }],
    )
    .map(|_| ())
}

/// Start a batched migration plan: every member is validated up front
/// (no side effects on error), then all members start copying
/// concurrently and cut over together under one routing-epoch bump.
/// A plan never moves the same shard twice, and a shard with a
/// migration already in flight cannot join a new plan.
pub fn start_plan(
    db: &mut GlobalDb,
    sim: &mut CoreSim,
    specs: Vec<MigrationSpec>,
) -> GdbResult<u64> {
    if specs.is_empty() {
        return Err(GdbError::Internal("empty migration plan".into()));
    }
    let mut seen = std::collections::HashSet::new();
    for spec in &specs {
        if spec.shard >= db.shards.len() {
            return Err(GdbError::Internal(format!("no shard {}", spec.shard)));
        }
        if spec.to_region.0 as usize >= db.topo.region_count() {
            return Err(GdbError::Internal(format!(
                "no region {}",
                spec.to_region.0
            )));
        }
        if !seen.insert(spec.shard) {
            return Err(GdbError::Execution(format!(
                "plan moves shard {} twice",
                spec.shard
            )));
        }
        if db.migrations.iter().any(|m| m.shard == spec.shard) {
            return Err(GdbError::Execution(format!(
                "migration of shard {} already in flight",
                spec.shard
            )));
        }
        let source = db.shards[spec.shard].primary;
        if db.topo.is_node_down(source) {
            return Err(GdbError::NodeUnavailable(format!(
                "shard {} source primary is down",
                spec.shard
            )));
        }
        if let MigrationKind::Replica { node } = spec.kind {
            if !db.shards[spec.shard]
                .replicas
                .iter()
                .any(|r| r.node == node)
            {
                return Err(GdbError::Internal(format!(
                    "node {} is not a replica of shard {}",
                    node.0, spec.shard
                )));
            }
        }
        if db
            .topo
            .is_partitioned(db.topo.node_region(source), spec.to_region)
        {
            return Err(GdbError::NodeUnavailable(format!(
                "shard {} target region unreachable from source",
                spec.shard
            )));
        }
    }
    db.plan_seq += 1;
    let plan = db.plan_seq;
    for spec in specs {
        start_member(db, sim, plan, spec);
    }
    Ok(plan)
}

/// Start one plan member: provision the target, cut the snapshot, and
/// ship the storage image (preconditions were validated by
/// [`start_plan`]).
fn start_member(db: &mut GlobalDb, sim: &mut CoreSim, plan: u64, spec: MigrationSpec) {
    let now = sim.now();
    let shard_idx = spec.shard;
    let source = db.shards[shard_idx].primary;
    // Provision the target DN. `add_node` draws no RNG, so an idle run
    // (no migration scheduled) stays trace-identical.
    let node_kind = match spec.kind {
        MigrationKind::Primary => NodeKind::DataNodePrimary,
        MigrationKind::Replica { .. } => NodeKind::DataNodeReplica,
    };
    let node = db.topo.add_node(spec.to_region, spec.to_host, node_kind);
    // Snapshot cut: the target follows the source from here.
    let codec = db.config.codec;
    let target = db.shards[shard_idx].new_follower(node, spec.to_region, codec, now);
    let snapshot_bytes =
        (db.shards[shard_idx].storage.total_keys() as u64).max(1) * SNAPSHOT_ROW_BYTES;

    db.migration_seq += 1;
    let seq = db.migration_seq;
    let spans = db.obs.tracer.begin_phases(
        SpanKind::Migration,
        SpanKind::MigrationSnapshot,
        shard_idx as u64,
        now,
    );
    db.migrations.push(Migration {
        shard: shard_idx,
        source,
        target,
        kind: spec.kind,
        plan,
        phase: MigrationPhase::Snapshot,
        spans,
        seq,
    });
    db.stats.migrations_started += 1;
    // Ship the storage image down the target's stream.
    let image = db.ship_next(
        shard_idx,
        node,
        Some(RpcKind::MigrateSnapshot),
        now,
        Some(snapshot_bytes),
    );
    let Ship::Sent { arrive, .. } = image else {
        // Validated reachable above; a racing fault still loses the
        // member.
        let m = db.migrations.pop().expect("pushed above");
        abort_member(db, sim, m, now, "target unreachable");
        return;
    };
    sim.schedule_at(arrive, move |w: &mut GlobalDb, sim| {
        migration_tick(w, sim, seq);
    });
}

/// Fault guards for one member: a dead endpoint, a promotion that
/// replaced the source, or (replica moves) a promotion that consumed
/// the replica being replaced.
fn guard_failure(db: &GlobalDb, m: &Migration) -> Option<&'static str> {
    if db.topo.is_node_down(m.source) {
        return Some("source down");
    }
    if db.topo.is_node_down(m.target.node) {
        return Some("target down");
    }
    if db.shards[m.shard].primary != m.source {
        return Some("source replaced by failover");
    }
    if let MigrationKind::Replica { node } = m.kind {
        if !db.shards[m.shard].replicas.iter().any(|r| r.node == node) {
            return Some("replaced replica left the group");
        }
    }
    None
}

/// One step of a member's state machine (snapshot arrival, or the
/// cutover barrier elapsing).
pub(crate) fn migration_tick(db: &mut GlobalDb, sim: &mut CoreSim, seq: u64) {
    let now = sim.now();
    // Stale tick for a migration that already finished or aborted.
    let Some(idx) = db.migrations.iter().position(|m| m.seq == seq) else {
        return;
    };
    if let Some(reason) = guard_failure(db, &db.migrations[idx]) {
        let m = db.migrations.remove(idx);
        abort_member(db, sim, m, now, reason);
        return;
    }
    match db.migrations[idx].phase {
        MigrationPhase::Snapshot => {
            let m = &mut db.migrations[idx];
            m.phase = MigrationPhase::Catchup;
            db.obs
                .tracer
                .next_phase(&mut m.spans, SpanKind::MigrationCatchup, now);
        }
        MigrationPhase::Barrier => {
            let m = &mut db.migrations[idx];
            m.phase = MigrationPhase::Ready;
            let plan = m.plan;
            maybe_cutover_plan(db, sim, plan, now);
        }
        // Catch-up runs at the shard's flush and Ready members wait for
        // their plan: neither has a scheduled tick, and a stray one is
        // inert.
        MigrationPhase::Catchup | MigrationPhase::Ready => {}
    }
}

/// The shard's flush reached member `idx`'s target, after the replicas
/// (`repl_driver::flush_event`): check the member's guards, ship the
/// target everything sealed over `MigrateCatchup` in whatever phase, and
/// end a `Catchup` phase. Everything sealed has now left for a reachable
/// target, so the barrier starts once the last batch has landed; the
/// redo sealed after it is the cutover's final drain.
pub(crate) fn flush_target(db: &mut GlobalDb, sim: &mut CoreSim, idx: usize, now: SimTime) {
    if let Some(reason) = guard_failure(db, &db.migrations[idx]) {
        let m = db.migrations.remove(idx);
        abort_member(db, sim, m, now, reason);
        return;
    }
    let m = &db.migrations[idx];
    let (shard, node, phase, seq) = (m.shard, m.target.node, m.phase, m.seq);
    let reachable = ship_sealed(db, sim, shard, node, RpcKind::MigrateCatchup, now);
    if phase != MigrationPhase::Catchup {
        return;
    }
    if reachable {
        let landed = db.migrations[idx].target.last_arrival;
        begin_barrier(db, sim, idx, seq, now, landed);
    } else {
        let m = db.migrations.remove(idx);
        abort_member(db, sim, m, now, "target unreachable during catch-up");
    }
}

/// Start the cutover barrier: a round trip that stops admission of new
/// source-side redo (writers keep committing on the source; the final
/// drain at the cutover instant catches them). The barrier begins once
/// the last batch shipped to the target has landed (`from`).
fn begin_barrier(
    db: &mut GlobalDb,
    sim: &mut CoreSim,
    idx: usize,
    seq: u64,
    now: SimTime,
    from: SimTime,
) {
    let m = &db.migrations[idx];
    let (source, target) = (m.source, m.target.node);
    let Some(rtt) = db
        .plane
        .rtt(&mut db.topo, RpcKind::MigrateCutover, source, target)
    else {
        let m = db.migrations.remove(idx);
        abort_member(db, sim, m, now, "barrier round trip failed");
        return;
    };
    let m = &mut db.migrations[idx];
    m.phase = MigrationPhase::Barrier;
    db.obs
        .tracer
        .next_phase(&mut m.spans, SpanKind::MigrationCutover, now);
    sim.schedule_at(from.max(now) + rtt, move |w: &mut GlobalDb, sim| {
        migration_tick(w, sim, seq);
    });
}

/// Cut the whole plan over if every surviving member is `Ready`.
fn maybe_cutover_plan(db: &mut GlobalDb, sim: &mut CoreSim, plan: u64, now: SimTime) {
    let mut any = false;
    for m in &db.migrations {
        if m.plan == plan {
            any = true;
            if m.phase != MigrationPhase::Ready {
                return;
            }
        }
    }
    if any {
        cutover_plan(db, sim, plan, now);
    }
}

/// The batched cutover instant: per member, restart the target's stream,
/// seal the source log, drain the remaining redo into the target
/// synchronously, and swap ownership (primary moves) or replica identity
/// (replica moves); then bump the routing epoch **once** (iff a primary
/// moved), rebuild the RCP groups once, and announce the new route table
/// to the CNs once.
fn cutover_plan(db: &mut GlobalDb, sim: &mut CoreSim, plan: u64, now: SimTime) {
    let mut primary_moved: Vec<usize> = Vec::new();
    let mut announce_from = None;
    let mut completed_any = false;
    // Every plan member, in start order; each leaves the list below.
    while let Some(idx) = db.migrations.iter().position(|m| m.plan == plan) {
        // Guard re-check at the cutover instant: a Ready member has no
        // scheduled tick, so a source/target crash while it waited for
        // its plan-mates surfaces here.
        if let Some(reason) = guard_failure(db, &db.migrations[idx]) {
            let m = db.migrations.remove(idx);
            record_abort(db, &m, now, reason);
            continue;
        }
        // Final drain under the barrier. A new primary takes over from
        // everything the source accepted before this instant — records
        // staged with future apply instants included (their commit
        // processing already ran synchronously) — and the source's stream
        // ends here. A moved replica stays on the shared stream, which
        // must not seal a future commit early (`Shard::new_follower`
        // says why): it takes what is due by now and follows the rest.
        // The drain starts where the target's applier stands, under a new
        // incarnation: batches still in flight to it are dropped on
        // arrival and shipped again here.
        let m = &mut db.migrations[idx];
        m.target.epoch += 1;
        m.target.restart_stream(now);
        let (shard_idx, source, target) = (m.shard, m.source, m.target.node);
        let log = &mut db.shards[shard_idx].log;
        match m.kind {
            MigrationKind::Primary => _ = log.seal_all(now),
            MigrationKind::Replica { .. } => _ = log.seal_upto(now),
        }
        let residue = db.drain_now(shard_idx, target, None, now);
        if residue > 0 {
            db.plane.charge_bytes(
                &mut db.topo,
                RpcKind::MigrateCutover,
                source,
                target,
                residue,
            );
        }

        let mut m = db.migrations.remove(idx);
        db.stats.migrations_completed += 1;
        db.last_migration_completed = Some(shard_idx);
        db.obs.tracer.end_phases(m.spans, now);
        completed_any = true;

        let replaced = match m.kind {
            MigrationKind::Primary => {
                db.take_over(shard_idx, m.target, now);
                primary_moved.push(shard_idx);
                announce_from = Some(target);
                source
            }
            MigrationKind::Replica { node: old } => {
                let replica = db.shards[shard_idx]
                    .replicas
                    .iter_mut()
                    .find(|r| r.node == old)
                    .expect("guard checked the replaced replica is present");
                // Swap replica identity in place: the built follower
                // continues from the sealed head it drained to, under an
                // incarnation above the slot's and not below the one its
                // restart took.
                m.target.epoch = m.target.epoch.max(replica.epoch + 1);
                *replica = m.target;
                old
            }
        };
        // The replaced node leaves the cluster for good.
        db.topo.retire_node(replaced);
    }

    if !primary_moved.is_empty() {
        // The atomic routing-epoch bump: this instant is the
        // serialization point between old-route and new-route requests —
        // one bump for the whole batch.
        db.routing_epoch += 1;
        let epoch = db.routing_epoch;
        for s in primary_moved {
            db.shards[s].owner_epoch = epoch;
        }
        // Placement changed: refresh the flat O(1) routing table in the
        // same instant as the epoch bump (one rebuild per batch).
        db.rebuild_routes();
        // Announce the new route table to every CN (real latency; an
        // unreachable CN learns the epoch from its first stale-route
        // reject instead).
        let from = announce_from.expect("a primary moved");
        for cn in 0..db.cns.len() {
            let to = db.cns[cn].node;
            if let Some(delay) = db
                .plane
                .send(&mut db.topo, RpcKind::MigrateCutover, from, to, 128)
            {
                sim.schedule_after(delay, move |w: &mut GlobalDb, _sim| {
                    let e = &mut w.cns[cn].route_epoch;
                    *e = (*e).max(epoch);
                });
            }
        }
    }
    if completed_any {
        // Replica membership/regions may have changed: rebuild the
        // per-region RCP groups once for the whole batch.
        db.rebuild_rcp_groups();
    }
    db.maybe_retire_drained();
}

/// Record one member's abort (stats + spans) and retire the target it
/// provisioned. Ownership never moved, so no shard/routing state changes.
fn record_abort(db: &mut GlobalDb, m: &Migration, now: SimTime, reason: &str) {
    db.stats.migrations_aborted += 1;
    db.last_migration_aborted = Some((m.shard, reason.to_string()));
    db.obs.tracer.end_phases(m.spans, now);
    db.topo.retire_node(m.target.node);
}

/// Abort one member (already removed from [`GlobalDb::migrations`]):
/// drop the target-side state, then re-check its plan — the surviving
/// members may all be `Ready` and waiting on this one — and the drain
/// bookkeeping.
fn abort_member(db: &mut GlobalDb, sim: &mut CoreSim, m: Migration, now: SimTime, reason: &str) {
    let plan = m.plan;
    record_abort(db, &m, now, reason);
    maybe_cutover_plan(db, sim, plan, now);
    db.maybe_retire_drained();
}

//! `gdb-rebalance` — hot-shard detection and cost-model-driven shard
//! placement ("Placement v2").
//!
//! The *mechanics* of a migration (snapshot copy → redo catch-up →
//! cutover barrier, batched under one routing-epoch bump) live in
//! `globaldb::migrate`; this crate owns the *policy* side:
//!
//! * [`HotShardDetector`] — a windowed consumer of the live metrics
//!   registry. Every [`HotShardDetector::observe`] snapshots the
//!   `rebalance.shard_ops.*` / `rebalance.shard_bytes.*` counters the
//!   transaction layer maintains, subtracts the previous observation,
//!   and joins the deltas with the current primary/replica placement
//!   and drain state into a [`ClusterView`].
//! * [`PlacementCost`] — one scalar objective over a view (cross-region
//!   traffic, load spread, replica balance, drain pressure) with a
//!   greedy batch search, [`PlacementCost::propose_batch`], that emits
//!   strictly-cost-reducing moves gated by a [`Hysteresis`] margin.
//! * [`RebalanceController`] — glues the two together: call
//!   [`RebalanceController::tick`] between workload windows and it
//!   observes, reconciles the in-flight batch, and starts at most one
//!   batched migration plan.
//! * [`drain_host`] — the imperative scale-in entry point: mark a host
//!   draining and launch the plan that empties it.
//!
//! Everything here is deterministic: observation order, host
//! enumeration, and tie-breaks are all fixed, so a seeded run proposes
//! the same migrations every time.

pub mod cost;

pub use cost::{apply_move, CostPolicy, CostProposal, Hysteresis, PlacementCost};

use gdb_simnet::{NetNodeId, RegionId};
use globaldb::migrate::metrics as mig_metrics;
use globaldb::{Cluster, CoreSim, GdbResult, GlobalDb, MigrationKind, MigrationSpec};
use std::collections::{BTreeMap, BTreeSet};

/// One replica placement of a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStat {
    /// The replica data node.
    pub node: NetNodeId,
    /// Host slot it occupies.
    pub slot: HostSlot,
}

/// One shard's load over the last observation window, joined with its
/// current placement.
#[derive(Debug, Clone)]
pub struct ShardStat {
    pub shard: usize,
    /// Region of the current primary.
    pub region: RegionId,
    /// Host (within-region machine index) of the current primary.
    pub host: u16,
    /// Data-node operations routed to the shard during the window.
    pub ops: u64,
    /// Payload bytes of those operations.
    pub bytes: u64,
    /// Ops split by the submitting CN's region, indexed like
    /// [`ClusterView::regions`].
    pub by_region: Vec<u64>,
    /// Current replica placements of the shard.
    pub replicas: Vec<ReplicaStat>,
}

/// A candidate placement slot: one physical host in one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct HostSlot {
    pub region: RegionId,
    pub host: u16,
}

/// What the detector hands the cost model: per-shard window loads plus
/// the current host inventory and drain state.
#[derive(Debug, Clone)]
pub struct ClusterView {
    pub shards: Vec<ShardStat>,
    /// Every live host slot, sorted (deterministic tie-breaks).
    pub hosts: Vec<HostSlot>,
    /// Region ids in cluster order (the index space of
    /// [`ShardStat::by_region`]).
    pub regions: Vec<RegionId>,
    /// Host slots currently draining (scale-in): placements must move
    /// off them and nothing may move onto them.
    pub draining: Vec<HostSlot>,
}

impl ClusterView {
    /// Total windowed ops of the shards whose primary sits on `slot`.
    pub fn host_load(&self, slot: HostSlot) -> u64 {
        self.shards
            .iter()
            .filter(|s| s.region == slot.region && s.host == slot.host)
            .map(|s| s.ops)
            .sum()
    }

    /// Imbalance metric: max host load over mean host load (1.0 =
    /// perfectly even, 0.0 = idle cluster).
    pub fn spread(&self) -> f64 {
        if self.hosts.is_empty() {
            return 0.0;
        }
        let loads: Vec<u64> = self.hosts.iter().map(|&h| self.host_load(h)).collect();
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / loads.len() as f64;
        *loads.iter().max().unwrap() as f64 / mean
    }
}

/// The pre-formatted metric names of one shard, built once per cluster
/// shape instead of 2+R `format!` allocations per shard per window.
#[derive(Debug, Clone)]
struct ShardMetricNames {
    ops: String,
    bytes: String,
    by_region: Vec<String>,
}

/// Windowed consumer of the metrics registry: each `observe` reads the
/// absolute `rebalance.shard_ops.*` counters, subtracts the previous
/// observation, and returns the per-window deltas joined with the
/// current placement.
#[derive(Debug, Default)]
pub struct HotShardDetector {
    prev: Vec<(u64, u64, Vec<u64>)>,
    /// Metric-name lookup table, keyed by shard; rebuilt only when the
    /// shard or region count changes. At the scale tier (hundreds of
    /// shards × several regions) re-formatting these every window
    /// dominated `observe`.
    names: Vec<ShardMetricNames>,
}

impl HotShardDetector {
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_names(&mut self, shard_count: usize, region_count: usize) {
        let stale = self.names.len() != shard_count
            || self
                .names
                .first()
                .is_some_and(|n| n.by_region.len() != region_count);
        if !stale {
            return;
        }
        self.names = (0..shard_count)
            .map(|s| ShardMetricNames {
                ops: format!("{}.{s}", mig_metrics::SHARD_OPS_PREFIX),
                bytes: format!("{}.{s}", mig_metrics::SHARD_BYTES_PREFIX),
                by_region: (0..region_count)
                    .map(|r| format!("{}.{s}.r{r}", mig_metrics::SHARD_OPS_PREFIX))
                    .collect(),
            })
            .collect();
    }

    /// Snapshot the cluster's metrics and return the load view for the
    /// window since the previous call (first call: since startup).
    pub fn observe(&mut self, db: &mut GlobalDb) -> ClusterView {
        let shard_count = db.shards().len();
        let regions: Vec<RegionId> = db.regions().to_vec();
        let report = db.metrics_snapshot();
        self.prev
            .resize_with(shard_count, || (0, 0, vec![0; regions.len()]));
        self.ensure_names(shard_count, regions.len());

        let mut shards = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let names = &self.names[s];
            let ops_total = report.counter(&names.ops).unwrap_or(0);
            let bytes_total = report.counter(&names.bytes).unwrap_or(0);
            let mut by_region_total = vec![0u64; regions.len()];
            for (r, slot) in by_region_total.iter_mut().enumerate() {
                *slot = report.counter(&names.by_region[r]).unwrap_or(0);
            }
            let prev = &mut self.prev[s];
            prev.2.resize(regions.len(), 0);
            let by_region: Vec<u64> = by_region_total
                .iter()
                .zip(&prev.2)
                .map(|(&cur, &old)| cur.saturating_sub(old))
                .collect();
            let primary = db.shards()[s].primary;
            let replicas = db.shards()[s]
                .replicas
                .iter()
                .map(|r| ReplicaStat {
                    node: r.node,
                    slot: HostSlot {
                        region: db.topo().node_region(r.node),
                        host: db.topo().node_host(r.node),
                    },
                })
                .collect();
            shards.push(ShardStat {
                shard: s,
                region: db.topo().node_region(primary),
                host: db.topo().node_host(primary),
                ops: ops_total.saturating_sub(prev.0),
                bytes: bytes_total.saturating_sub(prev.1),
                by_region,
                replicas,
            });
            *prev = (ops_total, bytes_total, by_region_total);
        }

        // Host inventory: every live host slot, sorted for
        // deterministic tie-breaks. Decommissioned slots are excluded
        // even if a co-located CN keeps answering — a drained machine
        // never rejoins placement.
        let retired: BTreeSet<HostSlot> = db
            .retired_hosts()
            .iter()
            .map(|&(region, host)| HostSlot { region, host })
            .collect();
        let mut seen: BTreeSet<HostSlot> = BTreeSet::new();
        for i in 0..db.topo().node_count() {
            let n = NetNodeId(i as u32);
            if db.topo().is_node_down(n) {
                continue;
            }
            let slot = HostSlot {
                region: db.topo().node_region(n),
                host: db.topo().node_host(n),
            };
            if !retired.contains(&slot) {
                seen.insert(slot);
            }
        }
        // BTreeSet iterates in order: same sorted inventory as before.
        let hosts: Vec<HostSlot> = seen.into_iter().collect();

        let mut draining: Vec<HostSlot> = db
            .draining_hosts()
            .iter()
            .map(|&(region, host)| HostSlot { region, host })
            .collect();
        draining.sort();

        ClusterView {
            shards,
            hosts,
            regions,
            draining,
        }
    }
}

/// Detector + cost model + batched migration trigger. Call
/// [`RebalanceController::tick`] between workload windows.
pub struct RebalanceController {
    pub detector: HotShardDetector,
    pub model: PlacementCost,
    pub policy: CostPolicy,
    pub hysteresis: Hysteresis,
    /// Shard → the proposal whose migration is still in flight.
    in_flight: BTreeMap<usize, CostProposal>,
    /// Every proposal that actually started a migration.
    pub history: Vec<CostProposal>,
}

impl Default for RebalanceController {
    fn default() -> Self {
        Self::new()
    }
}

impl RebalanceController {
    pub fn new() -> Self {
        RebalanceController {
            detector: HotShardDetector::new(),
            model: PlacementCost::default(),
            policy: CostPolicy::default(),
            hysteresis: Hysteresis::new(),
            in_flight: BTreeMap::new(),
            history: Vec::new(),
        }
    }

    /// Observe the window, reconcile the in-flight batch, and — when the
    /// cluster is quiescent — start the batched plan the cost model
    /// proposes. Returns the proposals that started (empty when the
    /// model is satisfied or a plan is still running). Always advances
    /// the detector window and decays the hysteresis, even when busy.
    pub fn tick(&mut self, cluster: &mut Cluster) -> Vec<CostProposal> {
        let Cluster { db, sim, .. } = cluster;
        self.tick_at(db, sim)
    }

    /// [`RebalanceController::tick`] against the split world/scheduler
    /// borrow, so a scheduled simulation event (which owns
    /// `&mut GlobalDb` + `&mut CoreSim`, not a whole [`Cluster`]) can
    /// drive the controller — e.g. a scenario's recurring
    /// auto-rebalance tick.
    pub fn tick_at(&mut self, db: &mut GlobalDb, sim: &mut CoreSim) -> Vec<CostProposal> {
        let view = self.detector.observe(db);
        self.hysteresis.decay(&self.policy);

        // Reconcile: a tracked shard that is no longer migrating either
        // landed (charge hysteresis so it doesn't bounce right back) or
        // aborted (clear its penalty — the aborted move must not
        // suppress a re-proposal).
        let migrating: BTreeSet<usize> = db.migrating_shards().into_iter().collect();
        let finished: Vec<usize> = self
            .in_flight
            .keys()
            .copied()
            .filter(|s| !migrating.contains(s))
            .collect();
        for shard in finished {
            let p = self.in_flight.remove(&shard).expect("tracked");
            if Self::move_landed(db, &p) {
                self.hysteresis.note_move(shard, &self.policy);
            } else {
                self.hysteresis.clear(shard);
            }
        }

        // One plan in flight cluster-wide (also yields to migrations
        // started elsewhere, e.g. by a chaos fault).
        if !migrating.is_empty() {
            return Vec::new();
        }

        let proposals =
            self.model
                .propose_batch(&view, &self.policy, &self.hysteresis, &BTreeSet::new());
        if proposals.is_empty() {
            return Vec::new();
        }
        let specs: Vec<MigrationSpec> = proposals.iter().map(spec_of).collect();
        match globaldb::migrate::start_plan(db, sim, specs) {
            Ok(_) => {
                for p in &proposals {
                    self.in_flight.insert(p.shard, p.clone());
                    self.history.push(p.clone());
                }
                proposals
            }
            Err(_) => Vec::new(),
        }
    }

    /// Did the cluster end up where the proposal wanted?
    fn move_landed(db: &GlobalDb, p: &CostProposal) -> bool {
        let Some(shard) = db.shards().get(p.shard) else {
            return false;
        };
        match p.kind {
            MigrationKind::Primary => {
                db.topo().node_region(shard.primary) == p.to.region
                    && db.topo().node_host(shard.primary) == p.to.host
            }
            MigrationKind::Replica { node } => {
                !shard.replicas.iter().any(|r| r.node == node)
                    && shard.replicas.iter().any(|r| {
                        db.topo().node_region(r.node) == p.to.region
                            && db.topo().node_host(r.node) == p.to.host
                    })
            }
        }
    }
}

fn spec_of(p: &CostProposal) -> MigrationSpec {
    MigrationSpec {
        shard: p.shard,
        kind: p.kind,
        to_region: p.to.region,
        to_host: p.to.host,
    }
}

/// Elastic scale-in: mark `(region, host)` draining and start the
/// batched plan that moves every primary and replica off it (the drain
/// cost term makes each such move clear the margin regardless of shard
/// heat). Returns the number of moves started; `0` means the host was
/// already empty — in that case its data nodes are retired immediately.
///
/// Shards with a migration already in flight are skipped; the host
/// stays draining and a later [`RebalanceController::tick`] (or another
/// `drain_host` call) finishes the job.
pub fn drain_host(
    db: &mut GlobalDb,
    sim: &mut CoreSim,
    region: RegionId,
    host: u16,
) -> GdbResult<usize> {
    db.mark_host_draining(region, host);
    let mut detector = HotShardDetector::new();
    let view = detector.observe(db);
    let model = PlacementCost::default();
    let policy = CostPolicy {
        // A drain must empty the host in one plan if it can; don't cap
        // the batch at the steady-state size.
        max_batch: view.shards.len().max(1) * 3,
        ..CostPolicy::default()
    };
    let busy: BTreeSet<usize> = db.migrating_shards().into_iter().collect();
    let slot = HostSlot { region, host };
    let proposals: Vec<CostProposal> = model
        .propose_batch(&view, &policy, &Hysteresis::new(), &busy)
        .into_iter()
        .filter(|p| p.from == slot)
        .collect();
    if proposals.is_empty() {
        db.maybe_retire_drained();
        return Ok(0);
    }
    let specs: Vec<MigrationSpec> = proposals.iter().map(spec_of).collect();
    let n = specs.len();
    globaldb::migrate::start_plan(db, sim, specs)?;
    Ok(n)
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    pub fn view(shards: Vec<ShardStat>, hosts: Vec<(u16, u16)>, regions: usize) -> ClusterView {
        ClusterView {
            shards,
            hosts: hosts
                .into_iter()
                .map(|(r, h)| HostSlot {
                    region: RegionId(r),
                    host: h,
                })
                .collect(),
            regions: (0..regions as u16).map(RegionId).collect(),
            draining: Vec::new(),
        }
    }

    pub fn stat(shard: usize, region: u16, host: u16, ops: u64, by_region: Vec<u64>) -> ShardStat {
        ShardStat {
            shard,
            region: RegionId(region),
            host,
            ops,
            bytes: ops * 256,
            by_region,
            replicas: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{stat, view};
    use super::*;

    #[test]
    fn spread_metric_tracks_imbalance() {
        let skewed = view(
            vec![stat(0, 0, 0, 900, vec![900]), stat(1, 0, 1, 100, vec![100])],
            vec![(0, 0), (0, 1)],
            1,
        );
        let even = view(
            vec![stat(0, 0, 0, 500, vec![500]), stat(1, 0, 1, 500, vec![500])],
            vec![(0, 0), (0, 1)],
            1,
        );
        assert!(skewed.spread() > even.spread());
        assert!((even.spread() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_sided_view_converges_in_one_batch() {
        // Eight shards, all traffic from region 0, half the primaries
        // stranded in region 1: the model moves exactly those four over
        // in one batch and is then satisfied.
        let mut shards = Vec::new();
        for s in 0..8 {
            let region = if s < 4 { 0 } else { 1 };
            shards.push(stat(s, region, 0, 100, vec![100, 0]));
        }
        let v = view(shards, vec![(0, 0), (1, 0)], 2);
        let model = PlacementCost::default();
        let policy = CostPolicy::default();
        let hysteresis = Hysteresis::new();
        let batch = model.propose_batch(&v, &policy, &hysteresis, &BTreeSet::new());
        assert_eq!(batch.len(), 4);
        for p in &batch {
            assert!(matches!(p.kind, MigrationKind::Primary));
            assert_eq!(p.to.region, RegionId(0));
            assert!(p.cost_after < p.cost_before);
        }
        let mut settled = v.clone();
        for p in &batch {
            apply_move(&mut settled, p);
        }
        let again = model.propose_batch(&settled, &policy, &hysteresis, &BTreeSet::new());
        assert!(again.is_empty(), "converged view re-proposed: {again:?}");
    }

    #[test]
    fn drain_pressure_overrides_min_ops() {
        // A cold shard (below min_shard_ops) still flees a draining host.
        let mut v = view(vec![stat(0, 0, 0, 10, vec![10])], vec![(0, 0), (0, 1)], 1);
        let model = PlacementCost::default();
        let policy = CostPolicy::default();
        assert!(model
            .propose_batch(&v, &policy, &Hysteresis::new(), &BTreeSet::new())
            .is_empty());
        v.draining.push(HostSlot {
            region: RegionId(0),
            host: 0,
        });
        let batch = model.propose_batch(&v, &policy, &Hysteresis::new(), &BTreeSet::new());
        assert_eq!(batch.len(), 1);
        assert_eq!(
            batch[0].to,
            HostSlot {
                region: RegionId(0),
                host: 1
            }
        );
    }

    #[test]
    fn replica_imbalance_is_leveled() {
        // Two replicas piled on one host, an empty host available: the
        // model relocates one replica (never onto the primary's host).
        let mk_replica = |id: u32, r: u16, h: u16| ReplicaStat {
            node: NetNodeId(id),
            slot: HostSlot {
                region: RegionId(r),
                host: h,
            },
        };
        let mut s0 = stat(0, 0, 0, 0, vec![0]);
        s0.replicas = vec![mk_replica(10, 0, 1)];
        let mut s1 = stat(1, 0, 0, 0, vec![0]);
        s1.replicas = vec![mk_replica(11, 0, 1)];
        let v = view(vec![s0, s1], vec![(0, 0), (0, 1), (0, 2)], 1);
        let model = PlacementCost::default();
        let batch = model.propose_batch(
            &v,
            &CostPolicy::default(),
            &Hysteresis::new(),
            &BTreeSet::new(),
        );
        assert_eq!(batch.len(), 1);
        assert!(matches!(batch[0].kind, MigrationKind::Replica { .. }));
        assert_eq!(
            batch[0].to,
            HostSlot {
                region: RegionId(0),
                host: 2
            }
        );
    }

    #[test]
    fn hysteresis_raises_the_bar_for_recent_movers() {
        // A marginal win (Δcost = 0.10) is blocked right after the shard
        // moved and allowed again once the penalty decays.
        let v = view(
            vec![stat(0, 0, 0, 100, vec![45, 55])],
            vec![(0, 0), (1, 0)],
            2,
        );
        let model = PlacementCost::default();
        let policy = CostPolicy::default();
        let mut hysteresis = Hysteresis::new();
        assert_eq!(
            model
                .propose_batch(&v, &policy, &hysteresis, &BTreeSet::new())
                .len(),
            1
        );
        hysteresis.note_move(0, &policy);
        assert!(model
            .propose_batch(&v, &policy, &hysteresis, &BTreeSet::new())
            .is_empty());
        hysteresis.decay(&policy);
        hysteresis.decay(&policy);
        assert_eq!(
            model
                .propose_batch(&v, &policy, &hysteresis, &BTreeSet::new())
                .len(),
            1
        );
    }
}

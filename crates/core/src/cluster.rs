//! The GlobalDB cluster coordinator: state ownership and the public API.
//!
//! [`GlobalDb`] owns the subsystems — topology + message plane, GTM,
//! per-CN transaction managers, shards with their replication state,
//! catalog, RCP calculators, stats, observability — and the sibling
//! modules drive them through narrow `pub(crate)` seams:
//!
//! * [`crate::txn`] — the transaction pipeline (begin → execute →
//!   prepare → commit-point → commit-wait → replicate-ack);
//! * [`crate::repl_driver`] — followers of a shard's redo stream: build,
//!   ship, take over, replay;
//! * [`crate::rcp_driver`] — RCP rounds, heartbeats, vacuum;
//! * [`crate::lifecycle`] — crash/restore/promote/rejoin fault surface;
//! * [`crate::frontend`] — SQL/DDL/bulk-load entry points;
//! * [`crate::transition`] — the online GTM↔GClock transition.
//!
//! Fields are `pub(crate)`: external crates go through the accessor
//! methods (or the typed APIs above), so cross-layer mutation stays
//! inside this crate.

use crate::config::{ClusterConfig, Placement, RoutingPolicy};
use crate::event::{CoreEvent, CoreSim};
use crate::net::MessagePlane;
use crate::rcp_driver::GtmRate;
use crate::repl_driver::Shard;
use crate::ror::RorService;
use crate::shardlog::ShardLog;
use crate::stats::{ClusterStats, TxnOutcome};
use crate::transition::TransitionTrace;
use crate::txn::TxnHandle;
use gdb_consistency::{CollectorElection, DdlTracker, RcpCalculator};
use gdb_model::{GdbResult, TableId, Timestamp, TxnId};
use gdb_obs::{MetricsReport, Obs};
use gdb_simclock::GClock;
use gdb_simnet::{NetNodeId, RegionId, Sim, SimTime, Topology};
use gdb_storage::{Catalog, DataNodeStorage};
use gdb_txnmgr::{CnTm, GtmServer, TmMode, TransitionOrchestrator};

/// One computing node.
pub struct Cn {
    pub node: NetNodeId,
    pub region: RegionId,
    pub tm: CnTm,
    /// The RCP value distributed to this CN by its region's collector.
    pub rcp: Timestamp,
    /// The routing-epoch this CN's cached route table was refreshed at.
    /// Refreshed by the cutover announcement (or a stale-route reject).
    pub route_epoch: u64,
}

/// The full cluster state (the "world" of the event simulation).
pub struct GlobalDb {
    pub(crate) config: ClusterConfig,
    pub(crate) topo: Topology,
    /// The typed RPC chokepoint: all per-message latency/byte charges.
    pub(crate) plane: MessagePlane,
    pub(crate) regions: Vec<RegionId>,
    pub(crate) gtm: GtmServer,
    pub(crate) gtm_node: NetNodeId,
    pub(crate) orchestrator: TransitionOrchestrator,
    pub(crate) cns: Vec<Cn>,
    pub(crate) shards: Vec<Shard>,
    /// Authoritative catalog (CNs are stateless and share it).
    pub(crate) catalog: Catalog,
    pub(crate) ddl: DdlTracker,
    /// Per-region RCP calculators (collector-CN state).
    pub(crate) rcp: Vec<RcpCalculator>,
    /// Per-region collector elections.
    pub(crate) collectors: Vec<CollectorElection>,
    pub(crate) gtm_rate: GtmRate,
    /// Per-table replication-mode overrides (the paper's future-work item:
    /// synchronous replicated tables co-existing with asynchronous ones,
    /// trading update latency for maximal freshness on selected tables).
    pub(crate) table_replication:
        std::collections::HashMap<TableId, gdb_replication::ReplicationMode>,
    pub(crate) stats: ClusterStats,
    /// Observability: trace spans (off by default) + metrics registry.
    pub(crate) obs: Obs,
    /// Pre-registered metric handles for the hot record sites.
    pub(crate) hot: crate::hot::HotMetrics,
    /// Flat O(1) routing table: shard → (primary, owner epoch) plus the
    /// per-CN nearest-shard index. Rebuilt *only* when placement changes
    /// (batched cutover, replica promotion) — every route between
    /// rebuilds is a plain `Vec` load. See [`GlobalDb::rebuild_routes`].
    pub(crate) routes: gdb_router::RouteTable,
    /// Last skyline pick per (CN, shard), flat-indexed
    /// `cn * shard_count + shard` — a change is a re-selection (counted,
    /// and spanned when tracing is on).
    pub(crate) last_skyline_pick: Vec<Option<crate::ror::ReadTarget>>,
    /// Per-CN flag: `true` while the CN's clock-sync daemon is cut off
    /// from its regional time device (fault injection). While blocked the
    /// clock keeps drifting and its error bound grows until sync resumes.
    pub(crate) clock_sync_blocked: Vec<bool>,
    pub(crate) txn_seq: u64,
    /// Set when an online transition completes (observed by tests/benches).
    pub(crate) last_transition_completed: Option<gdb_txnmgr::TransitionDirection>,
    /// Phase boundaries of the in-flight DUAL transition (span source).
    pub(crate) transition_trace: Option<TransitionTrace>,
    /// Current cluster routing epoch: bumped atomically at every batched
    /// migration-plan cutover that moves at least one primary.
    pub(crate) routing_epoch: u64,
    /// In-flight shard migrations (members of batched plans; at most one
    /// per shard).
    pub(crate) migrations: Vec<crate::migrate::Migration>,
    /// Monotone migration id guarding scheduled migration events.
    pub(crate) migration_seq: u64,
    /// Monotone batched-plan id.
    pub(crate) plan_seq: u64,
    /// Hosts being drained for retirement (elastic scale-in), as
    /// `(region, host)` slots.
    pub(crate) draining: Vec<(RegionId, u16)>,
    /// Slot of the last host whose data nodes were retired.
    pub(crate) last_host_retired: Option<(RegionId, u16)>,
    /// Every host slot ever decommissioned — excluded from placement.
    pub(crate) retired_hosts: Vec<(RegionId, u16)>,
    /// Per-shard live load counters (hot-shard detection input).
    pub(crate) shard_load: Vec<crate::migrate::ShardLoad>,
    /// Shard of the last completed migration (observed by tests/benches).
    pub(crate) last_migration_completed: Option<usize>,
    /// Shard + reason of the last aborted migration.
    pub(crate) last_migration_aborted: Option<(usize, String)>,
}

impl GlobalDb {
    // ---- Read accessors (the public view of the coordinator state) ----

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Mutable topology access (chaos heal-all and topology-level tests).
    pub fn topo_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// The message plane's per-RpcKind traffic accounting.
    pub fn plane(&self) -> &MessagePlane {
        &self.plane
    }

    /// Swap the message plane's delivery backend (see
    /// [`crate::net::Transport`]). The default is the simulated path;
    /// `gdb-realnet` installs thread-channel or loopback-TCP backends.
    pub fn set_transport(&mut self, transport: Box<dyn crate::net::Transport>) {
        self.plane.set_transport(transport);
    }

    /// The active transport's name ("sim", "thread", "tcp").
    pub fn transport_name(&self) -> &'static str {
        self.plane.transport_name()
    }

    /// Gracefully shut the active transport down (join node threads,
    /// close sockets; no-op for the simulated path).
    pub fn shutdown_transport(&mut self) {
        self.plane.shutdown_transport();
    }

    pub fn regions(&self) -> &[RegionId] {
        &self.regions
    }

    pub fn gtm(&self) -> &GtmServer {
        &self.gtm
    }

    pub fn gtm_node(&self) -> NetNodeId {
        self.gtm_node
    }

    pub fn cns(&self) -> &[Cn] {
        &self.cns
    }

    /// Mutable CN access (tests flip clock health / TM state directly).
    pub fn cns_mut(&mut self) -> &mut [Cn] {
        &mut self.cns
    }

    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Mutable shard access (tests adjust replica state directly).
    pub fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Per-region RCP calculators, indexed like [`GlobalDb::regions`].
    pub fn rcp_calculators(&self) -> &[RcpCalculator] {
        &self.rcp
    }

    pub fn last_transition_completed(&self) -> Option<gdb_txnmgr::TransitionDirection> {
        self.last_transition_completed
    }

    /// Current cluster routing epoch (bumped at every migration cutover).
    pub fn routing_epoch(&self) -> u64 {
        self.routing_epoch
    }

    /// The earliest-started in-flight migration, if any.
    pub fn migration(&self) -> Option<&crate::migrate::Migration> {
        self.migrations.first()
    }

    /// All in-flight migrations, in start order.
    pub fn migrations(&self) -> &[crate::migrate::Migration] {
        &self.migrations
    }

    /// Shards with a migration in flight, in start order.
    pub fn migrating_shards(&self) -> Vec<usize> {
        self.migrations.iter().map(|m| m.shard).collect()
    }

    /// Hosts currently draining toward retirement.
    pub fn draining_hosts(&self) -> &[(RegionId, u16)] {
        &self.draining
    }

    /// Slot of the last host whose data nodes were retired.
    pub fn last_host_retired(&self) -> Option<(RegionId, u16)> {
        self.last_host_retired
    }

    /// Host slots decommissioned by a drain: the rebalancer must never
    /// place anything on them again.
    pub fn retired_hosts(&self) -> &[(RegionId, u16)] {
        &self.retired_hosts
    }

    /// Per-shard live load counters, indexed like [`GlobalDb::shards`].
    pub fn shard_load(&self) -> &[crate::migrate::ShardLoad] {
        &self.shard_load
    }

    /// Shard of the last completed migration.
    pub fn last_migration_completed(&self) -> Option<usize> {
        self.last_migration_completed
    }

    /// Shard and reason of the last aborted migration.
    pub fn last_migration_aborted(&self) -> Option<&(usize, String)> {
        self.last_migration_aborted.as_ref()
    }

    // ---- Small shared helpers -----------------------------------------

    /// Next cluster-unique transaction id originating at `cn`.
    pub(crate) fn next_txn_id(&mut self, cn: usize) -> TxnId {
        self.txn_seq += 1;
        TxnId::compose(cn as u16, self.txn_seq)
    }

    /// Lazily synchronize a CN's clock with its regional time device
    /// (the paper syncs every 1 ms; we fast-forward to the latest
    /// boundary instead of simulating every round).
    pub(crate) fn sync_cn_clock(&mut self, cn: usize, now: SimTime) {
        let interval = self.config.gclock.sync_interval;
        if interval.is_zero() || self.clock_sync_blocked.get(cn).copied().unwrap_or(false) {
            return;
        }
        let aligned =
            SimTime::from_nanos((now.as_nanos() / interval.as_nanos()) * interval.as_nanos());
        let g: &mut GClock = &mut self.cns[cn].tm.gclock;
        if g.clock().last_sync() < aligned {
            g.sync(aligned);
        }
    }

    /// Index of a CN's region in [`GlobalDb::regions`].
    pub(crate) fn region_idx_of_cn(&self, cn: usize) -> usize {
        let region = self.cns[cn].region;
        self.regions.iter().position(|&r| r == region).unwrap_or(0)
    }

    /// Nearest shard to a CN (for reads of replicated tables). O(1):
    /// reads the cached per-CN index in the routing table. The cache is
    /// decision-identical to the old per-call `min_by_key` RTT scan
    /// because `nominal_rtt` only changes relative order when a primary
    /// *moves* — exactly when [`GlobalDb::rebuild_routes`] runs.
    pub(crate) fn nearest_shard(&self, cn: usize) -> usize {
        debug_assert_eq!(self.routes.nearest(cn), {
            let cn_node = self.cns[cn].node;
            (0..self.shards.len())
                .min_by_key(|&s| self.topo.nominal_rtt(cn_node, self.shards[s].primary))
                .unwrap_or(0)
        });
        self.routes.nearest(cn)
    }

    /// Rebuild the flat routing table from the current placement. Must
    /// be called at every point a shard primary can change: cluster
    /// construction, batched-plan cutover, and replica promotion. Cheap
    /// relative to the events that trigger it (O(shards × CNs), and
    /// those events are rare by design).
    pub(crate) fn rebuild_routes(&mut self) {
        let placement: Vec<(NetNodeId, u64)> = self
            .shards
            .iter()
            .map(|s| (s.primary, s.owner_epoch))
            .collect();
        let cn_nodes: Vec<NetNodeId> = self.cns.iter().map(|c| c.node).collect();
        let topo = &self.topo;
        self.routes =
            gdb_router::RouteTable::build(self.routing_epoch, &placement, &cn_nodes, |a, b| {
                topo.nominal_rtt(a, b)
            });
    }

    /// The flat routing table (read-only diagnostics / benches).
    pub fn routes(&self) -> &gdb_router::RouteTable {
        &self.routes
    }

    /// Current RCP visible at a CN.
    pub fn cn_rcp(&self, cn: usize) -> Timestamp {
        self.cns[cn].rcp
    }

    pub fn cn_mode(&self, cn: usize) -> TmMode {
        self.cns[cn].tm.mode
    }

    // The RoutingPolicy is re-checked per query; nothing cluster-global
    // changes when it flips, so tests can toggle it live.
    pub fn set_routing(&mut self, routing: RoutingPolicy) {
        self.config.routing = routing;
    }

    /// Run a closed transaction at virtual time `at` directly against the
    /// world state — the entry point for logic running *inside* a
    /// scheduled event (fault-plan probes), where the [`Cluster`] wrapper
    /// (which would re-enter the scheduler) is not available.
    pub fn run_transaction_at<R>(
        &mut self,
        cn: usize,
        at: SimTime,
        read_only: bool,
        single_shard: bool,
        f: impl FnOnce(&mut TxnHandle) -> GdbResult<R>,
    ) -> GdbResult<(R, TxnOutcome)> {
        let mut handle = TxnHandle::begin(self, cn, at, read_only, single_shard)?;
        match f(&mut handle) {
            Ok(value) => match handle.commit() {
                Ok(outcome) => {
                    self.stats.record_txn(&outcome);
                    self.obs
                        .metrics
                        .record(self.hot.txn.latency_us, outcome.latency);
                    Ok((value, outcome))
                }
                Err(e) => {
                    // Commit-time failure: the handle already rolled back.
                    self.stats.aborted += 1;
                    Err(e)
                }
            },
            Err(e) => {
                let outcome = handle.abort();
                self.stats.record_txn(&outcome);
                Err(e)
            }
        }
    }

    /// Mirror externally maintained totals (cluster stats, topology
    /// traffic, message-plane RPC accounting) into the registry, then
    /// freeze it. The report is a pure function of the run: identical
    /// seeds produce identical reports.
    pub fn metrics_snapshot(&mut self) -> MetricsReport {
        self.sync_derived_metrics();
        self.obs.metrics.snapshot()
    }

    /// Refresh the per-replica freshness gauges against virtual time
    /// `now`: RCP lag (how far each replica's replayed commit timestamp
    /// trails the present) and log-ship backlog (sealed redo records the
    /// shipping channel has not yet drained). These are the live values
    /// a DBA inspects before redirecting read-only traffic (paper §IV);
    /// [`Cluster::metrics_snapshot`] calls this automatically.
    pub fn sync_replica_lag_metrics(&mut self, now: SimTime) {
        let now_us = now.as_micros();
        let m = &mut self.obs.metrics;
        for (s, shard) in self.shards.iter().enumerate() {
            for (r, replica) in shard.replicas.iter().enumerate() {
                let lag = now_us.saturating_sub(replica.applier.max_commit_ts().as_micros());
                let backlog = replica.channel.backlog(shard.log.sealed());
                m.gauge(
                    gdb_replication::metrics::replica_rcp_lag_gauge(s, r),
                    lag as f64,
                );
                m.gauge(
                    gdb_replication::metrics::replica_backlog_gauge(s, r),
                    backlog as f64,
                );
            }
        }
    }

    fn sync_derived_metrics(&mut self) {
        let m = &mut self.obs.metrics;
        m.set_counter(gdb_txnmgr::metrics::COMMITTED, self.stats.committed);
        m.set_counter(gdb_txnmgr::metrics::ABORTED, self.stats.aborted);
        m.set_counter(gdb_txnmgr::metrics::LOCK_WAITS, self.stats.lock_waits);
        m.set_counter(
            gdb_txnmgr::metrics::COMMIT_WAIT_TOTAL_US,
            self.stats.commit_wait_total.as_micros(),
        );
        m.set_counter(
            gdb_router::metrics::READS_ON_REPLICA,
            self.stats.reads_on_replica,
        );
        m.set_counter(
            gdb_router::metrics::READS_ON_PRIMARY,
            self.stats.reads_on_primary,
        );
        m.set_counter(
            gdb_router::metrics::REPLICA_BLOCKED_FALLBACKS,
            self.stats.replica_blocked_fallbacks,
        );
        m.set_counter(gdb_consistency::metrics::RCP_ROUNDS, self.stats.rcp_rounds);
        m.set_counter(
            gdb_consistency::metrics::RCP_ROUNDS_ABANDONED,
            self.stats.rcp_rounds_abandoned,
        );
        m.set_counter(
            gdb_consistency::metrics::COLLECTOR_FAILOVERS,
            self.stats.collector_failovers,
        );
        m.set_counter(
            gdb_consistency::metrics::HEARTBEATS_SENT,
            self.stats.heartbeats_sent,
        );
        m.set_counter(
            gdb_consistency::metrics::VERSIONS_VACUUMED,
            self.stats.versions_vacuumed,
        );
        m.set_counter(
            gdb_router::metrics::STALE_ROUTE_REJECTS,
            self.stats.stale_route_rejects,
        );
        m.set_counter(
            crate::migrate::metrics::MIGRATIONS_STARTED,
            self.stats.migrations_started,
        );
        m.set_counter(
            crate::migrate::metrics::MIGRATIONS_COMPLETED,
            self.stats.migrations_completed,
        );
        m.set_counter(
            crate::migrate::metrics::MIGRATIONS_ABORTED,
            self.stats.migrations_aborted,
        );
        m.set_counter(crate::migrate::metrics::ROUTING_EPOCH, self.routing_epoch);
        for (s, load) in self.shard_load.iter().enumerate() {
            m.set_counter(
                format!("{}.{s}", crate::migrate::metrics::SHARD_OPS_PREFIX),
                load.ops,
            );
            m.set_counter(
                format!("{}.{s}", crate::migrate::metrics::SHARD_BYTES_PREFIX),
                load.bytes,
            );
            for (r, &ops) in load.by_region.iter().enumerate() {
                m.set_counter(
                    format!("{}.{s}.r{r}", crate::migrate::metrics::SHARD_OPS_PREFIX),
                    ops,
                );
            }
        }
        for (s, shard) in self.shards.iter().enumerate() {
            m.gauge(
                gdb_storage::metrics::arena_resident_bytes_gauge(s),
                shard.storage.resident_bytes() as f64,
            );
        }
        let total = self.topo.total_stats();
        m.set_counter(gdb_simnet::metrics::MSGS, total.messages);
        m.set_counter(gdb_simnet::metrics::BYTES, total.bytes);
        let cross = self.topo.cross_region_totals();
        m.set_counter(gdb_simnet::metrics::CROSS_REGION_MSGS, cross.messages);
        m.set_counter(gdb_simnet::metrics::CROSS_REGION_BYTES, cross.bytes);
        self.plane.mirror_metrics(&self.topo, &mut self.obs.metrics);
    }
}

/// The cluster plus its event engine — the object users interact with.
pub struct Cluster {
    pub db: GlobalDb,
    pub sim: CoreSim,
}

impl Cluster {
    /// Build a cluster and start its background activities.
    pub fn new(config: ClusterConfig) -> Self {
        let (topo, placement) = config.build_topology();
        let Placement {
            regions,
            cn_nodes,
            gtm_node,
            shards: shard_placement,
        } = placement;

        let mut cns = Vec::new();
        for (i, (node, region)) in cn_nodes.iter().enumerate() {
            let mut gclock = GClock::new(
                config.seed.wrapping_add(i as u64 * 7919),
                // Deterministic per-CN drift within ±(bound/2).
                ((i as f64 * 37.0) % config.gclock.max_drift_ppm)
                    - config.gclock.max_drift_ppm / 2.0,
                config.gclock,
            );
            gclock.sync(SimTime::ZERO);
            cns.push(Cn {
                node: *node,
                region: *region,
                tm: CnTm::new(config.tm_mode, gclock),
                rcp: Timestamp::ZERO,
                route_epoch: 0,
            });
        }

        let shards: Vec<Shard> = shard_placement
            .into_iter()
            .map(|sp| {
                let mut shard = Shard {
                    primary: sp.primary,
                    region: sp.primary_region,
                    storage: DataNodeStorage::new(),
                    log: ShardLog::new(),
                    replicas: Vec::new(),
                    owner_epoch: 0,
                };
                for (node, region) in sp.replicas {
                    let replica = shard.new_follower(node, region, config.codec, SimTime::ZERO);
                    shard.replicas.push(replica);
                }
                shard
            })
            .collect();

        // Per-region RCP: expected slots are the replicas in that region.
        let mut rcp = Vec::new();
        let mut collectors = Vec::new();
        for &region in &regions {
            let mut expected = Vec::new();
            let mut slot = 0u32;
            for shard in &shards {
                for replica in &shard.replicas {
                    if replica.region == region {
                        expected.push(slot);
                    }
                    slot += 1;
                }
            }
            rcp.push(RcpCalculator::new(expected));
            let cn_count_in_region = cns.iter().filter(|c| c.region == region).count();
            collectors.push(CollectorElection::new(cn_count_in_region.max(1)));
        }

        let cn_count = cns.len();
        let shard_count = shards.len();
        let region_count = regions.len();
        let plane = MessagePlane::new(regions[0]);
        let mut obs = Obs::new();
        let hot = crate::hot::HotMetrics::register(&mut obs.metrics);
        let mut db = GlobalDb {
            config,
            topo,
            plane,
            regions,
            gtm: GtmServer::new(),
            gtm_node,
            orchestrator: TransitionOrchestrator::new(cn_count),
            cns,
            shards,
            catalog: Catalog::new(),
            ddl: DdlTracker::new(),
            rcp,
            collectors,
            gtm_rate: GtmRate::default(),
            table_replication: std::collections::HashMap::new(),
            stats: ClusterStats::default(),
            obs,
            hot,
            routes: gdb_router::RouteTable::default(),
            last_skyline_pick: vec![None; cn_count * shard_count],
            clock_sync_blocked: vec![false; cn_count],
            txn_seq: 0,
            last_transition_completed: None,
            transition_trace: None,
            routing_epoch: 0,
            migrations: Vec::new(),
            migration_seq: 0,
            plan_seq: 0,
            draining: Vec::new(),
            last_host_retired: None,
            retired_hosts: Vec::new(),
            shard_load: vec![
                crate::migrate::ShardLoad {
                    ops: 0,
                    bytes: 0,
                    by_region: vec![0; region_count],
                };
                shard_count
            ],
            last_migration_completed: None,
            last_migration_aborted: None,
        };
        db.gtm.set_mode(db.config.tm_mode);
        db.rebuild_routes();

        let mut sim: CoreSim = Sim::new();
        // Schedule the recurring background activities (typed events —
        // stored inline in the queue, no per-event allocation).
        for s in 0..db.shards.len() {
            let interval = db.config.flush_interval;
            sim.schedule_event_at(SimTime::ZERO + interval, CoreEvent::FlushShard { shard: s });
        }
        for r in 0..db.regions.len() {
            let interval = db.config.rcp_interval;
            sim.schedule_event_at(SimTime::ZERO + interval, CoreEvent::RcpRound { region: r });
        }
        let hb = db.config.heartbeat_interval;
        sim.schedule_event_at(SimTime::ZERO + hb, CoreEvent::Heartbeat);
        if let Some(interval) = db.config.vacuum_interval {
            sim.schedule_event_at(SimTime::ZERO + interval, CoreEvent::Vacuum);
        }

        Cluster { db, sim }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Advance virtual time, processing background activity.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(&mut self.db, t);
    }

    /// After bulk loading, fast-forward the replication cursors and RCP so
    /// replicas are "caught up" with the loaded state.
    pub fn finish_load(&mut self) {
        let now = self.sim.now();
        self.db.heartbeat(now);
        self.sync_replicas_now();
        for r in 0..self.db.regions.len() {
            self.db.rcp_round(r, now);
        }
    }

    /// Run a closed transaction at virtual time `at` from `cn`.
    ///
    /// `read_only` marks the transaction ROR-eligible (it will read at the
    /// RCP snapshot from replicas when the routing policy allows);
    /// `single_shard` engages the paper's single-shard begin bypass in
    /// GClock mode.
    pub fn run_transaction<R>(
        &mut self,
        cn: usize,
        at: SimTime,
        read_only: bool,
        single_shard: bool,
        f: impl FnOnce(&mut TxnHandle) -> GdbResult<R>,
    ) -> GdbResult<(R, TxnOutcome)> {
        let at = at.max(self.sim.now());
        self.sim.run_until(&mut self.db, at);
        self.db
            .run_transaction_at(cn, at, read_only, single_shard, f)
    }

    /// Kick off an online TM-mode transition (Figs. 2–3). The cluster
    /// stays fully available; watch
    /// [`GlobalDb::last_transition_completed`] for completion.
    pub fn start_transition(&mut self, direction: gdb_txnmgr::TransitionDirection) {
        crate::transition::start_transition(&mut self.db, &mut self.sim, direction);
    }

    /// Start migrating `shard` to a freshly provisioned data node on
    /// `(to_region, to_host)`: snapshot copy → redo catch-up → cutover
    /// barrier with an atomic routing-epoch bump. The shard stays fully
    /// available throughout; watch [`GlobalDb::last_migration_completed`]
    /// / [`GlobalDb::last_migration_aborted`] for the outcome.
    pub fn start_migration(
        &mut self,
        shard: usize,
        to_region: gdb_simnet::RegionId,
        to_host: u16,
    ) -> GdbResult<()> {
        crate::migrate::start_migration(&mut self.db, &mut self.sim, shard, to_region, to_host)
    }

    /// Start a batched migration plan: k distinct shards (primary or
    /// replica moves) copied concurrently and cut over together under
    /// one routing-epoch bump. Returns the plan id.
    pub fn start_plan(&mut self, specs: Vec<crate::migrate::MigrationSpec>) -> GdbResult<u64> {
        crate::migrate::start_plan(&mut self.db, &mut self.sim, specs)
    }

    /// The shard of the earliest-started in-flight migration, if any.
    pub fn migration_in_flight(&self) -> Option<usize> {
        self.db.migrations.first().map(|m| m.shard)
    }

    /// Run a vacuum pass at the current virtual time.
    pub fn vacuum(&mut self) -> usize {
        self.db.vacuum()
    }

    /// Metrics snapshot with the time-derived per-replica freshness
    /// gauges refreshed at the engine's current virtual time. Prefer
    /// this over [`GlobalDb::metrics_snapshot`] whenever the engine is
    /// at hand.
    pub fn metrics_snapshot(&mut self) -> MetricsReport {
        let now = self.sim.now();
        self.db.sync_replica_lag_metrics(now);
        self.db.metrics_snapshot()
    }

    /// Crash a shard's primary data node (paper §IV: replicas keep serving
    /// read-only queries until the primary recovers or a replica is
    /// promoted). Writes to the shard fail until promotion.
    ///
    /// Thin shim over the fault-injection API ([`GlobalDb::crash_primary`]).
    pub fn fail_primary(&mut self, shard_idx: usize) {
        self.db.crash_primary(shard_idx);
    }

    /// Promote one of a shard's replicas to primary (paper §IV).
    ///
    /// Durability follows the replication mode exactly:
    /// * under synchronous quorum replication every acknowledged commit
    ///   was already durable on the replicas, so the outstanding redo is
    ///   force-delivered to the chosen replica before the switch — no
    ///   acknowledged commit is lost;
    /// * under asynchronous replication the replica only has what reached
    ///   it — the unreplicated tail of acknowledged commits is lost, the
    ///   trade-off the paper accepts for WAN performance.
    ///
    /// The remaining replicas full-resync from the new primary and the
    /// shard starts a fresh redo stream.
    pub fn promote_replica(&mut self, shard_idx: usize, replica_idx: usize) -> GdbResult<()> {
        let now = self.sim.now();
        self.db.promote_replica_at(shard_idx, replica_idx, now)
    }

    /// Re-admit a recovered node as a replica of `shard` (paper §IV: a
    /// failed primary "recovers" — here it returns in the replica role).
    /// The node full-resyncs from the current primary snapshot and then
    /// follows the redo stream from the current sealed head.
    pub fn rejoin_as_replica(&mut self, shard_idx: usize, node: NetNodeId) -> GdbResult<()> {
        let now = self.sim.now();
        self.db.rejoin_as_replica_at(shard_idx, node, now)
    }

    /// Access the ROR service view (for diagnostics / tests).
    pub fn ror_service(&mut self) -> RorService<'_> {
        RorService { db: &mut self.db }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `Send + Sync` audit behind the realnet backends: a real
    /// harness hands `GlobalDb` (with its boxed transport, socket
    /// handles and all) across threads. Note `Cluster` is deliberately
    /// *not* audited — the sim engine holds `Rc`-capturing scheduled
    /// closures (chaos oracles), which are confined to the driver thread.
    #[test]
    fn globaldb_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<GlobalDb>();
    }
}

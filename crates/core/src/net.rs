//! The typed RPC message plane.
//!
//! Every wire interaction in the system is one of a small closed set of
//! [`RpcKind`]s, and every latency/byte charge for those interactions
//! funnels through the plane — [`MessagePlane::charge`] for one-way
//! messages, [`MessagePlane::scatter`] for round trips, both accounting
//! each delivered leg the same way — so
//! that (a) the cost model is applied uniformly, (b) per-kind message and
//! byte counters plus delay histograms come for free, and (c) each
//! counter also exists with a per-region-pair label
//! (`rpc.<kind>.msgs.<from>-<to>`). The paper's results are all
//! message-count × geometry stories (commit wait vs. GTM round trips,
//! RCP gather fan-in, async log shipping), and this is the layer that
//! makes those counts first-class.
//!
//! Determinism: the plane is a thin wrapper over [`Topology::one_way`]
//! and must preserve the *exact* sequence of calls into it — each
//! `one_way` draws link jitter from the topology's seeded RNG, so a
//! skipped or reordered call changes every timestamp downstream. Round
//! trips have one primitive, [`MessagePlane::scatter`] (of which
//! [`MessagePlane::rtt`] and [`MessagePlane::ship_rtt`] are the
//! one-target cases); on the sim transport it delivers its legs in
//! there/back order and stops at the first undeliverable one.
//! Accounting-only paths ([`MessagePlane::account`],
//! [`MessagePlane::charge_bytes`]) never touch the RNG.

use gdb_obs::MetricsRegistry;
use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::{NetNodeId, RegionId, SimDuration, Topology};
use std::fmt;

/// Every RPC the system puts on the wire. One enumerator per logical
/// interaction, not per implementation call site (see DESIGN.md for the
/// full table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RpcKind {
    /// CN → GTM snapshot-timestamp request (begin of a GTM-mode txn).
    GtmBeginTs,
    /// CN → GTM commit-timestamp request (GTM-counter commit plan).
    GtmCommitTs,
    /// CN → GTM commit round trip during a DUAL transition window.
    GtmDualCommit,
    /// CN → DN read operation (point/range/index/scan fetch).
    DnRead,
    /// CN → DN write operation (lock + stage redo on the primary).
    DnWrite,
    /// 2PC prepare branch: redo payload out to a written shard, ack back.
    TwoPcPrepare,
    /// 2PC commit decision out to a prepared shard, ack back.
    TwoPcCommit,
    /// Synchronous-replication quorum ship: primary → replica redo with
    /// durability ack (the commit-blocking leg of sync modes).
    SyncQuorumShip,
    /// Asynchronous redo log-shipping batch: primary → replica stream.
    LogShipBatch,
    /// RCP collect: replica applied-progress report to its region's
    /// collector CN.
    RcpGather,
    /// RCP finish: collector distributing the agreed consistency point to
    /// the region's CNs.
    RcpDistribute,
    /// Skyline staleness probe of one read-target candidate.
    SkylineProbe,
    /// GTM ⇄ CN barrier message of the DUAL transition protocol.
    TransitionBarrier,
    /// Shard-migration snapshot copy: source DN → target DN storage image.
    MigrateSnapshot,
    /// Shard-migration redo catch-up batch: source DN → target DN sealed
    /// log records shipped while the source still owns the shard.
    MigrateCatchup,
    /// Shard-migration cutover: barrier/ownership handoff between the DNs
    /// and the routing-epoch announcement fanned out to the CNs.
    MigrateCutover,
}

/// All kinds, in declaration order (the mirror/pre-registration order).
pub const ALL_RPC_KINDS: [RpcKind; 16] = [
    RpcKind::GtmBeginTs,
    RpcKind::GtmCommitTs,
    RpcKind::GtmDualCommit,
    RpcKind::DnRead,
    RpcKind::DnWrite,
    RpcKind::TwoPcPrepare,
    RpcKind::TwoPcCommit,
    RpcKind::SyncQuorumShip,
    RpcKind::LogShipBatch,
    RpcKind::RcpGather,
    RpcKind::RcpDistribute,
    RpcKind::SkylineProbe,
    RpcKind::TransitionBarrier,
    RpcKind::MigrateSnapshot,
    RpcKind::MigrateCatchup,
    RpcKind::MigrateCutover,
];

impl RpcKind {
    /// Stable snake_case name used in metric names and docs.
    pub fn name(self) -> &'static str {
        match self {
            RpcKind::GtmBeginTs => "gtm_begin_ts",
            RpcKind::GtmCommitTs => "gtm_commit_ts",
            RpcKind::GtmDualCommit => "gtm_dual_commit",
            RpcKind::DnRead => "dn_read",
            RpcKind::DnWrite => "dn_write",
            RpcKind::TwoPcPrepare => "two_pc_prepare",
            RpcKind::TwoPcCommit => "two_pc_commit",
            RpcKind::SyncQuorumShip => "sync_quorum_ship",
            RpcKind::LogShipBatch => "log_ship_batch",
            RpcKind::RcpGather => "rcp_gather",
            RpcKind::RcpDistribute => "rcp_distribute",
            RpcKind::SkylineProbe => "skyline_probe",
            RpcKind::TransitionBarrier => "transition_barrier",
            RpcKind::MigrateSnapshot => "migrate_snapshot",
            RpcKind::MigrateCatchup => "migrate_catchup",
            RpcKind::MigrateCutover => "migrate_cutover",
        }
    }

    /// Position in [`ALL_RPC_KINDS`] — the stable wire discriminant used
    /// by real transports when framing an [`Envelope`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`RpcKind::index`]; `None` for out-of-range values
    /// (a corrupt or newer-versioned frame).
    pub fn from_index(i: usize) -> Option<RpcKind> {
        ALL_RPC_KINDS.get(i).copied()
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// One typed wire message: what kind of RPC, between which nodes, how
/// many payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    pub kind: RpcKind,
    pub from: NetNodeId,
    pub to: NetNodeId,
    pub bytes: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Traffic {
    msgs: u64,
    bytes: u64,
}

/// How an [`Envelope`] physically reaches its destination.
///
/// The plane's accounting (per-kind counters, delay histograms,
/// region-pair splits) is transport-independent; only the *delivery* —
/// what it costs and whether it arrives — is pluggable. The default
/// [`SimTransport`] asks the topology's cost model and advances no real
/// time; real transports (in `gdb-realnet`) carry the envelope over OS
/// channels or loopback TCP and report the *measured* wall-clock delay,
/// consulting the same topology for fault state (down nodes, partitions)
/// so chaos nemeses apply to physical backends too.
///
/// `Send` is a supertrait: a transport lives inside `GlobalDb` and real
/// implementations hold socket handles and thread channels, so the whole
/// cluster state must stay transferable across threads.
pub trait Transport: Send {
    /// Short stable name ("sim", "thread", "tcp") for metrics and traces.
    fn name(&self) -> &'static str;

    /// Deliver one envelope, returning the one-way delay the caller
    /// should charge to virtual time, or `None` when the message cannot
    /// be delivered (destination down, link partitioned or dropped).
    ///
    /// Determinism contract for simulated implementations: exactly one
    /// `topo.one_way` call per invocation, in invocation order — the
    /// topology RNG stream is part of the trace.
    fn deliver(&mut self, topo: &mut Topology, env: Envelope) -> Option<SimDuration>;

    /// Deliver the legs of a scatter: each pair is a request and the
    /// response that answers it. `delays[i]` receives pair `i`'s two leg
    /// delays; it arrives all `None`, and on return `Some` marks exactly
    /// the legs that were delivered. A response is only ever handled
    /// after its request was.
    ///
    /// The default is sequential delivery: each leg through
    /// [`Transport::deliver`] in order, stopping at the first
    /// undeliverable leg — so a simulated transport draws exactly the
    /// `one_way` sequence the legs would draw one by one. Real transports
    /// may put many legs in flight at once, provided each response is
    /// still handled after its request, they stop planning at the first
    /// undeliverable leg as the default does, and they report per-leg
    /// delays whose there+back sum is the pair's round trip. An I/O
    /// failure there may leave a later leg delivered after an earlier one
    /// failed.
    fn deliver_pairs(
        &mut self,
        topo: &mut Topology,
        pairs: &[[Envelope; 2]],
        delays: &mut [[Option<SimDuration>; 2]],
    ) {
        for (pair, out) in pairs.iter().zip(delays) {
            for (&env, delay) in pair.iter().zip(out) {
                *delay = self.deliver(topo, env);
                if delay.is_none() {
                    return;
                }
            }
        }
    }

    /// Graceful teardown: join node threads, close sockets. Idempotent;
    /// the default (for purely simulated transports) does nothing.
    fn shutdown(&mut self) {}
}

/// The default transport: delivery *is* the simnet cost model. This is
/// byte-for-byte the pre-trait behaviour — one `Topology::one_way` call
/// per envelope — so committed baselines hold without re-blessing.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTransport;

impl Transport for SimTransport {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn deliver(&mut self, topo: &mut Topology, env: Envelope) -> Option<SimDuration> {
        topo.one_way(env.from, env.to, env.bytes)
    }
}

/// Per-(kind, from, to) traffic in one dense table; `None` marks a pair
/// never charged, which gets no labelled counter.
#[derive(Debug, Default)]
struct RegionTraffic {
    /// Regions per side; grows to cover the largest region seen.
    regions: usize,
    cells: Vec<Option<Traffic>>,
}

impl RegionTraffic {
    fn index(&self, kind: usize, from: usize, to: usize) -> usize {
        (kind * self.regions + from) * self.regions + to
    }

    /// The pair's counters, marked charged.
    fn cell(&mut self, kind: RpcKind, from: RegionId, to: RegionId) -> &mut Traffic {
        let (from, to) = (from.0 as usize, to.0 as usize);
        let needed = from.max(to) + 1;
        if needed > self.regions {
            let old = std::mem::replace(
                self,
                RegionTraffic {
                    regions: needed,
                    cells: vec![None; ALL_RPC_KINDS.len() * needed * needed],
                },
            );
            for (k, f, t, traffic) in old.charged() {
                let i = self.index(k, f, t);
                self.cells[i] = Some(traffic);
            }
        }
        let i = self.index(kind.idx(), from, to);
        self.cells[i].get_or_insert_default()
    }

    /// Every charged `(kind, from, to, traffic)`, in `(kind, from, to)`
    /// order.
    fn charged(&self) -> impl Iterator<Item = (usize, usize, usize, Traffic)> + '_ {
        let n = self.regions;
        self.cells.iter().enumerate().filter_map(move |(i, cell)| {
            cell.map(|traffic| (i / (n * n), i / n % n, i % n, traffic))
        })
    }
}

/// Per-kind, per-region-pair RPC accounting plus the latency chokepoint.
pub struct MessagePlane {
    totals: [Traffic; ALL_RPC_KINDS.len()],
    by_region: RegionTraffic,
    delays: Vec<LatencyHistogram>,
    transport: Box<dyn Transport>,
    /// Messages that went through [`Transport::deliver`] and delivered,
    /// per kind. Distinct from `totals`: statistically accounted fan-in
    /// ([`MessagePlane::account`], e.g. RCP gather reports) is counted
    /// there but never rides the transport. Real backends cross-check
    /// their silo tallies against *this*.
    delivered: [u64; ALL_RPC_KINDS.len()],
    /// Scratch of [`MessagePlane::scatter`] (its leg pairs and their
    /// delays), reused so a scatter allocates nothing.
    pairs: Vec<[Envelope; 2]>,
    pair_delays: Vec<[Option<SimDuration>; 2]>,
}

impl fmt::Debug for MessagePlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MessagePlane")
            .field("totals", &self.totals)
            .field("by_region", &self.by_region)
            .field("delays", &self.delays)
            .field("transport", &self.transport.name())
            .finish()
    }
}

impl MessagePlane {
    /// A plane with every kind pre-registered against `home` (region 0),
    /// so each `RpcKind` has a live, region-labelled counter from the
    /// first snapshot even before traffic of that kind occurs.
    pub fn new(home: RegionId) -> Self {
        let mut plane = MessagePlane {
            totals: Default::default(),
            by_region: RegionTraffic::default(),
            delays: vec![LatencyHistogram::new(); ALL_RPC_KINDS.len()],
            transport: Box::new(SimTransport),
            delivered: [0; ALL_RPC_KINDS.len()],
            pairs: Vec::new(),
            pair_delays: Vec::new(),
        };
        for kind in ALL_RPC_KINDS {
            plane.by_region.cell(kind, home, home);
        }
        plane
    }

    /// Swap the delivery backend. Counters and histograms carry over —
    /// they describe the workload, not the wire.
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
    }

    /// The active transport's name ("sim" unless a real backend was
    /// installed).
    pub fn transport_name(&self) -> &'static str {
        self.transport.name()
    }

    /// Gracefully shut the active transport down (no-op for `sim`).
    pub fn shutdown_transport(&mut self) {
        self.transport.shutdown();
    }

    fn note(&mut self, kind: RpcKind, from: RegionId, to: RegionId, bytes: u64, msgs: u64) {
        let t = &mut self.totals[kind.idx()];
        t.msgs += msgs;
        t.bytes += bytes;
        let r = self.by_region.cell(kind, from, to);
        r.msgs += msgs;
        r.bytes += bytes;
    }

    /// The chokepoint: deliver one one-way message via the active
    /// transport, returning its delay (`None` when the destination is
    /// down or partitioned away). All plane bookkeeping happens here.
    pub fn charge(&mut self, topo: &mut Topology, env: Envelope) -> Option<SimDuration> {
        let delay = self.transport.deliver(topo, env);
        if let Some(d) = delay {
            self.record(topo, env, d);
        }
        delay
    }

    /// The bookkeeping of one delivered leg.
    fn record(&mut self, topo: &Topology, env: Envelope, delay: SimDuration) {
        let (from, to) = (topo.node_region(env.from), topo.node_region(env.to));
        self.note(env.kind, from, to, env.bytes, 1);
        self.delays[env.kind.idx()].record(delay);
        self.delivered[env.kind.idx()] += 1;
    }

    /// One parallel round trip from `from` to every node of `to`: a
    /// `req_bytes` request out and a `resp_bytes` response back per
    /// target, all in flight at once. Returns the slowest target's round
    /// trip, or `None` when any leg was undeliverable; every delivered
    /// leg is accounted exactly as [`MessagePlane::charge`] does, the
    /// undelivered ones not at all.
    pub fn scatter(
        &mut self,
        topo: &mut Topology,
        kind: RpcKind,
        from: NetNodeId,
        to: impl IntoIterator<Item = NetNodeId>,
        req_bytes: u64,
        resp_bytes: u64,
    ) -> Option<SimDuration> {
        self.pairs.clear();
        self.pairs.extend(to.into_iter().map(|node| {
            let leg = |from, to, bytes| Envelope {
                kind,
                from,
                to,
                bytes,
            };
            [leg(from, node, req_bytes), leg(node, from, resp_bytes)]
        }));
        self.pair_delays.clear();
        self.pair_delays.resize(self.pairs.len(), [None; 2]);
        self.transport
            .deliver_pairs(topo, &self.pairs, &mut self.pair_delays);
        let mut slowest = Some(SimDuration::ZERO);
        for i in 0..self.pairs.len() {
            let mut round_trip = Some(SimDuration::ZERO);
            for leg in 0..2 {
                let delay = self.pair_delays[i][leg];
                if let Some(d) = delay {
                    self.record(topo, self.pairs[i][leg], d);
                }
                round_trip = round_trip.zip(delay).map(|(rt, d)| rt + d);
            }
            slowest = slowest.zip(round_trip).map(|(s, rt)| s.max(rt));
        }
        slowest
    }

    /// Messages of `kind` the active transport delivered (excludes
    /// [`MessagePlane::account`]-only statistical traffic).
    pub fn transport_msgs(&self, kind: RpcKind) -> u64 {
        self.delivered[kind.idx()]
    }

    /// One one-way message of `kind`.
    pub fn send(
        &mut self,
        topo: &mut Topology,
        kind: RpcKind,
        from: NetNodeId,
        to: NetNodeId,
        bytes: u64,
    ) -> Option<SimDuration> {
        self.charge(
            topo,
            Envelope {
                kind,
                from,
                to,
                bytes,
            },
        )
    }

    /// Small request/response round trip (both legs 128 control bytes).
    pub fn rtt(
        &mut self,
        topo: &mut Topology,
        kind: RpcKind,
        a: NetNodeId,
        b: NetNodeId,
    ) -> Option<SimDuration> {
        self.scatter(topo, kind, a, [b], 128, 128)
    }

    /// Ship `bytes` to `to` with a small acknowledgment back (the
    /// durability wait of synchronous replication).
    pub fn ship_rtt(
        &mut self,
        topo: &mut Topology,
        kind: RpcKind,
        from: NetNodeId,
        to: NetNodeId,
        bytes: u64,
    ) -> Option<SimDuration> {
        self.scatter(topo, kind, from, [to], bytes, 128)
    }

    /// Account payload bytes whose delivery cost was modelled elsewhere
    /// (the log-shipping path computes transmission explicitly and sends
    /// its propagation probe with a minimal payload). No delay, no
    /// message count, no RNG draw.
    pub fn charge_bytes(
        &mut self,
        topo: &mut Topology,
        kind: RpcKind,
        from: NetNodeId,
        to: NetNodeId,
        bytes: u64,
    ) {
        topo.charge_bytes(from, to, bytes);
        let (from, to) = (topo.node_region(from), topo.node_region(to));
        self.note(kind, from, to, bytes, 0);
    }

    /// Count a logical message whose latency is modelled outside the
    /// per-message cost path (RCP gather/distribute rounds, skyline
    /// staleness probes). Pure accounting: never touches the topology.
    pub fn account(&mut self, kind: RpcKind, from: RegionId, to: RegionId, bytes: u64) {
        self.note(kind, from, to, bytes, 1);
    }

    /// Total messages charged for `kind` so far.
    pub fn msgs(&self, kind: RpcKind) -> u64 {
        self.totals[kind.idx()].msgs
    }

    /// Total payload bytes charged for `kind` so far.
    pub fn bytes(&self, kind: RpcKind) -> u64 {
        self.totals[kind.idx()].bytes
    }

    /// Mirror every per-kind total, per-region-pair split, and delay
    /// histogram into the registry (called at snapshot time).
    pub fn mirror_metrics(&self, topo: &Topology, reg: &mut MetricsRegistry) {
        for kind in ALL_RPC_KINDS {
            let t = self.totals[kind.idx()];
            reg.set_counter(format!("rpc.{}.msgs", kind.name()), t.msgs);
            reg.set_counter(format!("rpc.{}.bytes", kind.name()), t.bytes);
            let h = &self.delays[kind.idx()];
            if !h.is_empty() {
                reg.set_histogram(format!("rpc.{}.delay_us", kind.name()), h.clone());
            }
        }
        for (kind, from, to, t) in self.by_region.charged() {
            let name = ALL_RPC_KINDS[kind].name();
            let region = |r: usize| topo.region_name(RegionId(r as u16));
            let (f, tn) = (region(from), region(to));
            reg.set_counter(format!("rpc.{name}.msgs.{f}-{tn}"), t.msgs);
            reg.set_counter(format!("rpc.{name}.bytes.{f}-{tn}"), t.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_simnet::{NodeKind, TopologyBuilder};

    fn city_pair(seed: u64) -> (Topology, NetNodeId, NetNodeId) {
        let (mut t, [xian, langzhong, _]) = TopologyBuilder::three_city(seed, false, 300);
        let a = t.add_node(xian, 0, NodeKind::ComputeNode);
        let b = t.add_node(langzhong, 1, NodeKind::DataNodePrimary);
        (t, a, b)
    }

    #[test]
    fn charge_matches_topology_cost_and_counts() {
        // Same seed, same call sequence: plane-mediated costs must be
        // bit-identical to direct topology calls, a round trip being the
        // request leg then the 128-byte reply leg.
        let (mut t1, a, d) = city_pair(7);
        let (mut t2, a2, d2) = city_pair(7);
        let mut plane = MessagePlane::new(RegionId(0));
        let via_plane = (
            plane.send(&mut t1, RpcKind::DnRead, a, d, 256),
            plane.rtt(&mut t1, RpcKind::GtmBeginTs, a, d),
            plane.ship_rtt(&mut t1, RpcKind::SyncQuorumShip, a, d, 4096),
        );
        let round_trip = |t: &mut Topology, bytes| {
            let there = t.one_way(a2, d2, bytes)?;
            Some(there + t.one_way(d2, a2, 128)?)
        };
        let direct = (
            t2.one_way(a2, d2, 256),
            round_trip(&mut t2, 128),
            round_trip(&mut t2, 4096),
        );
        assert_eq!(via_plane, direct);
        assert_eq!(plane.msgs(RpcKind::DnRead), 1);
        assert_eq!(plane.msgs(RpcKind::GtmBeginTs), 2);
        assert_eq!(plane.msgs(RpcKind::SyncQuorumShip), 2);
        assert_eq!(plane.bytes(RpcKind::SyncQuorumShip), 4096 + 128);
    }

    /// A Xi'an CN and one data node per city, each on its own host.
    fn cn_and_three_dns(seed: u64) -> (Topology, NetNodeId, [NetNodeId; 3]) {
        let (mut t, regions) = TopologyBuilder::three_city(seed, false, 300);
        let cn = t.add_node(regions[0], 0, NodeKind::ComputeNode);
        let mut host = 0;
        let dns = regions.map(|r| {
            host += 1;
            t.add_node(r, host, NodeKind::DataNodePrimary)
        });
        (t, cn, dns)
    }

    #[test]
    fn sim_scatter_is_the_sequential_one_way_stream() {
        let (mut t1, cn, dns) = cn_and_three_dns(11);
        let (mut t2, ..) = cn_and_three_dns(11);
        let mut plane = MessagePlane::new(RegionId(0));
        let mut direct = LatencyHistogram::new();
        let mut leg = |t: &mut Topology, from, to, bytes| {
            let d = t.one_way(from, to, bytes);
            if let Some(d) = d {
                direct.record(d);
            }
            d
        };

        // Healthy: the slowest there+back, drawn in there/back order.
        let got = plane.scatter(&mut t1, RpcKind::DnRead, cn, dns, 128, 512);
        let mut slowest = SimDuration::ZERO;
        for dn in dns {
            let there = leg(&mut t2, cn, dn, 128).unwrap();
            slowest = slowest.max(there + leg(&mut t2, dn, cn, 512).unwrap());
        }
        assert_eq!(got, Some(slowest));
        assert_eq!(plane.transport_msgs(RpcKind::DnRead), 6);
        assert_eq!(plane.bytes(RpcKind::DnRead), 3 * (128 + 512));

        // The middle target's city partitioned away: the first pair
        // delivers, the middle request fails, nothing after it draws or
        // is accounted.
        for t in [&mut t1, &mut t2] {
            let (a, b) = (t.node_region(cn), t.node_region(dns[1]));
            t.partition(a, b);
        }
        let got = plane.scatter(&mut t1, RpcKind::DnRead, cn, dns, 128, 512);
        assert_eq!(got, None);
        leg(&mut t2, cn, dns[0], 128).unwrap();
        leg(&mut t2, dns[0], cn, 512).unwrap();
        assert_eq!(leg(&mut t2, cn, dns[1], 128), None);
        assert_eq!(plane.transport_msgs(RpcKind::DnRead), 8);
        assert_eq!(plane.bytes(RpcKind::DnRead), 4 * (128 + 512));
        assert_eq!(
            plane.delays[RpcKind::DnRead.idx()],
            direct,
            "every delivered leg's delay, in order"
        );

        // Same RNG stream afterwards.
        assert_eq!(
            plane.send(&mut t1, RpcKind::DnWrite, cn, dns[2], 64),
            t2.one_way(cn, dns[2], 64)
        );
    }

    #[test]
    fn every_kind_preregistered_with_region_label() {
        let plane = MessagePlane::new(RegionId(0));
        let (t, _, _) = city_pair(7);
        let mut reg = MetricsRegistry::new();
        plane.mirror_metrics(&t, &mut reg);
        let snap = reg.snapshot();
        for kind in ALL_RPC_KINDS {
            let total = format!("rpc.{}.msgs", kind.name());
            assert_eq!(snap.counter(&total), Some(0), "missing {total}");
            let labelled = format!("rpc.{}.msgs.xian-xian", kind.name());
            assert_eq!(snap.counter(&labelled), Some(0), "missing {labelled}");
        }
    }

    /// The dense region table lists exactly the charged `(kind, from,
    /// to)` cells, in that order, with their sums — also across a growth
    /// to a larger region and for a byte-only charge (no message).
    #[test]
    fn region_table_lists_charged_cells_in_order() {
        let mut plane = MessagePlane::new(RegionId(0));
        let r = RegionId;
        plane.account(RpcKind::SkylineProbe, r(0), r(1), 16);
        plane.account(RpcKind::RcpGather, r(2), r(0), 64);
        plane.account(RpcKind::SkylineProbe, r(0), r(1), 16);
        let (mut t, x, y) = city_pair(1);
        plane.charge_bytes(&mut t, RpcKind::LogShipBatch, x, y, 900);
        let charged: Vec<_> = plane
            .by_region
            .charged()
            .filter(|c| c.3.msgs + c.3.bytes > 0)
            .map(|(k, f, to, tr)| (ALL_RPC_KINDS[k], f, to, tr.msgs, tr.bytes))
            .collect();
        assert_eq!(
            charged,
            vec![
                (RpcKind::LogShipBatch, 0, 1, 0, 900),
                (RpcKind::RcpGather, 2, 0, 1, 64),
                (RpcKind::SkylineProbe, 0, 1, 2, 32),
            ]
        );
        // Every kind's pre-registered home cell survives the growth.
        assert_eq!(plane.by_region.charged().count(), ALL_RPC_KINDS.len() + 3);
    }

    #[test]
    fn rpc_kind_wire_index_round_trips() {
        for (i, kind) in ALL_RPC_KINDS.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(RpcKind::from_index(i), Some(*kind));
        }
        assert_eq!(RpcKind::from_index(ALL_RPC_KINDS.len()), None);
    }

    #[test]
    fn plane_and_transports_are_send() {
        // Real transports hold socket handles and thread channels inside
        // `GlobalDb`, so the plane (and thus any `Transport`) must be
        // transferable across threads.
        fn assert_send<T: Send>() {}
        assert_send::<MessagePlane>();
        assert_send::<SimTransport>();
        assert_send::<Box<dyn Transport>>();
    }

    #[test]
    fn swapping_transports_preserves_counters() {
        struct NullTransport;
        impl Transport for NullTransport {
            fn name(&self) -> &'static str {
                "null"
            }
            fn deliver(&mut self, _: &mut Topology, _: Envelope) -> Option<SimDuration> {
                None
            }
        }
        let (mut t, a, b) = city_pair(3);
        let mut plane = MessagePlane::new(RegionId(0));
        assert_eq!(plane.transport_name(), "sim");
        plane.send(&mut t, RpcKind::DnRead, a, b, 64).unwrap();
        assert_eq!(plane.msgs(RpcKind::DnRead), 1);
        plane.set_transport(Box::new(NullTransport));
        assert_eq!(plane.transport_name(), "null");
        // Undeliverable: no delay, and the counter does not move.
        assert_eq!(plane.send(&mut t, RpcKind::DnRead, a, b, 64), None);
        assert_eq!(plane.msgs(RpcKind::DnRead), 1);
        plane.shutdown_transport();
    }

    #[test]
    fn scatter_accounts_every_delivered_leg_even_after_a_failed_one() {
        /// Loses the middle pair, as a real transport does when only
        /// that target's connection fails.
        struct MiddleLost;
        impl Transport for MiddleLost {
            fn name(&self) -> &'static str {
                "middle-lost"
            }
            fn deliver(&mut self, _: &mut Topology, _: Envelope) -> Option<SimDuration> {
                Some(SimDuration::from_millis(1))
            }
            fn deliver_pairs(
                &mut self,
                _: &mut Topology,
                pairs: &[[Envelope; 2]],
                delays: &mut [[Option<SimDuration>; 2]],
            ) {
                for (i, out) in delays.iter_mut().enumerate().take(pairs.len()) {
                    if i != 1 {
                        *out = [Some(SimDuration::from_millis(1)); 2];
                    }
                }
            }
        }
        let (mut t, cn, dns) = cn_and_three_dns(5);
        let mut plane = MessagePlane::new(RegionId(0));
        plane.set_transport(Box::new(MiddleLost));
        assert_eq!(
            plane.scatter(&mut t, RpcKind::DnRead, cn, dns, 128, 512),
            None
        );
        assert_eq!(plane.transport_msgs(RpcKind::DnRead), 4);
        assert_eq!(plane.bytes(RpcKind::DnRead), 2 * (128 + 512));
        assert_eq!(
            plane.scatter(&mut t, RpcKind::DnRead, cn, [dns[0]], 128, 512),
            Some(SimDuration::from_millis(2))
        );
    }

    #[test]
    fn account_and_charge_bytes_never_touch_the_rng() {
        let mut plane = MessagePlane::new(RegionId(0));
        plane.account(RpcKind::RcpGather, RegionId(1), RegionId(1), 64);
        plane.account(RpcKind::SkylineProbe, RegionId(0), RegionId(2), 16);
        assert_eq!(plane.msgs(RpcKind::RcpGather), 1);
        assert_eq!(plane.msgs(RpcKind::SkylineProbe), 1);
        // charge_bytes counts bytes but no message and draws no jitter:
        // a subsequent charged send agrees with an untouched topology.
        let (mut t1, x, y) = city_pair(9);
        let (mut t2, x2, y2) = city_pair(9);
        plane.charge_bytes(&mut t1, RpcKind::LogShipBatch, x, y, 9000);
        assert_eq!(plane.msgs(RpcKind::LogShipBatch), 0);
        assert_eq!(plane.bytes(RpcKind::LogShipBatch), 9000);
        assert_eq!(
            plane.send(&mut t1, RpcKind::DnWrite, x, y, 512),
            t2.one_way(x2, y2, 512)
        );
    }
}

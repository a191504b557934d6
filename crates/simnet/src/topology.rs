//! Cluster topology and the message cost model.
//!
//! Substitutes the paper's physical networks:
//!
//! * **One-Region**: three servers in one rack on 10 GbE, with Linux `tc`
//!   used to inject artificial inter-server delay (paper Fig. 6b) —
//!   modelled by [`Topology::set_injected_delay`], which applies to
//!   messages crossing *hosts* (not to co-located processes, matching how
//!   `tc` on the NIC behaves).
//! * **Three-City**: Xi'an / Langzhong / Dongguan with 25/35/55 ms RTTs and
//!   constrained WAN bandwidth — modelled by per-region-pair
//!   [`LinkParams`].
//!
//! The cost of a message is
//! `one_way_latency + jitter + injected_delay + bytes / effective_bandwidth
//! (+ Nagle penalty for small messages)`, where effective bandwidth depends
//! on the congestion-control model: BBR keeps long fat pipes ~full, while a
//! Reno-style window-limited sender achieves at most `window / RTT`
//! (paper §V-A's motivation for switching to BBR).

use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};

/// A geographic region (city / data center).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u16);

/// A network endpoint: one process (CN, DN, GTM server, ...) on some host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NetNodeId(pub u32);

/// What role a node plays — used for reporting and failure injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    ComputeNode,
    DataNodePrimary,
    DataNodeReplica,
    GtmServer,
    TimeDevice,
    Client,
}

/// Congestion-control model for a link (paper §V-A tunes TCP BBR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CongestionModel {
    /// Window-limited (Reno/CUBIC-like): throughput ≤ `window / RTT`.
    /// On long fat pipes this leaves most of the bandwidth idle.
    Reno {
        /// Effective congestion window in bytes.
        window_bytes: u64,
    },
    /// Model of TCP BBR: paces at ~95% of the bottleneck bandwidth
    /// regardless of RTT.
    Bbr,
}

/// Parameters of one (bidirectional) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkParams {
    /// One-way propagation latency.
    pub one_way_latency: SimDuration,
    /// Maximum extra uniform jitter per message.
    pub jitter: SimDuration,
    /// Raw link bandwidth in bytes per second.
    pub bandwidth_bps: u64,
    /// Whether Nagle's algorithm is enabled (adds a delayed-ack style
    /// penalty to sub-MSS messages; the paper disables it).
    pub nagle: bool,
    /// Extra latency suffered by a small message when Nagle is on.
    pub nagle_delay: SimDuration,
    pub congestion: CongestionModel,
}

/// Standard Ethernet MSS: messages smaller than this are "small" for Nagle.
pub const MSS_BYTES: u64 = 1460;

impl LinkParams {
    /// A 10 GbE rack-local link (One-Region cluster default).
    pub fn lan() -> Self {
        LinkParams {
            one_way_latency: SimDuration::from_micros(125),
            jitter: SimDuration::from_micros(20),
            bandwidth_bps: 1_250_000_000, // 10 Gb/s
            nagle: false,
            nagle_delay: SimDuration::from_millis(5),
            congestion: CongestionModel::Bbr,
        }
    }

    /// A WAN link with the given round-trip time, bandwidth in Mb/s, and
    /// baseline (untuned) TCP: Nagle on, Reno-style window-limited.
    pub fn wan_baseline(rtt: SimDuration, bandwidth_mbps: u64) -> Self {
        LinkParams {
            one_way_latency: rtt / 2,
            jitter: SimDuration::from_micros(rtt.as_micros() / 100),
            bandwidth_bps: bandwidth_mbps * 125_000,
            nagle: true,
            nagle_delay: SimDuration::from_millis(5),
            congestion: CongestionModel::Reno {
                window_bytes: 1 << 20, // 1 MiB
            },
        }
    }

    /// The same WAN link with GlobalDB's tuning applied: BBR and Nagle off
    /// (paper §V-A).
    pub fn wan_tuned(rtt: SimDuration, bandwidth_mbps: u64) -> Self {
        LinkParams {
            nagle: false,
            congestion: CongestionModel::Bbr,
            ..Self::wan_baseline(rtt, bandwidth_mbps)
        }
    }

    /// Effective achievable throughput (bytes/s) given this link's RTT and
    /// congestion model.
    pub fn effective_bandwidth(&self) -> u64 {
        let rtt_s = self.one_way_latency.as_secs_f64() * 2.0;
        match self.congestion {
            CongestionModel::Bbr => (self.bandwidth_bps as f64 * 0.95) as u64,
            CongestionModel::Reno { window_bytes } => {
                if rtt_s <= 0.0 {
                    self.bandwidth_bps
                } else {
                    let window_limited = (window_bytes as f64 / rtt_s) as u64;
                    window_limited.min(self.bandwidth_bps).max(1)
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct NodeInfo {
    region: RegionId,
    host: u16,
    kind: NodeKind,
}

/// Per-link traffic counters (used to report shipping volume with and
/// without redo-log compression).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    pub messages: u64,
    pub bytes: u64,
}

/// The simulated cluster network.
pub struct Topology {
    region_names: Vec<String>,
    nodes: Vec<NodeInfo>,
    /// Keyed by normalized (min,max) region pair; absent pairs fall back to
    /// `default_wan`.
    links: BTreeMap<(RegionId, RegionId), LinkParams>,
    intra_region: LinkParams,
    same_host: SimDuration,
    default_wan: LinkParams,
    injected_inter_host: SimDuration,
    down_nodes: HashSet<NetNodeId>,
    retired_nodes: HashSet<NetNodeId>,
    partitions: HashSet<(RegionId, RegionId)>,
    cross_region_stats: BTreeMap<(RegionId, RegionId), LinkStats>,
    total_stats: LinkStats,
    rng: SmallRng,
}

impl Topology {
    pub fn new(seed: u64) -> Self {
        Topology {
            region_names: Vec::new(),
            nodes: Vec::new(),
            links: BTreeMap::new(),
            intra_region: LinkParams::lan(),
            same_host: SimDuration::from_micros(5),
            default_wan: LinkParams::wan_baseline(SimDuration::from_millis(30), 1_000),
            injected_inter_host: SimDuration::ZERO,
            down_nodes: HashSet::new(),
            retired_nodes: HashSet::new(),
            partitions: HashSet::new(),
            cross_region_stats: BTreeMap::new(),
            total_stats: LinkStats::default(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    pub fn add_region(&mut self, name: impl Into<String>) -> RegionId {
        self.region_names.push(name.into());
        RegionId((self.region_names.len() - 1) as u16)
    }

    pub fn region_name(&self, r: RegionId) -> &str {
        &self.region_names[r.0 as usize]
    }

    pub fn region_count(&self) -> usize {
        self.region_names.len()
    }

    pub fn add_node(&mut self, region: RegionId, host: u16, kind: NodeKind) -> NetNodeId {
        assert!(
            (region.0 as usize) < self.region_names.len(),
            "unknown region"
        );
        self.nodes.push(NodeInfo { region, host, kind });
        NetNodeId((self.nodes.len() - 1) as u32)
    }

    pub fn node_region(&self, n: NetNodeId) -> RegionId {
        self.nodes[n.0 as usize].region
    }

    pub fn node_kind(&self, n: NetNodeId) -> NodeKind {
        self.nodes[n.0 as usize].kind
    }

    pub fn node_host(&self, n: NetNodeId) -> u16 {
        self.nodes[n.0 as usize].host
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn norm(a: RegionId, b: RegionId) -> (RegionId, RegionId) {
        if a.0 <= b.0 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Set the (symmetric) link between two regions.
    pub fn set_link(&mut self, a: RegionId, b: RegionId, params: LinkParams) {
        assert_ne!(a, b, "use set_intra_region for the in-region link");
        self.links.insert(Self::norm(a, b), params);
    }

    /// Parameters of the link between two regions (falls back to the
    /// default WAN link if not explicitly set).
    pub fn link(&self, a: RegionId, b: RegionId) -> LinkParams {
        if a == b {
            return self.intra_region;
        }
        self.links
            .get(&Self::norm(a, b))
            .copied()
            .unwrap_or(self.default_wan)
    }

    pub fn set_intra_region(&mut self, params: LinkParams) {
        self.intra_region = params;
    }

    /// `tc`-style extra one-way delay injected on every inter-host message.
    pub fn set_injected_delay(&mut self, delay: SimDuration) {
        self.injected_inter_host = delay;
    }

    pub fn injected_delay(&self) -> SimDuration {
        self.injected_inter_host
    }

    /// Mark a node as crashed: messages to/from it are dropped. Retired
    /// nodes stay unreachable regardless; bringing one "up" is a no-op.
    pub fn set_node_down(&mut self, n: NetNodeId, down: bool) {
        if down {
            self.down_nodes.insert(n);
        } else {
            self.down_nodes.remove(&n);
        }
    }

    /// Permanently remove a node from the cluster (elastic scale-in).
    /// Unlike a crash, retirement is one-way: the node is unreachable
    /// forever and is excluded from [`Topology::down_nodes`], so chaos
    /// recovery sweeps never resurrect it.
    pub fn retire_node(&mut self, n: NetNodeId) {
        self.retired_nodes.insert(n);
        self.down_nodes.remove(&n);
    }

    pub fn is_node_retired(&self, n: NetNodeId) -> bool {
        self.retired_nodes.contains(&n)
    }

    pub fn is_node_down(&self, n: NetNodeId) -> bool {
        self.down_nodes.contains(&n) || self.retired_nodes.contains(&n)
    }

    /// Nodes currently marked down, in id order (deterministic iteration
    /// for fault-injection oracles and traces). Retired nodes are not
    /// listed: they are gone, not recoverable.
    pub fn down_nodes(&self) -> Vec<NetNodeId> {
        let mut nodes: Vec<NetNodeId> = self.down_nodes.iter().copied().collect();
        nodes.sort_by_key(|n| n.0);
        nodes
    }

    /// Remove every region partition at once (chaos-recovery sweep).
    pub fn heal_all(&mut self) {
        self.partitions.clear();
    }

    /// Partition two regions from each other (messages dropped).
    pub fn partition(&mut self, a: RegionId, b: RegionId) {
        self.partitions.insert(Self::norm(a, b));
    }

    pub fn heal(&mut self, a: RegionId, b: RegionId) {
        self.partitions.remove(&Self::norm(a, b));
    }

    pub fn is_partitioned(&self, a: RegionId, b: RegionId) -> bool {
        a != b && self.partitions.contains(&Self::norm(a, b))
    }

    /// Cost of delivering `bytes` from `from` to `to`, or `None` if the
    /// message cannot be delivered (node down or regions partitioned).
    pub fn one_way(&mut self, from: NetNodeId, to: NetNodeId, bytes: u64) -> Option<SimDuration> {
        if self.is_node_down(from) || self.is_node_down(to) {
            return None;
        }
        if from == to {
            return Some(SimDuration::ZERO);
        }
        let (fi, ti) = (&self.nodes[from.0 as usize], &self.nodes[to.0 as usize]);
        if self.is_partitioned(fi.region, ti.region) {
            return None;
        }
        if fi.region == ti.region && fi.host == ti.host {
            // Loopback between co-located processes; tc does not delay it.
            self.total_stats.messages += 1;
            self.total_stats.bytes += bytes;
            return Some(self.same_host);
        }
        let link = self.link(fi.region, ti.region);
        let mut d = link.one_way_latency;
        if !link.jitter.is_zero() {
            d += SimDuration::from_nanos(self.rng.gen_range(0..=link.jitter.as_nanos()));
        }
        d += self.injected_inter_host;
        let bw = link.effective_bandwidth().max(1);
        d += SimDuration::from_secs_f64(bytes as f64 / bw as f64);
        if link.nagle && !bytes.is_multiple_of(MSS_BYTES) {
            // The trailing sub-MSS segment sits in the sender buffer until
            // the previous segment is acked (Nagle + delayed-ack pattern).
            d += link.nagle_delay;
        }
        if fi.region != ti.region {
            let s = self
                .cross_region_stats
                .entry(Self::norm(fi.region, ti.region))
                .or_default();
            s.messages += 1;
            s.bytes += bytes;
        }
        self.total_stats.messages += 1;
        self.total_stats.bytes += bytes;
        Some(d)
    }

    /// Whether a message from `from` to `to` is currently deliverable
    /// given fault state alone (node down, region partition). Mirrors the
    /// short-circuit order of [`Topology::one_way`] but draws no jitter
    /// and records no traffic — real transports consult this before
    /// putting a frame on an actual socket, so simulated fault injection
    /// (chaos nemeses) drops their physical messages too.
    pub fn deliverable(&self, from: NetNodeId, to: NetNodeId) -> bool {
        if self.is_node_down(from) || self.is_node_down(to) {
            return false;
        }
        if from == to {
            return true;
        }
        let (fi, ti) = (&self.nodes[from.0 as usize], &self.nodes[to.0 as usize]);
        !self.is_partitioned(fi.region, ti.region)
    }

    /// Record one delivered message's traffic without drawing from the
    /// cost model's RNG: the bookkeeping half of [`Topology::one_way`],
    /// for transports that measured the delay physically instead of
    /// simulating it. Self-sends are not counted, matching `one_way`'s
    /// `from == to` short-circuit.
    pub fn record_delivery(&mut self, from: NetNodeId, to: NetNodeId, bytes: u64) {
        if from == to {
            return;
        }
        let (fi, ti) = (&self.nodes[from.0 as usize], &self.nodes[to.0 as usize]);
        if fi.region != ti.region {
            let s = self
                .cross_region_stats
                .entry(Self::norm(fi.region, ti.region))
                .or_default();
            s.messages += 1;
            s.bytes += bytes;
        }
        self.total_stats.messages += 1;
        self.total_stats.bytes += bytes;
    }

    /// Account traffic whose delivery cost was modelled elsewhere (the
    /// log-shipping path computes transmission explicitly and sends its
    /// propagation probe with a minimal payload): adds the bytes to the
    /// link counters without charging any delay or message.
    pub fn charge_bytes(&mut self, from: NetNodeId, to: NetNodeId, bytes: u64) {
        let (fi, ti) = (&self.nodes[from.0 as usize], &self.nodes[to.0 as usize]);
        if fi.region != ti.region {
            let s = self
                .cross_region_stats
                .entry(Self::norm(fi.region, ti.region))
                .or_default();
            s.bytes += bytes;
        }
        self.total_stats.bytes += bytes;
    }

    /// Round-trip cost of a small request/response pair.
    pub fn rtt(&mut self, a: NetNodeId, b: NetNodeId) -> Option<SimDuration> {
        let there = self.one_way(a, b, 128)?;
        let back = self.one_way(b, a, 128)?;
        Some(there + back)
    }

    /// Round trip shipping `bytes` to `b` with a small acknowledgment back
    /// (the sync-replication durability wait).
    pub fn ship_rtt(&mut self, a: NetNodeId, b: NetNodeId, bytes: u64) -> Option<SimDuration> {
        let there = self.one_way(a, b, bytes)?;
        let back = self.one_way(b, a, 128)?;
        Some(there + back)
    }

    /// The *expected* (jitter-free, load-free) RTT between two nodes; used
    /// for co-location decisions, not for message costs.
    pub fn nominal_rtt(&self, a: NetNodeId, b: NetNodeId) -> SimDuration {
        let (ai, bi) = (&self.nodes[a.0 as usize], &self.nodes[b.0 as usize]);
        if a == b || (ai.region == bi.region && ai.host == bi.host) {
            return self.same_host * 2;
        }
        let link = self.link(ai.region, bi.region);
        link.one_way_latency * 2 + self.injected_inter_host * 2
    }

    /// Traffic shipped across each region pair so far.
    pub fn cross_region_stats(&self) -> &BTreeMap<(RegionId, RegionId), LinkStats> {
        &self.cross_region_stats
    }

    /// All delivered traffic, every link (loopback included).
    pub fn total_stats(&self) -> LinkStats {
        self.total_stats
    }

    /// Cross-region traffic summed over all region pairs.
    pub fn cross_region_totals(&self) -> LinkStats {
        let mut t = LinkStats::default();
        for s in self.cross_region_stats.values() {
            t.messages += s.messages;
            t.bytes += s.bytes;
        }
        t
    }
}

/// Convenience builder for the two cluster geometries used in the paper.
pub struct TopologyBuilder;

impl TopologyBuilder {
    /// The paper's One-Region cluster: one region, three hosts, 10 GbE.
    pub fn one_region(seed: u64) -> (Topology, RegionId) {
        let mut t = Topology::new(seed);
        let r = t.add_region("one-region");
        t.set_intra_region(LinkParams::lan());
        (t, r)
    }

    /// The paper's Three-City cluster: Xi'an, Langzhong, Dongguan with
    /// 25/35/55 ms RTT edges. `tuned` picks BBR + Nagle-off (GlobalDB) vs
    /// baseline TCP; `bandwidth_mbps` is the inter-city bandwidth.
    pub fn three_city(seed: u64, tuned: bool, bandwidth_mbps: u64) -> (Topology, [RegionId; 3]) {
        let mut t = Topology::new(seed);
        let xian = t.add_region("xian");
        let langzhong = t.add_region("langzhong");
        let dongguan = t.add_region("dongguan");
        t.set_intra_region(LinkParams::lan());
        let mk = |rtt_ms: u64| -> LinkParams {
            if tuned {
                LinkParams::wan_tuned(SimDuration::from_millis(rtt_ms), bandwidth_mbps)
            } else {
                LinkParams::wan_baseline(SimDuration::from_millis(rtt_ms), bandwidth_mbps)
            }
        };
        t.set_link(xian, langzhong, mk(25));
        t.set_link(langzhong, dongguan, mk(35));
        t.set_link(xian, dongguan, mk(55));
        (t, [xian, langzhong, dongguan])
    }

    /// A synthetic N-region WAN for the scale tier (ROADMAP's 5–9 region
    /// stress geometry): a full mesh where the RTT between regions `i`
    /// and `j` grows with their circular distance —
    /// `20 ms + 10 ms × min(|i−j|, n−|i−j|)` — so the geometry has real
    /// near/far structure (nearest-shard routing is non-trivial) while
    /// staying a pure function of the region count. Links are tuned
    /// (BBR + Nagle-off) at `bandwidth_mbps`.
    pub fn multi_region(
        seed: u64,
        regions: usize,
        bandwidth_mbps: u64,
    ) -> (Topology, Vec<RegionId>) {
        let mut t = Topology::new(seed);
        let rs: Vec<RegionId> = (0..regions)
            .map(|i| t.add_region(format!("r{i}")))
            .collect();
        t.set_intra_region(LinkParams::lan());
        for i in 0..regions {
            for j in (i + 1)..regions {
                let ring = (j - i).min(regions - (j - i)) as u64;
                let rtt = SimDuration::from_millis(20 + 10 * ring);
                t.set_link(rs[i], rs[j], LinkParams::wan_tuned(rtt, bandwidth_mbps));
            }
        }
        (t, rs)
    }
}

/// A tiny convenience: the virtual time a periodic activity with `period`
/// next fires at, aligned to its phase.
pub fn next_tick(now: SimTime, period: SimDuration) -> SimTime {
    if period.is_zero() {
        return now;
    }
    let p = period.as_nanos();
    let n = now.as_nanos();
    SimTime::from_nanos(((n / p) + 1) * p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_region_topo() -> (Topology, NetNodeId, NetNodeId, NetNodeId, NetNodeId) {
        let mut t = Topology::new(42);
        let r1 = t.add_region("a");
        let r2 = t.add_region("b");
        t.set_link(
            r1,
            r2,
            LinkParams {
                jitter: SimDuration::ZERO,
                ..LinkParams::wan_tuned(SimDuration::from_millis(30), 1_000)
            },
        );
        let n1 = t.add_node(r1, 0, NodeKind::ComputeNode);
        let n2 = t.add_node(r1, 0, NodeKind::GtmServer);
        let n3 = t.add_node(r1, 1, NodeKind::DataNodePrimary);
        let n4 = t.add_node(r2, 2, NodeKind::DataNodeReplica);
        (t, n1, n2, n3, n4)
    }

    #[test]
    fn same_host_is_cheap_and_undelayed() {
        let (mut t, n1, n2, ..) = two_region_topo();
        t.set_injected_delay(SimDuration::from_millis(100));
        let d = t.one_way(n1, n2, 100).unwrap();
        assert!(d < SimDuration::from_micros(10), "got {d}");
    }

    #[test]
    fn injected_delay_applies_across_hosts() {
        let (mut t, n1, _, n3, _) = two_region_topo();
        let before = t.one_way(n1, n3, 100).unwrap();
        t.set_injected_delay(SimDuration::from_millis(50));
        let after = t.one_way(n1, n3, 100).unwrap();
        assert!(after.as_millis() >= before.as_millis() + 50);
    }

    #[test]
    fn wan_latency_dominates_cross_region() {
        let (mut t, n1, _, _, n4) = two_region_topo();
        let d = t.one_way(n1, n4, 100).unwrap();
        assert!(
            d >= SimDuration::from_millis(15),
            "one-way ≥ rtt/2, got {d}"
        );
        assert!(d < SimDuration::from_millis(25));
    }

    #[test]
    fn bandwidth_term_scales_with_bytes() {
        let (mut t, n1, _, _, n4) = two_region_topo();
        let small = t.one_way(n1, n4, 1_460).unwrap();
        let big = t.one_way(n1, n4, 125_000_000).unwrap(); // 125 MB at 1Gb/s ≈ 1s
        assert!(big.as_secs_f64() > small.as_secs_f64() + 0.9);
    }

    #[test]
    fn reno_underutilizes_long_fat_pipe() {
        let baseline = LinkParams::wan_baseline(SimDuration::from_millis(55), 1_000);
        let tuned = LinkParams::wan_tuned(SimDuration::from_millis(55), 1_000);
        // 1 MiB window over 55 ms RTT ≈ 19 MB/s vs BBR's ~119 MB/s.
        assert!(baseline.effective_bandwidth() * 4 < tuned.effective_bandwidth());
    }

    #[test]
    fn nagle_penalizes_small_messages_only() {
        let mut t = Topology::new(1);
        let r1 = t.add_region("a");
        let r2 = t.add_region("b");
        t.set_link(
            r1,
            r2,
            LinkParams {
                jitter: SimDuration::ZERO,
                ..LinkParams::wan_baseline(SimDuration::from_millis(20), 1_000)
            },
        );
        let a = t.add_node(r1, 0, NodeKind::ComputeNode);
        let b = t.add_node(r2, 1, NodeKind::DataNodePrimary);
        let small = t.one_way(a, b, 100).unwrap();
        let aligned = t.one_way(a, b, MSS_BYTES * 4).unwrap();
        assert!(small > aligned, "sub-MSS message must pay Nagle delay");
    }

    #[test]
    fn partition_and_node_down_drop_messages() {
        let (mut t, n1, _, n3, n4) = two_region_topo();
        t.partition(t.node_region(n1), t.node_region(n4));
        assert!(t.one_way(n1, n4, 10).is_none());
        assert!(t.one_way(n1, n3, 10).is_some(), "intra-region unaffected");
        t.heal(t.node_region(n1), t.node_region(n4));
        assert!(t.one_way(n1, n4, 10).is_some());
        t.set_node_down(n3, true);
        assert!(t.one_way(n1, n3, 10).is_none());
        t.set_node_down(n3, false);
        assert!(t.one_way(n1, n3, 10).is_some());
    }

    #[test]
    fn retirement_is_permanent_and_invisible_to_recovery() {
        let (mut t, n1, _, n3, _) = two_region_topo();
        t.set_node_down(n3, true);
        assert_eq!(t.down_nodes(), vec![n3]);
        t.retire_node(n3);
        assert!(t.is_node_retired(n3));
        assert!(t.is_node_down(n3));
        assert!(t.down_nodes().is_empty(), "retired ≠ recoverable");
        // A recovery sweep bringing the node "up" does not resurrect it.
        t.set_node_down(n3, false);
        assert!(t.is_node_down(n3));
        assert!(t.one_way(n1, n3, 10).is_none());
        assert!(!t.deliverable(n1, n3));
    }

    #[test]
    fn deliverable_mirrors_one_way_fault_checks() {
        let (mut t, n1, _, n3, n4) = two_region_topo();
        assert!(t.deliverable(n1, n4));
        t.partition(t.node_region(n1), t.node_region(n4));
        assert!(!t.deliverable(n1, n4));
        assert!(t.deliverable(n1, n3), "intra-region unaffected");
        t.heal(t.node_region(n1), t.node_region(n4));
        t.set_node_down(n3, true);
        assert!(!t.deliverable(n1, n3));
        assert!(!t.deliverable(n3, n1));
        // A down node can still "reach" itself (one_way's down check
        // precedes the from == to short-circuit, so mirror that: down
        // first, then self-send).
        assert!(!t.deliverable(n3, n3));
        t.set_node_down(n3, false);
        assert!(t.deliverable(n3, n3));
    }

    #[test]
    fn record_delivery_counts_without_touching_the_rng() {
        let (mut t1, n1, _, _, n4) = two_region_topo();
        let (mut t2, m1, _, _, m4) = two_region_topo();
        t1.record_delivery(n1, n4, 700);
        t1.record_delivery(n1, n1, 700); // self-send: not counted
        assert_eq!(t1.total_stats().messages, 1);
        assert_eq!(t1.total_stats().bytes, 700);
        assert_eq!(t1.cross_region_totals().messages, 1);
        // The RNG stream is untouched: a subsequent one_way draws the
        // same jitter as on a fresh topology.
        assert_eq!(t1.one_way(n1, n4, 64), t2.one_way(m1, m4, 64));
    }

    #[test]
    fn cross_region_traffic_is_counted() {
        let (mut t, n1, _, _, n4) = two_region_topo();
        t.one_way(n1, n4, 1000).unwrap();
        t.one_way(n4, n1, 500).unwrap();
        let stats: Vec<_> = t.cross_region_stats().values().collect();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].messages, 2);
        assert_eq!(stats[0].bytes, 1500);
    }

    #[test]
    fn three_city_builder_matches_paper_geometry() {
        let (t, [x, l, d]) = TopologyBuilder::three_city(7, true, 1_000);
        assert_eq!(
            t.link(x, l).one_way_latency,
            SimDuration::from_micros(12_500)
        );
        assert_eq!(
            t.link(l, d).one_way_latency,
            SimDuration::from_micros(17_500)
        );
        assert_eq!(
            t.link(x, d).one_way_latency,
            SimDuration::from_micros(27_500)
        );
        assert!(!t.link(x, d).nagle);
    }

    #[test]
    fn next_tick_alignment() {
        assert_eq!(
            next_tick(SimTime::from_millis(7), SimDuration::from_millis(5)),
            SimTime::from_millis(10)
        );
        assert_eq!(
            next_tick(SimTime::from_millis(10), SimDuration::from_millis(5)),
            SimTime::from_millis(15)
        );
    }

    #[test]
    fn nominal_rtt_is_deterministic() {
        let (t, n1, _, _, n4) = two_region_topo();
        assert_eq!(t.nominal_rtt(n1, n4), SimDuration::from_millis(30));
        assert_eq!(t.nominal_rtt(n1, n1), SimDuration::from_micros(10));
    }
}

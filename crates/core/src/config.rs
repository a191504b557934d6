//! Cluster configuration and node placement.

use gdb_compress::Codec;
use gdb_replication::{ReplayCostModel, ReplicationMode};
use gdb_simclock::GClockConfig;
use gdb_simnet::{LinkParams, NodeKind, SimDuration, Topology, TopologyBuilder};
use gdb_txnmgr::TmMode;

/// Redo shipping flush cadence per shard.
pub const FLUSH_INTERVAL: SimDuration = SimDuration::from_millis(5);

/// CPU cost charged per SQL operation at a node (execution time).
pub const OP_CPU_COST: SimDuration = SimDuration::from_micros(30);

/// Cluster geometry, mirroring the paper's two testbeds (§V).
#[derive(Debug, Clone)]
pub enum Geometry {
    /// Three servers in one rack, 10 GbE, optional `tc`-style injected
    /// inter-host delay (Fig. 6b).
    OneRegion { injected_delay: SimDuration },
    /// Xi'an / Langzhong / Dongguan, 25/35/55 ms RTT triangle.
    /// `tuned` = BBR + Nagle-off (GlobalDB's network stack, §V-A).
    ThreeCity { tuned: bool, bandwidth_mbps: u64 },
    /// The scale tier's synthetic N-region full-mesh WAN (one host per
    /// region; RTTs grow with circular region distance). See
    /// [`TopologyBuilder::multi_region`].
    MultiRegion { regions: usize, bandwidth_mbps: u64 },
}

/// How read-only queries are routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// All reads to primary shards (the baseline).
    Primary,
    /// Read-On-Replica at the RCP snapshot, with an optional bounded
    /// staleness requirement (None = any RCP freshness acceptable).
    ReadOnReplica {
        freshness_bound: Option<SimDuration>,
    },
}

/// Full cluster configuration. Defaults mirror the paper's setup where it
/// specifies one (3 CNs, 6 shards, 2 replicas each, 1 ms clock sync,
/// ≤ 60 µs sync RTT, 200 PPM drift bound).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub geometry: Geometry,
    pub cn_count: usize,
    pub shard_count: usize,
    pub replicas_per_shard: usize,
    /// Initial transaction-management mode.
    pub tm_mode: TmMode,
    pub replication: ReplicationMode,
    /// Redo shipping codec (the paper uses LZ4).
    pub codec: Codec,
    pub routing: RoutingPolicy,
    pub gclock: GClockConfig,
    /// RCP collection/distribution cadence (§IV-A). A round that raises
    /// the cluster-wide minimum RCP also vacuums, so this paces vacuum too.
    pub rcp_interval: SimDuration,
    /// Heartbeat cadence that keeps idle replicas' max commit ts moving.
    pub heartbeat_interval: SimDuration,
    pub replay: ReplayCostModel,
    pub seed: u64,
}

impl ClusterConfig {
    /// GlobalDB on the Three-City WAN: GClock, async replication, LZ4,
    /// tuned network, ROR enabled.
    pub fn globaldb_three_city() -> Self {
        ClusterConfig {
            geometry: Geometry::ThreeCity {
                tuned: true,
                bandwidth_mbps: 1_000,
            },
            tm_mode: TmMode::GClock,
            replication: ReplicationMode::Async,
            codec: Codec::Lz4,
            routing: RoutingPolicy::ReadOnReplica {
                freshness_bound: None,
            },
            ..Self::base()
        }
    }

    /// Baseline GaussDB on the Three-City WAN: centralized GTM, remote
    /// synchronous quorum replication, untuned network, primary reads
    /// (Fig. 6a's baseline).
    pub fn baseline_three_city() -> Self {
        ClusterConfig {
            geometry: Geometry::ThreeCity {
                tuned: false,
                bandwidth_mbps: 1_000,
            },
            tm_mode: TmMode::Gtm,
            replication: ReplicationMode::SyncRemoteQuorum { quorum: 1 },
            codec: Codec::None,
            routing: RoutingPolicy::Primary,
            ..Self::base()
        }
    }

    /// GlobalDB on the One-Region rack (no regression check, Fig. 6a).
    pub fn globaldb_one_region() -> Self {
        ClusterConfig {
            geometry: Geometry::OneRegion {
                injected_delay: SimDuration::ZERO,
            },
            tm_mode: TmMode::GClock,
            replication: ReplicationMode::Async,
            codec: Codec::Lz4,
            routing: RoutingPolicy::ReadOnReplica {
                freshness_bound: None,
            },
            ..Self::base()
        }
    }

    /// Baseline GaussDB on the One-Region rack.
    pub fn baseline_one_region() -> Self {
        ClusterConfig {
            geometry: Geometry::OneRegion {
                injected_delay: SimDuration::ZERO,
            },
            tm_mode: TmMode::Gtm,
            replication: ReplicationMode::SyncLocalQuorum,
            codec: Codec::None,
            routing: RoutingPolicy::Primary,
            ..Self::base()
        }
    }

    fn base() -> Self {
        ClusterConfig {
            geometry: Geometry::OneRegion {
                injected_delay: SimDuration::ZERO,
            },
            cn_count: 3,
            shard_count: 6,
            replicas_per_shard: 2,
            tm_mode: TmMode::Gtm,
            replication: ReplicationMode::Async,
            codec: Codec::None,
            routing: RoutingPolicy::Primary,
            gclock: GClockConfig::default(),
            rcp_interval: SimDuration::from_millis(25),
            heartbeat_interval: SimDuration::from_millis(10),
            replay: ReplayCostModel::default(),
            seed: 42,
        }
    }

    /// The scale-tier preset (ROADMAP "scale-out stress tier"):
    /// `regions` regions (one host each) meshed by the synthetic WAN,
    /// one CN per region, `shard_count` shards with one replica each,
    /// GClock + async replication + LZ4 + ROR — the GlobalDB
    /// configuration, just big.
    pub fn globaldb_scale(regions: usize, shard_count: usize) -> Self {
        ClusterConfig {
            geometry: Geometry::MultiRegion {
                regions,
                bandwidth_mbps: 1_000,
            },
            cn_count: regions,
            shard_count,
            replicas_per_shard: 1,
            tm_mode: TmMode::GClock,
            replication: ReplicationMode::Async,
            codec: Codec::Lz4,
            routing: RoutingPolicy::ReadOnReplica {
                freshness_bound: None,
            },
            ..Self::base()
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Build the topology plus placement: regions, hosts, CN / GTM / DN /
    /// replica endpoints.
    pub fn build_topology(&self) -> (Topology, Placement) {
        let (mut topo, regions) = match &self.geometry {
            Geometry::OneRegion { injected_delay } => {
                let (mut t, r) = TopologyBuilder::one_region(self.seed);
                t.set_intra_region(LinkParams::lan());
                t.set_injected_delay(*injected_delay);
                (t, vec![r])
            }
            Geometry::ThreeCity {
                tuned,
                bandwidth_mbps,
            } => {
                let (t, rs) = TopologyBuilder::three_city(self.seed, *tuned, *bandwidth_mbps);
                (t, rs.to_vec())
            }
            Geometry::MultiRegion {
                regions,
                bandwidth_mbps,
            } => TopologyBuilder::multi_region(self.seed, *regions, *bandwidth_mbps),
        };
        // Hosts: in One-Region, three hosts in the single region; in
        // Three-City, one host per city (matching the paper's 3 servers);
        // in the synthetic multi-region mesh, one host per region.
        let host_count = match &self.geometry {
            Geometry::MultiRegion { regions, .. } => (*regions).max(1),
            _ => 3usize,
        };
        let host_region = |h: usize| -> usize {
            if regions.len() == 1 {
                0
            } else {
                h % regions.len()
            }
        };

        // CNs: one per host.
        let mut cn_nodes = Vec::new();
        for i in 0..self.cn_count {
            let h = i % host_count;
            cn_nodes.push((
                topo.add_node(regions[host_region(h)], h as u16, NodeKind::ComputeNode),
                regions[host_region(h)],
            ));
        }
        // GTM co-located with the host that minimizes mean latency; host 0
        // is symmetric enough in both geometries (the paper co-locates the
        // GTM with the lowest-mean-latency machine).
        let gtm_node = topo.add_node(regions[host_region(0)], 0, NodeKind::GtmServer);

        // Shard primaries: spread round-robin over hosts.
        let mut shard_placement = Vec::new();
        for s in 0..self.shard_count {
            let h = s % host_count;
            let region = regions[host_region(h)];
            let primary = topo.add_node(region, h as u16, NodeKind::DataNodePrimary);
            // Replicas on the *other* hosts/regions (disaster tolerance).
            let mut replicas = Vec::new();
            for r in 1..=self.replicas_per_shard {
                let rh = (h + r) % host_count;
                let rregion = regions[host_region(rh)];
                replicas.push((
                    topo.add_node(rregion, rh as u16, NodeKind::DataNodeReplica),
                    rregion,
                ));
            }
            shard_placement.push(ShardPlacement { primary, replicas });
        }

        (
            topo,
            Placement {
                regions,
                cn_nodes,
                gtm_node,
                shards: shard_placement,
            },
        )
    }
}

/// Where one shard's nodes live.
#[derive(Debug, Clone)]
pub struct ShardPlacement {
    pub primary: gdb_simnet::NetNodeId,
    pub replicas: Vec<(gdb_simnet::NetNodeId, gdb_simnet::RegionId)>,
}

/// Full placement map produced by [`ClusterConfig::build_topology`].
#[derive(Debug, Clone)]
pub struct Placement {
    pub regions: Vec<gdb_simnet::RegionId>,
    /// `(node, region)` per CN.
    pub cn_nodes: Vec<(gdb_simnet::NetNodeId, gdb_simnet::RegionId)>,
    pub gtm_node: gdb_simnet::NetNodeId,
    pub shards: Vec<ShardPlacement>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_city_placement_spreads_replicas_across_regions() {
        let cfg = ClusterConfig::globaldb_three_city();
        let (topo, placement) = cfg.build_topology();
        assert_eq!(placement.regions.len(), 3);
        assert_eq!(placement.cn_nodes.len(), 3);
        assert_eq!(placement.shards.len(), 6);
        for sp in &placement.shards {
            assert_eq!(sp.replicas.len(), 2);
            let primary_region = topo.node_region(sp.primary);
            for (node, region) in &sp.replicas {
                assert_ne!(*region, primary_region, "replica must be in another region");
                assert_eq!(topo.node_region(*node), *region);
            }
            // The three regions covered by primary + replicas are distinct.
            let mut rs = vec![primary_region];
            rs.extend(sp.replicas.iter().map(|(_, r)| *r));
            rs.sort();
            rs.dedup();
            assert_eq!(rs.len(), 3);
        }
    }

    #[test]
    fn one_region_placement_uses_three_hosts() {
        let cfg = ClusterConfig::baseline_one_region();
        let (topo, placement) = cfg.build_topology();
        assert_eq!(placement.regions.len(), 1);
        for sp in &placement.shards {
            let ph = topo.node_host(sp.primary);
            for (node, _) in &sp.replicas {
                assert_ne!(topo.node_host(*node), ph, "replica on another host");
            }
        }
    }

    #[test]
    fn presets_match_paper_roles() {
        let g = ClusterConfig::globaldb_three_city();
        assert_eq!(g.tm_mode, TmMode::GClock);
        assert_eq!(g.replication, ReplicationMode::Async);
        assert!(matches!(g.routing, RoutingPolicy::ReadOnReplica { .. }));
        let b = ClusterConfig::baseline_three_city();
        assert_eq!(b.tm_mode, TmMode::Gtm);
        assert!(b.replication.is_sync());
        assert_eq!(b.routing, RoutingPolicy::Primary);
    }
}

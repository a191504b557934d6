//! Static-config membership: which silo hosts which nodes.
//!
//! A *silo* is one real execution unit — a thread (and, for TCP, a
//! listener) hosting every role the topology co-locates on one host:
//! that host's shard primaries/replicas, possibly the GTM, possibly CNs.
//! Membership is derived once from the already-built [`Topology`] (the
//! cluster config placed every node on a host) and never changes at
//! runtime: the reproduction's clusters are static, so a config-file
//! provider is the honest model — no gossip, no directory service.

use gdb_simnet::{NetNodeId, NodeKind, Topology};
use std::collections::BTreeMap;

/// One silo: a host and every node placed on it, in node-id order.
#[derive(Debug, Clone)]
pub struct SiloSpec {
    pub host: u16,
    pub nodes: Vec<(NetNodeId, NodeKind)>,
}

/// The full, immutable silo layout of a cluster.
#[derive(Debug, Clone)]
pub struct StaticMembership {
    silos: Vec<SiloSpec>,
    /// Silo index per node id (dense: node ids are dense in `Topology`).
    silo_of_node: Vec<usize>,
}

impl StaticMembership {
    /// Group every node of `topo` by host. Host ids become silo indexes
    /// in ascending host order.
    pub fn from_topology(topo: &Topology) -> Self {
        let mut by_host: BTreeMap<u16, Vec<(NetNodeId, NodeKind)>> = BTreeMap::new();
        for i in 0..topo.node_count() {
            let n = NetNodeId(i as u32);
            by_host
                .entry(topo.node_host(n))
                .or_default()
                .push((n, topo.node_kind(n)));
        }
        let silos: Vec<SiloSpec> = by_host
            .into_iter()
            .map(|(host, nodes)| SiloSpec { host, nodes })
            .collect();
        let mut silo_of_node = vec![0usize; topo.node_count()];
        for (idx, silo) in silos.iter().enumerate() {
            for (n, _) in &silo.nodes {
                silo_of_node[n.0 as usize] = idx;
            }
        }
        StaticMembership {
            silos,
            silo_of_node,
        }
    }

    pub fn silos(&self) -> &[SiloSpec] {
        &self.silos
    }

    /// The silo index hosting `node`.
    pub fn silo_of(&self, node: NetNodeId) -> usize {
        self.silo_of_node[node.0 as usize]
    }

    /// The host id of a silo (for fault hooks keyed by host pair).
    pub fn host_of_silo(&self, silo: usize) -> u16 {
        self.silos[silo].host
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use globaldb::ClusterConfig;

    #[test]
    fn three_city_cluster_forms_three_silos_covering_every_node() {
        let (topo, _) = ClusterConfig::globaldb_three_city().build_topology();
        let m = StaticMembership::from_topology(&topo);
        assert_eq!(m.silos().len(), 3, "one silo per host");
        let total: usize = m.silos().iter().map(|s| s.nodes.len()).sum();
        assert_eq!(total, topo.node_count(), "every node lives in a silo");
        for silo in m.silos() {
            for &(n, kind) in &silo.nodes {
                assert_eq!(topo.node_host(n), silo.host);
                assert_eq!(topo.node_kind(n), kind);
                assert_eq!(m.host_of_silo(m.silo_of(n)), silo.host);
            }
        }
        // The GTM landed somewhere, exactly once.
        let gtms: usize = m
            .silos()
            .iter()
            .flat_map(|s| &s.nodes)
            .filter(|(_, k)| *k == NodeKind::GtmServer)
            .count();
        assert_eq!(gtms, 1);
    }
}

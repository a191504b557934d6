//! The skyline (Pareto front) over candidate read nodes.

use gdb_simnet::{NetNodeId, SimDuration};

/// Metrics a CN tracks for one candidate node (refreshed periodically in
/// the background).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeMetrics {
    pub node: NetNodeId,
    /// Estimated data staleness (how far behind the primary it has
    /// replayed).
    pub staleness: SimDuration,
    /// Observed query response latency (network + queueing).
    pub latency: SimDuration,
    /// Load factor ≥ 0 (0 = idle); inflates the effective cost.
    pub load: f64,
    pub healthy: bool,
}

impl NodeMetrics {
    /// The "latency and load" axis of Fig. 5: response latency inflated by
    /// the node's load.
    pub fn cost(&self) -> f64 {
        self.latency.as_micros() as f64 * (1.0 + self.load.max(0.0))
    }
}

/// The Pareto front of candidates: no member is dominated (strictly worse
/// on one axis, no better on the other) by another healthy candidate.
#[derive(Debug, Clone, Default)]
pub struct Skyline {
    candidates: Vec<NodeMetrics>,
}

impl Skyline {
    /// Compute the skyline over the given nodes (unhealthy ones excluded).
    pub fn compute(nodes: &[NodeMetrics]) -> Self {
        let healthy: Vec<NodeMetrics> = nodes.iter().filter(|n| n.healthy).copied().collect();
        let mut candidates: Vec<NodeMetrics> = healthy
            .iter()
            .filter(|a| !healthy.iter().any(|b| b.node != a.node && dominates(b, a)))
            .copied()
            .collect();
        // Sort by staleness so selection scans cheapest-fresh first.
        candidates.sort_by(|a, b| {
            a.staleness.cmp(&b.staleness).then(
                a.cost()
                    .partial_cmp(&b.cost())
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        Skyline { candidates }
    }

    /// The skyline members, staleness-ascending.
    pub fn candidates(&self) -> &[NodeMetrics] {
        &self.candidates
    }

    /// Pick the minimum-cost candidate whose staleness is within
    /// `freshness_bound` (`None` = any staleness acceptable); on equal
    /// cost the fresher, then the earlier, wins.
    pub fn select(&self, freshness_bound: Option<SimDuration>) -> Option<NodeMetrics> {
        pick(&self.candidates, freshness_bound).map(|i| self.candidates[i])
    }

    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    pub fn len(&self) -> usize {
        self.candidates.len()
    }
}

/// The index of the node a read goes to: the cheapest healthy node whose
/// staleness is within `freshness_bound`, ties to the fresher, then to
/// the earlier in `nodes`. This is `Skyline::compute(nodes).select(..)`
/// without building the skyline: a dominated node never wins, since the
/// node dominating it is healthy, within the bound whenever it is, and
/// cheaper or as cheap and fresher; and the skyline keeps the order of
/// nodes that tie on both axes.
pub fn pick(nodes: &[NodeMetrics], freshness_bound: Option<SimDuration>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, n) in nodes.iter().enumerate() {
        if !n.healthy || freshness_bound.is_some_and(|b| n.staleness > b) {
            continue;
        }
        let cost = n.cost();
        let wins = best.is_none_or(|(b, best_cost)| match cost.partial_cmp(&best_cost) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Equal) => n.staleness < nodes[b].staleness,
            _ => false,
        });
        if wins {
            best = Some((i, cost));
        }
    }
    best.map(|(i, _)| i)
}

/// `a` dominates `b` if it is no worse on both axes and strictly better on
/// at least one.
fn dominates(a: &NodeMetrics, b: &NodeMetrics) -> bool {
    let (ca, cb) = (a.cost(), b.cost());
    (a.staleness <= b.staleness && ca < cb) || (a.staleness < b.staleness && ca <= cb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u32, staleness_ms: u64, latency_ms: u64, load: f64, healthy: bool) -> NodeMetrics {
        NodeMetrics {
            node: NetNodeId(id),
            staleness: SimDuration::from_millis(staleness_ms),
            latency: SimDuration::from_millis(latency_ms),
            load,
            healthy,
        }
    }

    /// Fig. 5's shape: fresh-but-slow and stale-but-fast nodes both stay
    /// on the skyline; a node worse on both axes is dominated away.
    #[test]
    fn skyline_keeps_pareto_front_only() {
        let nodes = [
            node(1, 10, 50, 0.0, true),  // fresh, slow — skyline
            node(2, 100, 5, 0.0, true),  // stale, fast — skyline
            node(3, 120, 60, 0.0, true), // worse than 1 and 2 — dominated
            node(4, 50, 20, 0.0, true),  // middle — skyline
        ];
        let sky = Skyline::compute(&nodes);
        let ids: Vec<u32> = sky.candidates().iter().map(|c| c.node.0).collect();
        assert_eq!(ids, vec![1, 4, 2], "staleness-ascending pareto front");
    }

    #[test]
    fn unhealthy_nodes_excluded() {
        let nodes = [node(1, 10, 10, 0.0, false), node(2, 99, 99, 0.0, true)];
        let sky = Skyline::compute(&nodes);
        assert_eq!(sky.len(), 1);
        assert_eq!(sky.candidates()[0].node, NetNodeId(2));
    }

    #[test]
    fn bounded_staleness_selection() {
        let nodes = [
            node(1, 10, 50, 0.0, true),
            node(2, 100, 5, 0.0, true),
            node(3, 50, 20, 0.0, true),
        ];
        let sky = Skyline::compute(&nodes);
        // Bound 60 ms: node 2 (stale 100) excluded; cheapest of {1,3} is 3.
        let pick = sky.select(Some(SimDuration::from_millis(60))).unwrap();
        assert_eq!(pick.node, NetNodeId(3));
        // No bound: overall cheapest is node 2.
        assert_eq!(sky.select(None).unwrap().node, NetNodeId(2));
        // Impossible bound: nothing qualifies (caller falls back to
        // the primary).
        assert!(sky.select(Some(SimDuration::from_millis(5))).is_none());
    }

    #[test]
    fn load_inflates_cost() {
        // Same latency; the loaded node must lose.
        let nodes = [node(1, 10, 10, 3.0, true), node(2, 10, 10, 0.0, true)];
        let sky = Skyline::compute(&nodes);
        assert_eq!(sky.select(None).unwrap().node, NetNodeId(2));
        // The loaded node is dominated (equal staleness, higher cost).
        assert_eq!(sky.len(), 1);
    }

    #[test]
    fn crashed_node_falls_off_between_refreshes() {
        let mut nodes = vec![node(1, 10, 10, 0.0, true), node(2, 20, 20, 0.0, true)];
        let before = Skyline::compute(&nodes);
        assert_eq!(before.select(None).unwrap().node, NetNodeId(1));
        nodes[0].healthy = false; // crash detected
        let after = Skyline::compute(&nodes);
        assert_eq!(after.select(None).unwrap().node, NetNodeId(2));
    }

    #[test]
    fn empty_input_is_empty_skyline() {
        let sky = Skyline::compute(&[]);
        assert!(sky.is_empty());
        assert!(sky.select(None).is_none());
    }

    #[test]
    fn identical_nodes_all_survive() {
        // Neither strictly dominates the other — both stay, selection is
        // deterministic (first by sort order).
        let nodes = [node(1, 10, 10, 0.0, true), node(2, 10, 10, 0.0, true)];
        let sky = Skyline::compute(&nodes);
        assert_eq!(sky.len(), 2);
        assert!(sky.select(None).is_some());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_node(id: u32) -> impl Strategy<Value = NodeMetrics> {
        (0u64..200, 1u64..200, 0.0f64..4.0, any::<bool>()).prop_map(move |(s, l, load, healthy)| {
            NodeMetrics {
                node: NetNodeId(id),
                staleness: SimDuration::from_millis(s),
                latency: SimDuration::from_millis(l),
                load,
                healthy,
            }
        })
    }

    /// Few distinct values per axis, so equal costs and staleness ties
    /// are common.
    fn arb_tied_node(id: u32) -> impl Strategy<Value = NodeMetrics> {
        (0u64..4, 1u64..4, 0u8..3, 0u8..4).prop_map(move |(s, l, load, health)| NodeMetrics {
            node: NetNodeId(id),
            staleness: SimDuration::from_millis(s * 10),
            latency: SimDuration::from_millis(l * 10),
            load: [0.0, 0.5, 1.0][load as usize],
            healthy: health != 0,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5_000))]

        /// The allocation-free pick is exactly the skyline's selection —
        /// the same node, ties included — on random candidate sets with
        /// unhealthy nodes, equal costs and a freshness bound.
        #[test]
        fn pick_equals_skyline_select(
            n0 in arb_tied_node(0), n1 in arb_tied_node(1), n2 in arb_tied_node(2),
            n3 in arb_tied_node(3), n4 in arb_tied_node(4),
            wide in arb_node(5),
            len in 0usize..7,
            bound_ms in proptest::option::of(0u64..45),
        ) {
            let nodes = [n0, n1, n2, n3, n4, wide];
            let nodes = &nodes[..len.min(nodes.len())];
            let bound = bound_ms.map(SimDuration::from_millis);
            // The selection rule as a spec: of the skyline's members
            // (staleness-ascending, ties in input order) within the
            // bound, the first of least cost.
            let sky = Skyline::compute(nodes);
            let expected = sky
                .candidates()
                .iter()
                .filter(|c| bound.is_none_or(|b| c.staleness <= b))
                .min_by(|a, b| a.cost().total_cmp(&b.cost()))
                .copied();
            prop_assert_eq!(sky.select(bound), expected);
            prop_assert_eq!(pick(nodes, bound).map(|i| nodes[i]), expected);
        }
    }

    proptest! {

        /// The selected node is never dominated by any healthy node and
        /// always meets the freshness bound.
        #[test]
        fn selection_is_pareto_optimal(
            n0 in arb_node(0), n1 in arb_node(1), n2 in arb_node(2),
            n3 in arb_node(3), n4 in arb_node(4),
            bound_ms in proptest::option::of(0u64..250),
        ) {
            let nodes = [n0, n1, n2, n3, n4];
            let sky = Skyline::compute(&nodes);
            let bound = bound_ms.map(SimDuration::from_millis);
            if let Some(pick) = sky.select(bound) {
                prop_assert!(pick.healthy);
                if let Some(b) = bound {
                    prop_assert!(pick.staleness <= b);
                }
                // No healthy in-bound node has strictly lower cost.
                for n in nodes.iter().filter(|n| n.healthy) {
                    if bound.is_none_or(|b| n.staleness <= b) {
                        prop_assert!(n.cost() >= pick.cost() - 1e-9);
                    }
                }
            } else {
                // Only valid if nothing healthy meets the bound.
                for n in nodes.iter().filter(|n| n.healthy) {
                    if let Some(b) = bound {
                        prop_assert!(n.staleness > b);
                    } else {
                        prop_assert!(false, "unbounded select on nonempty healthy set failed");
                    }
                }
            }
        }
    }
}

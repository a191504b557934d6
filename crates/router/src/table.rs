//! Flat O(1) routing table: shard → (primary, owner epoch) plus a
//! per-CN nearest-shard index.
//!
//! The hot routing path used to walk maps on every operation: a
//! `HashMap` lookup per shard route and an O(shards) `min_by_key` RTT
//! scan per `nearest_shard` call. At 6 shards that is noise; at 256+
//! shards with 10⁵ terminals it dominates. [`RouteTable`] replaces both
//! with `Vec` indexing: it is rebuilt *only* when the routing epoch
//! bumps (batched migration cutover, replica promotion), which is rare
//! by design, and every read between rebuilds is a bounds-checked array
//! load.
//!
//! Nearest-shard caching is decision-identical to the live scan because
//! `nominal_rtt` is a pure function of placement: co-located pairs are
//! always minimal, and injected WAN delay applies uniformly to all
//! non-co-located pairs, so the argmin can only change when a primary
//! *moves* — exactly the rebuild trigger. Ties break to the lowest
//! shard id, matching `Iterator::min_by_key` (first minimal element).
//!
//! The pre-table behavior (map walk + per-call RTT scan) is frozen as
//! the test-only `MapRouteTable`; the test suite asserts both make
//! identical decisions.

use gdb_simnet::{NetNodeId, SimDuration};

/// One shard's routing facts: where its primary lives and the epoch at
/// which it last moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Data node currently acting as the shard's primary.
    pub primary: NetNodeId,
    /// Routing epoch at which this primary took ownership. A CN whose
    /// announced epoch is older than this must refresh (`StaleRoute`).
    pub owner_epoch: u64,
}

/// Flat, rebuild-on-epoch-bump routing table.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    version: u64,
    entries: Vec<RouteEntry>,
    /// `nearest[cn]` = shard whose primary has minimal RTT from that
    /// CN's node (first minimal on ties).
    nearest: Vec<usize>,
}

impl RouteTable {
    /// Build the table from the current placement. `shards[s]` is the
    /// shard's `(primary, owner_epoch)`, `cns[c]` the CN's network
    /// node, and `rtt` the deterministic nominal round-trip estimate
    /// between two nodes.
    pub fn build(
        version: u64,
        shards: &[(NetNodeId, u64)],
        cns: &[NetNodeId],
        mut rtt: impl FnMut(NetNodeId, NetNodeId) -> SimDuration,
    ) -> Self {
        let entries: Vec<RouteEntry> = shards
            .iter()
            .map(|&(primary, owner_epoch)| RouteEntry {
                primary,
                owner_epoch,
            })
            .collect();
        let nearest = cns
            .iter()
            .map(|&cn_node| {
                let mut best = 0usize;
                let mut best_rtt = None;
                for (s, e) in entries.iter().enumerate() {
                    let d = rtt(cn_node, e.primary);
                    if best_rtt.is_none_or(|b| d < b) {
                        best = s;
                        best_rtt = Some(d);
                    }
                }
                best
            })
            .collect();
        Self {
            version,
            entries,
            nearest,
        }
    }

    /// Routing epoch this table was built at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of shards covered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current primary of `shard`. O(1).
    #[inline]
    pub fn primary(&self, shard: usize) -> NetNodeId {
        self.entries[shard].primary
    }

    /// Epoch at which `shard`'s primary took ownership. O(1).
    #[inline]
    pub fn owner_epoch(&self, shard: usize) -> u64 {
        self.entries[shard].owner_epoch
    }

    /// Nearest shard (by primary RTT) for CN `cn`. O(1).
    #[inline]
    pub fn nearest(&self, cn: usize) -> usize {
        self.nearest.get(cn).copied().unwrap_or(0)
    }

    /// The epoch check at the heart of `route_to_shard`: does a route
    /// announced at `route_epoch` still cover `shard`, or must the CN
    /// refresh? Returns the owner epoch on staleness so the caller can
    /// build the error message.
    #[inline]
    pub fn check_epoch(&self, shard: usize, route_epoch: u64) -> Result<NetNodeId, u64> {
        let e = &self.entries[shard];
        if route_epoch < e.owner_epoch {
            Err(e.owner_epoch)
        } else {
            Ok(e.primary)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Frozen pre-table routing path: `HashMap` per-route lookups plus an
    /// O(shards) RTT scan per nearest-shard call. Kept as the differential
    /// reference of the decision-equality tests below.
    struct MapRouteTable {
        version: u64,
        entries: HashMap<usize, RouteEntry>,
        cns: Vec<NetNodeId>,
    }

    impl MapRouteTable {
        fn build(version: u64, shards: &[(NetNodeId, u64)], cns: &[NetNodeId]) -> Self {
            let entries = shards
                .iter()
                .enumerate()
                .map(|(s, &(primary, owner_epoch))| {
                    (
                        s,
                        RouteEntry {
                            primary,
                            owner_epoch,
                        },
                    )
                })
                .collect();
            Self {
                version,
                entries,
                cns: cns.to_vec(),
            }
        }

        fn version(&self) -> u64 {
            self.version
        }

        fn primary(&self, shard: usize) -> NetNodeId {
            self.entries[&shard].primary
        }

        fn owner_epoch(&self, shard: usize) -> u64 {
            self.entries[&shard].owner_epoch
        }

        /// The legacy nearest-shard walk: recompute the argmin over every
        /// shard's primary RTT on every call, exactly as
        /// `GlobalDb::nearest_shard` did before the flat table.
        fn nearest(
            &self,
            cn: usize,
            mut rtt: impl FnMut(NetNodeId, NetNodeId) -> SimDuration,
        ) -> usize {
            let cn_node = self.cns[cn];
            (0..self.entries.len())
                .min_by_key(|&s| rtt(cn_node, self.entries[&s].primary))
                .unwrap_or(0)
        }

        fn check_epoch(&self, shard: usize, route_epoch: u64) -> Result<NetNodeId, u64> {
            let e = &self.entries[&shard];
            if route_epoch < e.owner_epoch {
                Err(e.owner_epoch)
            } else {
                Ok(e.primary)
            }
        }
    }

    fn rtt_fn(seed: u64) -> impl FnMut(NetNodeId, NetNodeId) -> SimDuration {
        // Deterministic pseudo-RTT: pure function of the node pair, so
        // both paths observe identical costs.
        move |a: NetNodeId, b: NetNodeId| {
            let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
            for v in [a.0 as u64, b.0 as u64] {
                h ^= v.wrapping_mul(0xff51_afd7_ed55_8ccd);
                h = h.rotate_left(23);
            }
            SimDuration::from_micros(100 + h % 50_000)
        }
    }

    fn placement(seed: u64, shards: usize) -> Vec<(NetNodeId, u64)> {
        (0..shards)
            .map(|s| {
                let node =
                    ((seed.wrapping_mul(6364136223846793005) >> 16) as u32 + s as u32 * 7) % 64;
                (NetNodeId(node), (seed + s as u64) % 5)
            })
            .collect()
    }

    /// The differential pin: over many random placements the flat table
    /// and the frozen map walk make identical primary / epoch / nearest
    /// / staleness decisions.
    #[test]
    fn flat_table_matches_map_walk_decisions() {
        for seed in 0..50u64 {
            let shards = placement(seed, 1 + (seed as usize * 13) % 300);
            let cns: Vec<NetNodeId> = (0..5u32).map(|c| NetNodeId(64 + c)).collect();
            let flat = RouteTable::build(seed, &shards, &cns, rtt_fn(seed));
            let map = MapRouteTable::build(seed, &shards, &cns);
            assert_eq!(flat.version(), map.version());
            for s in 0..shards.len() {
                assert_eq!(flat.primary(s), map.primary(s), "seed {seed} shard {s}");
                assert_eq!(flat.owner_epoch(s), map.owner_epoch(s));
                for epoch in 0..6u64 {
                    assert_eq!(
                        flat.check_epoch(s, epoch),
                        map.check_epoch(s, epoch),
                        "seed {seed} shard {s} epoch {epoch}"
                    );
                }
            }
            for c in 0..cns.len() {
                assert_eq!(
                    flat.nearest(c),
                    map.nearest(c, rtt_fn(seed)),
                    "seed {seed} cn {c}"
                );
            }
        }
    }

    /// Ties must break to the lowest shard id (`min_by_key` keeps the
    /// first minimal element).
    #[test]
    fn nearest_breaks_ties_to_lowest_shard() {
        let shards: Vec<(NetNodeId, u64)> = vec![(NetNodeId(3), 0), (NetNodeId(3), 0)];
        let cns = vec![NetNodeId(9)];
        let flat = RouteTable::build(0, &shards, &cns, |_, _| SimDuration::from_micros(5));
        let map = MapRouteTable::build(0, &shards, &cns);
        assert_eq!(flat.nearest(0), 0);
        assert_eq!(map.nearest(0, |_, _| SimDuration::from_micros(5)), 0);
    }

    #[test]
    fn check_epoch_reports_owner_epoch_on_stale() {
        let shards = vec![(NetNodeId(1), 4)];
        let flat = RouteTable::build(7, &shards, &[], |_, _| SimDuration::ZERO);
        assert_eq!(flat.check_epoch(0, 3), Err(4));
        assert_eq!(flat.check_epoch(0, 4), Ok(NetNodeId(1)));
        assert_eq!(flat.check_epoch(0, 9), Ok(NetNodeId(1)));
    }
}

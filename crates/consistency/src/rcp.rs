//! RCP computation (paper Fig. 4).

use gdb_model::Timestamp;
use std::collections::BTreeMap;

/// Identifies one replica data node within the RCP group (a remote site's
/// full set of replica shards).
pub type ReplicaSlot = u32;

/// Collects per-replica max commit timestamps and derives the RCP.
#[derive(Debug, Default, Clone)]
pub struct RcpCalculator {
    reported: BTreeMap<ReplicaSlot, Timestamp>,
    /// The set of replicas that must report before an RCP exists.
    expected: Vec<ReplicaSlot>,
    rcp: Timestamp,
}

impl RcpCalculator {
    /// A calculator over the given replica set.
    pub fn new(expected: Vec<ReplicaSlot>) -> Self {
        RcpCalculator {
            reported: BTreeMap::new(),
            expected,
            rcp: Timestamp::ZERO,
        }
    }

    /// Record a replica's current max applied commit timestamp.
    /// Reports are monotone per replica (stale reports are ignored).
    pub fn report(&mut self, replica: ReplicaSlot, max_commit_ts: Timestamp) {
        let entry = self.reported.entry(replica).or_insert(Timestamp::ZERO);
        *entry = (*entry).max(max_commit_ts);
    }

    /// Recompute and return the RCP: the min over all expected replicas of
    /// their reported max, clamped to never move backwards. Replicas that
    /// have not reported yet pin the RCP at its previous value.
    pub fn compute(&mut self) -> Timestamp {
        let mut min: Option<Timestamp> = None;
        for slot in &self.expected {
            match self.reported.get(slot) {
                Some(ts) => {
                    min = Some(match min {
                        Some(m) => m.min(*ts),
                        None => *ts,
                    });
                }
                None => return self.rcp, // incomplete information
            }
        }
        if let Some(m) = min {
            self.rcp = self.rcp.max(m);
        }
        self.rcp
    }

    /// The current RCP without recomputing.
    pub fn current(&self) -> Timestamp {
        self.rcp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 4 scenario verbatim: replicas have applied up to
    /// ts4, ts5, and ts3 respectively ⇒ RCP = min = ts3, making Trx1..3
    /// visible and Trx4/Trx5 (possibly multi-shard / dependent) invisible.
    #[test]
    fn figure4_scenario() {
        let (ts3, ts4, ts5) = (Timestamp(3), Timestamp(4), Timestamp(5));
        let mut rcp = RcpCalculator::new(vec![1, 2, 3]);
        rcp.report(1, ts4);
        rcp.report(2, ts5);
        rcp.report(3, ts3);
        assert_eq!(rcp.compute(), ts3);
        // Trx1..Trx3 visible at the RCP snapshot; Trx4, Trx5 not.
        for visible in [1u64, 2, 3] {
            assert!(Timestamp(visible) <= rcp.current());
        }
        for invisible in [4u64, 5] {
            assert!(Timestamp(invisible) > rcp.current());
        }
    }

    #[test]
    fn rcp_waits_for_all_replicas() {
        let mut rcp = RcpCalculator::new(vec![1, 2]);
        rcp.report(1, Timestamp(100));
        assert_eq!(rcp.compute(), Timestamp::ZERO, "replica 2 unreported");
        rcp.report(2, Timestamp(60));
        assert_eq!(rcp.compute(), Timestamp(60));
    }

    #[test]
    fn rcp_is_monotone_even_if_reports_regress() {
        let mut rcp = RcpCalculator::new(vec![1, 2]);
        rcp.report(1, Timestamp(50));
        rcp.report(2, Timestamp(40));
        assert_eq!(rcp.compute(), Timestamp(40));
        // A stale (smaller) report must not pull the RCP back.
        rcp.report(2, Timestamp(10));
        assert_eq!(rcp.compute(), Timestamp(40));
        rcp.report(2, Timestamp(70));
        assert_eq!(rcp.compute(), Timestamp(50));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The RCP never exceeds any replica's report high-water mark and
        /// never decreases across an arbitrary report/compute interleaving.
        #[test]
        fn rcp_invariants(
            reports in proptest::collection::vec((0u32..4, 0u64..1000), 1..60)
        ) {
            let mut rcp = RcpCalculator::new(vec![0, 1, 2, 3]);
            let mut high_water = [0u64; 4];
            let mut last_rcp = Timestamp::ZERO;
            for (slot, ts) in reports {
                rcp.report(slot, Timestamp(ts));
                high_water[slot as usize] = high_water[slot as usize].max(ts);
                let r = rcp.compute();
                prop_assert!(r >= last_rcp, "monotonicity violated");
                last_rcp = r;
                // RCP ≤ every replica's high water (once all reported).
                if high_water.iter().all(|&h| h > 0) {
                    let min_high = *high_water.iter().min().unwrap();
                    prop_assert!(r.0 <= min_high);
                }
            }
        }
    }
}

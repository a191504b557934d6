//! Parallel-replay cost model.
//!
//! The paper notes GlobalDB "applies Redo logs in parallel which
//! significantly improves log replay speed" and needs no fine-grained
//! locking while doing so. We model replay time as records divided across
//! workers, plus a fixed per-batch dispatch overhead — enough to reproduce
//! the freshness effect of parallelism in the RCP ablation.

use gdb_simnet::SimDuration;

/// Timing model for applying a batch of redo records at a replica.
#[derive(Debug, Clone, Copy)]
pub struct ReplayCostModel {
    /// CPU cost to apply one record.
    pub per_record: SimDuration,
    /// Parallel replay workers (paper's parallel replay; 1 = serial).
    pub workers: usize,
    /// Fixed batch dispatch overhead.
    pub per_batch: SimDuration,
}

impl Default for ReplayCostModel {
    fn default() -> Self {
        ReplayCostModel {
            per_record: SimDuration::from_micros(2),
            workers: 4,
            per_batch: SimDuration::from_micros(20),
        }
    }
}

impl ReplayCostModel {
    /// Time to replay a batch of `records` records.
    pub fn batch_delay(&self, records: usize) -> SimDuration {
        let per_worker = records.div_ceil(self.workers.max(1));
        self.per_batch + self.per_record * per_worker as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_divides_replay_time() {
        let serial = ReplayCostModel {
            workers: 1,
            ..ReplayCostModel::default()
        };
        let par4 = ReplayCostModel {
            workers: 4,
            ..ReplayCostModel::default()
        };
        let s = serial.batch_delay(1000);
        let p = par4.batch_delay(1000);
        // 4 workers ≈ 4× faster on the per-record term.
        assert!(p.as_micros() < s.as_micros() / 3);
        assert!(p.as_micros() >= s.as_micros() / 5);
    }

    #[test]
    fn empty_batch_costs_only_dispatch() {
        let m = ReplayCostModel::default();
        assert_eq!(m.batch_delay(0), m.per_batch);
    }

    #[test]
    fn workers_never_zero() {
        // Zero workers replays like one rather than dividing by zero.
        let [zero, one] = [0, 1].map(|workers| ReplayCostModel {
            workers,
            ..ReplayCostModel::default()
        });
        assert_eq!(zero.batch_delay(1000), one.batch_delay(1000));
    }
}

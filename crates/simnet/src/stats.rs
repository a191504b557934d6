//! The latency histogram shared by the workload drivers, the cluster's
//! metrics registry and the benches.
//!
//! [`LatencyHistogram`] is a log-linear bucket summary: values below
//! 64 µs each get their own bucket, and every power of two above is
//! split into 64 sub-buckets, so a percentile is the lower bound of its
//! bucket, within 1/64 of the nearest-rank sample. Count, sum, min and
//! max are kept exactly. Memory is the buckets touched, independent of
//! the number of samples, so one histogram can live for a whole run.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Number of linear buckets below the first log octave (also the
/// sub-bucket count per octave). Must be a power of two.
const LINEAR: u64 = 64;
const LINEAR_BITS: u32 = 6; // log2(LINEAR)

/// Index of the log-linear bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= LINEAR_BITS
    let group = (msb - LINEAR_BITS) as usize;
    let sub = ((v >> (msb - LINEAR_BITS)) - LINEAR) as usize;
    LINEAR as usize + group * LINEAR as usize + sub
}

/// Lower bound of the value range covered by bucket `index` (the bucket's
/// deterministic representative value).
fn bucket_value(index: usize) -> u64 {
    let linear = LINEAR as usize;
    if index < linear {
        return index as u64;
    }
    let group = (index - linear) / linear;
    let sub = ((index - linear) % linear) as u64;
    (LINEAR + sub) << group
}

/// A latency recorder with percentile queries: log-linear bucket counts
/// plus exact count, sum, min and max (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, d: SimDuration) {
        let us = d.as_micros();
        let idx = bucket_index(us);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min_us = us;
            self.max_us = us;
        } else {
            self.min_us = self.min_us.min(us);
            self.max_us = self.max_us.max(us);
        }
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
    }

    pub fn len(&self) -> usize {
        self.count as usize
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded samples in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// The q-th percentile (q in 0..=100), nearest-rank over the bucket
    /// counts: exact below 64 µs, at most 1/64 low above (the bucket's
    /// lower bound), and clamped to the exact [min, max] envelope.
    pub fn percentile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let us = bucket_value(idx).clamp(self.min_us, self.max_us);
                return SimDuration::from_micros(us);
            }
        }
        SimDuration::from_micros(self.max_us)
    }

    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(self.sum_us / self.count)
    }

    pub fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.max_us)
    }

    pub fn min(&self) -> SimDuration {
        SimDuration::from_micros(self.min_us)
    }

    /// Merge another histogram into this one: the result is the one
    /// recording the union of both sample sets would have built.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, &theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        if self.count == 0 {
            self.min_us = other.min_us;
            self.max_us = other.max_us;
        } else {
            self.min_us = self.min_us.min(other.min_us);
            self.max_us = self.max_us.max(other.max_us);
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert!(h.is_empty());
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut h = LatencyHistogram::new();
        for ms in 1..=100u64 {
            h.record(SimDuration::from_millis(ms));
        }
        // Bucket lower bounds: 50 000 µs sits in [49 664, 50 176).
        assert_eq!(h.percentile(50.0).as_micros(), 49_664);
        assert_eq!(h.percentile(99.0).as_micros(), 98_304);
        assert_eq!(h.percentile(100.0).as_micros(), 99_328);
        assert_eq!(h.min().as_millis(), 1);
        assert_eq!(h.max().as_millis(), 100);
        assert_eq!(h.mean().as_micros(), 50_500);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_millis(1));
        b.record(SimDuration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max().as_millis(), 3);
    }

    #[test]
    fn bounded_memory_does_not_grow_with_samples() {
        let mut h = LatencyHistogram::new();
        for i in 0..1_000_000u64 {
            h.record(SimDuration::from_micros(i % 4096));
        }
        assert!(h.counts.len() <= bucket_index(4096) + 1);
        assert_eq!(h.len(), 1_000_000);
    }

    #[test]
    fn bucket_index_value_are_consistent() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 65_535, 1 << 40] {
            let idx = bucket_index(v);
            let lo = bucket_value(idx);
            assert!(lo <= v, "lower bound {lo} > {v}");
            // Relative error of the representative is bounded by 1/64.
            assert!((v - lo) as f64 <= (v as f64) / 64.0 + 1.0, "{v} -> {lo}");
        }
    }
}

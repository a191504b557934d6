//! Workload run reports.

use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::SimDuration;
use std::collections::BTreeMap;

/// Aggregated results of one workload run.
#[derive(Debug, Default)]
pub struct WorkloadReport {
    /// Virtual duration of the measured window.
    pub duration: SimDuration,
    /// Commits per transaction type.
    pub commits: BTreeMap<&'static str, u64>,
    /// Aborts (including intentional TPC-C rollbacks) per type.
    pub aborts: BTreeMap<&'static str, u64>,
    /// Latency distribution per type.
    pub latency: BTreeMap<&'static str, LatencyHistogram>,
    /// Reads served by replicas / primaries.
    pub reads_on_replica: u64,
    pub reads_on_primary: u64,
}

impl WorkloadReport {
    pub fn record_commit(&mut self, kind: &'static str, latency: SimDuration) {
        *self.commits.entry(kind).or_default() += 1;
        self.latency.entry(kind).or_default().record(latency);
    }

    pub fn record_abort(&mut self, kind: &'static str) {
        *self.aborts.entry(kind).or_default() += 1;
    }

    pub fn total_commits(&self) -> u64 {
        self.commits.values().sum()
    }

    pub fn total_aborts(&self) -> u64 {
        self.aborts.values().sum()
    }

    /// Total committed transactions per virtual second.
    pub fn throughput_per_sec(&self) -> f64 {
        let s = self.duration.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.total_commits() as f64 / s
        }
    }

    /// TPC-C tpmC: New-Order commits per virtual minute.
    pub fn tpmc(&self) -> f64 {
        let s = self.duration.as_secs_f64();
        if s <= 0.0 {
            return 0.0;
        }
        *self.commits.get("new_order").unwrap_or(&0) as f64 / s * 60.0
    }

    /// Mean latency across one type (ZERO if absent).
    pub fn mean_latency(&self, kind: &'static str) -> SimDuration {
        self.latency
            .get(kind)
            .map(|h| h.mean())
            .unwrap_or(SimDuration::ZERO)
    }

    /// p99 latency for one type.
    pub fn p99_latency(&self, kind: &'static str) -> SimDuration {
        self.latency
            .get(kind)
            .map(|h| h.percentile(99.0))
            .unwrap_or(SimDuration::ZERO)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut parts = vec![format!(
            "{:.1} txn/s ({} commits, {} aborts in {})",
            self.throughput_per_sec(),
            self.total_commits(),
            self.total_aborts(),
            self.duration
        )];
        for (kind, count) in &self.commits {
            parts.push(format!(
                "{kind}: {count} (mean {})",
                self.mean_latency(kind)
            ));
        }
        parts.join("; ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let mut r = WorkloadReport {
            duration: SimDuration::from_secs(10),
            ..Default::default()
        };
        for _ in 0..50 {
            r.record_commit("new_order", SimDuration::from_millis(5));
        }
        for _ in 0..50 {
            r.record_commit("payment", SimDuration::from_millis(2));
        }
        r.record_abort("new_order");
        assert_eq!(r.total_commits(), 100);
        assert_eq!(r.total_aborts(), 1);
        assert!((r.throughput_per_sec() - 10.0).abs() < 1e-9);
        assert!((r.tpmc() - 300.0).abs() < 1e-9);
        assert_eq!(r.mean_latency("payment"), SimDuration::from_millis(2));
    }
}

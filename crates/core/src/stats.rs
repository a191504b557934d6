//! Cluster-level statistics and per-transaction outcomes.

use gdb_model::Timestamp;
use gdb_obs::{BenchSeries, HistSummary, Metric, MetricsReport, NetStats};
use gdb_simnet::{SimDuration, SimTime};

/// What happened to one transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnOutcome {
    /// Commit timestamp (None for pure reads in ROR mode, which carry the
    /// RCP snapshot instead).
    pub commit_ts: Option<Timestamp>,
    /// The snapshot the transaction read at.
    pub snapshot: Timestamp,
    /// Virtual time the client observed completion.
    pub completed_at: SimTime,
    /// End-to-end latency as the client saw it.
    pub latency: SimDuration,
    /// Which shards the transaction wrote.
    pub shards_written: Vec<usize>,
    /// True if any read was served by a replica.
    pub used_replica: bool,
    /// True if the transaction rolled back instead of committing.
    pub aborted: bool,
}

/// Aggregate counters for a cluster run.
#[derive(Debug, Default)]
pub struct ClusterStats {
    pub committed: u64,
    pub aborted: u64,
    pub reads_on_replica: u64,
    pub reads_on_primary: u64,
    pub replica_blocked_fallbacks: u64,
    pub lock_waits: u64,
    pub commit_wait_total: SimDuration,
    pub heartbeats_sent: u64,
    pub rcp_rounds: u64,
    /// RCP rounds whose collector CN died between gathering the replica
    /// reports and distributing the result (the round is abandoned; CNs
    /// keep their previous — still monotone — RCP).
    pub rcp_rounds_abandoned: u64,
    /// Times a region's collector-CN leadership moved to another CN.
    pub collector_failovers: u64,
    pub versions_vacuumed: u64,
    /// Requests rejected because they carried a stale routing epoch
    /// (shard ownership moved under the submitting CN's route table).
    pub stale_route_rejects: u64,
    /// Shard migrations started / completed / aborted mid-flight.
    pub migrations_started: u64,
    pub migrations_completed: u64,
    pub migrations_aborted: u64,
}

impl ClusterStats {
    /// Record a finished transaction. Aborts land in `aborted`; only
    /// commits count as commits.
    pub fn record_txn(&mut self, outcome: &TxnOutcome) {
        if outcome.aborted {
            self.aborted += 1;
        } else {
            self.committed += 1;
        }
    }
}

/// One `gdb-bench/v1` artifact series: a run's totals plus its cluster's
/// metrics snapshot, with the per-phase breakdown (`txnmgr.phase.*`) and
/// the network totals lifted out of the snapshot into their schema
/// fields. Every `--json` artifact's series is built here.
pub fn bench_series(
    label: String,
    throughput_txn_s: f64,
    tpmc: f64,
    commits: u64,
    aborts: u64,
    latency: HistSummary,
    metrics: MetricsReport,
) -> BenchSeries {
    let phases = metrics
        .metrics
        .iter()
        .filter_map(|(name, m)| match m {
            Metric::Histogram(h) => {
                let rest = name.strip_prefix(gdb_txnmgr::metrics::PHASE_PREFIX)?;
                Some((rest.trim_end_matches("_us").to_string(), h.clone()))
            }
            _ => None,
        })
        .collect();
    let c = |n: &str| metrics.counter(n).unwrap_or(0);
    let net = NetStats {
        wire_bytes: c(gdb_replication::metrics::SHIP_WIRE_BYTES),
        raw_bytes: c(gdb_replication::metrics::SHIP_RAW_BYTES),
        batches: c(gdb_replication::metrics::SHIP_BATCHES),
        cross_region_msgs: c(gdb_simnet::metrics::CROSS_REGION_MSGS),
        cross_region_bytes: c(gdb_simnet::metrics::CROSS_REGION_BYTES),
    };
    BenchSeries {
        label,
        throughput_txn_s,
        tpmc,
        commits,
        aborts,
        latency,
        phases,
        net,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = ClusterStats::default();
        s.record_txn(&TxnOutcome {
            commit_ts: Some(Timestamp(5)),
            snapshot: Timestamp(4),
            completed_at: SimTime::from_millis(10),
            latency: SimDuration::from_millis(10),
            shards_written: vec![0],
            used_replica: false,
            aborted: false,
        });
        assert_eq!(s.committed, 1);
        assert_eq!(s.aborted, 0);
    }

    #[test]
    fn aborts_count_as_aborts_not_commits() {
        let mut s = ClusterStats::default();
        s.record_txn(&TxnOutcome {
            commit_ts: None,
            snapshot: Timestamp(4),
            completed_at: SimTime::from_millis(10),
            latency: SimDuration::from_millis(10),
            shards_written: vec![],
            used_replica: false,
            aborted: true,
        });
        assert_eq!(s.committed, 0);
        assert_eq!(s.aborted, 1);
    }
}

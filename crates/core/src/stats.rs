//! Cluster-level statistics and per-transaction outcomes.

use gdb_model::Timestamp;
use gdb_simnet::stats::LatencyHistogram;
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
#[derive(Debug)]
pub struct ClusterStats {
    pub committed: u64,
    pub aborted: u64,
    pub reads_on_replica: u64,
    pub reads_on_primary: u64,
    pub replica_blocked_fallbacks: u64,
    pub ror_rejected_freshness: u64,
    pub ror_rejected_ddl: u64,
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
    /// Sealed redo records trimmed from shard shipping buffers once every
    /// durable consumer (replica appliers, in-flight migrations) had
    /// advanced past them.
    pub redo_records_trimmed: u64,
    /// Requests rejected because they carried a stale routing epoch
    /// (shard ownership moved under the submitting CN's route table).
    pub stale_route_rejects: u64,
    /// Shard migrations started / completed / aborted mid-flight.
    pub migrations_started: u64,
    pub migrations_completed: u64,
    pub migrations_aborted: u64,
    pub latency: LatencyHistogram,
}

impl Default for ClusterStats {
    fn default() -> Self {
        ClusterStats {
            committed: 0,
            aborted: 0,
            reads_on_replica: 0,
            reads_on_primary: 0,
            replica_blocked_fallbacks: 0,
            ror_rejected_freshness: 0,
            ror_rejected_ddl: 0,
            lock_waits: 0,
            commit_wait_total: SimDuration::ZERO,
            heartbeats_sent: 0,
            rcp_rounds: 0,
            rcp_rounds_abandoned: 0,
            collector_failovers: 0,
            versions_vacuumed: 0,
            redo_records_trimmed: 0,
            stale_route_rejects: 0,
            migrations_started: 0,
            migrations_completed: 0,
            migrations_aborted: 0,
            // This histogram lives for the whole cluster and is fed on the
            // per-transaction hot path: bounded mode, not store-every-sample.
            latency: LatencyHistogram::bounded(),
        }
    }
}

impl ClusterStats {
    /// Record a finished transaction. Aborts land in `aborted`; only
    /// commits count as commits (and only their latency is meaningful for
    /// the client-visible histogram).
    pub fn record_txn(&mut self, outcome: &TxnOutcome) {
        if outcome.aborted {
            self.aborted += 1;
        } else {
            self.committed += 1;
            self.latency.record(outcome.latency);
        }
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
        assert_eq!(s.latency.len(), 1);
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
        // Abort latency is not client-visible commit latency.
        assert_eq!(s.latency.len(), 0);
    }
}

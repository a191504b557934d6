//! Virtual-time-ordered redo staging per shard.
//!
//! A transaction's whole logic executes at its start event, but the redo
//! records it produces belong at the *virtual times* of the operations
//! (PENDING_COMMIT at the first write, the commit record at the commit
//! instant). Staging records keyed by `(virtual time, tiebreak)` and
//! sealing them into the shipping [`RedoBuffer`] only up to the flush
//! boundary reconstructs the interleaving a real primary would write —
//! including commit records appearing out of timestamp order across
//! transactions, the case the paper's PENDING_COMMIT safeguard exists for.
//!
//! Each seal frames its records once, into the durable segment, and the
//! log remembers that window: a follower whose next batch is exactly the
//! window ships those frames and the window's one compression
//! ([`ShardLog::drain`]).

use gdb_model::TxnId;
use gdb_replication::channel::WireBatch;
use gdb_replication::{SealedWindow, ShippingChannel};
use gdb_simnet::SimTime;
use gdb_wal::{GroupCommitWal, Lsn, RedoBuffer, RedoPayload};
use std::collections::BTreeMap;

/// The redo log of one primary shard: a staging area ordered by virtual
/// time, the sealed shipping buffer, and the durable on-disk segment.
///
/// Sealing doubles as the group-commit boundary: every record sealed in
/// one `seal_upto`/`seal_all` call is framed into the durable
/// [`GroupCommitWal`] and the whole window is synced *once* at the end
/// of the call, instead of paying a per-transaction sync (and its
/// partial-tail-page rewrite) for each commit record.
#[derive(Debug)]
pub struct ShardLog {
    staging: BTreeMap<(SimTime, u64), (TxnId, RedoPayload)>,
    seq: u64,
    sealed: RedoBuffer,
    durable: GroupCommitWal,
    sealed_upto: SimTime,
    /// The last non-empty seal's records and durable frames.
    window: SealedWindow,
}

impl Default for ShardLog {
    fn default() -> Self {
        ShardLog {
            staging: BTreeMap::new(),
            seq: 0,
            sealed: RedoBuffer::new(),
            // The seal call, not a record count, bounds the window: each
            // seal ends with one explicit sync over everything it framed.
            durable: GroupCommitWal::with_window(usize::MAX),
            sealed_upto: SimTime::ZERO,
            window: SealedWindow::default(),
        }
    }
}

impl ShardLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Stage a record produced at virtual time `at`. `at` must be at or
    /// after the sealing boundary (events cannot produce records in the
    /// already-shipped past; the event engine guarantees this).
    pub fn append(&mut self, at: SimTime, txn: TxnId, payload: RedoPayload) {
        debug_assert!(
            at >= self.sealed_upto,
            "append at {at} behind seal boundary {}",
            self.sealed_upto
        );
        let key = (at.max(self.sealed_upto), self.seq);
        self.seq += 1;
        self.staging.insert(key, (txn, payload));
    }

    /// Seal all staged records with virtual time ≤ `upto` into the
    /// shipping buffer (assigning final LSNs in virtual-time order).
    /// Returns the number of records sealed.
    pub fn seal_upto(&mut self, upto: SimTime) -> usize {
        self.seal(Some(upto), upto)
    }

    /// Seal every staged record regardless of apply instant, advancing the
    /// boundary only to `now`. Failover paths use this to cut the stream
    /// exactly at the primary's installed state: commit processing appends
    /// records (and installs versions) synchronously, so records staged
    /// with a *later* apply instant are already on the durable WAL — only
    /// their shipping cadence lay in the future. Later events may still
    /// append at virtual instants before the drained records' apply times;
    /// per-key ordering stays intact because row locks serialize same-key
    /// commits in event order.
    pub fn seal_all(&mut self, now: SimTime) -> usize {
        self.seal(None, now)
    }

    /// Move staged records — those at or before `upto`, or all of them —
    /// into the shipping buffer and the durable segment (one sync for the
    /// whole window, which becomes the log's sealed window), then advance
    /// the boundary to `boundary`.
    fn seal(&mut self, upto: Option<SimTime>, boundary: SimTime) -> usize {
        let (first, from) = (self.sealed.head_lsn(), self.durable.segment().len());
        let mut sealed = 0;
        while let Some(entry) = self.staging.first_entry() {
            if upto.is_some_and(|upto| entry.key().0 > upto) {
                break;
            }
            let ((_, _), (txn, payload)) = entry.remove_entry();
            let lsn = self.sealed.head_lsn();
            self.durable.append_parts(lsn, txn, &payload);
            if ends_txn(&payload) {
                self.durable.commit();
            }
            self.sealed.append(txn, payload);
            sealed += 1;
        }
        if sealed > 0 {
            self.durable.sync();
            self.window = SealedWindow {
                lsns: first..self.sealed.head_lsn(),
                bytes: from..self.durable.segment().len(),
                wire: None,
            };
        }
        self.sealed_upto = self.sealed_upto.max(boundary);
        sealed
    }

    /// The sealed shipping buffer (shipping channels drain from here).
    pub fn sealed(&self) -> &RedoBuffer {
        &self.sealed
    }

    /// `channel`'s next batch of sealed redo: the durable frames of the
    /// sealed window when the batch is exactly that window, framed by the
    /// channel otherwise ([`ShippingChannel::drain_sealed`]).
    pub fn drain(&mut self, channel: &mut ShippingChannel) -> Option<WireBatch> {
        channel.drain_sealed(&self.sealed, self.durable.segment(), &mut self.window)
    }

    pub fn sealed_head(&self) -> Lsn {
        self.sealed.head_lsn()
    }

    /// Records still staged (not yet shippable).
    pub fn staged_len(&self) -> usize {
        self.staging.len()
    }

    /// The transactions with records still staged.
    pub fn staged_txns(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.staging.values().map(|(txn, _)| *txn)
    }

    /// The durable on-disk segment group commit writes into.
    pub fn durable(&self) -> &GroupCommitWal {
        &self.durable
    }

    /// Trim the sealed shipping buffer below `floor` — the minimum
    /// resume point over every consumer (replica appliers and in-flight
    /// migration catch-ups). The durable group-commit segment is never
    /// trimmed: it models the on-disk WAL, while the shipping buffer is
    /// the in-memory retention window this reclaims. Returns records
    /// dropped.
    pub fn trim_shipped(&mut self, floor: Lsn) -> usize {
        self.sealed.trim_to(floor)
    }
}

/// The records that end a transaction — its commit or abort, or a
/// heartbeat, DDL or checkpoint, each a transaction of its own: the
/// boundaries group commit counts.
fn ends_txn(payload: &RedoPayload) -> bool {
    matches!(
        payload,
        RedoPayload::Commit { .. }
            | RedoPayload::Abort
            | RedoPayload::CommitPrepared { .. }
            | RedoPayload::AbortPrepared
            | RedoPayload::Heartbeat { .. }
            | RedoPayload::Ddl { .. }
            | RedoPayload::Checkpoint { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_model::Timestamp;

    fn commit(ts: u64) -> RedoPayload {
        RedoPayload::Commit {
            commit_ts: Timestamp(ts),
        }
    }

    #[test]
    fn sealing_orders_by_virtual_time_not_append_order() {
        let mut log = ShardLog::new();
        // T1 processed first but commits late (vtime 100).
        log.append(
            SimTime::from_millis(10),
            TxnId(1),
            RedoPayload::PendingCommit,
        );
        log.append(SimTime::from_millis(100), TxnId(1), commit(100));
        // T2 processed second, commits early (vtime 30).
        log.append(
            SimTime::from_millis(20),
            TxnId(2),
            RedoPayload::PendingCommit,
        );
        log.append(SimTime::from_millis(30), TxnId(2), commit(30));

        log.seal_upto(SimTime::from_millis(50));
        let order: Vec<(TxnId, bool)> = log
            .sealed()
            .iter()
            .map(|r| (r.txn, matches!(r.payload, RedoPayload::Commit { .. })))
            .collect();
        // Shipped so far: T1.pending, T2.pending, T2.commit — T1's commit
        // (vtime 100) is still unsealed. T1's tuples stay locked on the
        // replica exactly as the paper requires.
        assert_eq!(
            order,
            vec![(TxnId(1), false), (TxnId(2), false), (TxnId(2), true)]
        );
        assert_eq!(log.staged_len(), 1);

        log.seal_upto(SimTime::from_millis(100));
        assert_eq!(log.sealed().len(), 4);
        assert_eq!(log.staged_len(), 0);
    }

    #[test]
    fn equal_time_records_keep_append_order() {
        let mut log = ShardLog::new();
        let t = SimTime::from_millis(5);
        log.append(t, TxnId(1), RedoPayload::PendingCommit);
        log.append(t, TxnId(1), commit(7));
        log.seal_upto(t);
        let kinds: Vec<bool> = log
            .sealed()
            .iter()
            .map(|r| matches!(r.payload, RedoPayload::Commit { .. }))
            .collect();
        assert_eq!(kinds, vec![false, true]);
    }

    #[test]
    fn seal_boundary_is_monotone_and_idempotent() {
        let mut log = ShardLog::new();
        log.append(SimTime::from_millis(10), TxnId(1), commit(1));
        assert_eq!(log.seal_upto(SimTime::from_millis(10)), 1);
        assert_eq!(log.seal_upto(SimTime::from_millis(10)), 0);
        // A later event appending at exactly the boundary still works (it
        // seals on the next flush).
        log.append(SimTime::from_millis(10), TxnId(2), commit(2));
        assert_eq!(log.seal_upto(SimTime::from_millis(15)), 1);
    }

    #[test]
    fn seal_group_commits_durable_segment() {
        let mut log = ShardLog::new();
        for i in 0..10u64 {
            log.append(SimTime::from_millis(i), TxnId(i), commit(i));
        }
        // Two seal windows -> two fsyncs, not ten.
        log.seal_upto(SimTime::from_millis(4));
        log.seal_upto(SimTime::from_millis(9));
        assert_eq!(log.durable().fsyncs, 2);
        assert_eq!(log.durable().synced_txns, 10);
        assert_eq!(log.durable().unsynced_bytes(), 0);
        // The durable segment holds exactly the sealed records.
        let recs = gdb_wal::record::decode_all(log.durable().segment()).unwrap();
        let sealed: Vec<_> = log.sealed().iter().cloned().collect();
        assert_eq!(recs, sealed);
        // An empty seal window does not sync.
        log.seal_upto(SimTime::from_millis(20));
        assert_eq!(log.durable().fsyncs, 2);
    }

    /// A transaction's pending-commit, writes and commit are one boundary,
    /// not three; the bytes and the syncs do not depend on the count.
    #[test]
    fn group_commit_counts_transactions_not_records() {
        use gdb_model::{Datum, Row, RowKey, TableId};
        const N: u64 = 20;
        let mut log = ShardLog::new();
        for i in 0..N {
            let at = SimTime::from_millis(i);
            log.append(at, TxnId(i), RedoPayload::PendingCommit);
            let (table, key) = (TableId(1), RowKey::single(i as i64));
            let row = Row(vec![Datum::Int(i as i64)]);
            log.append(at, TxnId(i), RedoPayload::Insert { table, key, row });
            log.append(at, TxnId(i), commit(i));
        }
        log.seal_upto(SimTime::from_millis(N / 2));
        log.seal_upto(SimTime::from_millis(N));
        assert_eq!(log.durable().synced_txns, N);
        assert_eq!(log.durable().fsyncs, 2);
        let recs = gdb_wal::record::decode_all(log.durable().segment()).unwrap();
        assert_eq!(recs.len() as u64, 3 * N);
    }

    #[test]
    fn trim_shipped_drops_below_floor_only() {
        let mut log = ShardLog::new();
        for i in 0..10u64 {
            log.append(SimTime::from_millis(i), TxnId(i), commit(i));
        }
        log.seal_upto(SimTime::from_millis(9));
        assert_eq!(log.trim_shipped(Lsn(6)), 6);
        // Total-ever count and head are unchanged; residency shrinks.
        assert_eq!(log.sealed().len(), 10);
        assert_eq!(log.sealed().resident_len(), 4);
        assert_eq!(log.sealed_head(), Lsn(10));
        // The untrimmed suffix still ships with correct LSNs.
        let batch = log.sealed().batch_from(Lsn(6), 100);
        let lsns: Vec<u64> = batch.records.iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, vec![6, 7, 8, 9]);
        // The durable segment is untouched: all 10 records remain.
        let recs = gdb_wal::record::decode_all(log.durable().segment()).unwrap();
        assert_eq!(recs.len(), 10);
        // Sealing after a trim keeps numbering from the head.
        log.append(SimTime::from_millis(20), TxnId(20), commit(20));
        log.seal_upto(SimTime::from_millis(20));
        assert_eq!(log.sealed().batch_from(Lsn(10), 5).records[0].lsn, Lsn(10));
    }

    #[test]
    fn lsns_are_contiguous_across_seals() {
        let mut log = ShardLog::new();
        for i in 0..10u64 {
            log.append(SimTime::from_millis(i), TxnId(i), commit(i));
        }
        log.seal_upto(SimTime::from_millis(4));
        log.seal_upto(SimTime::from_millis(9));
        let lsns: Vec<u64> = log.sealed().iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, (0..10).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gdb_model::Timestamp;
    use proptest::prelude::*;

    proptest! {
        /// Sealed output is always ordered by (virtual time, append order)
        /// and LSNs are dense, across arbitrary append/seal interleavings.
        #[test]
        fn sealing_preserves_vtime_order(
            appends in proptest::collection::vec((0u64..100, any::<bool>()), 1..60)
        ) {
            let mut log = ShardLog::new();
            let mut seal_floor = 0u64;
            for (i, &(dt, seal)) in appends.iter().enumerate() {
                // Appends may only target the unsealed future.
                let at = seal_floor + dt;
                log.append(
                    SimTime::from_micros(at),
                    TxnId(i as u64),
                    RedoPayload::Commit { commit_ts: Timestamp(at) },
                );
                if seal {
                    seal_floor = seal_floor.max(at);
                    log.seal_upto(SimTime::from_micros(seal_floor));
                }
            }
            log.seal_upto(SimTime::MAX);
            let recs: Vec<_> = log.sealed().iter().collect();
            // LSNs dense from 0.
            for (i, r) in recs.iter().enumerate() {
                prop_assert_eq!(r.lsn.0, i as u64);
            }
            // Commit timestamps (stamped = vtime here) non-decreasing per
            // seal group is NOT guaranteed globally (later seals can carry
            // earlier-vtime records only if appended later than the seal —
            // impossible by construction), so the full stream is sorted by
            // vtime within the monotone seal structure:
            let times: Vec<u64> = recs.iter().map(|r| match r.payload {
                RedoPayload::Commit { commit_ts } => commit_ts.0,
                _ => 0,
            }).collect();
            // Every record sealed in an earlier batch has vtime <= the
            // seal boundary of that batch <= any later append. We verify
            // the weaker, still-critical invariant directly exercised by
            // replicas: the stream never goes backwards by more than the
            // staging window (here: it must be fully sorted because all
            // appends happened at or after the last seal boundary).
            for w in times.windows(2) {
                prop_assert!(w[0] <= w[1], "stream order violated: {:?}", times);
            }
        }
    }
}

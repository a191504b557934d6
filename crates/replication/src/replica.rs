//! The replica-side applier.
//!
//! Replays the primary's redo stream in LSN order. A transaction's writes
//! are buffered (and its tuples locked) until its COMMIT / ABORT record
//! replays — the paper's `PENDING_COMMIT` safeguard (§IV-A): because
//! commit records can appear in the log out of timestamp order, a reader
//! must block on tuples of in-progress transactions rather than miss an
//! earlier-timestamped commit that has not replayed yet. 2PC prepared
//! transactions likewise block visibility until `COMMIT_PREPARED` /
//! `ABORT_PREPARED` replays.

use gdb_model::{
    Datum, FxHashMap, FxHashSet, GdbError, GdbResult, Row, RowKey, RowMap, TableId, Timestamp,
    TxnId,
};
use gdb_simnet::SimTime;
use gdb_storage::DataNodeStorage;
use gdb_wal::{Lsn, RedoPayload, RedoRecord};

/// A buffered write: (table, key, new row or tombstone).
type Write = (TableId, RowKey, Option<Row>);

#[derive(Debug, Default)]
struct PendingTxn {
    /// Buffered writes, in a vector taken from the applier's spares.
    writes: Vec<Write>,
    /// Saw the PENDING_COMMIT marker.
    has_marker: bool,
    /// 2PC: prepared, awaiting the coordinator's outcome.
    prepared: bool,
}

/// Replay state for one replica data node.
#[derive(Debug)]
pub struct ReplicaApplier {
    pub storage: DataNodeStorage,
    pending: FxHashMap<TxnId, PendingTxn>,
    /// Emptied write vectors of finished transactions, their capacity
    /// kept for the next ones to buffer into.
    spare: Vec<Vec<Write>>,
    /// Tuple locks held by pending transactions.
    locked: RowMap<TxnId>,
    /// Next LSN expected (records must arrive in order; duplicates from
    /// recovery rewinds are skipped idempotently).
    next_lsn: Lsn,
    /// Largest commit timestamp replayed — the replica's contribution to
    /// the RCP (paper Fig. 4).
    max_commit_ts: Timestamp,
    /// Transactions whose effects the storage snapshot this applier
    /// resumed from already holds, though their records lie past the
    /// resume point: replaying one only advances `max_commit_ts`.
    held: FxHashSet<TxnId>,
    pub records_applied: u64,
}

impl ReplicaApplier {
    pub fn new(storage: DataNodeStorage) -> Self {
        ReplicaApplier {
            storage,
            pending: FxHashMap::default(),
            spare: Vec::new(),
            locked: RowMap::new(),
            next_lsn: Lsn(0),
            max_commit_ts: Timestamp::ZERO,
            held: FxHashSet::default(),
            records_applied: 0,
        }
    }

    /// An applier resuming mid-stream: `storage` is a snapshot already
    /// containing everything below `from` (a recovered node re-seeded from
    /// the current primary), so replay continues from that LSN. The
    /// snapshot also holds the writes of the `held` transactions, whose
    /// records come at or after `from`.
    pub fn resumed(
        storage: DataNodeStorage,
        from: Lsn,
        max_commit_ts: Timestamp,
        held: FxHashSet<TxnId>,
    ) -> Self {
        ReplicaApplier {
            storage,
            pending: FxHashMap::default(),
            spare: Vec::new(),
            locked: RowMap::new(),
            next_lsn: from,
            max_commit_ts,
            held,
            records_applied: 0,
        }
    }

    /// Largest commit timestamp replayed so far.
    pub fn max_commit_ts(&self) -> Timestamp {
        self.max_commit_ts
    }

    /// The LSN up to which the stream has been applied (exclusive).
    pub fn applied_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Number of transactions currently in progress (pending or prepared).
    pub fn pending_txns(&self) -> usize {
        self.pending.len()
    }

    /// Where a restarted replica resumes the redo stream after a crash.
    ///
    /// Everything below this LSN was replayed from the replica's durable
    /// WAL before the crash (applied rows, pending-transaction buffers and
    /// their tuple locks are all reconstructed from it on restart), while
    /// batches that were in flight on the network died with the connection
    /// and must be re-shipped. The shipping channel should be rewound here;
    /// re-delivered duplicates below the LSN are skipped idempotently.
    pub fn resume_from(&self) -> Lsn {
        self.next_lsn
    }

    /// Apply one record at virtual time `vtime`. The record is consumed:
    /// a write's key and row move into the pending buffer and, at commit,
    /// on into storage, so the copy the shipping channel drained for this
    /// replica is the only one made.
    pub fn apply(&mut self, rec: RedoRecord, vtime: SimTime) -> GdbResult<()> {
        if rec.lsn < self.next_lsn {
            return Ok(()); // duplicate from a recovery rewind — idempotent
        }
        if rec.lsn != self.next_lsn {
            return Err(GdbError::Internal(format!(
                "replay gap: expected {}, got {}",
                self.next_lsn, rec.lsn
            )));
        }
        self.next_lsn = rec.lsn.next();
        self.records_applied += 1;

        if self.held.contains(&rec.txn) {
            self.replay_held(rec.txn, rec.payload);
            return Ok(());
        }
        match rec.payload {
            RedoPayload::PendingCommit => {
                self.pending_txn(rec.txn).has_marker = true;
            }
            RedoPayload::Insert { table, key, row } => {
                self.buffer_write(rec.txn, table, key, Some(row));
            }
            RedoPayload::Update {
                table,
                key,
                new_row,
            } => {
                self.buffer_write(rec.txn, table, key, Some(new_row));
            }
            RedoPayload::Delete { table, key } => {
                self.buffer_write(rec.txn, table, key, None);
            }
            RedoPayload::Prepare => {
                self.pending_txn(rec.txn).prepared = true;
            }
            RedoPayload::Commit { commit_ts } | RedoPayload::CommitPrepared { commit_ts } => {
                self.finish(rec.txn, Some(commit_ts), vtime)?;
            }
            RedoPayload::Abort | RedoPayload::AbortPrepared => {
                self.finish(rec.txn, None, vtime)?;
            }
            RedoPayload::Ddl { commit_ts, ddl } => {
                self.storage.apply_ddl(&ddl)?;
                self.advance_ts(commit_ts);
            }
            RedoPayload::Heartbeat { commit_ts } => {
                self.advance_ts(commit_ts);
            }
            RedoPayload::Checkpoint { .. } => {}
        }
        Ok(())
    }

    /// Apply a whole batch in order, consuming it (what every shipping
    /// path holds: the batch drained for this replica).
    pub fn apply_batch_owned(&mut self, records: Vec<RedoRecord>, vtime: SimTime) -> GdbResult<()> {
        for rec in records {
            self.apply(rec, vtime)?;
        }
        Ok(())
    }

    /// [`Self::apply_batch_owned`] for a caller that keeps its records:
    /// clones each one and delegates.
    pub fn apply_batch(&mut self, records: &[RedoRecord], vtime: SimTime) -> GdbResult<()> {
        for rec in records {
            self.apply(rec.clone(), vtime)?;
        }
        Ok(())
    }

    /// Replay a record of a `held` transaction: the snapshot holds its
    /// writes, so only its timestamp counts; its end releases it.
    fn replay_held(&mut self, txn: TxnId, payload: RedoPayload) {
        match payload {
            RedoPayload::Commit { commit_ts }
            | RedoPayload::CommitPrepared { commit_ts }
            | RedoPayload::Ddl { commit_ts, .. }
            | RedoPayload::Heartbeat { commit_ts } => {
                self.advance_ts(commit_ts);
                self.held.remove(&txn);
            }
            RedoPayload::Abort | RedoPayload::AbortPrepared => _ = self.held.remove(&txn),
            _ => {}
        }
    }

    /// The in-progress state of `txn`, begun with a spare write vector
    /// if it is new.
    fn pending_txn(&mut self, txn: TxnId) -> &mut PendingTxn {
        let spare = &mut self.spare;
        self.pending.entry(txn).or_insert_with(|| PendingTxn {
            writes: spare.pop().unwrap_or_default(),
            ..PendingTxn::default()
        })
    }

    fn buffer_write(&mut self, txn: TxnId, table: TableId, key: RowKey, row: Option<Row>) {
        self.locked.insert(table, &key, txn);
        self.pending_txn(txn).writes.push((table, key, row));
    }

    fn finish(
        &mut self,
        txn: TxnId,
        commit_ts: Option<Timestamp>,
        vtime: SimTime,
    ) -> GdbResult<()> {
        let mut writes = self.pending.remove(&txn).unwrap_or_default().writes;
        let applied = self.apply_writes(txn, &mut writes, commit_ts, vtime);
        if writes.capacity() > 0 {
            self.spare.push(writes);
        }
        applied?;
        if let Some(ts) = commit_ts {
            self.advance_ts(ts);
        }
        Ok(())
    }

    /// Release `txn`'s tuple locks on `writes`, moving each write into
    /// storage if it committed at `commit_ts`.
    fn apply_writes(
        &mut self,
        txn: TxnId,
        writes: &mut Vec<Write>,
        commit_ts: Option<Timestamp>,
        vtime: SimTime,
    ) -> GdbResult<()> {
        for (table, key, row) in writes.drain(..) {
            if self.locked.get(table, &key) == Some(&txn) {
                self.locked.remove(table, &key);
            }
            if let Some(ts) = commit_ts {
                match row {
                    Some(r) => self.storage.apply_put(table, &key, r, ts, vtime)?,
                    None => self.storage.apply_delete(table, &key, ts, vtime)?,
                }
            }
        }
        Ok(())
    }

    fn advance_ts(&mut self, ts: Timestamp) {
        self.max_commit_ts = self.max_commit_ts.max(ts);
    }

    /// True if any in-progress transaction holds a lock on this table
    /// within `[lo, hi]` — range scans block conservatively. The bounds
    /// are read as the range read reads them ([`RowKey::in_range`]), so a
    /// pending write the read would return always blocks it.
    pub fn is_range_blocked(
        &self,
        table: TableId,
        lo: Option<&[Datum]>,
        hi: Option<&[Datum]>,
    ) -> bool {
        self.locked.in_table(table).any(|(k, _)| k.in_range(lo, hi))
    }

    /// True if an in-progress transaction holds this exact tuple.
    pub fn is_key_locked(&self, table: TableId, key: &[Datum]) -> bool {
        self.locked.contains_key(table, key)
    }

    /// Consume the applier and take its storage — failover promotion: the
    /// replica becomes a primary. In-progress (pending/prepared)
    /// transactions are discarded: their coordinators died with the old
    /// primary and their writes never committed.
    pub fn into_storage(self) -> DataNodeStorage {
        self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_model::{ColumnDef, DataType, Datum, Ddl, SchemaBuilder, TableSchema};
    use gdb_wal::RedoBuffer;

    fn schema() -> TableSchema {
        SchemaBuilder::new("t")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("v", DataType::Text))
            .primary_key(&["id"])
            .build(TableId(0))
            .unwrap()
    }

    fn applier() -> ReplicaApplier {
        let mut st = DataNodeStorage::new();
        st.create_table(schema()).unwrap();
        ReplicaApplier::new(st)
    }

    fn row(id: i64, v: &str) -> Row {
        Row(vec![Datum::Int(id), Datum::Text(v.into())])
    }

    fn k(id: i64) -> RowKey {
        RowKey::single(id)
    }

    /// The row and commit timestamp visible at `snapshot` in the
    /// replica's storage: what a reader gets once `is_key_locked` has
    /// let it through.
    fn visible(
        a: &mut ReplicaApplier,
        key: &RowKey,
        snapshot: Timestamp,
    ) -> Option<(Row, Timestamp)> {
        let vis = a.storage.read(TableId(0), key, snapshot).unwrap();
        vis.map(|v| (v.row.clone(), v.commit_ts))
    }

    /// Writes are invisible until the commit record replays.
    #[test]
    fn writes_buffer_until_commit() {
        let mut a = applier();
        let mut buf = RedoBuffer::new();
        let txn = TxnId(1);
        buf.append(txn, RedoPayload::PendingCommit);
        buf.append(
            txn,
            RedoPayload::Insert {
                table: TableId(0),
                key: k(1),
                row: row(1, "x"),
            },
        );
        let batch = buf.batch_from(Lsn(0), 10);
        a.apply_batch(&batch.records, SimTime::ZERO).unwrap();

        // Blocked: the tuple is locked by the in-progress transaction.
        assert!(a.is_key_locked(TableId(0), &k(1)));
        assert_eq!(a.max_commit_ts(), Timestamp::ZERO);

        buf.append(
            txn,
            RedoPayload::Commit {
                commit_ts: Timestamp(50),
            },
        );
        let batch2 = buf.batch_from(a.applied_lsn(), 10);
        a.apply_batch(&batch2.records, SimTime::from_millis(5))
            .unwrap();
        assert_eq!(a.max_commit_ts(), Timestamp(50));
        assert!(!a.is_key_locked(TableId(0), &k(1)));
        assert_eq!(
            visible(&mut a, &k(1), Timestamp(50)),
            Some((row(1, "x"), Timestamp(50)))
        );
        // Below the commit ts the row is invisible but not blocked.
        assert_eq!(visible(&mut a, &k(1), Timestamp(49)), None);
    }

    /// A follower resumed from a snapshot that already holds txn 1's
    /// version replays txn 1's records for its timestamp only: no lock,
    /// no second install. Txn 2, not held, replays as usual.
    #[test]
    fn held_transactions_replay_only_their_timestamps() {
        let mut primary = applier();
        primary
            .storage
            .apply_put(TableId(0), &k(1), row(1, "x"), Timestamp(50), SimTime::ZERO)
            .unwrap();
        let held = [TxnId(1)].into_iter().collect();
        let mut a = ReplicaApplier::resumed(primary.storage, Lsn(0), Timestamp::ZERO, held);
        let mut buf = RedoBuffer::new();
        for txn in [TxnId(1), TxnId(2)] {
            buf.append(txn, RedoPayload::PendingCommit);
            let (key, row) = (k(txn.0 as i64), row(txn.0 as i64, "x"));
            let table = TableId(0);
            buf.append(txn, RedoPayload::Insert { table, key, row });
        }
        let batch = buf.batch_from(Lsn(0), 10);
        a.apply_batch(&batch.records, SimTime::ZERO).unwrap();
        assert!(!a.is_key_locked(TableId(0), &k(1)));
        assert!(a.is_key_locked(TableId(0), &k(2)));

        for (txn, ts) in [(TxnId(2), 40), (TxnId(1), 50)] {
            buf.append(
                txn,
                RedoPayload::Commit {
                    commit_ts: Timestamp(ts),
                },
            );
        }
        let batch = buf.batch_from(a.applied_lsn(), 10);
        a.apply_batch(&batch.records, SimTime::ZERO).unwrap();
        assert_eq!(a.max_commit_ts(), Timestamp(50));
        for (key, ts) in [(k(1), 50), (k(2), 40)] {
            assert!(!a.is_key_locked(TableId(0), &key));
            let read = visible(&mut a, &key, Timestamp(60));
            assert_eq!(read.map(|(_, t)| t), Some(Timestamp(ts)));
        }
        assert_eq!(a.storage.total_keys(), 2);
    }

    #[test]
    fn aborted_writes_vanish_and_unlock() {
        let mut a = applier();
        let mut buf = RedoBuffer::new();
        buf.append(
            TxnId(1),
            RedoPayload::Insert {
                table: TableId(0),
                key: k(1),
                row: row(1, "junk"),
            },
        );
        buf.append(TxnId(1), RedoPayload::Abort);
        a.apply_batch(&buf.batch_from(Lsn(0), 10).records, SimTime::ZERO)
            .unwrap();
        assert!(
            !a.is_range_blocked(TableId(0), None, None),
            "no key stays locked"
        );
        assert_eq!(visible(&mut a, &k(1), Timestamp(100)), None);
        assert_eq!(a.pending_txns(), 0);
    }

    /// 2PC: prepared transactions keep tuples locked until the outcome.
    #[test]
    fn prepared_txn_blocks_until_outcome() {
        let mut a = applier();
        let mut buf = RedoBuffer::new();
        let txn = TxnId(7);
        buf.append(
            txn,
            RedoPayload::Insert {
                table: TableId(0),
                key: k(2),
                row: row(2, "2pc"),
            },
        );
        buf.append(txn, RedoPayload::Prepare);
        a.apply_batch(&buf.batch_from(Lsn(0), 10).records, SimTime::ZERO)
            .unwrap();
        assert!(a.is_key_locked(TableId(0), &k(2)));
        buf.append(
            txn,
            RedoPayload::CommitPrepared {
                commit_ts: Timestamp(30),
            },
        );
        a.apply_batch(&buf.batch_from(a.applied_lsn(), 10).records, SimTime::ZERO)
            .unwrap();
        assert!(!a.is_key_locked(TableId(0), &k(2)));
        assert!(visible(&mut a, &k(2), Timestamp(30)).is_some());
        assert_eq!(a.max_commit_ts(), Timestamp(30));
    }

    /// The paper's out-of-order commit scenario: COMMIT(T2, ts=10) appears
    /// in the log before COMMIT(T1, ts=9). A reader at snapshot 10 must
    /// not miss T1 — it blocks on T1's locked tuple until T1 replays.
    #[test]
    fn out_of_order_commits_block_readers() {
        let mut a = applier();
        let mut buf = RedoBuffer::new();
        let (t1, t2) = (TxnId(1), TxnId(2));
        buf.append(t1, RedoPayload::PendingCommit);
        buf.append(t2, RedoPayload::PendingCommit);
        buf.append(
            t1,
            RedoPayload::Insert {
                table: TableId(0),
                key: k(1),
                row: row(1, "t1"),
            },
        );
        buf.append(
            t2,
            RedoPayload::Insert {
                table: TableId(0),
                key: k(2),
                row: row(2, "t2"),
            },
        );
        // T2's commit (ts 10) hits the log before T1's (ts 9).
        buf.append(
            t2,
            RedoPayload::Commit {
                commit_ts: Timestamp(10),
            },
        );
        a.apply_batch(&buf.batch_from(Lsn(0), 10).records, SimTime::ZERO)
            .unwrap();
        assert_eq!(a.max_commit_ts(), Timestamp(10));
        // Reading T1's key at snapshot 10: blocked, NOT silently missing.
        assert!(a.is_key_locked(TableId(0), &k(1)));
        // T1's commit arrives; now visible with ts 9 <= 10.
        buf.append(
            t1,
            RedoPayload::Commit {
                commit_ts: Timestamp(9),
            },
        );
        a.apply_batch(&buf.batch_from(a.applied_lsn(), 10).records, SimTime::ZERO)
            .unwrap();
        assert!(!a.is_key_locked(TableId(0), &k(1)));
        let read = visible(&mut a, &k(1), Timestamp(10));
        assert_eq!(read.map(|(_, t)| t), Some(Timestamp(9)));
    }

    #[test]
    fn heartbeats_advance_max_commit_ts() {
        let mut a = applier();
        let mut buf = RedoBuffer::new();
        buf.append(
            TxnId(0),
            RedoPayload::Heartbeat {
                commit_ts: Timestamp(123),
            },
        );
        a.apply_batch(&buf.batch_from(Lsn(0), 10).records, SimTime::ZERO)
            .unwrap();
        assert_eq!(a.max_commit_ts(), Timestamp(123));
    }

    #[test]
    fn ddl_replay_creates_and_drops_tables() {
        let mut a = applier();
        let new_schema = SchemaBuilder::new("t2")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .primary_key(&["id"])
            .build(TableId(5))
            .unwrap();
        let mut buf = RedoBuffer::new();
        buf.append(
            TxnId(0),
            RedoPayload::Ddl {
                commit_ts: Timestamp(40),
                ddl: Ddl::CreateTable(new_schema),
            },
        );
        a.apply_batch(&buf.batch_from(Lsn(0), 10).records, SimTime::ZERO)
            .unwrap();
        assert!(a.storage.catalog().table_by_name("t2").is_ok());
        assert_eq!(a.max_commit_ts(), Timestamp(40));
        buf.append(
            TxnId(0),
            RedoPayload::Ddl {
                commit_ts: Timestamp(41),
                ddl: Ddl::DropTable(TableId(5)),
            },
        );
        a.apply_batch(&buf.batch_from(a.applied_lsn(), 10).records, SimTime::ZERO)
            .unwrap();
        assert!(a.storage.catalog().table_by_name("t2").is_err());
    }

    #[test]
    fn gaps_rejected_duplicates_skipped() {
        let mut a = applier();
        let mut buf = RedoBuffer::new();
        buf.append(TxnId(1), RedoPayload::Abort);
        buf.append(TxnId(2), RedoPayload::Abort);
        let b = buf.batch_from(Lsn(0), 10);
        a.apply_batch(&b.records, SimTime::ZERO).unwrap();
        // Re-applying the same batch is a no-op.
        a.apply_batch(&b.records, SimTime::ZERO).unwrap();
        assert_eq!(a.records_applied, 2);
        // A gap is an internal error.
        let gap = RedoRecord {
            lsn: Lsn(5),
            txn: TxnId(3),
            payload: RedoPayload::Abort,
        };
        assert!(a.apply(gap, SimTime::ZERO).is_err());
    }

    #[test]
    fn range_block_detection() {
        let mut a = applier();
        let mut buf = RedoBuffer::new();
        buf.append(
            TxnId(1),
            RedoPayload::Insert {
                table: TableId(0),
                key: k(5),
                row: row(5, "pending"),
            },
        );
        a.apply_batch(&buf.batch_from(Lsn(0), 10).records, SimTime::ZERO)
            .unwrap();
        assert!(a.is_range_blocked(TableId(0), Some(&k(1)), Some(&k(9))));
        assert!(!a.is_range_blocked(TableId(0), Some(&k(6)), Some(&k(9))));
        assert!(!a.is_range_blocked(TableId(1), None, None));
        assert!(a.is_range_blocked(TableId(0), None, None));
        // An upper bound covers every key it is a prefix of, as the range
        // read it guards does.
        let no_columns = RowKey::new(Vec::new());
        assert!(a.is_range_blocked(TableId(0), Some(&k(5)), Some(&no_columns)));
    }
}

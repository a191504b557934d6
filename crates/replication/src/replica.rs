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

use gdb_model::{FxHashMap, GdbError, GdbResult, Row, RowKey, RowMap, TableId, Timestamp, TxnId};
use gdb_simnet::SimTime;
use gdb_storage::DataNodeStorage;
use gdb_wal::{DdlKind, Lsn, RedoPayload, RedoRecord};
use std::collections::HashSet;

/// Result of a replica point read.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicaReadResult {
    /// The visible row (or none) at the snapshot.
    Row(Option<(Row, Timestamp)>),
    /// The tuple is locked by an in-progress (pending/prepared)
    /// transaction; the reader must wait for more replay.
    Blocked { by: TxnId },
}

#[derive(Debug, Default)]
struct PendingTxn {
    /// Buffered writes: (table, key, new row or tombstone).
    writes: Vec<(TableId, RowKey, Option<Row>)>,
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
    /// Tuple locks held by pending transactions.
    locked: RowMap<TxnId>,
    /// Next LSN expected (records must arrive in order; duplicates from
    /// recovery rewinds are skipped idempotently).
    next_lsn: Lsn,
    /// Largest commit timestamp replayed — the replica's contribution to
    /// the RCP (paper Fig. 4).
    max_commit_ts: Timestamp,
    pub records_applied: u64,
}

impl ReplicaApplier {
    pub fn new(storage: DataNodeStorage) -> Self {
        ReplicaApplier {
            storage,
            pending: FxHashMap::default(),
            locked: RowMap::new(),
            next_lsn: Lsn(0),
            max_commit_ts: Timestamp::ZERO,
            records_applied: 0,
        }
    }

    /// An applier resuming mid-stream: `storage` is a snapshot already
    /// containing everything below `from` (a recovered node re-seeded from
    /// the current primary), so replay continues from that LSN.
    pub fn resumed(storage: DataNodeStorage, from: Lsn, max_commit_ts: Timestamp) -> Self {
        ReplicaApplier {
            storage,
            pending: FxHashMap::default(),
            locked: RowMap::new(),
            next_lsn: from,
            max_commit_ts,
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

        match rec.payload {
            RedoPayload::PendingCommit => {
                self.pending.entry(rec.txn).or_default().has_marker = true;
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
                self.pending.entry(rec.txn).or_default().prepared = true;
            }
            RedoPayload::Commit { commit_ts } | RedoPayload::CommitPrepared { commit_ts } => {
                self.finish(rec.txn, Some(commit_ts), vtime)?;
            }
            RedoPayload::Abort | RedoPayload::AbortPrepared => {
                self.finish(rec.txn, None, vtime)?;
            }
            RedoPayload::Ddl { commit_ts, kind } => {
                self.apply_ddl(kind)?;
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

    fn buffer_write(&mut self, txn: TxnId, table: TableId, key: RowKey, row: Option<Row>) {
        self.locked.insert(table, &key, txn);
        self.pending
            .entry(txn)
            .or_default()
            .writes
            .push((table, key, row));
    }

    fn finish(
        &mut self,
        txn: TxnId,
        commit_ts: Option<Timestamp>,
        vtime: SimTime,
    ) -> GdbResult<()> {
        let state = self.pending.remove(&txn).unwrap_or_default();
        for (table, key, row) in state.writes {
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
        if let Some(ts) = commit_ts {
            self.advance_ts(ts);
        }
        Ok(())
    }

    fn advance_ts(&mut self, ts: Timestamp) {
        self.max_commit_ts = self.max_commit_ts.max(ts);
    }

    fn apply_ddl(&mut self, kind: DdlKind) -> GdbResult<()> {
        match kind {
            DdlKind::CreateTable(schema) => self.storage.create_table(schema),
            DdlKind::DropTable(id) => self.storage.drop_table(id),
            DdlKind::CreateIndex {
                table,
                index_name,
                columns,
            } => self
                .storage
                .create_index(table, index_name, columns)
                .map(|_| ()),
            DdlKind::DropIndex { index_name, .. } => self.storage.drop_index(&index_name),
        }
    }

    /// Point read honouring PENDING_COMMIT locks.
    pub fn read(
        &mut self,
        table: TableId,
        key: &RowKey,
        snapshot: Timestamp,
    ) -> GdbResult<ReplicaReadResult> {
        if let Some(&by) = self.locked.get(table, key) {
            return Ok(ReplicaReadResult::Blocked { by });
        }
        let vis = self.storage.read(table, key, snapshot)?;
        Ok(ReplicaReadResult::Row(
            vis.map(|v| (v.row.clone(), v.commit_ts)),
        ))
    }

    /// True if any in-progress transaction holds a lock on this table
    /// within `[lo, hi]` — range scans block conservatively.
    pub fn is_range_blocked(
        &self,
        table: TableId,
        lo: Option<&RowKey>,
        hi: Option<&RowKey>,
    ) -> bool {
        self.locked
            .in_table(table)
            .any(|(k, _)| lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k <= h))
    }

    /// Keys currently locked (testing / diagnostics).
    pub fn locked_keys(&self) -> HashSet<(TableId, RowKey)> {
        self.locked.iter().map(|(t, k, _)| (t, k.clone())).collect()
    }

    /// True if an in-progress transaction holds this exact tuple.
    pub fn is_key_locked(&self, table: TableId, key: &RowKey) -> bool {
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
    use gdb_model::{ColumnDef, DataType, Datum, SchemaBuilder, TableSchema};
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
        assert_eq!(
            a.read(TableId(0), &k(1), Timestamp(100)).unwrap(),
            ReplicaReadResult::Blocked { by: txn }
        );
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
        match a.read(TableId(0), &k(1), Timestamp(50)).unwrap() {
            ReplicaReadResult::Row(Some((r, ts))) => {
                assert_eq!(r, row(1, "x"));
                assert_eq!(ts, Timestamp(50));
            }
            other => panic!("{other:?}"),
        }
        // Below the commit ts the row is invisible but not blocked.
        assert_eq!(
            a.read(TableId(0), &k(1), Timestamp(49)).unwrap(),
            ReplicaReadResult::Row(None)
        );
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
        assert_eq!(
            a.read(TableId(0), &k(1), Timestamp(100)).unwrap(),
            ReplicaReadResult::Row(None)
        );
        assert!(a.locked_keys().is_empty());
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
        assert!(matches!(
            a.read(TableId(0), &k(2), Timestamp(100)).unwrap(),
            ReplicaReadResult::Blocked { .. }
        ));
        buf.append(
            txn,
            RedoPayload::CommitPrepared {
                commit_ts: Timestamp(30),
            },
        );
        a.apply_batch(&buf.batch_from(a.applied_lsn(), 10).records, SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            a.read(TableId(0), &k(2), Timestamp(30)).unwrap(),
            ReplicaReadResult::Row(Some(_))
        ));
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
        assert!(matches!(
            a.read(TableId(0), &k(1), Timestamp(10)).unwrap(),
            ReplicaReadResult::Blocked { .. }
        ));
        // T1's commit arrives; now visible with ts 9 <= 10.
        buf.append(
            t1,
            RedoPayload::Commit {
                commit_ts: Timestamp(9),
            },
        );
        a.apply_batch(&buf.batch_from(a.applied_lsn(), 10).records, SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            a.read(TableId(0), &k(1), Timestamp(10)).unwrap(),
            ReplicaReadResult::Row(Some(_))
        ));
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
                kind: DdlKind::CreateTable(new_schema),
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
                kind: DdlKind::DropTable(TableId(5)),
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
    }
}

//! The per-primary redo append buffer, shipping batches, and the
//! group-commit segment writer.
//!
//! A primary appends [`RedoRecord`]s to its [`RedoBuffer`]; the replication
//! sender drains pending records into [`LogBatch`]es (the unit shipped over
//! the network). The buffer retains all records so a newly attached or
//! recovering replica can be caught up from any LSN. Durability is modelled
//! by [`GroupCommitWal`]: framed records accumulate in a segment, and a
//! *sync* (the fsync-equivalent) extends the open tail page's checksum
//! over everything not yet durable — work proportional to the new bytes,
//! so a one-record seal costs one record.

use crate::crc::crc32_extend;
use crate::record::{
    encode_record_into, encode_record_parts, EncodeScratch, Lsn, RedoPayload, RedoRecord,
};
use gdb_model::TxnId;

/// A contiguous run of redo records drained for shipping.
#[derive(Debug, Clone, PartialEq)]
pub struct LogBatch {
    /// LSN of the first record in the batch.
    pub first_lsn: Lsn,
    /// The records, in LSN order.
    pub records: Vec<RedoRecord>,
}

impl LogBatch {
    /// Encode the whole batch to wire bytes (framed records, CRC each).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.records.len() * 48);
        let mut scratch = EncodeScratch::default();
        self.encode_into(&mut scratch, &mut out);
        out
    }

    /// [`LogBatch::encode`] into caller-owned buffers: `out` receives the
    /// framed records (appended), `scratch` stages record bodies. With
    /// reused buffers the encode is allocation-free at steady state.
    pub fn encode_into(&self, scratch: &mut EncodeScratch, out: &mut Vec<u8>) {
        for r in &self.records {
            encode_record_into(scratch, out, r);
        }
    }

    pub fn last_lsn(&self) -> Lsn {
        self.records.last().map(|r| r.lsn).unwrap_or(self.first_lsn)
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Append buffer for one primary data node's redo stream.
///
/// Records below `base` have been trimmed ([`RedoBuffer::trim_to`]): every
/// durable consumer (replica appliers, in-flight migration catch-ups) had
/// already advanced past them, so they can never be re-requested. LSNs are
/// stable — trimming shifts storage, never numbering.
#[derive(Debug, Default)]
pub struct RedoBuffer {
    records: Vec<RedoRecord>,
    next_lsn: u64,
    /// LSN of `records[0]`; everything below was trimmed.
    base: u64,
}

impl RedoBuffer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a payload, assigning the next LSN. Returns the record's LSN.
    pub fn append(&mut self, txn: TxnId, payload: RedoPayload) -> Lsn {
        let lsn = Lsn(self.next_lsn);
        self.next_lsn += 1;
        self.records.push(RedoRecord { lsn, txn, payload });
        lsn
    }

    /// Total records ever appended (trimmed records still count).
    pub fn len(&self) -> usize {
        self.base as usize + self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.base == 0 && self.records.is_empty()
    }

    /// The LSN the next append will receive.
    pub fn head_lsn(&self) -> Lsn {
        Lsn(self.next_lsn)
    }

    /// Lowest LSN still resident (everything below was trimmed).
    pub fn base_lsn(&self) -> Lsn {
        Lsn(self.base)
    }

    /// Records still resident (not trimmed).
    pub fn resident_len(&self) -> usize {
        self.records.len()
    }

    /// Records in `[from, from + max)` as a shipping batch; empty batch if
    /// `from` is at the head. Requesting below the trim floor is a caller
    /// bug (the floor is the min over all consumer cursors).
    pub fn batch_from(&self, from: Lsn, max: usize) -> LogBatch {
        debug_assert!(
            from.0 >= self.base,
            "batch_from({from:?}) below trim floor {}",
            self.base
        );
        let records = match from.0.checked_sub(self.base) {
            Some(off) if (off as usize) < self.records.len() => {
                let start = off as usize;
                let end = (start + max).min(self.records.len());
                self.records[start..end].to_vec()
            }
            _ => Vec::new(),
        };
        LogBatch {
            first_lsn: from,
            records,
        }
    }

    /// Read a single record (testing / recovery). `None` if unappended
    /// *or* already trimmed.
    pub fn get(&self, lsn: Lsn) -> Option<&RedoRecord> {
        let off = lsn.0.checked_sub(self.base)?;
        self.records.get(off as usize)
    }

    /// Iterate over all resident records (in LSN order).
    pub fn iter(&self) -> impl Iterator<Item = &RedoRecord> {
        self.records.iter()
    }

    /// Drop every record below `floor` (exclusive), reclaiming memory.
    /// The caller must guarantee no consumer will ever request an LSN
    /// below `floor` again — in the cluster this is the min resume point
    /// over all replica appliers and in-flight migrations. Returns the
    /// number of records dropped.
    pub fn trim_to(&mut self, floor: Lsn) -> usize {
        let cut = floor
            .0
            .saturating_sub(self.base)
            .min(self.records.len() as u64) as usize;
        if cut == 0 {
            return 0;
        }
        self.records.drain(..cut);
        self.base += cut as u64;
        cut
    }
}

/// Durable-page granularity of the modelled WAL device: a sync rewrites
/// the partial tail page it lands in (torn-page protection), so small
/// per-transaction syncs pay up to this much write amplification.
pub const SYNC_PAGE: usize = 4096;

/// Group-commit segment writer: the WAL flush path's durability model.
///
/// Records are framed (`encode_record` layout, one CRC per record) into
/// an in-memory segment standing in for the WAL file. [`Self::commit`]
/// marks a transaction boundary; once `window` transactions are pending
/// — or [`Self::sync`] is called explicitly — the fsync-equivalent runs:
/// the tail checksum is brought up to the segment head and the durable
/// watermark advances to it.
///
/// The tail checksum covers the segment from the start of the 4 KiB page
/// the previous watermark sat in (the torn-page unit recovery would
/// verify) to the head. Its running state is carried across syncs, so a
/// sync walks only the bytes appended since the last one; it restarts
/// from the page floor once per page the watermark crosses. The durable
/// bytes are exactly the concatenation of the single-record frames —
/// batching changes *when* the sync happens, never the bytes — which is
/// what the framing property tests pin down.
#[derive(Debug)]
pub struct GroupCommitWal {
    segment: Vec<u8>,
    synced_len: usize,
    scratch: EncodeScratch,
    window: usize,
    pending_txns: usize,
    /// `crc32(segment[tail_floor..synced_len])`.
    tail_crc: u32,
    tail_floor: usize,
    /// Fsync-equivalents performed.
    pub fsyncs: u64,
    /// Transaction boundaries made durable.
    pub synced_txns: u64,
    /// Bytes the syncs have walked for the tail checksum (work counter).
    pub checksummed_bytes: u64,
}

impl GroupCommitWal {
    /// A writer that syncs once per `window` transaction boundaries
    /// (`usize::MAX` = only explicit [`Self::sync`] calls).
    pub fn with_window(window: usize) -> Self {
        GroupCommitWal {
            segment: Vec::new(),
            synced_len: 0,
            scratch: EncodeScratch::default(),
            window: window.max(1),
            pending_txns: 0,
            tail_crc: 0,
            tail_floor: 0,
            fsyncs: 0,
            synced_txns: 0,
            checksummed_bytes: 0,
        }
    }

    /// Frame `rec` into the segment (not yet durable).
    pub fn append(&mut self, rec: &RedoRecord) {
        encode_record_into(&mut self.scratch, &mut self.segment, rec);
    }

    /// Frame a record from its parts (no [`RedoRecord`] built).
    pub fn append_parts(&mut self, lsn: Lsn, txn: TxnId, payload: &RedoPayload) {
        encode_record_parts(&mut self.scratch, &mut self.segment, lsn, txn, payload);
    }

    /// Mark a transaction boundary; syncs when the window fills.
    /// Returns true if this boundary triggered a sync.
    pub fn commit(&mut self) -> bool {
        self.pending_txns += 1;
        if self.pending_txns >= self.window {
            self.sync();
            true
        } else {
            false
        }
    }

    /// The fsync-equivalent: checksum from the last durable page
    /// boundary through the segment head and advance the watermark.
    pub fn sync(&mut self) {
        if self.pending_txns == 0 && self.synced_len == self.segment.len() {
            return;
        }
        self.fsyncs += 1;
        self.synced_txns += self.pending_txns as u64;
        self.pending_txns = 0;
        let page_floor = self.synced_len - (self.synced_len % SYNC_PAGE);
        // Still in the page the running checksum started in: extend it
        // over the new bytes. The watermark moved to a later page since:
        // start over from that page's floor.
        let (from, crc) = if page_floor == self.tail_floor {
            (self.synced_len, self.tail_crc)
        } else {
            (page_floor, 0)
        };
        self.tail_crc = crc32_extend(crc, &self.segment[from..]);
        self.tail_floor = page_floor;
        self.checksummed_bytes += (self.segment.len() - from) as u64;
        self.synced_len = self.segment.len();
    }

    /// All framed bytes, durable or not.
    pub fn segment(&self) -> &[u8] {
        &self.segment
    }

    /// The durable prefix of the segment.
    pub fn durable(&self) -> &[u8] {
        &self.segment[..self.synced_len]
    }

    /// Bytes appended but not yet covered by a sync.
    pub fn unsynced_bytes(&self) -> usize {
        self.segment.len() - self.synced_len
    }

    /// Checksum written by the last sync (recovery would use it to
    /// detect a torn tail page).
    pub fn tail_crc(&self) -> u32 {
        self.tail_crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{decode_all, encode_record};
    use gdb_model::Timestamp;

    fn commit(ts: u64) -> RedoPayload {
        RedoPayload::Commit {
            commit_ts: Timestamp(ts),
        }
    }

    #[test]
    fn appends_assign_sequential_lsns() {
        let mut buf = RedoBuffer::new();
        assert_eq!(buf.append(TxnId(1), RedoPayload::PendingCommit), Lsn(0));
        assert_eq!(buf.append(TxnId(1), commit(10)), Lsn(1));
        assert_eq!(buf.append(TxnId(2), commit(11)), Lsn(2));
        assert_eq!(buf.head_lsn(), Lsn(3));
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn batches_are_contiguous_and_bounded() {
        let mut buf = RedoBuffer::new();
        for i in 0..10 {
            buf.append(TxnId(i), commit(i));
        }
        let b1 = buf.batch_from(Lsn(0), 4);
        assert_eq!(b1.first_lsn, Lsn(0));
        assert_eq!(b1.len(), 4);
        assert_eq!(b1.last_lsn(), Lsn(3));
        let b2 = buf.batch_from(Lsn(4), 100);
        assert_eq!(b2.len(), 6);
        assert_eq!(b2.last_lsn(), Lsn(9));
        let empty = buf.batch_from(Lsn(10), 5);
        assert!(empty.is_empty());
        assert_eq!(empty.last_lsn(), Lsn(10));
    }

    #[test]
    fn batch_encode_decode_roundtrip() {
        let mut buf = RedoBuffer::new();
        for i in 0..5 {
            buf.append(TxnId(i), commit(100 + i));
        }
        let batch = buf.batch_from(Lsn(0), 5);
        let wire = batch.encode();
        let decoded = decode_all(&wire).unwrap();
        assert_eq!(decoded, batch.records);
    }

    #[test]
    fn get_by_lsn() {
        let mut buf = RedoBuffer::new();
        buf.append(TxnId(9), RedoPayload::Abort);
        assert_eq!(buf.get(Lsn(0)).unwrap().txn, TxnId(9));
        assert!(buf.get(Lsn(1)).is_none());
    }

    #[test]
    fn trim_preserves_lsns_and_totals() {
        let mut buf = RedoBuffer::new();
        for i in 0..10 {
            buf.append(TxnId(i), commit(i));
        }
        assert_eq!(buf.trim_to(Lsn(4)), 4);
        // LSN numbering and "total ever appended" are unchanged.
        assert_eq!(buf.len(), 10);
        assert_eq!(buf.resident_len(), 6);
        assert_eq!(buf.base_lsn(), Lsn(4));
        assert_eq!(buf.head_lsn(), Lsn(10));
        assert!(buf.get(Lsn(3)).is_none());
        assert_eq!(buf.get(Lsn(4)).unwrap().lsn, Lsn(4));
        // Batches above the floor are identical to the untrimmed view.
        let b = buf.batch_from(Lsn(6), 3);
        assert_eq!(b.first_lsn, Lsn(6));
        assert_eq!(b.last_lsn(), Lsn(8));
        // Appends keep numbering from the head.
        assert_eq!(buf.append(TxnId(99), commit(99)), Lsn(10));
        // Re-trimming below the floor is a no-op.
        assert_eq!(buf.trim_to(Lsn(2)), 0);
        assert_eq!(buf.trim_to(Lsn(4)), 0);
        // Trimming past the head clamps to resident records.
        assert_eq!(buf.trim_to(Lsn(1000)), 7);
        assert!(buf.batch_from(Lsn(11), 5).is_empty());
    }

    fn sample_records(n: u64) -> Vec<RedoRecord> {
        use gdb_model::{Datum, Row, RowKey, TableId};
        (0..n)
            .map(|i| RedoRecord {
                lsn: Lsn(i),
                txn: TxnId(i / 3),
                payload: match i % 3 {
                    0 => RedoPayload::Insert {
                        table: TableId(1),
                        key: RowKey::single(i as i64),
                        row: Row(vec![Datum::Int(i as i64), Datum::from(format!("r{i}"))]),
                    },
                    1 => RedoPayload::PendingCommit,
                    _ => RedoPayload::Commit {
                        commit_ts: Timestamp(100 + i),
                    },
                },
            })
            .collect()
    }

    #[test]
    fn group_window_bytes_equal_singles() {
        // One window of N transactions must lay down exactly the bytes
        // N individually-synced transactions would: batching moves the
        // sync, never the data.
        let recs = sample_records(30);
        let mut grouped = GroupCommitWal::with_window(10);
        let mut singles = GroupCommitWal::with_window(1);
        let mut concat = Vec::new();
        for r in &recs {
            grouped.append(r);
            singles.append(r);
            encode_record(&mut concat, r);
            if matches!(r.payload, RedoPayload::Commit { .. }) {
                grouped.commit();
                singles.commit();
            }
        }
        grouped.sync();
        singles.sync();
        assert_eq!(grouped.segment(), singles.segment());
        assert_eq!(grouped.segment(), &concat[..]);
        assert_eq!(decode_all(grouped.segment()).unwrap(), recs);
        // 10 txn boundaries: 1 grouped sync vs 10 per-txn syncs.
        assert_eq!(grouped.fsyncs, 1);
        assert_eq!(singles.fsyncs, 10);
        assert_eq!(grouped.synced_txns, 10);
        assert_eq!(singles.synced_txns, 10);
    }

    #[test]
    fn append_parts_matches_owned_append() {
        let recs = sample_records(12);
        let mut owned = GroupCommitWal::with_window(4);
        let mut parts = GroupCommitWal::with_window(4);
        for r in &recs {
            owned.append(r);
            parts.append_parts(r.lsn, r.txn, &r.payload);
        }
        owned.sync();
        parts.sync();
        assert_eq!(owned.segment(), parts.segment());
    }

    #[test]
    fn sync_accounting_and_tail_crc() {
        let recs = sample_records(6);
        let mut wal = GroupCommitWal::with_window(2);
        for r in &recs[..3] {
            wal.append(r);
        }
        assert_eq!(wal.fsyncs, 0);
        assert_eq!(wal.unsynced_bytes(), wal.segment().len());
        assert!(!wal.commit(), "first boundary below window");
        assert!(wal.commit(), "second boundary fills the window");
        assert_eq!(wal.fsyncs, 1);
        assert_eq!(wal.unsynced_bytes(), 0);
        assert_eq!(wal.durable(), wal.segment());
        let crc_after_first = wal.tail_crc();
        // A no-op sync neither counts nor re-checksums.
        wal.sync();
        assert_eq!(wal.fsyncs, 1);
        for r in &recs[3..] {
            wal.append(r);
        }
        wal.sync();
        assert_eq!(wal.fsyncs, 2);
        assert_ne!(wal.tail_crc(), crc_after_first);
        assert_eq!(decode_all(wal.durable()).unwrap(), recs);
    }

    #[test]
    fn torn_tail_is_detected() {
        // Chop the segment at every byte offset: a cut inside a frame
        // must fail decode (frame length or CRC), and a bit flip in an
        // otherwise whole tail must fail CRC.
        let recs = sample_records(5);
        let mut wal = GroupCommitWal::with_window(5);
        for r in &recs {
            wal.append(r);
        }
        wal.sync();
        let seg = wal.segment().to_vec();
        let mut frame_ends = Vec::new();
        {
            let mut pos = 0;
            for r in &recs {
                let mut f = Vec::new();
                encode_record(&mut f, r);
                pos += f.len();
                frame_ends.push(pos);
            }
        }
        for cut in 1..seg.len() {
            let decoded = decode_all(&seg[..cut]);
            if frame_ends.contains(&cut) {
                assert!(
                    decoded.is_ok(),
                    "cut at frame boundary {cut} is a short log"
                );
            } else {
                assert!(decoded.is_err(), "torn frame at {cut} must fail");
            }
        }
        for i in 0..seg.len() {
            let mut torn = seg.clone();
            torn[i] ^= 0x40;
            assert!(decode_all(&torn).is_err(), "bit flip at {i} undetected");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::record::{decode_all, encode_record};
    use gdb_model::{Datum, Row, RowKey, TableId, Timestamp};
    use proptest::prelude::*;

    fn arb_payload() -> impl Strategy<Value = RedoPayload> {
        prop_oneof![
            (
                any::<u16>(),
                proptest::collection::vec(any::<i64>().prop_map(Datum::Int), 1..3),
                "[a-z]{0,16}",
            )
                .prop_map(|(t, k, s)| RedoPayload::Insert {
                    table: TableId(t as u32),
                    key: RowKey::new(k),
                    row: Row(vec![Datum::from(s), Datum::Bool(true)]),
                }),
            (
                any::<u16>(),
                proptest::collection::vec(any::<i64>().prop_map(Datum::Int), 1..3)
            )
                .prop_map(|(t, k)| RedoPayload::Delete {
                    table: TableId(t as u32),
                    key: RowKey::new(k),
                }),
            Just(RedoPayload::PendingCommit),
            any::<u64>().prop_map(|ts| RedoPayload::Commit {
                commit_ts: Timestamp(ts)
            }),
        ]
    }

    proptest! {
        /// Framing invariance: for any record sequence and any window
        /// size, the group-committed segment is byte-identical to the
        /// concatenation of individually framed records, and decodes
        /// back to the original sequence.
        #[test]
        fn group_commit_framing_matches_singles(
            payloads in proptest::collection::vec(arb_payload(), 1..40),
            window in 1usize..12,
        ) {
            let recs: Vec<RedoRecord> = payloads
                .into_iter()
                .enumerate()
                .map(|(i, payload)| RedoRecord {
                    lsn: Lsn(i as u64),
                    txn: TxnId((i / 4) as u64),
                    payload,
                })
                .collect();
            let mut wal = GroupCommitWal::with_window(window);
            let mut concat = Vec::new();
            for r in &recs {
                wal.append(r);
                encode_record(&mut concat, r);
                wal.commit();
            }
            wal.sync();
            prop_assert_eq!(wal.segment(), &concat[..]);
            prop_assert_eq!(wal.durable(), &concat[..]);
            prop_assert_eq!(decode_all(wal.segment()).unwrap(), recs);
            // Every boundary became durable exactly once.
            prop_assert_eq!(wal.synced_txns, recs.len() as u64);
        }

        /// The carried tail checksum is the from-scratch one: after any
        /// interleaving of appends (frames from a few bytes to several
        /// pages, so watermarks land before, on and past 4 KiB
        /// boundaries), commits and syncs, `tail_crc()` is the CRC of the
        /// segment from the previous watermark's page floor to the head,
        /// and the durable bytes are the plain concatenation of frames.
        #[test]
        fn carried_tail_crc_matches_from_scratch(
            ops in proptest::collection::vec(
                prop_oneof![
                    (0usize..6000).prop_map(Some), // append a frame with this much text
                    Just(None),                    // commit (syncs when the window fills)
                ],
                1..60,
            ),
            syncs in proptest::collection::vec(any::<bool>(), 60),
            window in 1usize..6,
        ) {
            let mut wal = GroupCommitWal::with_window(window);
            let mut concat = Vec::new();
            let mut walked = 0u64;
            for (i, op) in ops.iter().enumerate() {
                let prev = wal.durable().len();
                let fsyncs = wal.fsyncs;
                match op {
                    Some(len) => {
                        let rec = RedoRecord {
                            lsn: Lsn(i as u64),
                            txn: TxnId(i as u64),
                            payload: RedoPayload::Delete {
                                table: TableId(1),
                                key: RowKey::single("k".repeat(*len)),
                            },
                        };
                        wal.append(&rec);
                        encode_record(&mut concat, &rec);
                    }
                    None => {
                        wal.commit();
                    }
                }
                if syncs[i] {
                    wal.sync();
                }
                prop_assert!(wal.fsyncs <= fsyncs + 1);
                if wal.fsyncs == fsyncs + 1 {
                    let floor = prev - prev % SYNC_PAGE;
                    prop_assert_eq!(wal.tail_crc(), crate::crc::crc32(&concat[floor..]));
                    prop_assert_eq!(wal.durable(), &concat[..]);
                    walked += (concat.len() - prev) as u64;
                }
                prop_assert_eq!(wal.segment(), &concat[..]);
            }
            // Work: the new bytes, plus at most one page re-walk per page.
            prop_assert!(wal.checksummed_bytes >= walked);
            prop_assert!(
                wal.checksummed_bytes <= walked + (concat.len() / SYNC_PAGE * SYNC_PAGE) as u64
            );
        }

        /// A torn batch tail (truncation inside the last frame) never
        /// decodes cleanly: either the frame is short or its CRC fails.
        #[test]
        fn torn_batch_tail_never_decodes(
            payloads in proptest::collection::vec(arb_payload(), 1..10),
            cut_back in 1usize..20,
        ) {
            let recs: Vec<RedoRecord> = payloads
                .into_iter()
                .enumerate()
                .map(|(i, payload)| RedoRecord {
                    lsn: Lsn(i as u64),
                    txn: TxnId(7),
                    payload,
                })
                .collect();
            let mut wal = GroupCommitWal::with_window(usize::MAX);
            for r in &recs {
                wal.append(r);
            }
            let seg = wal.segment();
            // Position of the last frame's start.
            let mut last_frame = Vec::new();
            encode_record(&mut last_frame, recs.last().unwrap());
            let tail_start = seg.len() - last_frame.len();
            let cut = seg.len() - cut_back.min(last_frame.len() - 1).max(1);
            let decoded = decode_all(&seg[..cut]);
            prop_assert!(decoded.is_err() || cut <= tail_start,
                "cut {cut} inside last frame (starts {tail_start}) decoded OK");
        }
    }
}

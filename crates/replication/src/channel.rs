//! The per-(primary → replica) shipping channel.
//!
//! Records accumulate in the primary's [`gdb_wal::RedoBuffer`]; the channel
//! tracks how far it has shipped and drains batches on a flush cadence or
//! when enough bytes are pending. Batches are optionally compressed
//! (paper §V-A: LZ4 halves-or-better the WAN bytes).

use gdb_compress::{Codec, MatchTable};
use gdb_wal::{EncodeScratch, LogBatch, Lsn, RedoBuffer};

/// Statistics for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    pub batches: u64,
    pub records: u64,
    pub raw_bytes: u64,
    pub wire_bytes: u64,
}

/// A drained batch ready to put on the wire.
#[derive(Debug, Clone)]
pub struct WireBatch {
    pub batch: LogBatch,
    /// Bytes actually sent (after the codec).
    pub wire_bytes: usize,
    /// Bytes before compression.
    pub raw_bytes: usize,
}

/// Sender state for one replica.
///
/// Carries reusable encode/compress scratch so the per-batch drain is
/// allocation-free at steady state: records are framed once into
/// `raw_buf` and compressed once into `wire_buf` (the old path encoded
/// into a fresh vec and then compressed a *second* time just to learn
/// the wire size).
#[derive(Debug)]
pub struct ShippingChannel {
    /// Next LSN to ship.
    next_lsn: Lsn,
    codec: Codec,
    /// Max records per drained batch.
    max_batch_records: usize,
    scratch: EncodeScratch,
    raw_buf: Vec<u8>,
    wire_buf: Vec<u8>,
    match_table: MatchTable,
    pub stats: ChannelStats,
}

impl ShippingChannel {
    pub fn new(codec: Codec) -> Self {
        ShippingChannel {
            next_lsn: Lsn(0),
            codec,
            max_batch_records: 4096,
            scratch: EncodeScratch::default(),
            raw_buf: Vec::new(),
            wire_buf: Vec::new(),
            match_table: MatchTable::default(),
            stats: ChannelStats::default(),
        }
    }

    pub fn with_max_batch(mut self, records: usize) -> Self {
        self.max_batch_records = records.max(1);
        self
    }

    pub fn codec(&self) -> Codec {
        self.codec
    }

    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Records waiting in `buffer` that this channel has not shipped yet.
    pub fn backlog(&self, buffer: &RedoBuffer) -> u64 {
        buffer.head_lsn().0.saturating_sub(self.next_lsn.0)
    }

    /// Drain the next batch (empty option if caught up). Advances the
    /// shipped cursor — the simulated network never loses delivered
    /// messages to a live node, and crashed-replica recovery re-creates
    /// the channel at the replica's applied LSN via [`Self::rewind`].
    pub fn drain(&mut self, buffer: &RedoBuffer) -> Option<WireBatch> {
        let batch = buffer.batch_from(self.next_lsn, self.max_batch_records);
        if batch.is_empty() {
            return None;
        }
        self.next_lsn = Lsn(batch.last_lsn().0 + 1);
        self.raw_buf.clear();
        batch.encode_into(&mut self.scratch, &mut self.raw_buf);
        self.codec
            .encode_into(&self.raw_buf, &mut self.match_table, &mut self.wire_buf);
        let raw_bytes = self.raw_buf.len();
        let wire_bytes = self.wire_buf.len();
        self.stats.batches += 1;
        self.stats.records += batch.len() as u64;
        self.stats.raw_bytes += raw_bytes as u64;
        self.stats.wire_bytes += wire_bytes as u64;
        Some(WireBatch {
            batch,
            wire_bytes,
            raw_bytes,
        })
    }

    /// Reset the cursor (replica recovery: resume from its applied LSN).
    pub fn rewind(&mut self, to: Lsn) {
        self.next_lsn = to;
    }

    /// Achieved compression ratio so far (raw / wire).
    pub fn compression_ratio(&self) -> f64 {
        if self.stats.wire_bytes == 0 {
            1.0
        } else {
            self.stats.raw_bytes as f64 / self.stats.wire_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_model::{Datum, Row, RowKey, TableId, Timestamp, TxnId};
    use gdb_wal::RedoPayload;

    fn filled_buffer(n: u64) -> RedoBuffer {
        let mut buf = RedoBuffer::new();
        for i in 0..n {
            buf.append(
                TxnId(i),
                RedoPayload::Insert {
                    table: TableId(1),
                    key: RowKey::single(i as i64),
                    row: Row(vec![
                        Datum::Int(i as i64),
                        Datum::Text("warehouse-payload-abcdefgh".into()),
                    ]),
                },
            );
            buf.append(
                TxnId(i),
                RedoPayload::Commit {
                    commit_ts: Timestamp(i + 1),
                },
            );
        }
        buf
    }

    #[test]
    fn drains_in_order_without_gaps() {
        let buf = filled_buffer(10);
        let mut ch = ShippingChannel::new(Codec::None).with_max_batch(7);
        let b1 = ch.drain(&buf).unwrap();
        assert_eq!(b1.batch.first_lsn, Lsn(0));
        assert_eq!(b1.batch.len(), 7);
        let b2 = ch.drain(&buf).unwrap();
        assert_eq!(b2.batch.first_lsn, Lsn(7));
        assert_eq!(b2.batch.len(), 7, "capped at max batch");
        let b3 = ch.drain(&buf).unwrap();
        assert_eq!(b3.batch.first_lsn, Lsn(14));
        assert_eq!(b3.batch.len(), 6, "remainder");
        assert!(ch.drain(&buf).is_none(), "caught up");
        assert_eq!(ch.backlog(&buf), 0);
    }

    #[test]
    fn backlog_counts_pending() {
        let buf = filled_buffer(5);
        let ch = ShippingChannel::new(Codec::None);
        assert_eq!(ch.backlog(&buf), 10);
    }

    #[test]
    fn compression_reduces_wire_bytes() {
        let buf = filled_buffer(200);
        let mut plain = ShippingChannel::new(Codec::None);
        let mut lz = ShippingChannel::new(Codec::Lz4);
        let raw = plain.drain(&buf).unwrap();
        let comp = lz.drain(&buf).unwrap();
        assert_eq!(raw.raw_bytes, comp.raw_bytes);
        assert!(
            comp.wire_bytes * 3 < raw.wire_bytes * 2,
            "lz4 {} vs raw {}",
            comp.wire_bytes,
            raw.wire_bytes
        );
        assert!(lz.compression_ratio() > 1.5);
    }

    #[test]
    fn rewind_for_recovery() {
        let buf = filled_buffer(5);
        let mut ch = ShippingChannel::new(Codec::None);
        let _ = ch.drain(&buf);
        ch.rewind(Lsn(3));
        let b = ch.drain(&buf).unwrap();
        assert_eq!(b.batch.first_lsn, Lsn(3));
    }

    #[test]
    fn wire_batch_decodes_after_codec_roundtrip() {
        let buf = filled_buffer(20);
        let mut ch = ShippingChannel::new(Codec::Lz4);
        let wb = ch.drain(&buf).unwrap();
        let raw = wb.batch.encode();
        let wire = Codec::Lz4.encode(&raw);
        assert_eq!(wire.len(), wb.wire_bytes);
        let back = Codec::Lz4.decode(&wire).unwrap();
        let records = gdb_wal::record::decode_all(&back).unwrap();
        assert_eq!(records, wb.batch.records);
    }
}

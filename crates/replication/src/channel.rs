//! The per-(primary → replica) shipping channel.
//!
//! Records accumulate in the primary's [`gdb_wal::RedoBuffer`]; the channel
//! tracks how far it has shipped and drains batches on a flush cadence or
//! when enough bytes are pending. Batches are optionally compressed
//! (paper §V-A: LZ4 halves-or-better the WAN bytes).
//!
//! The primary frames every record once, into its durable segment, one
//! sealed window at a time. A batch that is exactly the last sealed
//! window ships those frames and the window's one compression; any other
//! batch (a lagging or rewound follower, one spanning several windows)
//! frames and compresses its own records. Both yield the same bytes.

use gdb_compress::{Codec, MatchTable};
use gdb_wal::{EncodeScratch, LogBatch, Lsn, RedoBuffer};
use std::ops::Range;

/// Max records per drained batch.
pub const MAX_BATCH_RECORDS: usize = 4096;

/// Statistics for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    pub batches: u64,
    pub records: u64,
    pub raw_bytes: u64,
    pub wire_bytes: u64,
    /// Records this channel framed itself because its batch was not a
    /// sealed window (work counter).
    pub framed_records: u64,
    /// Bytes this channel handed to its codec (work counter).
    pub compressed_bytes: u64,
}

/// A primary's last sealed window: the records `lsns`, framed at `bytes`
/// of its durable segment exactly as [`LogBatch::encode`] frames them,
/// and their wire length under a codec once a follower has computed it.
/// The default window is empty and matches no batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SealedWindow {
    pub lsns: Range<Lsn>,
    pub bytes: Range<usize>,
    pub wire: Option<(Codec, usize)>,
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
/// allocation-free at steady state: a batch that is not a sealed window
/// is framed into `raw_buf`, and whatever raw bytes ship are compressed
/// into `wire_buf` only to learn their wire size.
#[derive(Debug)]
pub struct ShippingChannel {
    /// Next LSN to ship.
    next_lsn: Lsn,
    codec: Codec,
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
            scratch: EncodeScratch::default(),
            raw_buf: Vec::new(),
            wire_buf: Vec::new(),
            match_table: MatchTable::default(),
            stats: ChannelStats::default(),
        }
    }

    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Records waiting in `buffer` that this channel has not shipped yet.
    pub fn backlog(&self, buffer: &RedoBuffer) -> u64 {
        buffer.head_lsn().0.saturating_sub(self.next_lsn.0)
    }

    /// Drain the next batch (empty option if caught up), framing and
    /// compressing it here. Advances the shipped cursor — the simulated
    /// network never loses delivered messages to a live node, and
    /// crashed-replica recovery re-creates the channel at the replica's
    /// applied LSN via [`Self::rewind`].
    pub fn drain(&mut self, buffer: &RedoBuffer) -> Option<WireBatch> {
        self.drain_sealed(buffer, &[], &mut SealedWindow::default())
    }

    /// [`Self::drain`] from a primary whose durable `segment` holds the
    /// frames of its last sealed `window`. A batch that is exactly the
    /// window's records ships `segment[window.bytes]` as its raw bytes and
    /// the window's wire length, computing it (and leaving it on the
    /// window) only if no follower has yet; any other batch is framed and
    /// compressed here. The counts are the same either way.
    pub fn drain_sealed(
        &mut self,
        buffer: &RedoBuffer,
        segment: &[u8],
        window: &mut SealedWindow,
    ) -> Option<WireBatch> {
        let batch = buffer.batch_from(self.next_lsn, MAX_BATCH_RECORDS);
        if batch.is_empty() {
            return None;
        }
        self.next_lsn = Lsn(batch.last_lsn().0 + 1);
        let (raw_bytes, wire_bytes) = if window.lsns == (batch.first_lsn..self.next_lsn) {
            let raw = &segment[window.bytes.clone()];
            let wire = match window.wire {
                Some((codec, wire)) if codec == self.codec => wire,
                _ => {
                    let wire = self.compress(raw);
                    window.wire = Some((self.codec, wire));
                    wire
                }
            };
            (raw.len(), wire)
        } else {
            let mut raw = std::mem::take(&mut self.raw_buf);
            raw.clear();
            batch.encode_into(&mut self.scratch, &mut raw);
            self.stats.framed_records += batch.len() as u64;
            let wire = self.compress(&raw);
            let len = raw.len();
            self.raw_buf = raw;
            (len, wire)
        };
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

    /// The wire length of `raw` under this channel's codec.
    fn compress(&mut self, raw: &[u8]) -> usize {
        self.stats.compressed_bytes += raw.len() as u64;
        self.codec
            .encode_into(raw, &mut self.match_table, &mut self.wire_buf);
        self.wire_buf.len()
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
        const MAX: usize = MAX_BATCH_RECORDS;
        let buf = filled_buffer(MAX as u64 + 3);
        let mut ch = ShippingChannel::new(Codec::None);
        let b1 = ch.drain(&buf).unwrap();
        assert_eq!(b1.batch.first_lsn, Lsn(0));
        assert_eq!(b1.batch.len(), MAX);
        let b2 = ch.drain(&buf).unwrap();
        assert_eq!(b2.batch.first_lsn, Lsn(MAX as u64));
        assert_eq!(b2.batch.len(), MAX, "capped at max batch");
        let b3 = ch.drain(&buf).unwrap();
        assert_eq!(b3.batch.first_lsn, Lsn(2 * MAX as u64));
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

    /// Two followers of one sealed window: both ship its frames, the
    /// second without compressing; a follower behind the window frames
    /// its own batch. The counts are the framing path's either way.
    #[test]
    fn a_window_is_framed_and_compressed_once() {
        let buf = filled_buffer(30);
        let frames = buf.batch_from(Lsn(10), 100).encode();
        let mut segment = vec![0xAB; 7]; // the segment before the window
        segment.extend_from_slice(&frames);
        let mut window = SealedWindow {
            lsns: Lsn(10)..Lsn(60),
            bytes: 7..segment.len(),
            wire: None,
        };
        let mut a = ShippingChannel::new(Codec::Lz4);
        let mut b = ShippingChannel::new(Codec::Lz4);
        a.rewind(Lsn(10));
        b.rewind(Lsn(10));
        let wa = a.drain_sealed(&buf, &segment, &mut window).unwrap();
        let wb = b.drain_sealed(&buf, &segment, &mut window).unwrap();
        let wire = Codec::Lz4.encode(&frames).len();
        for (ch, w) in [(&a, &wa), (&b, &wb)] {
            assert_eq!((w.raw_bytes, w.wire_bytes), (frames.len(), wire));
            assert_eq!(ch.stats.framed_records, 0);
        }
        assert_eq!(window.wire, Some((Codec::Lz4, wire)));
        assert_eq!(a.stats.compressed_bytes, frames.len() as u64);
        assert_eq!(
            b.stats.compressed_bytes, 0,
            "the window's compression is reused"
        );

        let mut behind = ShippingChannel::new(Codec::Lz4);
        behind.rewind(Lsn(4));
        let w = behind.drain_sealed(&buf, &segment, &mut window).unwrap();
        let raw = w.batch.encode();
        assert_eq!(
            (w.raw_bytes, w.wire_bytes),
            (raw.len(), Codec::Lz4.encode(&raw).len())
        );
        assert_eq!(behind.stats.framed_records, 56);
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

//! Redo record types and their binary encoding.

use crate::codec::{
    get_data_type, get_key, get_row, put_data_type, put_key, put_row, put_str, put_varint,
    DecodeError, Reader,
};
use crate::crc::crc32;
use gdb_model::{
    ColumnDef, Ddl, DistributionKind, Row, RowKey, TableId, TableSchema, Timestamp, TxnId,
};
use std::fmt;

/// Log sequence number: position of a record in one primary's redo stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn{}", self.0)
    }
}

/// Errors from encoding/decoding the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// Byte-level decode failure.
    Decode(String),
    /// CRC mismatch: the record was corrupted in flight.
    Corrupt { lsn: u64 },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Decode(m) => write!(f, "wal decode error: {m}"),
            WalError::Corrupt { lsn } => write!(f, "wal record at lsn {lsn} failed CRC"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<DecodeError> for WalError {
    fn from(e: DecodeError) -> Self {
        // Formatting only happens when an error actually surfaces; the
        // hot decode path carries the `Copy` enum until then.
        WalError::Decode(e.to_string())
    }
}

/// The body of a redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum RedoPayload {
    /// A new row version inserted.
    Insert {
        table: TableId,
        key: RowKey,
        row: Row,
    },
    /// An existing row overwritten with a new version.
    Update {
        table: TableId,
        key: RowKey,
        new_row: Row,
    },
    /// A row deleted.
    Delete { table: TableId, key: RowKey },
    /// Written at the primary *before* the transaction obtains its
    /// invocation timestamp; locks the transaction's tuples on the replica
    /// until a Commit/Abort replays (paper §IV-A). This is the safeguard
    /// against commit records appearing in the log out of timestamp order.
    PendingCommit,
    /// Transaction committed at `commit_ts`.
    Commit { commit_ts: Timestamp },
    /// Transaction aborted; its versions are discarded.
    Abort,
    /// 2PC: participant prepared. Visibility of this transaction's tuples
    /// on replicas blocks until CommitPrepared/AbortPrepared replays.
    Prepare,
    /// 2PC: prepared transaction committed at `commit_ts`.
    CommitPrepared { commit_ts: Timestamp },
    /// 2PC: prepared transaction rolled back.
    AbortPrepared,
    /// A replicated DDL statement, stamped with its commit timestamp
    /// (paper §IV-A: ROR queries must be consistent with replayed DDL).
    Ddl { commit_ts: Timestamp, ddl: Ddl },
    /// Periodic no-op commit so a replica's max-commit-timestamp advances
    /// even when it receives no real transactions (paper §IV-A).
    Heartbeat { commit_ts: Timestamp },
    /// Replay barrier used at recovery boundaries.
    Checkpoint { as_of: Timestamp },
}

impl RedoPayload {
    /// True for the record kinds that advance a replica's max commit
    /// timestamp when replayed.
    pub fn commit_timestamp(&self) -> Option<Timestamp> {
        match self {
            RedoPayload::Commit { commit_ts }
            | RedoPayload::CommitPrepared { commit_ts }
            | RedoPayload::Ddl { commit_ts, .. }
            | RedoPayload::Heartbeat { commit_ts } => Some(*commit_ts),
            _ => None,
        }
    }

    /// The payload itself. Kept only because the full-stack benchmark's
    /// WAL probe (`benchmark/src/probes.rs`) calls it.
    pub fn as_view(&self) -> &RedoPayload {
        self
    }
}

/// One redo record: stream position, owning transaction, and payload.
#[derive(Debug, Clone, PartialEq)]
pub struct RedoRecord {
    pub lsn: Lsn,
    pub txn: TxnId,
    pub payload: RedoPayload,
}

// Payload tags.
const P_INSERT: u8 = 1;
const P_UPDATE: u8 = 2;
const P_DELETE: u8 = 3;
const P_PENDING: u8 = 4;
const P_COMMIT: u8 = 5;
const P_ABORT: u8 = 6;
const P_PREPARE: u8 = 7;
const P_COMMIT_PREP: u8 = 8;
const P_ABORT_PREP: u8 = 9;
const P_DDL: u8 = 10;
const P_HEARTBEAT: u8 = 11;
const P_CHECKPOINT: u8 = 12;

const D_CREATE_TABLE: u8 = 1;
const D_DROP_TABLE: u8 = 2;
const D_CREATE_INDEX: u8 = 3;
const D_DROP_INDEX: u8 = 4;

fn put_schema(out: &mut Vec<u8>, s: &TableSchema) {
    put_varint(out, s.id.0 as u64);
    put_str(out, &s.name);
    put_varint(out, s.columns.len() as u64);
    for c in &s.columns {
        put_str(out, &c.name);
        put_data_type(out, c.data_type);
        out.push(c.nullable as u8);
        out.push(c.scale);
    }
    put_varint(out, s.primary_key.len() as u64);
    for &i in &s.primary_key {
        put_varint(out, i as u64);
    }
    put_varint(out, s.distribution_key.len() as u64);
    for &i in &s.distribution_key {
        put_varint(out, i as u64);
    }
    match &s.distribution {
        DistributionKind::Hash => out.push(0),
        DistributionKind::Range { split_points } => {
            out.push(1);
            put_varint(out, split_points.len() as u64);
            for &p in split_points {
                crate::codec::put_varint_i64(out, p);
            }
        }
        DistributionKind::Replicated => out.push(2),
    }
}

fn get_schema(r: &mut Reader) -> Result<TableSchema, WalError> {
    let id = TableId(r.varint()? as u32);
    let name = r.str()?;
    let ncols = r.varint()? as usize;
    let mut columns = Vec::with_capacity(ncols.min(256));
    for _ in 0..ncols {
        let cname = r.str()?;
        let dt = get_data_type(r)?;
        let nullable = r.u8()? != 0;
        let scale = r.u8()?;
        columns.push(ColumnDef {
            name: cname,
            data_type: dt,
            nullable,
            scale,
        });
    }
    let npk = r.varint()? as usize;
    let mut primary_key = Vec::with_capacity(npk.min(16));
    for _ in 0..npk {
        primary_key.push(r.varint()? as usize);
    }
    let ndk = r.varint()? as usize;
    let mut distribution_key = Vec::with_capacity(ndk.min(16));
    for _ in 0..ndk {
        distribution_key.push(r.varint()? as usize);
    }
    let distribution = match r.u8()? {
        0 => DistributionKind::Hash,
        1 => {
            let n = r.varint()? as usize;
            let mut split_points = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                split_points.push(r.varint_i64()?);
            }
            DistributionKind::Range { split_points }
        }
        2 => DistributionKind::Replicated,
        t => return Err(WalError::Decode(format!("bad distribution tag {t}"))),
    };
    Ok(TableSchema {
        id,
        name,
        columns,
        primary_key,
        distribution_key,
        distribution,
    })
}

fn put_payload(out: &mut Vec<u8>, p: &RedoPayload) {
    match p {
        RedoPayload::Insert { table, key, row } => {
            out.push(P_INSERT);
            put_varint(out, table.0 as u64);
            put_key(out, key);
            put_row(out, row);
        }
        RedoPayload::Update {
            table,
            key,
            new_row,
        } => {
            out.push(P_UPDATE);
            put_varint(out, table.0 as u64);
            put_key(out, key);
            put_row(out, new_row);
        }
        RedoPayload::Delete { table, key } => {
            out.push(P_DELETE);
            put_varint(out, table.0 as u64);
            put_key(out, key);
        }
        RedoPayload::PendingCommit => out.push(P_PENDING),
        RedoPayload::Commit { commit_ts } => {
            out.push(P_COMMIT);
            put_varint(out, commit_ts.0);
        }
        RedoPayload::Abort => out.push(P_ABORT),
        RedoPayload::Prepare => out.push(P_PREPARE),
        RedoPayload::CommitPrepared { commit_ts } => {
            out.push(P_COMMIT_PREP);
            put_varint(out, commit_ts.0);
        }
        RedoPayload::AbortPrepared => out.push(P_ABORT_PREP),
        RedoPayload::Ddl { commit_ts, ddl } => {
            out.push(P_DDL);
            put_varint(out, commit_ts.0);
            match ddl {
                Ddl::CreateTable(s) => {
                    out.push(D_CREATE_TABLE);
                    put_schema(out, s);
                }
                Ddl::DropTable(t) => {
                    out.push(D_DROP_TABLE);
                    put_varint(out, t.0 as u64);
                }
                Ddl::CreateIndex {
                    table,
                    name,
                    columns,
                } => {
                    out.push(D_CREATE_INDEX);
                    put_varint(out, table.0 as u64);
                    put_str(out, name);
                    put_varint(out, columns.len() as u64);
                    for &c in columns {
                        put_varint(out, c as u64);
                    }
                }
                Ddl::DropIndex { table, name } => {
                    out.push(D_DROP_INDEX);
                    put_varint(out, table.0 as u64);
                    put_str(out, name);
                }
            }
        }
        RedoPayload::Heartbeat { commit_ts } => {
            out.push(P_HEARTBEAT);
            put_varint(out, commit_ts.0);
        }
        RedoPayload::Checkpoint { as_of } => {
            out.push(P_CHECKPOINT);
            put_varint(out, as_of.0);
        }
    }
}

fn get_payload(r: &mut Reader) -> Result<RedoPayload, WalError> {
    Ok(match r.u8()? {
        P_INSERT => RedoPayload::Insert {
            table: TableId(r.varint()? as u32),
            key: get_key(r)?,
            row: get_row(r)?,
        },
        P_UPDATE => RedoPayload::Update {
            table: TableId(r.varint()? as u32),
            key: get_key(r)?,
            new_row: get_row(r)?,
        },
        P_DELETE => RedoPayload::Delete {
            table: TableId(r.varint()? as u32),
            key: get_key(r)?,
        },
        P_PENDING => RedoPayload::PendingCommit,
        P_COMMIT => RedoPayload::Commit {
            commit_ts: Timestamp(r.varint()?),
        },
        P_ABORT => RedoPayload::Abort,
        P_PREPARE => RedoPayload::Prepare,
        P_COMMIT_PREP => RedoPayload::CommitPrepared {
            commit_ts: Timestamp(r.varint()?),
        },
        P_ABORT_PREP => RedoPayload::AbortPrepared,
        P_DDL => {
            let commit_ts = Timestamp(r.varint()?);
            let ddl = match r.u8()? {
                D_CREATE_TABLE => Ddl::CreateTable(get_schema(r)?),
                D_DROP_TABLE => Ddl::DropTable(TableId(r.varint()? as u32)),
                D_CREATE_INDEX => {
                    let table = TableId(r.varint()? as u32);
                    let name = r.str()?;
                    let n = r.varint()? as usize;
                    let mut columns = Vec::with_capacity(n.min(16));
                    for _ in 0..n {
                        columns.push(r.varint()? as usize);
                    }
                    Ddl::CreateIndex {
                        table,
                        name,
                        columns,
                    }
                }
                D_DROP_INDEX => Ddl::DropIndex {
                    table: TableId(r.varint()? as u32),
                    name: r.str()?,
                },
                t => return Err(WalError::Decode(format!("bad ddl tag {t}"))),
            };
            RedoPayload::Ddl { commit_ts, ddl }
        }
        P_HEARTBEAT => RedoPayload::Heartbeat {
            commit_ts: Timestamp(r.varint()?),
        },
        P_CHECKPOINT => RedoPayload::Checkpoint {
            as_of: Timestamp(r.varint()?),
        },
        t => return Err(WalError::Decode(format!("bad payload tag {t}"))),
    })
}

/// Reusable staging buffer for record framing. The body must be built
/// before the frame (its length prefixes it); staging it here instead
/// of a fresh `Vec` per record makes steady-state encoding
/// allocation-free.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    body: Vec<u8>,
}

/// Encode one record with a length-prefixed frame and trailing CRC:
/// `varint(body_len) body crc32(body):u32le` where
/// `body = varint(lsn) varint(txn) payload`.
pub fn encode_record(out: &mut Vec<u8>, rec: &RedoRecord) {
    let mut scratch = EncodeScratch {
        body: Vec::with_capacity(64),
    };
    encode_record_into(&mut scratch, out, rec);
}

/// [`encode_record`] reusing a caller-owned staging buffer.
pub fn encode_record_into(scratch: &mut EncodeScratch, out: &mut Vec<u8>, rec: &RedoRecord) {
    encode_record_parts(scratch, out, rec.lsn, rec.txn, &rec.payload);
}

/// Frame a record from its parts, so a writer that keeps the payload
/// apart from its LSN and txn need not build a [`RedoRecord`]: no
/// per-record body `Vec`. Byte-for-byte identical to [`encode_record`]
/// on the equivalent record.
pub fn encode_record_parts(
    scratch: &mut EncodeScratch,
    out: &mut Vec<u8>,
    lsn: Lsn,
    txn: TxnId,
    payload: &RedoPayload,
) {
    let body = &mut scratch.body;
    body.clear();
    put_varint(body, lsn.0);
    put_varint(body, txn.0);
    put_payload(body, payload);
    put_varint(out, body.len() as u64);
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
}

/// Decode one record from the reader (frame + CRC check).
pub fn decode_record(r: &mut Reader) -> Result<RedoRecord, WalError> {
    let body = r.bytes()?;
    let mut crc_bytes = [0u8; 4];
    for b in crc_bytes.iter_mut() {
        *b = r.u8()?;
    }
    let expected = u32::from_le_bytes(crc_bytes);
    if crc32(body) != expected {
        // Pull the LSN out best-effort for the error message.
        let lsn = Reader::new(body).varint().unwrap_or(0);
        return Err(WalError::Corrupt { lsn });
    }
    let mut br = Reader::new(body);
    let lsn = Lsn(br.varint()?);
    let txn = TxnId(br.varint()?);
    let payload = get_payload(&mut br)?;
    if !br.is_empty() {
        return Err(WalError::Decode("trailing bytes in record body".into()));
    }
    Ok(RedoRecord { lsn, txn, payload })
}

/// Decode a whole batch of framed records.
pub fn decode_all(data: &[u8]) -> Result<Vec<RedoRecord>, WalError> {
    let mut r = Reader::new(data);
    let mut out = Vec::new();
    while !r.is_empty() {
        out.push(decode_record(&mut r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_model::{ColumnDef, DataType, Datum, SchemaBuilder};

    fn sample_schema() -> TableSchema {
        SchemaBuilder::new("orders")
            .column(ColumnDef::new("o_id", DataType::Int).not_null())
            .column(ColumnDef::new("o_comment", DataType::Text))
            .column(ColumnDef::new("o_total", DataType::Decimal).with_scale(2))
            .primary_key(&["o_id"])
            .build(TableId(9))
            .unwrap()
    }

    fn all_payloads() -> Vec<RedoPayload> {
        vec![
            RedoPayload::Insert {
                table: TableId(3),
                key: RowKey::single(42i64),
                row: Row(vec![Datum::Int(42), Datum::Text("hi".into()), Datum::Null]),
            },
            RedoPayload::Update {
                table: TableId(3),
                key: RowKey::single(42i64),
                new_row: Row(vec![Datum::Int(42), Datum::Text("bye".into()), Datum::Null]),
            },
            RedoPayload::Delete {
                table: TableId(3),
                key: RowKey::single(42i64),
            },
            RedoPayload::PendingCommit,
            RedoPayload::Commit {
                commit_ts: Timestamp(12345),
            },
            RedoPayload::Abort,
            RedoPayload::Prepare,
            RedoPayload::CommitPrepared {
                commit_ts: Timestamp(6789),
            },
            RedoPayload::AbortPrepared,
            RedoPayload::Ddl {
                commit_ts: Timestamp(777),
                ddl: Ddl::CreateTable(sample_schema()),
            },
            RedoPayload::Ddl {
                commit_ts: Timestamp(778),
                ddl: Ddl::DropTable(TableId(9)),
            },
            RedoPayload::Ddl {
                commit_ts: Timestamp(779),
                ddl: Ddl::CreateIndex {
                    table: TableId(9),
                    name: "by_comment".into(),
                    columns: vec![1],
                },
            },
            RedoPayload::Ddl {
                commit_ts: Timestamp(780),
                ddl: Ddl::DropIndex {
                    table: TableId(9),
                    name: "by_comment".into(),
                },
            },
            RedoPayload::Heartbeat {
                commit_ts: Timestamp(999),
            },
            RedoPayload::Checkpoint {
                as_of: Timestamp(1000),
            },
        ]
    }

    #[test]
    fn every_payload_roundtrips() {
        for (i, payload) in all_payloads().into_iter().enumerate() {
            let rec = RedoRecord {
                lsn: Lsn(i as u64),
                txn: TxnId::compose(2, i as u64),
                payload,
            };
            let mut out = Vec::new();
            encode_record(&mut out, &rec);
            let got = decode_record(&mut Reader::new(&out)).unwrap();
            assert_eq!(got, rec);
        }
    }

    #[test]
    fn batch_roundtrip() {
        let recs: Vec<RedoRecord> = all_payloads()
            .into_iter()
            .enumerate()
            .map(|(i, payload)| RedoRecord {
                lsn: Lsn(i as u64),
                txn: TxnId(77),
                payload,
            })
            .collect();
        let mut out = Vec::new();
        for r in &recs {
            encode_record(&mut out, r);
        }
        assert_eq!(decode_all(&out).unwrap(), recs);
    }

    #[test]
    fn view_encoding_is_byte_identical() {
        // The parts path must frame exactly like the record path for
        // every payload kind, and the scratch buffer must not leak state
        // across records.
        let mut scratch = EncodeScratch::default();
        for (i, payload) in all_payloads().into_iter().enumerate() {
            let rec = RedoRecord {
                lsn: Lsn(i as u64),
                txn: TxnId::compose(1, i as u64),
                payload,
            };
            let mut owned = Vec::new();
            encode_record(&mut owned, &rec);
            let mut via_view = Vec::new();
            encode_record_parts(&mut scratch, &mut via_view, rec.lsn, rec.txn, &rec.payload);
            assert_eq!(owned, via_view);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let rec = RedoRecord {
            lsn: Lsn(5),
            txn: TxnId(1),
            payload: RedoPayload::Commit {
                commit_ts: Timestamp(42),
            },
        };
        let mut out = Vec::new();
        encode_record(&mut out, &rec);
        // Flip a bit in the middle of the body.
        let mid = out.len() / 2;
        out[mid] ^= 0x10;
        match decode_record(&mut Reader::new(&out)) {
            Err(WalError::Corrupt { .. }) | Err(WalError::Decode(_)) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn commit_timestamp_extraction() {
        assert_eq!(
            RedoPayload::Commit {
                commit_ts: Timestamp(5)
            }
            .commit_timestamp(),
            Some(Timestamp(5))
        );
        assert_eq!(
            RedoPayload::Heartbeat {
                commit_ts: Timestamp(9)
            }
            .commit_timestamp(),
            Some(Timestamp(9))
        );
        assert_eq!(RedoPayload::Abort.commit_timestamp(), None);
        assert_eq!(RedoPayload::PendingCommit.commit_timestamp(), None);
        assert_eq!(RedoPayload::Prepare.commit_timestamp(), None);
    }

    /// A frame length of `u64::MAX` (a ten-byte varint) once wrapped the
    /// reader's bounds check in release builds and panicked on the slice.
    #[test]
    fn oversized_frame_length_is_an_error_at_both_entry_points() {
        let mut seg = vec![0xff; 9];
        seg.push(0x01);
        seg.extend([0; 8]);
        assert!(decode_all(&seg).is_err());
        assert!(decode_record(&mut Reader::new(&seg)).is_err());
    }

    #[test]
    fn truncated_frame_is_error() {
        let rec = RedoRecord {
            lsn: Lsn(1),
            txn: TxnId(1),
            payload: RedoPayload::Abort,
        };
        let mut out = Vec::new();
        encode_record(&mut out, &rec);
        for cut in 1..out.len() {
            assert!(decode_record(&mut Reader::new(&out[..cut])).is_err());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gdb_model::{DataType, Datum};
    use proptest::prelude::*;

    fn arb_datum() -> impl Strategy<Value = Datum> {
        prop_oneof![
            Just(Datum::Null),
            any::<i64>().prop_map(Datum::Int),
            any::<i64>().prop_map(Datum::Decimal),
            "[a-zA-Z0-9 ]{0,32}".prop_map(Datum::from),
            any::<bool>().prop_map(Datum::Bool),
        ]
    }

    fn arb_key() -> impl Strategy<Value = RowKey> {
        proptest::collection::vec(arb_datum(), 1..4).prop_map(RowKey::new)
    }

    fn arb_row() -> impl Strategy<Value = Row> {
        proptest::collection::vec(arb_datum(), 0..8).prop_map(Row)
    }

    fn arb_name() -> impl Strategy<Value = String> {
        "[a-zA-Z0-9_ é€]{0,12}"
    }

    fn arb_positions() -> impl Strategy<Value = Vec<usize>> {
        proptest::collection::vec(any::<usize>(), 0..4)
    }

    /// Schemas as the decoder sees them: any columns, key positions and
    /// distribution, valid or not.
    fn arb_schema() -> impl Strategy<Value = TableSchema> {
        let data_type = prop_oneof![
            Just(DataType::Int),
            Just(DataType::Decimal),
            Just(DataType::Text),
            Just(DataType::Bool),
        ];
        let column = (arb_name(), data_type, any::<bool>(), any::<u8>()).prop_map(
            |(name, data_type, nullable, scale)| ColumnDef {
                name,
                data_type,
                nullable,
                scale,
            },
        );
        let distribution = prop_oneof![
            Just(DistributionKind::Hash),
            proptest::collection::vec(any::<i64>(), 0..6)
                .prop_map(|split_points| DistributionKind::Range { split_points }),
            Just(DistributionKind::Replicated),
        ];
        (
            any::<u32>(),
            arb_name(),
            proptest::collection::vec(column, 0..6),
            arb_positions(),
            arb_positions(),
            distribution,
        )
            .prop_map(
                |(id, name, columns, primary_key, distribution_key, distribution)| TableSchema {
                    id: TableId(id),
                    name,
                    columns,
                    primary_key,
                    distribution_key,
                    distribution,
                },
            )
    }

    fn arb_ddl() -> impl Strategy<Value = Ddl> {
        prop_oneof![
            arb_schema().prop_map(Ddl::CreateTable),
            any::<u32>().prop_map(|t| Ddl::DropTable(TableId(t))),
            (any::<u32>(), arb_name(), arb_positions()).prop_map(|(t, name, columns)| {
                Ddl::CreateIndex {
                    table: TableId(t),
                    name,
                    columns,
                }
            }),
            (any::<u32>(), arb_name()).prop_map(|(t, name)| Ddl::DropIndex {
                table: TableId(t),
                name,
            }),
        ]
    }

    fn arb_payload() -> impl Strategy<Value = RedoPayload> {
        let ts = || any::<u64>().prop_map(Timestamp);
        prop_oneof![
            (any::<u32>(), arb_key(), arb_row()).prop_map(|(t, key, row)| RedoPayload::Insert {
                table: TableId(t),
                key,
                row,
            }),
            (any::<u32>(), arb_key(), arb_row()).prop_map(|(t, key, new_row)| {
                RedoPayload::Update {
                    table: TableId(t),
                    key,
                    new_row,
                }
            }),
            (any::<u32>(), arb_key()).prop_map(|(t, key)| RedoPayload::Delete {
                table: TableId(t),
                key,
            }),
            Just(RedoPayload::PendingCommit),
            ts().prop_map(|commit_ts| RedoPayload::Commit { commit_ts }),
            Just(RedoPayload::Abort),
            Just(RedoPayload::Prepare),
            ts().prop_map(|commit_ts| RedoPayload::CommitPrepared { commit_ts }),
            Just(RedoPayload::AbortPrepared),
            (ts(), arb_ddl()).prop_map(|(commit_ts, ddl)| RedoPayload::Ddl { commit_ts, ddl }),
            ts().prop_map(|commit_ts| RedoPayload::Heartbeat { commit_ts }),
            ts().prop_map(|as_of| RedoPayload::Checkpoint { as_of }),
        ]
    }

    fn varint(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        out
    }

    /// A piece of an adversarial byte string: one byte, a varint of any
    /// value, or a varint within 16 of `u64::MAX`.
    fn arb_chunk() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            any::<u8>().prop_map(|b| vec![b]),
            any::<u64>().prop_map(varint),
            (0u64..16).prop_map(|k| varint(u64::MAX - k)),
        ]
    }

    proptest! {
        // Enough cases that every DDL kind and distribution of a created
        // table's schema comes up many times.
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn record_roundtrip(lsn in any::<u64>(), txn in any::<u64>(), payload in arb_payload()) {
            let rec = RedoRecord { lsn: Lsn(lsn), txn: TxnId(txn), payload };
            let mut out = Vec::new();
            encode_record(&mut out, &rec);
            prop_assert_eq!(decode_record(&mut Reader::new(&out)).unwrap(), rec);
        }

        /// The decoder answers `Ok` or `Err`, never panics, on arbitrary
        /// bytes (spliced with varints of any size, lengths near
        /// `u64::MAX` included) and on valid segments with one byte
        /// flipped or cut short. The CRC turns nearly every such segment
        /// into `Corrupt`, so each payload body is also flipped or cut
        /// the same way and decoded past it: the payload, DDL and schema
        /// decoders see malformed input too.
        #[test]
        fn decoder_never_panics(
            chunks in proptest::collection::vec(arb_chunk(), 0..24),
            payloads in proptest::collection::vec(arb_payload(), 1..6),
            at in any::<usize>(),
            mask in 1u8..=255,
            cut in any::<bool>(),
        ) {
            let damage = |bytes: &mut Vec<u8>| {
                let i = at % bytes.len();
                if cut {
                    bytes.truncate(i);
                } else {
                    bytes[i] ^= mask;
                }
            };
            let mut seg = Vec::new();
            for (i, payload) in payloads.iter().enumerate() {
                let rec = RedoRecord { lsn: Lsn(i as u64), txn: TxnId(1), payload: payload.clone() };
                encode_record(&mut seg, &rec);
                let mut body = Vec::new();
                put_payload(&mut body, payload);
                damage(&mut body);
                let _ = get_payload(&mut Reader::new(&body));
            }
            damage(&mut seg);
            for input in [chunks.concat(), seg] {
                let _ = decode_all(&input);
            }
        }
    }
}

//! The storage commit path of one shard, primary to replica.
//!
//! [`run_fast`] drives one deterministic single-shard write script
//! through the calls the cluster makes for it: the data node's lock table
//! and version install ([`DataNodeStorage`]), the shard's redo log with
//! its group-commit segment ([`ShardLog`]), the shipping drain of its
//! sealed window ([`ShardLog::drain`] into a [`ShippingChannel`]) and the
//! replica's replay ([`ReplicaApplier`]).
//!
//! This crate's `tests/txn_path.rs` derives the durable segment and the
//! committed state the script implies and holds the run to them; the
//! root `tests/budgets.rs` holds it to absolute allocation and fsync
//! budgets, and `benchmark/` times it (`storage.txnpath_us_per_txn`).

use gdb_compress::Codec;
use gdb_model::{
    ColumnDef, DataType, Datum, DistributionKind, Row, RowKey, TableId, TableSchema, Timestamp,
    TxnId,
};
use gdb_replication::{ReplicaApplier, ShippingChannel};
use gdb_simnet::SimTime;
use gdb_storage::{DataNodeStorage, LockOutcome, VisibleRow};
use gdb_wal::RedoPayload;
use globaldb::shardlog::ShardLog;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// The two tables the script writes to.
pub const TABLES: [TableId; 2] = [TableId(1), TableId(2)];
/// Distinct keys per table — small enough to stay cache-resident, large
/// enough that version chains keep churning through vacuum.
pub const KEYSPACE: u32 = 4096;
/// Roughly one write in this many carries a text column, keeping the
/// string decode path honest without letting it dominate.
pub const TEXT_RATIO: u32 = 8;
/// Vacuum every this many transactions.
pub const VACUUM_EVERY: usize = 1024;

const TEXTS: [&str; 4] = [
    "priority-shipment-flag",
    "customer-credit-note: balance carried forward",
    "ror-freshness-probe",
    "warehouse-overflow-annotation-abcdefghijklmnop",
];

/// One write of a transaction script.
#[derive(Debug, Clone, Copy)]
pub struct WriteOp {
    /// Index into [`TABLES`].
    pub table: u8,
    pub key: u32,
    pub value: i64,
    /// Index into the text pool, if this write carries a text column.
    pub text: Option<u8>,
}

impl WriteOp {
    /// Append the columns this write installs to `row`.
    pub fn fill_row(&self, row: &mut Row) {
        row.0.push(Datum::Int(self.value));
        if let Some(tx) = self.text {
            row.0.push(Datum::Text(TEXTS[tx as usize].into()));
        }
    }
}

/// A deterministic workload: one inner vec of writes per transaction,
/// generated outside the timed region.
#[derive(Debug, Clone)]
pub struct Script(pub Vec<Vec<WriteOp>>);

impl Script {
    pub fn txns(&self) -> usize {
        self.0.len()
    }

    pub fn writes(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}

/// Generate `txns` transactions of 1–3 writes each from a fixed seed.
pub fn generate_script(seed: u64, txns: usize) -> Script {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut script = Vec::with_capacity(txns);
    for _ in 0..txns {
        let n = rng.gen_range(1..=3usize);
        let mut writes = Vec::with_capacity(n);
        for _ in 0..n {
            writes.push(WriteOp {
                table: rng.gen_range(0..TABLES.len()) as u8,
                key: rng.gen_range(0..KEYSPACE),
                value: rng.gen_range(-1_000_000..1_000_000i64),
                text: if rng.gen_range(0..TEXT_RATIO) == 0 {
                    Some(rng.gen_range(0..TEXTS.len()) as u8)
                } else {
                    None
                },
            });
        }
        script.push(writes);
    }
    Script(script)
}

/// What one pipeline run produced. `digest`/`segment_digest` are what
/// `tests/txn_path.rs` recomputes from the script; the counters feed the
/// budget tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnPathResult {
    pub wall: Duration,
    pub committed: u64,
    pub records: u64,
    /// FNV-1a over the final committed state: the primary's tables, then
    /// the replica's, each scanned in key order; per row the key datums,
    /// the row datums (a tag byte — 1 int, 3 text — then the value's
    /// little-endian / UTF-8 bytes) and the commit timestamp (LE).
    pub digest: u64,
    /// FNV-1a over the durable WAL segment bytes.
    pub segment_digest: u64,
    pub segment_len: usize,
    pub fsyncs: u64,
    pub synced_txns: u64,
    pub raw_bytes: u64,
    pub wire_bytes: u64,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_datum(mut h: u64, d: &Datum) -> u64 {
    match d {
        Datum::Null => fnv_bytes(h, &[0]),
        Datum::Int(v) => {
            h = fnv_bytes(h, &[1]);
            fnv_bytes(h, &v.to_le_bytes())
        }
        Datum::Decimal(v) => {
            h = fnv_bytes(h, &[2]);
            fnv_bytes(h, &v.to_le_bytes())
        }
        Datum::Text(s) => {
            h = fnv_bytes(h, &[3]);
            fnv_bytes(h, s.as_bytes())
        }
        Datum::Bool(b) => fnv_bytes(h, &[4, *b as u8]),
    }
}

/// Digest a table scan (rows arrive in key order).
fn fnv_scan<'a>(mut h: u64, rows: impl Iterator<Item = VisibleRow<'a>>) -> u64 {
    for vr in rows {
        for d in vr.key.0.iter() {
            h = fnv_datum(h, d);
        }
        for d in &vr.row.0 {
            h = fnv_datum(h, d);
        }
        h = fnv_bytes(h, &vr.commit_ts.0.to_le_bytes());
    }
    h
}

/// A data node holding the script's two tables. Storage takes each key
/// beside its row, so the schema only has to name the row's columns.
fn storage() -> DataNodeStorage {
    let mut storage = DataNodeStorage::new();
    for (i, id) in TABLES.into_iter().enumerate() {
        let schema = TableSchema {
            id,
            name: format!("t{i}"),
            columns: vec![
                ColumnDef::new("v", DataType::Int).not_null(),
                ColumnDef::new("note", DataType::Text),
            ],
            primary_key: vec![0],
            distribution_key: vec![0],
            distribution: DistributionKind::Hash,
        };
        storage.create_table(schema).expect("fresh storage");
    }
    storage
}

/// Run the script through the pipeline.
///
/// Transaction `i` runs at virtual microsecond `i` and commits at
/// timestamp `i + 1`. Per write: take the row lock, install the version
/// on the primary, stage the redo record in the shard log. Every `window`
/// transactions the log seals (one group-commit sync), the channel drains
/// the sealed window — its durable frames, compressed for the wire — into
/// batches the replica applies, and the log trims what the replica has
/// applied.
pub fn run_fast(script: &Script, window: usize) -> TxnPathResult {
    let window = window.max(1);
    let mut primary = storage();
    let mut replica = ReplicaApplier::new(storage());
    let mut log = ShardLog::new();
    let mut channel = ShippingChannel::new(Codec::Lz4);
    let mut records = 0u64;

    let start = Instant::now();
    for (i, writes) in script.0.iter().enumerate() {
        let txn = TxnId(i as u64);
        let ts = Timestamp(i as u64 + 1);
        let now = SimTime::from_micros(i as u64);
        let release = SimTime::from_micros(i as u64 + 1);
        for w in writes {
            let table = TABLES[w.table as usize];
            let key = RowKey::single(w.key as i64);
            // Sequential txns: the previous holder's lock has always
            // expired by `now`, so this never waits.
            match primary.locks.acquire(table, &key, txn, now, release) {
                LockOutcome::Acquired | LockOutcome::Held => {}
                LockOutcome::WaitUntil(at) => panic!("unexpected lock wait until {at}"),
            }
            let mut row = Row::default();
            w.fill_row(&mut row);
            primary
                .apply_put(table, &key, row.clone(), ts, release)
                .expect("primary install");
            log.append(now, txn, RedoPayload::Insert { table, key, row });
            records += 1;
        }
        log.append(now, txn, RedoPayload::Commit { commit_ts: ts });
        records += 1;

        if (i + 1) % window == 0 || i + 1 == script.0.len() {
            log.seal_upto(now);
            while let Some(shipped) = log.drain(&mut channel) {
                replica
                    .apply_batch_owned(shipped.batch.records, now)
                    .expect("replica replay");
            }
            log.trim_shipped(replica.applied_lsn());
        }
        if (i + 1) % VACUUM_EVERY == 0 {
            primary.vacuum(ts);
            replica.storage.vacuum(ts);
        }
    }
    let wall = start.elapsed();

    let snapshot = Timestamp(script.0.len() as u64 + 1);
    let mut digest = FNV_OFFSET;
    for storage in [&mut primary, &mut replica.storage] {
        for table in TABLES {
            digest = fnv_scan(digest, storage.scan(table, snapshot).expect("script table"));
        }
    }
    let durable = log.durable();
    TxnPathResult {
        wall,
        committed: script.0.len() as u64,
        records,
        digest,
        segment_digest: fnv_bytes(FNV_OFFSET, durable.segment()),
        segment_len: durable.segment().len(),
        fsyncs: durable.fsyncs,
        synced_txns: durable.synced_txns,
        raw_bytes: channel.stats.raw_bytes,
        wire_bytes: channel.stats.wire_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_generation_is_deterministic() {
        let a = generate_script(7, 500);
        let b = generate_script(7, 500);
        assert_eq!(a.txns(), 500);
        for (x, y) in a.0.iter().zip(&b.0) {
            assert_eq!(x.len(), y.len());
            for (wx, wy) in x.iter().zip(y) {
                assert_eq!(
                    (wx.table, wx.key, wx.value, wx.text),
                    (wy.table, wy.key, wy.value, wy.text)
                );
            }
        }
        let c = generate_script(8, 500);
        assert_ne!(
            run_fast(&a, 64).segment_digest,
            run_fast(&c, 64).segment_digest,
            "different seeds must produce different histories"
        );
    }

    #[test]
    fn window_size_does_not_change_history() {
        let script = generate_script(9, 1500);
        let base = run_fast(&script, 1);
        for window in [7, 64, 4096] {
            let run = run_fast(&script, window);
            assert_eq!(run.segment_digest, base.segment_digest);
            assert_eq!(run.digest, base.digest);
        }
    }
}

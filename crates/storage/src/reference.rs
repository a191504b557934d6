//! Frozen pre-optimization storage path, kept as the differential
//! reference the tests compare against.
//!
//! Everything here is a verbatim copy of the storage hot path **before**
//! the transaction hot-path pass (arena version chains, no-clone lock
//! acquire, zero-copy encode/ship):
//!
//! * [`ReferenceTable`] — `Vec`-backed version chains in a
//!   `BTreeMap<RowKey, chain>`, with `entry(key.clone())` per install.
//! * [`ReferenceLockTable`] — one flat `std::collections::HashMap`
//!   (SipHash) keyed by `(TableId, RowKey)`, cloning the key on every
//!   acquire/lookup.
//! * [`legacy_decode_batch`] — the old replay decode: a fresh `String`
//!   (copy + re-validate) per text field, fresh `Vec`s per row and key.
//!
//! `gdb_bench::txnpath` drives the identical workload through this path
//! and the live one, and the differential tests (here and in
//! `crates/bench/tests/txn_path.rs`) assert identical durable bytes and
//! committed state. Nothing is timed against it. Do not "fix" or
//! optimize this module: its value is that it does not change.

use crate::table::{Version, VisibleRow};
use gdb_model::{Datum, GdbError, GdbResult, Row, RowKey, TableId, Timestamp, TxnId};
use gdb_simnet::SimTime;
use gdb_wal::codec::{DecodeError, Reader};
use gdb_wal::record::{Lsn, RedoPayload, RedoRecord, WalError};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

pub use crate::lock::LockOutcome;

/// The version chain for one primary key, newest last (frozen copy).
#[derive(Debug, Clone, Default)]
struct VersionChain {
    versions: Vec<Version>,
}

impl VersionChain {
    fn push(&mut self, key: &RowKey, v: Version) -> GdbResult<()> {
        if let Some(last) = self.versions.last() {
            if v.commit_ts < last.commit_ts {
                return Err(GdbError::Internal(format!(
                    "version chain order violation at {key}: {} (vtime {}) after {} (vtime {})",
                    v.commit_ts, v.commit_vtime, last.commit_ts, last.commit_vtime
                )));
            }
        }
        self.versions.push(v);
        Ok(())
    }

    fn visible_at(&self, snapshot: Timestamp) -> Option<&Version> {
        self.versions.iter().rev().find(|v| v.commit_ts <= snapshot)
    }

    fn newest(&self) -> Option<&Version> {
        self.versions.last()
    }

    fn vacuum(&mut self, horizon: Timestamp) -> usize {
        let keep_from = match self.versions.iter().rposition(|v| v.commit_ts <= horizon) {
            Some(i) => i,
            None => return 0,
        };
        let removed = keep_from;
        if removed > 0 {
            self.versions.drain(0..removed);
        }
        removed
    }

    fn len(&self) -> usize {
        self.versions.len()
    }
}

/// Pre-pass versioned table (frozen copy of `Table`).
#[derive(Debug, Default, Clone)]
pub struct ReferenceTable {
    rows: BTreeMap<RowKey, VersionChain>,
    /// Count of version installs (write amplification metric).
    pub versions_installed: u64,
}

impl ReferenceTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a committed version. Note the unconditional `key.clone()`
    /// — the allocation the live path's arena install eliminates.
    pub fn install_version(
        &mut self,
        key: RowKey,
        row: Option<Row>,
        commit_ts: Timestamp,
        commit_vtime: SimTime,
    ) -> GdbResult<()> {
        self.versions_installed += 1;
        let chain = self.rows.entry(key.clone()).or_default();
        chain.push(
            &key,
            Version {
                commit_ts,
                commit_vtime,
                row,
            },
        )
    }

    pub fn read(&self, key: &RowKey, snapshot: Timestamp) -> Option<VisibleRow<'_>> {
        let (key, chain) = self.rows.get_key_value(key)?;
        let v = chain.visible_at(snapshot)?;
        v.row.as_ref().map(|row| VisibleRow {
            key,
            row,
            commit_ts: v.commit_ts,
            commit_vtime: v.commit_vtime,
        })
    }

    pub fn read_newest(&self, key: &RowKey) -> Option<VisibleRow<'_>> {
        let (key, chain) = self.rows.get_key_value(key)?;
        let v = chain.newest()?;
        v.row.as_ref().map(|row| VisibleRow {
            key,
            row,
            commit_ts: v.commit_ts,
            commit_vtime: v.commit_vtime,
        })
    }

    pub fn range(
        &self,
        lo: Option<&RowKey>,
        hi: Option<&RowKey>,
        snapshot: Timestamp,
    ) -> Vec<VisibleRow<'_>> {
        let lo_b = lo.map_or(Bound::Unbounded, |k| Bound::Included(k.clone()));
        let hi_b = hi.map_or(Bound::Unbounded, |k| Bound::Included(k.clone()));
        self.rows
            .range((lo_b, hi_b))
            .filter_map(|(key, chain)| {
                chain.visible_at(snapshot).and_then(|v| {
                    v.row.as_ref().map(|row| VisibleRow {
                        key,
                        row,
                        commit_ts: v.commit_ts,
                        commit_vtime: v.commit_vtime,
                    })
                })
            })
            .collect()
    }

    pub fn scan(&self, snapshot: Timestamp) -> Vec<VisibleRow<'_>> {
        self.range(None, None, snapshot)
    }

    pub fn key_count(&self) -> usize {
        self.rows.len()
    }

    pub fn vacuum(&mut self, horizon: Timestamp) -> usize {
        let mut removed = 0;
        for chain in self.rows.values_mut() {
            removed += chain.vacuum(horizon);
        }
        self.rows.retain(|_, chain| {
            !(chain.len() == 1
                && chain.versions[0].row.is_none()
                && chain.versions[0].commit_ts <= horizon)
        });
        removed
    }
}

#[derive(Debug, Clone, Copy)]
struct LockState {
    holder: TxnId,
    release_at: SimTime,
}

/// Pre-pass lock table (frozen copy of `LockTable`): SipHash map keyed
/// by `(TableId, RowKey)`, one key clone per acquire.
#[derive(Debug, Default, Clone)]
pub struct ReferenceLockTable {
    locks: HashMap<(TableId, RowKey), LockState>,
    /// Total lock-wait events (contention metric).
    pub waits: u64,
}

impl ReferenceLockTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn acquire(
        &mut self,
        table: TableId,
        key: &RowKey,
        txn: TxnId,
        now: SimTime,
        release_at: SimTime,
    ) -> LockOutcome {
        let entry = self.locks.entry((table, key.clone()));
        match entry {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let state = o.get_mut();
                if state.holder == txn {
                    state.release_at = state.release_at.max(release_at);
                    return LockOutcome::Acquired;
                }
                if state.release_at <= now {
                    *state = LockState {
                        holder: txn,
                        release_at,
                    };
                    return LockOutcome::Acquired;
                }
                self.waits += 1;
                LockOutcome::WaitUntil(state.release_at)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(LockState {
                    holder: txn,
                    release_at,
                });
                LockOutcome::Acquired
            }
        }
    }

    pub fn extend(&mut self, txn: TxnId, release_at: SimTime) {
        for state in self.locks.values_mut() {
            if state.holder == txn {
                state.release_at = state.release_at.max(release_at);
            }
        }
    }

    pub fn release_all(&mut self, txn: TxnId) {
        self.locks.retain(|_, s| s.holder != txn);
    }

    pub fn set_release(&mut self, table: TableId, key: &RowKey, txn: TxnId, at: SimTime) {
        if let Some(s) = self.locks.get_mut(&(table, key.clone())) {
            if s.holder == txn {
                s.release_at = at;
            }
        }
    }

    pub fn sweep(&mut self, now: SimTime) {
        self.locks.retain(|_, s| s.release_at > now);
    }

    pub fn holder(&self, table: TableId, key: &RowKey, now: SimTime) -> Option<TxnId> {
        self.locks
            .get(&(table, key.clone()))
            .filter(|s| s.release_at > now)
            .map(|s| s.holder)
    }

    pub fn len(&self) -> usize {
        self.locks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }
}

/// The old `Decoder::str` behavior: copy the bytes out, then validate
/// the copy (`String::from_utf8` walks it again).
fn legacy_str(r: &mut Reader) -> Result<String, DecodeError> {
    let b = r.bytes()?;
    String::from_utf8(b.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
}

fn legacy_datum(r: &mut Reader) -> Result<Datum, DecodeError> {
    // Tag bytes mirror gdb_wal::codec (T_NULL..T_BOOL_T).
    Ok(match r.u8()? {
        0 => Datum::Null,
        1 => Datum::Int(r.varint_i64()?),
        2 => Datum::Decimal(r.varint_i64()?),
        3 => Datum::Text(legacy_str(r)?),
        4 => Datum::Bool(false),
        5 => Datum::Bool(true),
        t => {
            return Err(DecodeError::UnknownTag {
                kind: "datum",
                tag: t,
            })
        }
    })
}

fn legacy_datums(r: &mut Reader, cap: usize) -> Result<Vec<Datum>, DecodeError> {
    let n = r.varint()? as usize;
    let mut vals = Vec::with_capacity(n.min(cap));
    for _ in 0..n {
        vals.push(legacy_datum(r)?);
    }
    Ok(vals)
}

/// The pre-pass replay decode for the hot record kinds: fresh `Vec`s
/// per row/key, owned `String` per text field, one owned `RedoRecord`
/// per frame collected into a fresh batch `Vec`. Control/DDL kinds the
/// transaction hot path never ships decode as an error here.
pub fn legacy_decode_batch(data: &[u8]) -> Result<Vec<RedoRecord>, WalError> {
    let mut r = Reader::new(data);
    let mut out = Vec::new();
    while !r.is_empty() {
        let body = r.bytes()?;
        let mut crc_bytes = [0u8; 4];
        for b in crc_bytes.iter_mut() {
            *b = r.u8()?;
        }
        if gdb_wal::crc::crc32(body) != u32::from_le_bytes(crc_bytes) {
            let lsn = Reader::new(body).varint().unwrap_or(0);
            return Err(WalError::Corrupt { lsn });
        }
        let mut br = Reader::new(body);
        let lsn = Lsn(br.varint()?);
        let txn = TxnId(br.varint()?);
        // Payload tags mirror gdb_wal::record (P_INSERT..P_CHECKPOINT).
        let payload = match br.u8()? {
            1 => RedoPayload::Insert {
                table: TableId(br.varint()? as u32),
                key: RowKey(legacy_datums(&mut br, 64)?),
                row: Row(legacy_datums(&mut br, 1024)?),
            },
            2 => RedoPayload::Update {
                table: TableId(br.varint()? as u32),
                key: RowKey(legacy_datums(&mut br, 64)?),
                new_row: Row(legacy_datums(&mut br, 1024)?),
            },
            3 => RedoPayload::Delete {
                table: TableId(br.varint()? as u32),
                key: RowKey(legacy_datums(&mut br, 64)?),
            },
            4 => RedoPayload::PendingCommit,
            5 => RedoPayload::Commit {
                commit_ts: Timestamp(br.varint()?),
            },
            6 => RedoPayload::Abort,
            11 => RedoPayload::Heartbeat {
                commit_ts: Timestamp(br.varint()?),
            },
            t => {
                return Err(WalError::Decode(format!(
                    "legacy decoder: unsupported payload tag {t}"
                )))
            }
        };
        out.push(RedoRecord { lsn, txn, payload });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_wal::record::encode_record;

    #[test]
    fn legacy_decode_matches_live_decoder() {
        let recs: Vec<RedoRecord> = vec![
            RedoRecord {
                lsn: Lsn(0),
                txn: TxnId(1),
                payload: RedoPayload::Insert {
                    table: TableId(3),
                    key: RowKey::single(7i64),
                    row: Row(vec![
                        Datum::Int(7),
                        Datum::Text("héllo".into()),
                        Datum::Null,
                    ]),
                },
            },
            RedoRecord {
                lsn: Lsn(1),
                txn: TxnId(1),
                payload: RedoPayload::PendingCommit,
            },
            RedoRecord {
                lsn: Lsn(2),
                txn: TxnId(1),
                payload: RedoPayload::Commit {
                    commit_ts: Timestamp(42),
                },
            },
            RedoRecord {
                lsn: Lsn(3),
                txn: TxnId(2),
                payload: RedoPayload::Delete {
                    table: TableId(3),
                    key: RowKey(vec![Datum::Int(1), Datum::Bool(true)]),
                },
            },
        ];
        let mut wire = Vec::new();
        for rec in &recs {
            encode_record(&mut wire, rec);
        }
        assert_eq!(legacy_decode_batch(&wire).unwrap(), recs);
        assert_eq!(gdb_wal::record::decode_all(&wire).unwrap(), recs);
    }

    #[test]
    fn legacy_decode_detects_corruption() {
        let rec = RedoRecord {
            lsn: Lsn(0),
            txn: TxnId(1),
            payload: RedoPayload::Commit {
                commit_ts: Timestamp(9),
            },
        };
        let mut wire = Vec::new();
        encode_record(&mut wire, &rec);
        let mid = wire.len() / 2;
        wire[mid] ^= 0x20;
        assert!(legacy_decode_batch(&wire).is_err());
    }
}

#[cfg(test)]
mod difftests {
    //! Differential property tests: the optimized live structures must
    //! behave identically to these frozen copies on randomized scripts.
    use super::*;
    use crate::lock::LockTable;
    use crate::table::Table;
    use proptest::prelude::*;

    proptest! {
        /// Arena-chained `Table` (vacuuming only its listed chains) and
        /// the frozen Vec-chain table (scanning every chain) stay
        /// identical while installs — updates, tombstones, re-inserts —
        /// interleave with vacuums at rising horizons and the live table
        /// is swapped for its clone mid-stream: same removed counts, same
        /// key counts, same reads at every snapshot from the last horizon.
        #[test]
        fn table_matches_reference(
            writes in proptest::collection::vec(
                (0i64..6, 1u64..80, any::<bool>()), 1..50),
            // After the i-th install: vacuum this far below its timestamp.
            vacuums in proptest::collection::vec(proptest::option::of(0u64..20), 50),
            clone_at in 0usize..50,
        ) {
            let mut sorted = writes.clone();
            sorted.sort_by_key(|(_, ts, _)| *ts);
            let scan = |rows: Vec<VisibleRow<'_>>| -> Vec<(RowKey, Row, Timestamp)> {
                rows.iter().map(|v| (v.key.clone(), v.row.clone(), v.commit_ts)).collect()
            };
            let mut live = Table::new();
            let mut frozen = ReferenceTable::new();
            let mut horizon = 0u64;
            for (i, (key, ts, delete)) in sorted.iter().enumerate() {
                let row = if *delete { None } else {
                    Some(Row(vec![Datum::Int(*key), Datum::Int(*ts as i64)]))
                };
                live.install_version(
                    &RowKey::single(*key), row.clone(), Timestamp(*ts), SimTime::ZERO,
                ).unwrap();
                frozen.install_version(
                    RowKey::single(*key), row, Timestamp(*ts), SimTime::ZERO,
                ).unwrap();
                if i == clone_at {
                    live = live.clone();
                }
                let Some(lag) = vacuums[i] else { continue };
                horizon = horizon.max(ts.saturating_sub(lag));
                prop_assert_eq!(
                    live.vacuum(Timestamp(horizon)),
                    frozen.vacuum(Timestamp(horizon)),
                    "vacuum({}) removed different counts", horizon
                );
                prop_assert_eq!(live.key_count(), frozen.key_count());
                for snapshot in horizon..90 {
                    prop_assert_eq!(
                        scan(live.scan(Timestamp(snapshot))),
                        scan(frozen.scan(Timestamp(snapshot))),
                        "scan at {} diverged", snapshot
                    );
                }
            }
            prop_assert_eq!(live.versions_installed, frozen.versions_installed);
            // A final pass above every timestamp leaves one version per
            // live key on both sides.
            prop_assert_eq!(live.vacuum(Timestamp(90)), frozen.vacuum(Timestamp(90)));
            prop_assert_eq!(live.key_count(), frozen.key_count());
            for snapshot in 0u64..95 {
                prop_assert_eq!(
                    scan(live.scan(Timestamp(snapshot))),
                    scan(frozen.scan(Timestamp(snapshot))),
                    "scan at {} diverged after the last vacuum", snapshot
                );
            }
        }

        /// The nested fast-hash lock table and the frozen flat SipHash
        /// table produce identical outcomes, wait counts, and holders.
        #[test]
        fn lock_table_matches_reference(
            ops in proptest::collection::vec(
                (0u8..5, 0u8..3, 0i64..5, 1u64..6, 0u64..100, 0u64..140), 1..60),
        ) {
            let mut live = LockTable::new();
            let mut frozen = ReferenceLockTable::new();
            for (op, table, key, txn, now_ms, rel_ms) in ops {
                let table = TableId(table as u32);
                let key = RowKey::single(key);
                let txn = TxnId(txn);
                let now = SimTime::from_millis(now_ms);
                let rel = SimTime::from_millis(rel_ms);
                match op {
                    0 | 1 => {
                        let a = live.acquire(table, &key, txn, now, rel);
                        let b = frozen.acquire(table, &key, txn, now, rel);
                        prop_assert_eq!(a, b);
                    }
                    2 => {
                        live.extend(txn, rel);
                        frozen.extend(txn, rel);
                    }
                    3 => {
                        live.release_all(txn);
                        frozen.release_all(txn);
                    }
                    _ => {
                        live.sweep(now);
                        frozen.sweep(now);
                    }
                }
                prop_assert_eq!(live.waits, frozen.waits);
                prop_assert_eq!(live.len(), frozen.len());
                prop_assert_eq!(
                    live.holder(table, &key, now),
                    frozen.holder(table, &key, now)
                );
            }
        }
    }
}

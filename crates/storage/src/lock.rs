//! Row write locks with virtual-time release.
//!
//! The simulation executes each transaction's logic at its start event, but
//! its commit completes later in virtual time (after network round trips
//! and the GClock commit wait). A row lock is therefore held until the
//! holder's commit *virtual time*; a later transaction that wants the row
//! observes the release time and adds the wait to its own latency — exactly
//! the blocking a real lock manager would produce.

use gdb_model::{Datum, RowKey, RowMap, TableId, TxnId};
use gdb_simnet::SimTime;

/// Result of a lock attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is yours now; proceed.
    Acquired,
    /// You already held the lock (its release time is extended); proceed.
    Held,
    /// Held by another transaction until the given virtual time; wait
    /// until then (adding to your latency) and retry.
    WaitUntil(SimTime),
}

#[derive(Debug, Clone, Copy)]
struct LockState {
    holder: TxnId,
    release_at: SimTime,
}

/// The per-data-node lock table.
///
/// Keyed by a [`RowMap`]: every path probes through borrowed datums,
/// and the acquire path shares the holder's key only when inserting a
/// lock on a row it has never seen.
#[derive(Debug, Default, Clone)]
pub struct LockTable {
    locks: RowMap<LockState>,
    /// Total lock-wait events (contention metric).
    pub waits: u64,
}

impl LockTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to take the write lock on `(table, key)` for `txn` at virtual
    /// time `now`, holding it until `release_at` (the txn's commit time).
    ///
    /// Re-acquisition by the same holder extends the release time and
    /// reports [`LockOutcome::Held`], so the holder need not remember the
    /// lock a second time. A lock whose release time has passed is
    /// expired and replaceable.
    pub fn acquire(
        &mut self,
        table: TableId,
        key: &RowKey,
        txn: TxnId,
        now: SimTime,
        release_at: SimTime,
    ) -> LockOutcome {
        if let Some(state) = self.locks.get_mut(table, key) {
            if state.holder == txn {
                state.release_at = state.release_at.max(release_at);
                return LockOutcome::Held;
            }
            if state.release_at <= now {
                // Previous holder's commit already completed.
                *state = LockState {
                    holder: txn,
                    release_at,
                };
                return LockOutcome::Acquired;
            }
            self.waits += 1;
            return LockOutcome::WaitUntil(state.release_at);
        }
        self.locks.insert(
            table,
            key,
            LockState {
                holder: txn,
                release_at,
            },
        );
        LockOutcome::Acquired
    }

    /// Set the exact release time of one lock held by `txn` (the commit
    /// path pins each lock to the transaction's per-shard commit-apply
    /// instant).
    pub fn set_release(&mut self, table: TableId, key: &[Datum], txn: TxnId, at: SimTime) {
        if let Some(s) = self.locks.get_mut(table, key) {
            if s.holder == txn {
                s.release_at = at;
            }
        }
    }

    /// Drop expired entries (housekeeping so the map doesn't grow forever).
    pub fn sweep(&mut self, now: SimTime) {
        self.locks.retain(|s| s.release_at > now);
    }

    /// Current holder of a lock, if unexpired.
    pub fn holder(&self, table: TableId, key: &[Datum], now: SimTime) -> Option<TxnId> {
        self.locks
            .get(table, key)
            .filter(|s| s.release_at > now)
            .map(|s| s.holder)
    }

    pub fn len(&self) -> usize {
        self.locks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: i64) -> RowKey {
        RowKey::single(v)
    }

    const T: TableId = TableId(1);

    #[test]
    fn uncontended_acquire() {
        let mut lt = LockTable::new();
        assert_eq!(
            lt.acquire(
                T,
                &key(1),
                TxnId(1),
                SimTime::ZERO,
                SimTime::from_millis(10)
            ),
            LockOutcome::Acquired
        );
        assert_eq!(lt.holder(T, &key(1), SimTime::ZERO), Some(TxnId(1)));
    }

    #[test]
    fn contended_lock_reports_release_time() {
        let mut lt = LockTable::new();
        lt.acquire(
            T,
            &key(1),
            TxnId(1),
            SimTime::ZERO,
            SimTime::from_millis(50),
        );
        match lt.acquire(
            T,
            &key(1),
            TxnId(2),
            SimTime::from_millis(10),
            SimTime::from_millis(60),
        ) {
            LockOutcome::WaitUntil(t) => assert_eq!(t, SimTime::from_millis(50)),
            other => panic!("expected wait, got {other:?}"),
        }
        assert_eq!(lt.waits, 1);
        // After the release time, txn 2 can take it.
        assert_eq!(
            lt.acquire(
                T,
                &key(1),
                TxnId(2),
                SimTime::from_millis(50),
                SimTime::from_millis(60)
            ),
            LockOutcome::Acquired
        );
        assert_eq!(
            lt.holder(T, &key(1), SimTime::from_millis(55)),
            Some(TxnId(2))
        );
    }

    #[test]
    fn reentrant_acquire_extends() {
        let mut lt = LockTable::new();
        lt.acquire(
            T,
            &key(1),
            TxnId(1),
            SimTime::ZERO,
            SimTime::from_millis(10),
        );
        assert_eq!(
            lt.acquire(
                T,
                &key(1),
                TxnId(1),
                SimTime::ZERO,
                SimTime::from_millis(30)
            ),
            LockOutcome::Held
        );
        // Another txn must wait until the extended time.
        match lt.acquire(
            T,
            &key(1),
            TxnId(2),
            SimTime::from_millis(5),
            SimTime::from_millis(40),
        ) {
            LockOutcome::WaitUntil(t) => assert_eq!(t, SimTime::from_millis(30)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sweep_clears_expired() {
        let mut lt = LockTable::new();
        lt.acquire(
            T,
            &key(1),
            TxnId(1),
            SimTime::ZERO,
            SimTime::from_millis(10),
        );
        lt.acquire(
            T,
            &key(2),
            TxnId(2),
            SimTime::ZERO,
            SimTime::from_millis(90),
        );
        lt.sweep(SimTime::from_millis(50));
        assert_eq!(lt.len(), 1);
        assert_eq!(
            lt.holder(T, &key(2), SimTime::from_millis(50)),
            Some(TxnId(2))
        );
    }

    #[test]
    fn different_keys_do_not_conflict() {
        let mut lt = LockTable::new();
        lt.acquire(
            T,
            &key(1),
            TxnId(1),
            SimTime::ZERO,
            SimTime::from_millis(50),
        );
        assert_eq!(
            lt.acquire(
                T,
                &key(2),
                TxnId(2),
                SimTime::ZERO,
                SimTime::from_millis(50)
            ),
            LockOutcome::Acquired
        );
        // Same key, different table: also no conflict.
        assert_eq!(
            lt.acquire(
                TableId(2),
                &key(1),
                TxnId(3),
                SimTime::ZERO,
                SimTime::from_millis(50)
            ),
            LockOutcome::Acquired
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// The nested fast-hash lock table obeys the lock rule written as
        /// a spec — one flat map from row to `(holder, release time)`, a
        /// lock whose release time has passed is free: identical outcomes,
        /// wait counts, sizes and holders.
        #[test]
        fn lock_table_matches_spec(
            ops in proptest::collection::vec(
                (0u8..4, 0u8..3, 0i64..5, 1u64..6, 0u64..100, 0u64..140), 1..60),
        ) {
            let mut live = LockTable::new();
            let mut spec: HashMap<(TableId, RowKey), (TxnId, SimTime)> = HashMap::new();
            let mut waits = 0u64;
            for (op, table, key, txn, now_ms, rel_ms) in ops {
                let row = (TableId(table as u32), RowKey::single(key));
                let txn = TxnId(txn);
                let now = SimTime::from_millis(now_ms);
                let rel = SimTime::from_millis(rel_ms);
                match op {
                    0 | 1 => {
                        // An expired lock of another transaction is free.
                        let held = spec.get(&row).copied().filter(|l| l.0 == txn || l.1 > now);
                        let expected = match held {
                            Some((holder, until)) if holder != txn => {
                                waits += 1;
                                LockOutcome::WaitUntil(until)
                            }
                            own => {
                                let until = own.map_or(rel, |l| l.1.max(rel));
                                spec.insert(row.clone(), (txn, until));
                                if own.is_some() {
                                    LockOutcome::Held
                                } else {
                                    LockOutcome::Acquired
                                }
                            }
                        };
                        prop_assert_eq!(live.acquire(row.0, &row.1, txn, now, rel), expected);
                    }
                    2 => {
                        live.set_release(row.0, &row.1, txn, rel);
                        if let Some(l) = spec.get_mut(&row).filter(|l| l.0 == txn) {
                            l.1 = rel;
                        }
                    }
                    _ => {
                        live.sweep(now);
                        spec.retain(|_, l| l.1 > now);
                    }
                }
                prop_assert_eq!(live.waits, waits);
                prop_assert_eq!(live.len(), spec.len());
                let holder = spec.get(&row).filter(|l| l.1 > now).map(|l| l.0);
                prop_assert_eq!(live.holder(row.0, &row.1, now), holder);
            }
        }
    }
}

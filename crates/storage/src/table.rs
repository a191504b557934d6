//! Versioned tables with snapshot visibility.
//!
//! Version chains live in a per-table slab arena: each chain is a
//! newest-first singly linked list of `u32` node indices, with the head
//! stored in the key B-tree. Vacuumed nodes go on a freelist and their
//! row buffers into a bounded pool, so the steady state — install,
//! read, vacuum, repeat — allocates nothing per transaction. The frozen
//! pre-arena implementation is kept verbatim in [`crate::reference`]
//! and the differential property tests there pin the two to identical
//! behavior.

use gdb_model::{GdbError, GdbResult, Row, RowKey, Timestamp};
use gdb_simnet::SimTime;
use std::collections::BTreeMap;
use std::ops::Bound;

/// One committed version of a row.
#[derive(Debug, Clone, PartialEq)]
pub struct Version {
    /// Commit timestamp of the writing transaction.
    pub commit_ts: Timestamp,
    /// Virtual time at which the commit completed (used to model readers
    /// waiting on a commit that is in flight at their read time).
    pub commit_vtime: SimTime,
    /// The row contents; `None` is a deletion tombstone.
    pub row: Option<Row>,
}

/// A visible row returned by a snapshot read.
#[derive(Debug, Clone, PartialEq)]
pub struct VisibleRow<'a> {
    pub key: &'a RowKey,
    pub row: &'a Row,
    pub commit_ts: Timestamp,
    /// If the version's commit completes after the reader's current virtual
    /// time, the reader must wait until this instant (commit in flight).
    pub commit_vtime: SimTime,
}

/// Chain-list terminator.
const NIL: u32 = u32::MAX;

/// Vacuumed row buffers kept for reuse, per table. Bounded so a burst
/// of deletes cannot pin arbitrary memory.
const ROW_POOL_CAP: usize = 4096;

/// One arena slot: a version plus the index of the next-*older* version
/// in its chain.
#[derive(Debug, Clone)]
struct VersionNode {
    version: Version,
    older: u32,
}

/// Slab arena holding every version node of one table, with a freelist
/// fed by vacuum and a bounded pool of recycled row buffers.
#[derive(Debug, Default, Clone)]
struct VersionArena {
    nodes: Vec<VersionNode>,
    free: Vec<u32>,
    row_pool: Vec<Row>,
}

impl VersionArena {
    fn alloc(&mut self, version: Version, older: u32) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = VersionNode { version, older };
                i
            }
            None => {
                self.nodes.push(VersionNode { version, older });
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Return a node to the freelist, salvaging its row buffer.
    fn release(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        if let Some(mut row) = node.version.row.take() {
            if self.row_pool.len() < ROW_POOL_CAP {
                row.0.clear();
                self.row_pool.push(row);
            }
        }
        self.free.push(idx);
    }

    /// Allocator bytes the arena currently pins, capacity-based (a pure
    /// function of the operation history, so seeded runs report
    /// identical footprints): slab capacity, freelist capacity, pooled
    /// row buffers, and the row buffers held live inside nodes.
    fn resident_bytes(&self) -> usize {
        let node_rows: usize = self
            .nodes
            .iter()
            .map(|n| {
                n.version.row.as_ref().map_or(0, |r| {
                    r.0.capacity() * std::mem::size_of::<gdb_model::Datum>()
                })
            })
            .sum();
        let pooled: usize = self
            .row_pool
            .iter()
            .map(|r| r.0.capacity() * std::mem::size_of::<gdb_model::Datum>())
            .sum();
        self.nodes.capacity() * std::mem::size_of::<VersionNode>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.row_pool.capacity() * std::mem::size_of::<Row>()
            + node_rows
            + pooled
    }

    /// Release memory held for reuse: drop the pooled row buffers and
    /// return slack slab/freelist capacity to the allocator. The
    /// freelist *entries* are kept — they index live slab slots and
    /// dropping them would leak arena nodes. Steady-state allocation
    /// freedom resumes as vacuum refills the pool.
    fn compact(&mut self) {
        self.row_pool.clear();
        self.row_pool.shrink_to_fit();
        self.nodes.shrink_to_fit();
        self.free.shrink_to_fit();
    }

    /// Newest version at or below `snapshot` walking from `head`.
    fn visible_at(&self, mut idx: u32, snapshot: Timestamp) -> Option<&Version> {
        while idx != NIL {
            let node = &self.nodes[idx as usize];
            if node.version.commit_ts <= snapshot {
                return Some(&node.version);
            }
            idx = node.older;
        }
        None
    }
}

/// A versioned table: primary-key ordered chains in a slab arena.
#[derive(Debug, Default, Clone)]
pub struct Table {
    /// Key -> head (newest) version node of its chain.
    rows: BTreeMap<RowKey, u32>,
    arena: VersionArena,
    /// Count of version installs (write amplification metric).
    pub versions_installed: u64,
}

impl Table {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a committed version (insert, update, or tombstone).
    /// `row = None` is a delete. Chains must stay ordered by commit
    /// timestamp — guaranteed by the lock table (a writer waits out the
    /// previous holder whose commit wait, in turn, guarantees a larger
    /// timestamp). The key is cloned only when it is new to the table,
    /// so the steady state (existing keys, recycled row buffers)
    /// installs with zero allocations.
    pub fn install_version(
        &mut self,
        key: &RowKey,
        row: Option<Row>,
        commit_ts: Timestamp,
        commit_vtime: SimTime,
    ) -> GdbResult<()> {
        self.versions_installed += 1;
        let v = Version {
            commit_ts,
            commit_vtime,
            row,
        };
        // A key above the current maximum is new: skip the lookup, so an
        // ascending load pays one tree descent per row (the insert), not
        // two. `last_key_value` walks the right edge without comparing.
        let existing = match self.rows.last_key_value() {
            Some((max, _)) if key <= max => self.rows.get_mut(key),
            _ => None,
        };
        if let Some(head_slot) = existing {
            let head = *head_slot;
            let last = &self.arena.nodes[head as usize].version;
            if v.commit_ts < last.commit_ts {
                return Err(GdbError::Internal(format!(
                    "version chain order violation at {key}: {} (vtime {}) after {} (vtime {})",
                    v.commit_ts, v.commit_vtime, last.commit_ts, last.commit_vtime
                )));
            }
            *head_slot = self.arena.alloc(v, head);
        } else {
            let idx = self.arena.alloc(v, NIL);
            self.rows.insert(key.clone(), idx);
        }
        Ok(())
    }

    /// A cleared row buffer recycled from vacuumed versions (or a fresh
    /// one if the pool is empty). Pass its contents back through
    /// [`Table::install_version`] to keep the steady state allocation-free.
    pub fn recycled_row(&mut self) -> Row {
        self.arena.row_pool.pop().unwrap_or_default()
    }

    /// Point read at a snapshot. Tombstones read as `None`.
    pub fn read(&self, key: &RowKey, snapshot: Timestamp) -> Option<VisibleRow<'_>> {
        let (key, &head) = self.rows.get_key_value(key)?;
        let v = self.arena.visible_at(head, snapshot)?;
        v.row.as_ref().map(|row| VisibleRow {
            key,
            row,
            commit_ts: v.commit_ts,
            commit_vtime: v.commit_vtime,
        })
    }

    /// The newest committed row regardless of snapshot (read-committed
    /// update path, used after acquiring the row lock).
    pub fn read_newest(&self, key: &RowKey) -> Option<VisibleRow<'_>> {
        let (key, &head) = self.rows.get_key_value(key)?;
        let v = &self.arena.nodes[head as usize].version;
        v.row.as_ref().map(|row| VisibleRow {
            key,
            row,
            commit_ts: v.commit_ts,
            commit_vtime: v.commit_vtime,
        })
    }

    /// True if any version (even a tombstone) exists for the key.
    pub fn contains_any_version(&self, key: &RowKey) -> bool {
        self.rows.contains_key(key)
    }

    /// True if the key has a live (non-tombstone) newest version.
    pub fn exists_newest(&self, key: &RowKey) -> bool {
        self.read_newest(key).is_some()
    }

    /// Range scan `[lo, hi]` (inclusive bounds; `None` = unbounded) at a
    /// snapshot, in key order.
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
            .filter_map(|(key, &head)| {
                self.arena.visible_at(head, snapshot).and_then(|v| {
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

    /// Full scan at a snapshot.
    pub fn scan(&self, snapshot: Timestamp) -> Vec<VisibleRow<'_>> {
        self.range(None, None, snapshot)
    }

    /// Number of distinct keys (live or dead).
    pub fn key_count(&self) -> usize {
        self.rows.len()
    }

    /// Allocator bytes pinned by this table's version arena (see
    /// [`VersionArena::resident_bytes`]); key B-tree overhead excluded.
    pub fn resident_bytes(&self) -> usize {
        self.arena.resident_bytes()
    }

    /// Release reusable memory under pressure (pooled row buffers and
    /// slab slack); visible state is untouched.
    pub fn compact(&mut self) {
        self.arena.compact();
    }

    /// Vacuum all chains up to `horizon`; returns versions removed.
    /// Keeps, per chain, the newest version at or below the horizon plus
    /// everything above it; freed nodes go to the arena freelist.
    pub fn vacuum(&mut self, horizon: Timestamp) -> usize {
        let Table { rows, arena, .. } = self;
        let mut removed = 0;
        for head in rows.values_mut() {
            // Find the keeper: newest node with commit_ts <= horizon.
            let mut keeper = *head;
            while keeper != NIL && arena.nodes[keeper as usize].version.commit_ts > horizon {
                keeper = arena.nodes[keeper as usize].older;
            }
            if keeper == NIL {
                continue;
            }
            // Everything older than the keeper is dead.
            let mut cur = arena.nodes[keeper as usize].older;
            arena.nodes[keeper as usize].older = NIL;
            while cur != NIL {
                let next = arena.nodes[cur as usize].older;
                arena.release(cur);
                removed += 1;
                cur = next;
            }
        }
        // Drop keys whose only remaining version is an old tombstone.
        rows.retain(|_, head| {
            let node = &arena.nodes[*head as usize];
            let drop = node.older == NIL
                && node.version.row.is_none()
                && node.version.commit_ts <= horizon;
            if drop {
                arena.release(*head);
            }
            !drop
        });
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_model::Datum;

    fn k(v: i64) -> RowKey {
        RowKey::single(v)
    }

    fn r(v: i64, s: &str) -> Row {
        Row(vec![Datum::Int(v), Datum::Text(s.into())])
    }

    fn t(ts: u64) -> Timestamp {
        Timestamp(ts)
    }

    #[test]
    fn snapshot_reads_see_correct_version() {
        let mut tbl = Table::new();
        tbl.install_version(&k(1), Some(r(1, "v1")), t(10), SimTime::from_millis(10))
            .unwrap();
        tbl.install_version(&k(1), Some(r(1, "v2")), t(20), SimTime::from_millis(20))
            .unwrap();

        assert!(tbl.read(&k(1), t(5)).is_none(), "before first commit");
        assert_eq!(tbl.read(&k(1), t(10)).unwrap().row, &r(1, "v1"));
        assert_eq!(tbl.read(&k(1), t(15)).unwrap().row, &r(1, "v1"));
        assert_eq!(tbl.read(&k(1), t(20)).unwrap().row, &r(1, "v2"));
        assert_eq!(tbl.read(&k(1), t(99)).unwrap().row, &r(1, "v2"));
    }

    #[test]
    fn tombstones_hide_rows() {
        let mut tbl = Table::new();
        tbl.install_version(&k(1), Some(r(1, "x")), t(10), SimTime::ZERO)
            .unwrap();
        tbl.install_version(&k(1), None, t(20), SimTime::ZERO)
            .unwrap();
        assert!(tbl.read(&k(1), t(15)).is_some());
        assert!(tbl.read(&k(1), t(20)).is_none());
        assert!(tbl.read(&k(1), t(25)).is_none());
        assert!(!tbl.exists_newest(&k(1)));
        assert!(tbl.contains_any_version(&k(1)));
    }

    #[test]
    fn out_of_order_install_rejected() {
        let mut tbl = Table::new();
        tbl.install_version(&k(1), Some(r(1, "a")), t(20), SimTime::ZERO)
            .unwrap();
        let err = tbl
            .install_version(&k(1), Some(r(1, "b")), t(10), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, GdbError::Internal(_)));
    }

    #[test]
    fn equal_timestamps_allowed() {
        // Replays of idempotent records may install at the same ts.
        let mut tbl = Table::new();
        tbl.install_version(&k(1), Some(r(1, "a")), t(10), SimTime::ZERO)
            .unwrap();
        tbl.install_version(&k(1), Some(r(1, "b")), t(10), SimTime::ZERO)
            .unwrap();
        assert_eq!(tbl.read(&k(1), t(10)).unwrap().row, &r(1, "b"));
    }

    #[test]
    fn range_scan_is_key_ordered_and_snapshot_filtered() {
        let mut tbl = Table::new();
        for i in [5i64, 1, 3, 2, 4] {
            tbl.install_version(&k(i), Some(r(i, "x")), t(10), SimTime::ZERO)
                .unwrap();
        }
        tbl.install_version(&k(6), Some(r(6, "late")), t(50), SimTime::ZERO)
            .unwrap();
        let rows = tbl.range(Some(&k(2)), Some(&k(5)), t(20));
        let keys: Vec<i64> = rows.iter().map(|v| v.key.0[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![2, 3, 4, 5]);
        // Row committed at 50 invisible at snapshot 20, visible at 50.
        assert_eq!(tbl.scan(t(20)).len(), 5);
        assert_eq!(tbl.scan(t(50)).len(), 6);
    }

    #[test]
    fn read_newest_ignores_snapshot() {
        let mut tbl = Table::new();
        tbl.install_version(&k(1), Some(r(1, "old")), t(10), SimTime::ZERO)
            .unwrap();
        tbl.install_version(&k(1), Some(r(1, "new")), t(90), SimTime::ZERO)
            .unwrap();
        assert_eq!(tbl.read_newest(&k(1)).unwrap().row, &r(1, "new"));
    }

    #[test]
    fn vacuum_prunes_dead_versions() {
        let mut tbl = Table::new();
        for ts in [10u64, 20, 30, 40] {
            tbl.install_version(&k(1), Some(r(1, "v")), t(ts), SimTime::ZERO)
                .unwrap();
        }
        let removed = tbl.vacuum(t(30));
        assert_eq!(removed, 2); // versions at 10 and 20 removed; 30 kept
        assert_eq!(tbl.read(&k(1), t(30)).unwrap().commit_ts, t(30));
        assert_eq!(tbl.read(&k(1), t(99)).unwrap().commit_ts, t(40));
    }

    #[test]
    fn vacuum_drops_old_tombstoned_keys() {
        let mut tbl = Table::new();
        tbl.install_version(&k(1), Some(r(1, "x")), t(10), SimTime::ZERO)
            .unwrap();
        tbl.install_version(&k(1), None, t(20), SimTime::ZERO)
            .unwrap();
        tbl.vacuum(t(50));
        assert_eq!(tbl.key_count(), 0);
    }

    #[test]
    fn compact_reclaims_bytes_without_changing_reads() {
        let mut tbl = Table::new();
        for i in 0..200i64 {
            tbl.install_version(&k(i), Some(r(i, "payload")), t(10), SimTime::ZERO)
                .unwrap();
            tbl.install_version(&k(i), Some(r(i, "payload2")), t(20), SimTime::ZERO)
                .unwrap();
        }
        // Vacuum frees half the versions into the pool/freelist.
        tbl.vacuum(t(20));
        let before = tbl.resident_bytes();
        let visible: Vec<_> = tbl.scan(t(20)).iter().map(|v| v.row.clone()).collect();
        tbl.compact();
        assert!(
            tbl.resident_bytes() < before,
            "compact did not shrink: {} -> {}",
            before,
            tbl.resident_bytes()
        );
        let after: Vec<_> = tbl.scan(t(20)).iter().map(|v| v.row.clone()).collect();
        assert_eq!(visible, after);
        // The arena still works (freelist intact): install more versions.
        for i in 0..200i64 {
            tbl.install_version(&k(i), Some(r(i, "v3")), t(30), SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(tbl.read(&k(5), t(30)).unwrap().row, &r(5, "v3"));
    }

    #[test]
    fn commit_vtime_propagates_to_reads() {
        let mut tbl = Table::new();
        tbl.install_version(&k(1), Some(r(1, "x")), t(10), SimTime::from_millis(77))
            .unwrap();
        assert_eq!(
            tbl.read(&k(1), t(10)).unwrap().commit_vtime,
            SimTime::from_millis(77)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gdb_model::Datum;
    use proptest::prelude::*;

    proptest! {
        /// Visibility is the newest version with commit_ts <= snapshot —
        /// checked against a naive reference model.
        #[test]
        fn visibility_matches_reference(
            writes in proptest::collection::vec((0i64..5, 1u64..100, any::<bool>()), 1..40),
            snapshot in 0u64..120,
        ) {
            let mut sorted = writes.clone();
            // Install in ts order per key to respect chain ordering.
            sorted.sort_by_key(|(_, ts, _)| *ts);
            let mut tbl = Table::new();
            for (key, ts, delete) in &sorted {
                let row = if *delete { None } else {
                    Some(Row(vec![Datum::Int(*key), Datum::Int(*ts as i64)]))
                };
                tbl.install_version(
                    &RowKey::single(*key),
                    row,
                    Timestamp(*ts),
                    SimTime::ZERO,
                ).unwrap();
            }
            // Reference: for each key, last write with ts <= snapshot.
            for key in 0i64..5 {
                let expected = sorted
                    .iter().rfind(|(k, ts, _)| *k == key && *ts <= snapshot)
                    .and_then(|(_, ts, delete)| {
                        if *delete { None } else { Some(*ts as i64) }
                    });
                let got = tbl
                    .read(&RowKey::single(key), Timestamp(snapshot))
                    .map(|v| v.row.0[1].as_int().unwrap());
                prop_assert_eq!(got, expected, "key {}", key);
            }
        }

        /// Vacuum never changes what snapshots at/above the horizon see.
        #[test]
        fn vacuum_preserves_visible_state(
            writes in proptest::collection::vec((0i64..3, 1u64..50), 1..30),
            horizon in 1u64..60,
        ) {
            let mut sorted = writes.clone();
            sorted.sort_by_key(|(_, ts)| *ts);
            let mut tbl = Table::new();
            for (key, ts) in &sorted {
                tbl.install_version(
                    &RowKey::single(*key),
                    Some(Row(vec![Datum::Int(*ts as i64)])),
                    Timestamp(*ts),
                    SimTime::ZERO,
                ).unwrap();
            }
            let before: Vec<_> = (horizon..62).map(|s| {
                (0i64..3).map(|k| tbl.read(&RowKey::single(k), Timestamp(s)).map(|v| v.row.clone()))
                    .collect::<Vec<_>>()
            }).collect();
            tbl.vacuum(Timestamp(horizon));
            let after: Vec<_> = (horizon..62).map(|s| {
                (0i64..3).map(|k| tbl.read(&RowKey::single(k), Timestamp(s)).map(|v| v.row.clone()))
                    .collect::<Vec<_>>()
            }).collect();
            prop_assert_eq!(before, after);
        }
    }
}

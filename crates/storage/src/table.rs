//! Versioned tables with snapshot visibility.
//!
//! Version chains live in a per-table slab arena: each chain is a
//! newest-first singly linked list of `u32` node indices, with the head
//! stored in the key B-tree. Vacuumed nodes go on a freelist and their
//! row buffers into a bounded pool, so the steady state — install,
//! read, vacuum, repeat — allocates nothing per transaction. A chain's
//! head keeps its arena slot for the life of the key (an install pushes
//! the previous head down into a fresh slot), so the table can list the
//! chains that hold garbage by head slot and vacuum visits only those:
//! a pass costs what was written since the last one, not the table's
//! size.

use gdb_model::{FxHashMap, GdbError, GdbResult, Row, RowKey, Timestamp};
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
    /// Key -> head (newest) version node of its chain. The slot is fixed
    /// when the key is first installed and released only when vacuum
    /// drops the key.
    rows: BTreeMap<RowKey, u32>,
    arena: VersionArena,
    /// Head slots of the chains vacuum can have work on: more than one
    /// version, or a tombstone head. Each such chain is listed exactly
    /// once — [`Table::install_version`] adds it when a lone live version
    /// gains a successor (or a key is born deleted), [`Table::vacuum`]
    /// drops it once it is a lone live version again or its key is gone.
    garbage: Vec<u32>,
    /// Head slot -> key, for every chain whose head is a tombstone: what
    /// vacuum needs to take the key out of `rows`.
    tombstoned: FxHashMap<u32, RowKey>,
    /// Count of version installs (write amplification metric).
    pub versions_installed: u64,
    /// Chains [`Table::vacuum`] has examined (work counter).
    pub chains_examined: u64,
}

impl Table {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a committed version (insert, update, or tombstone).
    /// `row = None` is a delete. Chains must stay ordered by commit
    /// timestamp — guaranteed by the lock table (a writer waits out the
    /// previous holder whose commit wait, in turn, guarantees a larger
    /// timestamp). The key is cloned only when it is new to the table or
    /// becomes deleted, so the steady state (existing keys, recycled row
    /// buffers) installs with zero allocations.
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
        let deletes = v.row.is_none();
        // A key above the current maximum is new: skip the lookup, so an
        // ascending load pays one tree descent per row (the insert), not
        // two. `last_key_value` walks the right edge without comparing.
        let existing = match self.rows.last_key_value() {
            Some((max, _)) if key <= max => self.rows.get(key).copied(),
            _ => None,
        };
        let Some(head) = existing else {
            let head = self.arena.alloc(v, NIL);
            self.rows.insert(key.clone(), head);
            if deletes {
                self.garbage.push(head);
                self.tombstoned.insert(head, key.clone());
            }
            return Ok(());
        };
        let node = &mut self.arena.nodes[head as usize];
        let last = &node.version;
        if v.commit_ts < last.commit_ts {
            return Err(GdbError::Internal(format!(
                "version chain order violation at {key}: {} (vtime {}) after {} (vtime {})",
                v.commit_ts, v.commit_vtime, last.commit_ts, last.commit_vtime
            )));
        }
        let was_deleted = last.row.is_none();
        // Any other shape (older versions, tombstone head) is listed.
        let was_lone_live = node.older == NIL && !was_deleted;
        // The new version takes the head slot; the previous head moves
        // down into a fresh one.
        let (prev, prev_older) = (std::mem::replace(&mut node.version, v), node.older);
        let pushed = self.arena.alloc(prev, prev_older);
        self.arena.nodes[head as usize].older = pushed;
        if was_lone_live {
            self.garbage.push(head);
        }
        if deletes && !was_deleted {
            self.tombstoned.insert(head, key.clone());
        } else if was_deleted && !deletes {
            self.tombstoned.remove(&head);
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

    /// Vacuum up to `horizon`; returns versions removed. Keeps, per
    /// chain, the newest version at or below the horizon plus everything
    /// above it; freed nodes go to the arena freelist. Only the listed
    /// chains are visited — a chain with one live version has nothing to
    /// free — so a pass costs the chains written since they were last
    /// clean, not the table.
    pub fn vacuum(&mut self, horizon: Timestamp) -> usize {
        let Table {
            rows,
            arena,
            garbage,
            tombstoned,
            chains_examined,
            ..
        } = self;
        *chains_examined += garbage.len() as u64;
        let mut removed = 0;
        garbage.retain(|&head| {
            // Find the keeper: newest node with commit_ts <= horizon.
            let mut keeper = head;
            while keeper != NIL && arena.nodes[keeper as usize].version.commit_ts > horizon {
                keeper = arena.nodes[keeper as usize].older;
            }
            if keeper != NIL {
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
            let node = &arena.nodes[head as usize];
            let lone = node.older == NIL;
            let deleted = node.version.row.is_none();
            if lone && deleted && node.version.commit_ts <= horizon {
                // The only remaining version is an old tombstone: drop the key.
                let key = tombstoned
                    .remove(&head)
                    .expect("tombstone heads keep their key");
                rows.remove(&key);
                arena.release(head);
                return false;
            }
            // Versions above the horizon wait for a later pass.
            !lone || deleted
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
    fn vacuum_follows_a_key_through_delete_and_reinsert() {
        let mut tbl = Table::new();
        // Born deleted (replayed delete of a key this node never held).
        tbl.install_version(&k(7), None, t(5), SimTime::ZERO)
            .unwrap();
        tbl.install_version(&k(1), Some(r(1, "a")), t(10), SimTime::ZERO)
            .unwrap();
        tbl.install_version(&k(1), None, t(20), SimTime::ZERO)
            .unwrap();
        tbl.install_version(&k(1), Some(r(1, "b")), t(30), SimTime::ZERO)
            .unwrap();
        // Below the re-insert: the tombstone is the keeper, the key stays.
        assert_eq!(tbl.vacuum(t(25)), 1);
        assert_eq!(tbl.key_count(), 1, "only the born-deleted key is dropped");
        assert!(tbl.read(&k(1), t(25)).is_none());
        assert_eq!(tbl.read(&k(1), t(30)).unwrap().row, &r(1, "b"));
        // Above it: one live version left, nothing more to look at.
        assert_eq!(tbl.vacuum(t(40)), 1);
        let examined = tbl.chains_examined;
        assert_eq!(tbl.vacuum(t(40)), 0);
        assert_eq!(tbl.chains_examined, examined);
        // Deleted for good: the key goes, and its slot is reusable.
        tbl.install_version(&k(1), None, t(50), SimTime::ZERO)
            .unwrap();
        assert_eq!(tbl.vacuum(t(60)), 1);
        assert_eq!(tbl.key_count(), 0);
        tbl.install_version(&k(1), Some(r(1, "c")), t(70), SimTime::ZERO)
            .unwrap();
        assert_eq!(tbl.read_newest(&k(1)).unwrap().row, &r(1, "c"));
        assert_eq!(tbl.vacuum(t(80)), 0);
        assert_eq!(tbl.chains_examined, examined + 1);
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
    use std::collections::BTreeSet;

    /// The storage rule as a spec, independent of the arena: every
    /// committed version keyed `(key, commit_ts, install order)`; a read
    /// is the last entry of its key at or below the snapshot.
    #[derive(Default)]
    struct Spec(BTreeMap<(RowKey, Timestamp, usize), Option<Row>>);

    impl Spec {
        fn keys(&self) -> BTreeSet<RowKey> {
            self.0.keys().map(|e| e.0.clone()).collect()
        }

        fn newest(&self, key: &RowKey, at: Timestamp) -> Option<(RowKey, Timestamp, usize)> {
            let upto = (key.clone(), at, usize::MAX);
            let entry = self.0.range(..=upto).next_back()?.0;
            (entry.0 == *key).then(|| entry.clone())
        }

        fn scan(&self, snapshot: Timestamp) -> Vec<(RowKey, Row, Timestamp)> {
            let visible = |key| {
                let entry = self.newest(&key, snapshot)?;
                Some((key, self.0[&entry].clone()?, entry.1))
            };
            self.keys().into_iter().filter_map(visible).collect()
        }

        /// Drops what no snapshot at or above `horizon` can see and counts
        /// it; a key left with only a tombstone goes too, uncounted.
        fn vacuum(&mut self, horizon: Timestamp) -> usize {
            let mut removed = 0;
            for key in self.keys() {
                let Some(keeper) = self.newest(&key, horizon) else {
                    continue;
                };
                let before = self.0.len();
                self.0.retain(|e, _| e.0 != key || *e >= keeper);
                removed += before - self.0.len();
                let lone = self.0.keys().filter(|e| e.0 == key).count() == 1;
                if lone && self.0[&keeper].is_none() {
                    self.0.remove(&keeper);
                }
            }
            removed
        }
    }

    proptest! {
        /// The arena-chained `Table` (vacuuming only its listed chains)
        /// obeys the spec while installs — updates, tombstones,
        /// re-inserts — interleave with vacuums at rising horizons and
        /// the table is swapped for its clone mid-stream: same removed
        /// counts, same key counts, and after every install the same
        /// reads, scans and ranges at every snapshot from the last horizon.
        #[test]
        fn table_matches_spec(
            writes in proptest::collection::vec(
                (0i64..6, 1u64..80, any::<bool>()), 1..50),
            // After the i-th install: vacuum this far below its timestamp.
            vacuums in proptest::collection::vec(proptest::option::of(0u64..20), 50),
            clone_at in 0usize..50,
        ) {
            let mut sorted = writes.clone();
            sorted.sort_by_key(|(_, ts, _)| *ts);
            let rows = |rows: Vec<VisibleRow<'_>>| -> Vec<(RowKey, Row, Timestamp)> {
                rows.iter().map(|v| (v.key.clone(), v.row.clone(), v.commit_ts)).collect()
            };
            let (lo, hi) = (RowKey::single(1i64), RowKey::single(4i64));
            let same_reads = |live: &Table, spec: &Spec, snapshot: u64| -> TestCaseResult {
                let at = Timestamp(snapshot);
                let mut expected = spec.scan(at);
                prop_assert_eq!(rows(live.scan(at)), expected.clone(), "scan at {}", snapshot);
                for key in (0i64..6).map(RowKey::single) {
                    let read = live.read(&key, at).map(|v| (v.row.clone(), v.commit_ts));
                    let visible = expected.iter().find(|r| r.0 == key);
                    prop_assert_eq!(read, visible.map(|r| (r.1.clone(), r.2)), "read at {}", snapshot);
                }
                expected.retain(|r| lo <= r.0 && r.0 <= hi);
                prop_assert_eq!(
                    rows(live.range(Some(&lo), Some(&hi), at)), expected, "range at {}", snapshot
                );
                Ok(())
            };
            let mut live = Table::new();
            let mut spec = Spec::default();
            let mut horizon = 0u64;
            for (i, (key, ts, delete)) in sorted.iter().enumerate() {
                let key = RowKey::single(*key);
                let row = if *delete { None } else {
                    Some(Row(vec![key.0[0].clone(), Datum::Int(*ts as i64)]))
                };
                live.install_version(&key, row.clone(), Timestamp(*ts), SimTime::ZERO).unwrap();
                spec.0.insert((key.clone(), Timestamp(*ts), i), row);
                if i == clone_at {
                    live = live.clone();
                }
                if let Some(lag) = vacuums[i] {
                    horizon = horizon.max(ts.saturating_sub(lag));
                    prop_assert_eq!(
                        live.vacuum(Timestamp(horizon)),
                        spec.vacuum(Timestamp(horizon)),
                        "vacuum({}) removed different counts", horizon
                    );
                }
                prop_assert_eq!(live.key_count(), spec.keys().len());
                for snapshot in horizon..90 {
                    same_reads(&live, &spec, snapshot)?;
                }
            }
            prop_assert_eq!(live.versions_installed, sorted.len() as u64);
            // A final pass above every timestamp leaves one version per
            // live key on both sides.
            prop_assert_eq!(live.vacuum(Timestamp(90)), spec.vacuum(Timestamp(90)));
            prop_assert_eq!(live.key_count(), spec.keys().len());
            for snapshot in 0u64..95 {
                same_reads(&live, &spec, snapshot)?;
            }
        }

        /// Vacuum never changes what snapshots at/above the horizon see,
        /// however installs (updates, deletes, re-inserts), vacuums at
        /// rising horizons and a snapshot clone interleave — and a pass
        /// examines only chains that were written since they were clean.
        #[test]
        fn vacuum_preserves_visible_state(
            writes in proptest::collection::vec((0i64..4, 1u64..50, any::<bool>()), 1..40),
            vacuum_after in proptest::collection::vec(any::<bool>(), 40),
            clone_at in 0usize..40,
        ) {
            let mut sorted = writes.clone();
            sorted.sort_by_key(|(_, ts, _)| *ts);
            let reads = |tbl: &Table, from: u64| -> Vec<Vec<Option<Row>>> {
                (from..52).map(|s| {
                    (0i64..4).map(|k| tbl.read(&RowKey::single(k), Timestamp(s)).map(|v| v.row.clone()))
                        .collect()
                }).collect()
            };
            let mut tbl = Table::new();
            let mut written = std::collections::BTreeSet::new();
            for (i, (key, ts, delete)) in sorted.iter().enumerate() {
                let row = if *delete { None } else { Some(Row(vec![Datum::Int(*ts as i64)])) };
                tbl.install_version(&RowKey::single(*key), row, Timestamp(*ts), SimTime::ZERO).unwrap();
                written.insert(*key);
                if i == clone_at {
                    tbl = tbl.clone(); // migration / rejoin snapshot
                }
                if vacuum_after[i] {
                    // Horizons rise with the install stream.
                    let before = reads(&tbl, *ts);
                    let examined = tbl.chains_examined;
                    tbl.vacuum(Timestamp(*ts));
                    prop_assert_eq!(&before, &reads(&tbl, *ts), "vacuum({}) changed reads", ts);
                    prop_assert!(tbl.chains_examined - examined <= written.len() as u64);
                    // Everything is at or below the horizon: one version
                    // per key survives, tombstoned keys are gone, and an
                    // immediate second pass has nothing to look at.
                    let examined = tbl.chains_examined;
                    prop_assert_eq!(tbl.vacuum(Timestamp(*ts)), 0);
                    prop_assert_eq!(tbl.chains_examined, examined);
                    prop_assert_eq!(tbl.key_count(), tbl.scan(Timestamp(*ts)).len());
                    written.clear();
                }
            }
        }
    }
}

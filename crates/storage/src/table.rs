//! Versioned tables with snapshot visibility.
//!
//! Version chains live in a per-table slab arena: each chain is a
//! newest-first singly linked list of `u32` node indices, with the head
//! stored in the key's B-tree slot. Vacuumed nodes go on a freelist and
//! their rows are dropped, so the steady state — install, read, vacuum,
//! repeat — reuses slots rather than growing the slab. A chain's
//! head keeps its arena slot for the life of the key (an install pushes
//! the previous head down into a fresh slot), so the table can list the
//! chains that hold garbage by head slot and vacuum visits only those:
//! a pass costs what was written since the last one, not the table's
//! size.
//!
//! The B-tree is ordered by `(prefix, key)`, where the prefix is a 4-byte
//! order-preserving digest of the key (`key_prefix`): a search compares
//! the integers stored inline in the node and follows a key's pointer to
//! its shared datums only when two prefixes tie.

use gdb_model::{Datum, FxHashMap, GdbError, GdbResult, Row, RowKey, Timestamp};
use gdb_simnet::SimTime;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
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

/// One arena slot: a version plus the index of the next-*older* version
/// in its chain.
#[derive(Debug, Clone)]
struct VersionNode {
    version: Version,
    older: u32,
}

/// Slab arena holding every version node of one table, with a freelist
/// fed by vacuum.
#[derive(Debug, Default, Clone)]
struct VersionArena {
    nodes: Vec<VersionNode>,
    free: Vec<u32>,
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

    /// The slot the next [`VersionArena::alloc`] returns.
    fn next_slot(&self) -> u32 {
        self.free.last().copied().unwrap_or(self.nodes.len() as u32)
    }

    /// Return a node to the freelist, dropping its row.
    fn release(&mut self, idx: u32) {
        self.nodes[idx as usize].version.row = None;
        self.free.push(idx);
    }

    /// Allocator bytes the arena currently pins, capacity-based (a pure
    /// function of the operation history, so seeded runs report
    /// identical footprints): slab capacity, freelist capacity, and the
    /// row buffers held live inside nodes.
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
        self.nodes.capacity() * std::mem::size_of::<VersionNode>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + node_rows
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

/// Order-preserving 32-bit prefix of a key: `a < b` under [`RowKey`]'s
/// order implies `key_prefix(a) <= key_prefix(b)`, and equal keys share a
/// prefix. The key is written as a bit string, most significant bit
/// first, and the first 32 bits (zero-padded) are the prefix. Each datum
/// is a code from one prefix-free set whose lexicographic order is the
/// datum order — the rank order Null < Bool < numeric < Text, numeric
/// values by raw value whether Int or Decimal:
///
/// | datum | code | payload bits |
/// |---|---|---|
/// | NULL | `0000` | — |
/// | Bool | `0001` | 1 |
/// | negative | `001` | 64 (two's complement) |
/// | 0 ..= 15 | `01` | 4 |
/// | 16 ..= 4 111 | `10` | 12 (value − 16) |
/// | 4 112 ..= 69 647 | `110` | 16 (value − 4 112) |
/// | 69 648 ..= 1 118 223 | `1110` | 20 (value − 69 648) |
/// | larger | `11110` | 64 (value − 1 118 224) |
/// | Text | `11111` | the UTF-8 bytes, then nothing more |
///
/// A key that is a prefix of a longer one writes a prefix of its bit
/// string, so the zero padding sorts it first. Text ends the string:
/// without a terminator, `'a'` and `'a\0'` must not be told apart by
/// what follows them. Small integers are dense, so a TPC-C
/// `(warehouse, district, id)` key or a sysbench id up to 69 647 is told
/// apart from its neighbours by the prefix alone.
fn key_prefix(key: &[Datum]) -> u32 {
    let mut bits = PrefixBits::default();
    for d in key {
        match d {
            Datum::Null => bits.push(0b0000, 4),
            Datum::Bool(b) => {
                bits.push(0b0001, 4);
                bits.push(*b as u64, 1);
            }
            Datum::Int(v) | Datum::Decimal(v) => match *v {
                v if v < 0 => {
                    bits.push(0b001, 3);
                    bits.push(v as u64, 64);
                }
                v @ 0..=15 => {
                    bits.push(0b01, 2);
                    bits.push(v as u64, 4);
                }
                v @ 16..=4_111 => {
                    bits.push(0b10, 2);
                    bits.push((v - 16) as u64, 12);
                }
                v @ 4_112..=69_647 => {
                    bits.push(0b110, 3);
                    bits.push((v - 4_112) as u64, 16);
                }
                v @ 69_648..=1_118_223 => {
                    bits.push(0b1110, 4);
                    bits.push((v - 69_648) as u64, 20);
                }
                v => {
                    bits.push(0b11110, 5);
                    bits.push((v - 1_118_224) as u64, 64);
                }
            },
            Datum::Text(s) => {
                bits.push(0b11111, 5);
                for &b in s.as_bytes() {
                    if bits.full() {
                        break;
                    }
                    bits.push(b as u64, 8);
                }
                break;
            }
        }
        if bits.full() {
            break;
        }
    }
    (bits.acc >> 32) as u32
}

/// A bit string filled from the most significant bit of `acc`.
#[derive(Default)]
struct PrefixBits {
    acc: u64,
    used: u32,
}

impl PrefixBits {
    /// True once the 32 prefix bits are written.
    fn full(&self) -> bool {
        self.used >= 32
    }

    /// Append the low `width` bits of `value` (`width <= 64`), keeping
    /// what fits in 64 bits. Fewer than 64 are used at every call: a
    /// datum starts below 32 and pushes a code and at most one payload,
    /// and text stops at 32 before each byte.
    fn push(&mut self, value: u64, width: u32) {
        let value = if width == 64 {
            value
        } else {
            value & ((1 << width) - 1)
        };
        let end = self.used + width;
        self.acc |= if end <= 64 {
            value << (64 - end)
        } else {
            value >> (end - 64)
        };
        self.used = end.min(64);
    }
}

/// One entry of a table's key B-tree: the key, its order prefix, and the
/// arena slot of its chain's head. Ordered by `(prefix, key)` — the same
/// order as the key's, since the prefix is monotone — and the head takes
/// no part: it is fixed for the key's life in the table.
#[derive(Debug, Clone)]
struct Slot {
    prefix: u32,
    head: u32,
    key: RowKey,
}

impl Slot {
    /// `key`'s slot naming chain head `head`.
    fn new(key: &RowKey, head: u32) -> Slot {
        Slot {
            prefix: key_prefix(key),
            head,
            key: key.clone(),
        }
    }
}

/// What the key B-tree orders by — `(prefix, key)` — of a slot or of a
/// borrowed probe, so that a lookup by `&[Datum]` builds no key: the
/// tree is searched by `&dyn Ordered`, which every [`Slot`] lends.
trait Ordered {
    fn prefix(&self) -> u32;
    fn key(&self) -> &[Datum];
}

impl Ordered for Slot {
    fn prefix(&self) -> u32 {
        self.prefix
    }

    fn key(&self) -> &[Datum] {
        &self.key
    }
}

/// A lookup's borrowed key with its prefix.
struct Probe<'k> {
    prefix: u32,
    key: &'k [Datum],
}

impl<'k> Probe<'k> {
    fn new(key: &'k [Datum]) -> Self {
        Probe {
            prefix: key_prefix(key),
            key,
        }
    }
}

impl Ordered for Probe<'_> {
    fn prefix(&self) -> u32 {
        self.prefix
    }

    fn key(&self) -> &[Datum] {
        self.key
    }
}

impl Ord for dyn Ordered + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.prefix()
            .cmp(&other.prefix())
            .then_with(|| self.key().cmp(other.key()))
    }
}

impl PartialOrd for dyn Ordered + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn Ordered + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn Ordered + '_ {}

impl<'a> Borrow<dyn Ordered + 'a> for Slot {
    fn borrow(&self) -> &(dyn Ordered + 'a) {
        self
    }
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> Ordering {
        (self as &dyn Ordered).cmp(other)
    }
}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Slot {}

/// A versioned table: primary-key ordered chains in a slab arena.
#[derive(Debug, Default, Clone)]
pub struct Table {
    /// One slot per key, naming the head (newest) version node of its
    /// chain. The head is fixed when the key is first installed and
    /// released only when vacuum drops the key.
    rows: BTreeMap<Slot, ()>,
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
    /// timestamp). One tree descent finds the key's slot or makes it;
    /// installing over an existing key allocates only when the slab has
    /// no free slot.
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
        // A new key's chain starts in the slot the arena hands out next,
        // so the slot entered here is already the final one.
        let head = match self.rows.entry(Slot::new(key, self.arena.next_slot())) {
            Entry::Occupied(slot) => slot.key().head,
            Entry::Vacant(slot) => {
                let head = slot.key().head;
                slot.insert(());
                let at = self.arena.alloc(v, NIL);
                debug_assert_eq!(at, head);
                if deletes {
                    self.garbage.push(head);
                    self.tombstoned.insert(head, key.clone());
                }
                return Ok(());
            }
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

    /// The slot of `key`, if the table holds it.
    fn slot(&self, key: &[Datum]) -> Option<&Slot> {
        let probe: &dyn Ordered = &Probe::new(key);
        Some(self.rows.get_key_value(probe)?.0)
    }

    /// Point read at a snapshot. Tombstones read as `None`.
    pub fn read(&self, key: &[Datum], snapshot: Timestamp) -> Option<VisibleRow<'_>> {
        let slot = self.slot(key)?;
        let v = self.arena.visible_at(slot.head, snapshot)?;
        v.row.as_ref().map(|row| VisibleRow {
            key: &slot.key,
            row,
            commit_ts: v.commit_ts,
            commit_vtime: v.commit_vtime,
        })
    }

    /// The newest committed row regardless of snapshot (read-committed
    /// update path, used after acquiring the row lock).
    pub fn read_newest(&self, key: &[Datum]) -> Option<VisibleRow<'_>> {
        let slot = self.slot(key)?;
        let v = &self.arena.nodes[slot.head as usize].version;
        v.row.as_ref().map(|row| VisibleRow {
            key: &slot.key,
            row,
            commit_ts: v.commit_ts,
            commit_vtime: v.commit_vtime,
        })
    }

    /// True if the key has a live (non-tombstone) newest version.
    pub fn exists_newest(&self, key: &[Datum]) -> bool {
        self.read_newest(key).is_some()
    }

    /// Range scan `[lo, hi]` (inclusive bounds, the upper one covering
    /// every key it is a prefix of — [`RowKey::in_range`]; `None` =
    /// unbounded) at a snapshot, walked in key order where the rows lie.
    /// An empty range (`lo` above `hi`) has no rows.
    pub fn range<'t>(
        &'t self,
        lo: Option<&[Datum]>,
        hi: Option<&'t [Datum]>,
        snapshot: Timestamp,
    ) -> impl Iterator<Item = VisibleRow<'t>> {
        let probe = lo.map(Probe::new);
        let from = probe
            .as_ref()
            .map_or(Bound::Unbounded, |p| Bound::Included(p as &dyn Ordered));
        self.rows
            .range::<dyn Ordered, _>((from, Bound::Unbounded))
            .take_while(move |(slot, ())| hi.is_none_or(|h| slot.key.within_upper(h)))
            .filter_map(move |(slot, ())| {
                let v = self.arena.visible_at(slot.head, snapshot)?;
                v.row.as_ref().map(|row| VisibleRow {
                    key: &slot.key,
                    row,
                    commit_ts: v.commit_ts,
                    commit_vtime: v.commit_vtime,
                })
            })
    }

    /// Full scan at a snapshot.
    pub fn scan(&self, snapshot: Timestamp) -> impl Iterator<Item = VisibleRow<'_>> {
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
                rows.remove(&Slot::new(&key, head));
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
        let hi = k(5);
        let rows = tbl.range(Some(&k(2)), Some(&hi), t(20));
        let keys: Vec<i64> = rows.map(|v| v.key.0[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![2, 3, 4, 5]);
        // Row committed at 50 invisible at snapshot 20, visible at 50.
        assert_eq!(tbl.scan(t(20)).count(), 5);
        assert_eq!(tbl.scan(t(50)).count(), 6);
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

    #[test]
    fn inverted_range_is_empty() {
        let mut tbl = Table::new();
        for i in 1..=5i64 {
            tbl.install_version(&k(i), Some(r(i, "x")), t(10), SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(tbl.range(Some(&k(4)), Some(&k(2)), t(10)).count(), 0);
        assert_eq!(tbl.range(Some(&k(3)), Some(&k(3)), t(10)).count(), 1);
    }

    /// Keys in ascending order that each stress one rule of the code:
    /// the rank order, Int/Decimal sharing one scale, each integer class
    /// edge, and text ending the string (`'a'` then anything sorts
    /// before `'a\0'`).
    #[test]
    fn key_prefix_orders_edge_keys() {
        let key = |d: Vec<Datum>| RowKey::new(d);
        let ascending = [
            key(vec![]),
            key(vec![Datum::Null]),
            key(vec![Datum::Null, Datum::Int(i64::MAX)]),
            key(vec![Datum::Bool(false)]),
            key(vec![Datum::Bool(true), Datum::Text("z".into())]),
            key(vec![Datum::Int(i64::MIN)]),
            key(vec![Datum::Decimal(-1)]),
            key(vec![Datum::Int(0)]),
            key(vec![Datum::Int(15), Datum::Int(i64::MAX)]),
            key(vec![Datum::Decimal(16)]),
            key(vec![Datum::Int(4_111)]),
            key(vec![Datum::Int(4_112)]),
            key(vec![Datum::Int(69_647)]),
            key(vec![Datum::Int(69_648)]),
            key(vec![Datum::Int(1_118_223)]),
            key(vec![Datum::Int(1_118_224)]),
            key(vec![Datum::Int(i64::MAX)]),
            key(vec![Datum::Text("".into())]),
            key(vec![Datum::Text("a".into()), Datum::Int(5)]),
            key(vec![Datum::Text("a\0".into())]),
            key(vec![Datum::Text("b".into())]),
        ];
        for w in ascending.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
            assert!(
                key_prefix(&w[0].0) <= key_prefix(&w[1].0),
                "{} < {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(
            key_prefix(&[Datum::Int(7), Datum::Int(9)]),
            key_prefix(&[Datum::Decimal(7), Datum::Decimal(9)])
        );
    }

    /// The keys the workloads use are told apart by the prefix alone:
    /// sysbench ids and TPC-C `(warehouse, district, customer)` keys get
    /// strictly rising prefixes.
    #[test]
    fn workload_keys_have_distinct_prefixes() {
        let rising = |keys: &mut dyn Iterator<Item = RowKey>| {
            let prefixes: Vec<u32> = keys.map(|k| key_prefix(&k.0)).collect();
            assert!(prefixes.windows(2).all(|w| w[0] < w[1]));
        };
        rising(&mut (1..=25_000i64).map(k));
        rising(&mut (1..=10i64).flat_map(|w| {
            (1..=10i64).flat_map(move |d| {
                (1..=3_000i64).map(move |c| RowKey::new(vec![w.into(), d.into(), c.into()]))
            })
        }));
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

    /// Integers at the edges of each prefix code's range, anywhere, and
    /// small.
    fn arb_int() -> impl Strategy<Value = i64> {
        const EDGES: [i64; 14] = [
            i64::MIN,
            i64::MIN + 1,
            -1,
            0,
            15,
            16,
            4_111,
            4_112,
            69_647,
            69_648,
            1_118_223,
            1_118_224,
            i64::MAX - 1,
            i64::MAX,
        ];
        prop_oneof![
            (0..EDGES.len()).prop_map(|i| EDGES[i]),
            any::<i64>(),
            -20i64..5_000,
        ]
    }

    /// Datums from every rank: Int/Decimal twins, and empty or
    /// NUL-bearing text.
    fn arb_datum() -> impl Strategy<Value = Datum> {
        let text = proptest::collection::vec(
            prop_oneof![
                Just('\0'),
                Just('a'),
                Just('b'),
                Just('\u{7f}'),
                any::<char>()
            ],
            0..6,
        );
        prop_oneof![
            Just(Datum::Null),
            any::<bool>().prop_map(Datum::Bool),
            arb_int().prop_map(Datum::Int),
            arb_int().prop_map(Datum::Decimal),
            text.prop_map(|cs| Datum::from(cs.into_iter().collect::<String>())),
        ]
    }

    fn arb_key() -> impl Strategy<Value = RowKey> {
        proptest::collection::vec(arb_datum(), 0..5).prop_map(RowKey::new)
    }

    /// A key near `key`: truncated, extended, or with one datum moved by
    /// one (or swapped for its Int/Decimal twin).
    fn near(key: &RowKey, edit: usize, extra: Datum) -> RowKey {
        let mut v = key.0.to_vec();
        match (edit % 4, v.len()) {
            (0, n) if n > 0 => {
                v.truncate(edit % n);
            }
            (1, n) if n > 0 => {
                let i = edit % n;
                v[i] = match &v[i] {
                    Datum::Int(x) => Datum::Decimal(*x),
                    Datum::Decimal(x) => Datum::Int(x.wrapping_add(1)),
                    Datum::Text(t) => Datum::from(format!("{t}\0")),
                    _ => extra,
                };
            }
            (2, n) if n > 0 => {
                let i = edit % n;
                if let Datum::Int(x) | Datum::Decimal(x) = &mut v[i] {
                    *x = x.wrapping_sub(1);
                }
            }
            _ => v.push(extra),
        }
        RowKey::new(v)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The slot prefix is monotone under `RowKey::cmp`: a smaller key
        /// never gets a larger prefix, and equal keys get equal ones.
        #[test]
        fn key_prefix_is_monotone(
            a in arb_key(), b in arb_key(), edit in 0usize..64, extra in arb_datum(),
        ) {
            let c = near(&a, edit, extra);
            for (x, y) in [(&a, &b), (&a, &c), (&b, &c)] {
                let (px, py) = (key_prefix(&x.0), key_prefix(&y.0));
                match x.cmp(y) {
                    Ordering::Less => prop_assert!(px <= py, "{} < {} but {:#x} > {:#x}", x, y, px, py),
                    Ordering::Equal => prop_assert_eq!(px, py, "{} = {}", x, y),
                    Ordering::Greater => prop_assert!(px >= py, "{} > {} but {:#x} < {:#x}", x, y, px, py),
                }
            }
        }
    }

    proptest! {

        /// A table keyed by mixed-type keys reads every key back and
        /// scans and ranges in `RowKey` order.
        #[test]
        fn mixed_keys_read_back_in_key_order(
            keys in proptest::collection::vec(arb_key(), 1..40),
            lo in arb_key(), hi in arb_key(),
        ) {
            let mut tbl = Table::new();
            let mut spec = BTreeMap::new();
            for (i, key) in keys.iter().enumerate() {
                let row = Row(vec![Datum::Int(i as i64)]);
                tbl.install_version(key, Some(row.clone()), Timestamp(i as u64 + 1), SimTime::ZERO).unwrap();
                spec.insert(key.clone(), row);
            }
            prop_assert_eq!(tbl.key_count(), spec.len());
            for key in &keys {
                prop_assert_eq!(tbl.read_newest(key).map(|v| v.row), spec.get(key));
            }
            let scan: Vec<_> = tbl.scan(Timestamp::MAX).map(|v| (v.key.clone(), v.row.clone())).collect();
            prop_assert_eq!(scan, spec.clone().into_iter().collect::<Vec<_>>());
            let range: Vec<_> = tbl.range(Some(&lo), Some(&hi), Timestamp::MAX).map(|v| v.key.clone()).collect();
            let expected: Vec<_> = spec.keys().filter(|k| k.in_range(Some(&lo), Some(&hi))).cloned().collect();
            prop_assert_eq!(range, expected);
        }

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
            let rows = |rows: &mut dyn Iterator<Item = VisibleRow<'_>>| -> Vec<(RowKey, Row, Timestamp)> {
                rows.map(|v| (v.key.clone(), v.row.clone(), v.commit_ts)).collect()
            };
            let (lo, hi) = (RowKey::single(1i64), RowKey::single(4i64));
            let same_reads = |live: &Table, spec: &Spec, snapshot: u64| -> TestCaseResult {
                let at = Timestamp(snapshot);
                let mut expected = spec.scan(at);
                prop_assert_eq!(rows(&mut live.scan(at)), expected.clone(), "scan at {}", snapshot);
                for key in (0i64..6).map(RowKey::single) {
                    let read = live.read(&key, at).map(|v| (v.row.clone(), v.commit_ts));
                    let visible = expected.iter().find(|r| r.0 == key);
                    prop_assert_eq!(read, visible.map(|r| (r.1.clone(), r.2)), "read at {}", snapshot);
                }
                expected.retain(|r| lo <= r.0 && r.0 <= hi);
                prop_assert_eq!(
                    rows(&mut live.range(Some(&lo), Some(&hi), at)), expected, "range at {}", snapshot
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
                    prop_assert_eq!(tbl.key_count(), tbl.scan(Timestamp(*ts)).count());
                    written.clear();
                }
            }
        }
    }
}

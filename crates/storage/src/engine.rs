//! The per-data-node storage facade: versioned tables, secondary indexes,
//! and the lock table, behind one API the executor and replica appliers use.
//!
//! Secondary indexes are maintained insert-only: entries map
//! `(index columns ‖ primary key) → primary key` and lookups re-check the
//! indexed columns against the version visible at the reader's snapshot, so
//! stale entries are filtered rather than eagerly removed (the standard
//! MVCC recheck approach — old snapshots keep seeing old entries).
//!
//! Because entries are never removed, the head of every chain — its
//! newest version, if live — already has its entry: a put wrote it, or
//! [`DataNodeStorage::create_index`] backfilled it. So a put writes an
//! entry only when the new image's indexed columns differ from the head
//! it replaces, or there is no live head (a new key, or a tombstone).
//! An update that leaves the indexed columns alone — most of them —
//! touches no index, on a primary and on a replica replaying it alike.
//!
//! Reads, and every lookup but an install, take the key as borrowed
//! datums (`&[Datum]`): a probe builds no key.

use crate::catalog::Catalog;
use crate::lock::LockTable;
use crate::table::{Table, VisibleRow};
use gdb_model::{
    Datum, Ddl, FxHashMap, GdbError, GdbResult, IndexId, Row, RowKey, TableId, Timestamp,
};
use gdb_simnet::SimTime;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Storage state of one data node (primary or replica).
#[derive(Debug, Default, Clone)]
pub struct DataNodeStorage {
    catalog: Catalog,
    tables: FxHashMap<TableId, Table>,
    /// index id → ordered map of (index cols ‖ pk) → pk.
    indexes: FxHashMap<IndexId, BTreeMap<RowKey, RowKey>>,
    pub locks: LockTable,
    /// Row reads served (load metric).
    pub reads: u64,
    /// Versions written (load metric).
    pub writes: u64,
    /// Secondary-index entries written by puts (load metric).
    pub index_writes: u64,
}

impl DataNodeStorage {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    // ---- DDL --------------------------------------------------------

    /// Apply one DDL statement: the catalog and the table and index maps.
    /// The one way a DDL statement reaches a node's state, on the CN's
    /// primaries and on replicas replaying it alike.
    pub fn apply_ddl(&mut self, ddl: &Ddl) -> GdbResult<()> {
        match ddl {
            Ddl::CreateTable(schema) => self.create_table(schema.clone()),
            Ddl::DropTable(id) => self.drop_table(*id),
            Ddl::CreateIndex {
                table,
                name,
                columns,
            } => self
                .create_index(*table, name.clone(), columns.clone())
                .map(|_| ()),
            Ddl::DropIndex { name, .. } => self.drop_index(name),
        }
    }

    pub fn create_table(&mut self, schema: gdb_model::TableSchema) -> GdbResult<()> {
        let id = schema.id;
        self.catalog.create_table(schema)?;
        self.tables.insert(id, Table::new());
        Ok(())
    }

    pub fn drop_table(&mut self, id: TableId) -> GdbResult<()> {
        let dropped: Vec<IndexId> = self.catalog.indexes_on(id).map(|ix| ix.id).collect();
        self.catalog.drop_table(id)?;
        self.tables.remove(&id);
        for ix in dropped {
            self.indexes.remove(&ix);
        }
        Ok(())
    }

    /// Create a secondary index and backfill it from the newest versions.
    pub fn create_index(
        &mut self,
        table: TableId,
        name: impl Into<String>,
        columns: Vec<usize>,
    ) -> GdbResult<IndexId> {
        let id = self.catalog.create_index(table, name, columns.clone())?;
        let mut map = BTreeMap::new();
        if let Some(tbl) = self.tables.get(&table) {
            // Backfill from all versions visible at any snapshot: use the
            // newest version of each key (older versions recheck away).
            for v in tbl.range(None, None, Timestamp::MAX) {
                let entry = Self::index_entry(&columns, v.row, v.key);
                map.insert(entry, v.key.clone());
            }
        }
        self.indexes.insert(id, map);
        Ok(id)
    }

    pub fn drop_index(&mut self, name: &str) -> GdbResult<()> {
        let def = self.catalog.drop_index(name)?;
        self.indexes.remove(&def.id);
        Ok(())
    }

    fn index_entry(columns: &[usize], row: &Row, pk: &RowKey) -> RowKey {
        let indexed = columns.iter().map(|&c| row.0[c].clone());
        indexed.chain(pk.0.iter().cloned()).collect()
    }

    // ---- DML (installs *committed* versions) -------------------------

    fn table_mut(&mut self, id: TableId) -> GdbResult<&mut Table> {
        self.tables
            .get_mut(&id)
            .ok_or_else(|| GdbError::Schema(format!("no storage for table {id}")))
    }

    pub fn table(&self, id: TableId) -> GdbResult<&Table> {
        self.tables
            .get(&id)
            .ok_or_else(|| GdbError::Schema(format!("no storage for table {id}")))
    }

    /// Install an insert-or-update version without existence checks: the
    /// one write core behind commit, replica replay, bulk load and the
    /// validated [`insert`](Self::insert) / [`update`](Self::update). The
    /// key is shared only when it is new to the table or feeds a
    /// secondary index entry, and an entry is written only where the
    /// indexed columns change (the module doc).
    pub fn apply_put(
        &mut self,
        table: TableId,
        key: &RowKey,
        row: Row,
        commit_ts: Timestamp,
        commit_vtime: SimTime,
    ) -> GdbResult<()> {
        self.writes += 1;
        let tbl = self
            .tables
            .get_mut(&table)
            .ok_or_else(|| GdbError::Schema(format!("no storage for table {table}")))?;
        let mut indexes = self.catalog.indexes_on(table).peekable();
        if indexes.peek().is_some() {
            let head = tbl.read_newest(key).map(|v| v.row);
            for ix in indexes {
                let same = |&c: &usize| head.is_some_and(|h| h.0[c].key_cmp(&row.0[c]).is_eq());
                if !ix.columns.iter().all(same) {
                    self.index_writes += 1;
                    let entry = Self::index_entry(&ix.columns, &row, key);
                    let map = self.indexes.get_mut(&ix.id);
                    map.expect("index storage consistent")
                        .insert(entry, key.clone());
                }
            }
        }
        tbl.install_version(key, Some(row), commit_ts, commit_vtime)
    }

    /// Tombstone without existence check (see [`apply_put`](Self::apply_put)).
    pub fn apply_delete(
        &mut self,
        table: TableId,
        key: &RowKey,
        commit_ts: Timestamp,
        commit_vtime: SimTime,
    ) -> GdbResult<()> {
        self.writes += 1;
        self.table_mut(table)?
            .install_version(key, None, commit_ts, commit_vtime)
    }

    /// Insert a new row version. Fails on a live duplicate key.
    pub fn insert(
        &mut self,
        table: TableId,
        key: &RowKey,
        row: Row,
        commit_ts: Timestamp,
        commit_vtime: SimTime,
    ) -> GdbResult<()> {
        if self.table(table)?.exists_newest(key) {
            return Err(GdbError::DuplicateKey(format!("{table} {key}")));
        }
        self.apply_put(table, key, row, commit_ts, commit_vtime)
    }

    /// Overwrite an existing row (read-committed update: the caller already
    /// holds the row lock and read the newest version).
    pub fn update(
        &mut self,
        table: TableId,
        key: &RowKey,
        new_row: Row,
        commit_ts: Timestamp,
        commit_vtime: SimTime,
    ) -> GdbResult<()> {
        if !self.table(table)?.exists_newest(key) {
            return Err(GdbError::NotFound(format!("{table} {key}")));
        }
        self.apply_put(table, key, new_row, commit_ts, commit_vtime)
    }

    /// Delete a row (tombstone). Fails if the row is not live.
    pub fn delete(
        &mut self,
        table: TableId,
        key: &RowKey,
        commit_ts: Timestamp,
        commit_vtime: SimTime,
    ) -> GdbResult<()> {
        if !self.table(table)?.exists_newest(key) {
            return Err(GdbError::NotFound(format!("{table} {key}")));
        }
        self.apply_delete(table, key, commit_ts, commit_vtime)
    }

    // ---- Reads -------------------------------------------------------

    pub fn read(
        &mut self,
        table: TableId,
        key: &[Datum],
        snapshot: Timestamp,
    ) -> GdbResult<Option<VisibleRow<'_>>> {
        self.reads += 1;
        Ok(self.table(table)?.read(key, snapshot))
    }

    /// Newest committed version (read-committed update path).
    pub fn read_newest(
        &mut self,
        table: TableId,
        key: &[Datum],
    ) -> GdbResult<Option<VisibleRow<'_>>> {
        self.reads += 1;
        Ok(self.table(table)?.read_newest(key))
    }

    /// [`Table::range`] of `table`: the rows are walked where they lie.
    pub fn range<'a>(
        &'a mut self,
        table: TableId,
        lo: Option<&[Datum]>,
        hi: Option<&'a [Datum]>,
        snapshot: Timestamp,
    ) -> GdbResult<impl Iterator<Item = VisibleRow<'a>>> {
        self.reads += 1;
        Ok(self.table(table)?.range(lo, hi, snapshot))
    }

    pub fn scan(
        &mut self,
        table: TableId,
        snapshot: Timestamp,
    ) -> GdbResult<impl Iterator<Item = VisibleRow<'_>>> {
        self.reads += 1;
        Ok(self.table(table)?.scan(snapshot))
    }

    /// Index prefix lookup: `visit` sees every row whose indexed columns
    /// start with `prefix`, visible at `snapshot`, with the MVCC recheck
    /// applied, in primary-key order, where it lies. A prefix that fixes
    /// every indexed column walks the index in that order already; a
    /// shorter one collects the (borrowed) rows to sort them.
    pub fn index_lookup(
        &mut self,
        index: IndexId,
        prefix: &[Datum],
        snapshot: Timestamp,
        visit: &mut dyn FnMut(VisibleRow<'_>) -> GdbResult<()>,
    ) -> GdbResult<()> {
        self.reads += 1;
        let def = self.catalog.index(index)?;
        let map = self
            .indexes
            .get(&index)
            .ok_or_else(|| GdbError::Schema(format!("no storage for index {index}")))?;
        let tbl = self
            .tables
            .get(&def.table)
            .ok_or_else(|| GdbError::Schema(format!("no storage for table {}", def.table)))?;
        let same = |a: &Datum, b: &Datum| a.key_cmp(b) == std::cmp::Ordering::Equal;
        let mut rows = map
            .range::<[Datum], _>((Bound::Included(prefix), Bound::Unbounded))
            // Stop once the entry no longer starts with the prefix.
            .take_while(|(entry, _)| {
                entry.0.len() >= prefix.len() && entry.0.iter().zip(prefix).all(|(a, b)| same(a, b))
            })
            .filter_map(|(entry, pk)| {
                // Recheck: the visible version's indexed columns must
                // still match this entry (it may be stale after an update).
                let v = tbl.read(pk, snapshot)?;
                let matches = def
                    .columns
                    .iter()
                    .zip(entry.0.iter())
                    .all(|(&c, ev)| same(&v.row.0[c], ev));
                matches.then_some(v)
            });
        if prefix.len() >= def.columns.len() {
            return rows.try_for_each(visit);
        }
        let mut rows: Vec<_> = rows.collect();
        rows.sort_by(|a, b| a.key.cmp(b.key));
        rows.into_iter().try_for_each(visit)
    }

    /// Vacuum every table up to `horizon`; returns versions removed.
    pub fn vacuum(&mut self, horizon: Timestamp) -> usize {
        self.tables.values_mut().map(|t| t.vacuum(horizon)).sum()
    }

    /// Approximate number of live keys across all tables (size metric).
    pub fn total_keys(&self) -> usize {
        self.tables.values().map(|t| t.key_count()).sum()
    }

    /// Allocator bytes pinned by every table's version arena (the
    /// `storage.arena_resident_bytes.s<shard>` gauge source).
    pub fn resident_bytes(&self) -> usize {
        self.tables.values().map(|t| t.resident_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_model::{ColumnDef, DataType, SchemaBuilder, TableSchema};

    fn schema(id: u32) -> TableSchema {
        SchemaBuilder::new(format!("t{id}"))
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("name", DataType::Text))
            .column(ColumnDef::new("qty", DataType::Int))
            .primary_key(&["id"])
            .build(TableId(id))
            .unwrap()
    }

    fn row(id: i64, name: &str, qty: i64) -> Row {
        Row(vec![
            Datum::Int(id),
            Datum::Text(name.into()),
            Datum::Int(qty),
        ])
    }

    fn setup() -> DataNodeStorage {
        let mut s = DataNodeStorage::new();
        s.create_table(schema(0)).unwrap();
        s
    }

    #[test]
    fn insert_read_update_delete_cycle() {
        let mut s = setup();
        let t = TableId(0);
        let k = RowKey::single(1i64);
        s.insert(t, &k, row(1, "a", 10), Timestamp(10), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            s.read(t, &k, Timestamp(10)).unwrap().unwrap().row,
            &row(1, "a", 10)
        );
        s.update(t, &k, row(1, "b", 20), Timestamp(20), SimTime::ZERO)
            .unwrap();
        // Old snapshot still sees the old version.
        assert_eq!(
            s.read(t, &k, Timestamp(15)).unwrap().unwrap().row,
            &row(1, "a", 10)
        );
        s.delete(t, &k, Timestamp(30), SimTime::ZERO).unwrap();
        assert!(s.read(t, &k, Timestamp(30)).unwrap().is_none());
        assert!(s.read(t, &k, Timestamp(25)).unwrap().is_some());
    }

    #[test]
    fn duplicate_insert_rejected_but_reinsert_after_delete_ok() {
        let mut s = setup();
        let t = TableId(0);
        let k = RowKey::single(1i64);
        s.insert(t, &k, row(1, "a", 1), Timestamp(10), SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            s.insert(t, &k, row(1, "b", 2), Timestamp(20), SimTime::ZERO),
            Err(GdbError::DuplicateKey(_))
        ));
        s.delete(t, &k, Timestamp(30), SimTime::ZERO).unwrap();
        s.insert(t, &k, row(1, "c", 3), Timestamp(40), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            s.read(t, &k, Timestamp(40)).unwrap().unwrap().row,
            &row(1, "c", 3)
        );
    }

    #[test]
    fn update_missing_row_errors() {
        let mut s = setup();
        assert!(matches!(
            s.update(
                TableId(0),
                &RowKey::single(9i64),
                row(9, "x", 0),
                Timestamp(5),
                SimTime::ZERO
            ),
            Err(GdbError::NotFound(_))
        ));
        assert!(matches!(
            s.delete(
                TableId(0),
                &RowKey::single(9i64),
                Timestamp(5),
                SimTime::ZERO
            ),
            Err(GdbError::NotFound(_))
        ));
    }

    /// The rows an index lookup visits.
    fn hits(s: &mut DataNodeStorage, ix: IndexId, prefix: &[Datum], at: Timestamp) -> usize {
        let mut n = 0;
        s.index_lookup(ix, prefix, at, &mut |_| {
            n += 1;
            Ok(())
        })
        .unwrap();
        n
    }

    #[test]
    fn index_lookup_with_recheck() {
        let mut s = setup();
        let t = TableId(0);
        let ix = s.create_index(t, "by_name", vec![1]).unwrap();
        for i in 0..5i64 {
            s.insert(
                t,
                &RowKey::single(i),
                row(i, if i % 2 == 0 { "even" } else { "odd" }, i),
                Timestamp(10),
                SimTime::ZERO,
            )
            .unwrap();
        }
        assert_eq!(
            hits(&mut s, ix, &[Datum::Text("even".into())], Timestamp(10)),
            3
        );
        // Update row 0's name: old index entry must recheck away at newer
        // snapshots but the old snapshot still finds it.
        s.update(
            t,
            &RowKey::single(0i64),
            row(0, "odd", 0),
            Timestamp(20),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(
            hits(&mut s, ix, &[Datum::Text("even".into())], Timestamp(20)),
            2
        );
        assert_eq!(
            hits(&mut s, ix, &[Datum::Text("even".into())], Timestamp(10)),
            3
        );
        assert_eq!(
            hits(&mut s, ix, &[Datum::Text("odd".into())], Timestamp(20)),
            3
        );
    }

    #[test]
    fn index_lookup_visits_in_key_order() {
        let mut s = setup();
        let t = TableId(0);
        let ix = s.create_index(t, "by_name", vec![1]).unwrap();
        for (i, name) in [(1i64, "c"), (2, "a"), (3, "b"), (4, "a")] {
            s.insert(
                t,
                &RowKey::single(i),
                row(i, name, i),
                Timestamp(10),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let keys = |s: &mut DataNodeStorage, prefix: &[Datum]| {
            let mut keys = Vec::new();
            s.index_lookup(ix, prefix, Timestamp(10), &mut |v| {
                keys.push(v.key.0[0].as_int().unwrap());
                Ok(())
            })
            .unwrap();
            keys
        };
        // The index holds them by name (2, 4, 3, 1); a lookup hands them
        // over by key, for a full prefix and for an empty one alike.
        assert_eq!(keys(&mut s, &[]), vec![1, 2, 3, 4]);
        assert_eq!(keys(&mut s, &[Datum::Text("a".into())]), vec![2, 4]);
    }

    /// A put writes an index entry only where the indexed columns change
    /// from the live head, or there is none (a new key, a tombstone).
    #[test]
    fn index_entries_are_written_only_on_change() {
        let mut s = setup();
        let t = TableId(0);
        let ix = s.create_index(t, "by_name", vec![1]).unwrap();
        let k = RowKey::single(1i64);
        let put = |s: &mut DataNodeStorage, name: &str, qty: i64, ts: u64| {
            s.apply_put(t, &k, row(1, name, qty), Timestamp(ts), SimTime::ZERO)
                .unwrap();
            s.index_writes
        };
        assert_eq!(put(&mut s, "a", 1, 10), 1, "a new key");
        assert_eq!(put(&mut s, "a", 2, 20), 1, "only qty changed");
        assert_eq!(put(&mut s, "b", 2, 30), 2, "the name changed");
        assert_eq!(put(&mut s, "a", 3, 40), 3, "the name changed back");
        s.apply_delete(t, &k, Timestamp(50), SimTime::ZERO).unwrap();
        assert_eq!(put(&mut s, "a", 4, 60), 4, "over a tombstone");
        assert_eq!(
            hits(&mut s, ix, &[Datum::Text("a".into())], Timestamp(60)),
            1
        );
        assert_eq!(
            hits(&mut s, ix, &[Datum::Text("a".into())], Timestamp(50)),
            0
        );
        assert_eq!(
            hits(&mut s, ix, &[Datum::Text("b".into())], Timestamp(30)),
            1
        );
        assert_eq!(
            hits(&mut s, ix, &[Datum::Text("b".into())], Timestamp(40)),
            0
        );
    }

    #[test]
    fn index_backfill_on_create() {
        let mut s = setup();
        let t = TableId(0);
        for i in 0..4i64 {
            s.insert(
                t,
                &RowKey::single(i),
                row(i, "n", i),
                Timestamp(10),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let ix = s.create_index(t, "by_name", vec![1]).unwrap();
        assert_eq!(
            hits(&mut s, ix, &[Datum::Text("n".into())], Timestamp(10)),
            4
        );
    }

    #[test]
    fn deleted_rows_vanish_from_index_lookups() {
        let mut s = setup();
        let t = TableId(0);
        let ix = s.create_index(t, "by_name", vec![1]).unwrap();
        s.insert(
            t,
            &RowKey::single(1i64),
            row(1, "gone", 0),
            Timestamp(10),
            SimTime::ZERO,
        )
        .unwrap();
        s.delete(t, &RowKey::single(1i64), Timestamp(20), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            hits(&mut s, ix, &[Datum::Text("gone".into())], Timestamp(20)),
            0
        );
    }

    #[test]
    fn drop_table_removes_storage_and_indexes() {
        let mut s = setup();
        let t = TableId(0);
        let ix = s.create_index(t, "by_name", vec![1]).unwrap();
        s.drop_table(t).unwrap();
        assert!(s.read(t, &RowKey::single(1i64), Timestamp(10)).is_err());
        assert!(s
            .index_lookup(ix, &[], Timestamp(10), &mut |_| Ok(()))
            .is_err());
    }

    #[test]
    fn apply_put_skips_checks_for_replay() {
        let mut s = setup();
        let t = TableId(0);
        let k = RowKey::single(1i64);
        // Replay can put the same key twice (update without prior insert).
        s.apply_put(t, &k, row(1, "a", 1), Timestamp(10), SimTime::ZERO)
            .unwrap();
        s.apply_put(t, &k, row(1, "b", 2), Timestamp(20), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            s.read(t, &k, Timestamp(20)).unwrap().unwrap().row,
            &row(1, "b", 2)
        );
    }

    #[test]
    fn range_reads_through_engine() {
        let mut s = setup();
        let t = TableId(0);
        for i in 0..10i64 {
            s.insert(
                t,
                &RowKey::single(i),
                row(i, "r", i),
                Timestamp(10),
                SimTime::ZERO,
            )
            .unwrap();
        }
        let (lo, hi) = (RowKey::single(3i64), RowKey::single(6i64));
        let rows = s.range(t, Some(&lo), Some(&hi), Timestamp(10)).unwrap();
        assert_eq!(rows.count(), 4);
    }
}

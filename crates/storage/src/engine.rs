//! The per-data-node storage facade: versioned tables, secondary indexes,
//! and the lock table, behind one API the executor and replica appliers use.
//!
//! Secondary indexes are maintained insert-only: entries map
//! `(index columns ‖ primary key) → primary key` and lookups re-check the
//! indexed columns against the version visible at the reader's snapshot, so
//! stale entries are filtered rather than eagerly removed (the standard
//! MVCC recheck approach — old snapshots keep seeing old entries).

use crate::catalog::Catalog;
use crate::lock::LockTable;
use crate::table::{Table, VisibleRow};
use gdb_model::{Datum, FxHashMap, GdbError, GdbResult, IndexId, Row, RowKey, TableId, Timestamp};
use gdb_simnet::SimTime;
use std::collections::BTreeMap;

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

    pub fn create_table(&mut self, schema: gdb_model::TableSchema) -> GdbResult<()> {
        let id = schema.id;
        self.catalog.create_table(schema)?;
        self.tables.insert(id, Table::new());
        Ok(())
    }

    pub fn drop_table(&mut self, id: TableId) -> GdbResult<()> {
        let dropped: Vec<IndexId> = self.catalog.indexes_on(id).iter().map(|ix| ix.id).collect();
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
        let mut vals: Vec<Datum> = columns.iter().map(|&c| row.0[c].clone()).collect();
        vals.extend(pk.0.iter().cloned());
        RowKey(vals)
    }

    /// The `(index, entry)` pairs a write to `(table, key, row)` must
    /// install. Returns an empty (non-allocating) vec when the table has
    /// no secondary indexes — the common case on the hot write path.
    fn index_updates(&self, table: TableId, key: &RowKey, row: &Row) -> Vec<(IndexId, RowKey)> {
        if self.indexes.is_empty() {
            return Vec::new();
        }
        self.catalog
            .indexes_on(table)
            .iter()
            .map(|ix| (ix.id, Self::index_entry(&ix.columns, row, key)))
            .collect()
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
    /// key is cloned only when it is new to the table or feeds a
    /// secondary index.
    pub fn apply_put(
        &mut self,
        table: TableId,
        key: &RowKey,
        row: Row,
        commit_ts: Timestamp,
        commit_vtime: SimTime,
    ) -> GdbResult<()> {
        self.writes += 1;
        let index_updates = self.index_updates(table, key, &row);
        self.table_mut(table)?
            .install_version(key, Some(row), commit_ts, commit_vtime)?;
        for (ix, entry) in index_updates {
            self.indexes
                .get_mut(&ix)
                .expect("index storage consistent")
                .insert(entry, key.clone());
        }
        Ok(())
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
        key: &RowKey,
        snapshot: Timestamp,
    ) -> GdbResult<Option<VisibleRow<'_>>> {
        self.reads += 1;
        Ok(self.table(table)?.read(key, snapshot))
    }

    /// Newest committed version (read-committed update path).
    pub fn read_newest(
        &mut self,
        table: TableId,
        key: &RowKey,
    ) -> GdbResult<Option<VisibleRow<'_>>> {
        self.reads += 1;
        Ok(self.table(table)?.read_newest(key))
    }

    pub fn range(
        &mut self,
        table: TableId,
        lo: Option<&RowKey>,
        hi: Option<&RowKey>,
        snapshot: Timestamp,
    ) -> GdbResult<Vec<VisibleRow<'_>>> {
        self.reads += 1;
        Ok(self.table(table)?.range(lo, hi, snapshot))
    }

    pub fn scan(&mut self, table: TableId, snapshot: Timestamp) -> GdbResult<Vec<VisibleRow<'_>>> {
        self.reads += 1;
        Ok(self.table(table)?.scan(snapshot))
    }

    /// Index prefix lookup: all rows whose indexed columns start with
    /// `prefix`, visible at `snapshot`, with the MVCC recheck applied.
    pub fn index_lookup(
        &mut self,
        index: IndexId,
        prefix: &[Datum],
        snapshot: Timestamp,
    ) -> GdbResult<Vec<(RowKey, Row)>> {
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

        let mut out = Vec::new();
        for (entry, pk) in map.range(RowKey(prefix.to_vec())..) {
            // Stop once the entry no longer starts with the prefix.
            if entry.0.len() < prefix.len()
                || entry.0[..prefix.len()]
                    .iter()
                    .zip(prefix)
                    .any(|(a, b)| a.key_cmp(b) != std::cmp::Ordering::Equal)
            {
                break;
            }
            if let Some(v) = tbl.read(pk, snapshot) {
                // Recheck: the visible version's indexed columns must still
                // match this entry (it may be stale after an update).
                let matches = def
                    .columns
                    .iter()
                    .zip(entry.0.iter())
                    .all(|(&c, ev)| v.row.0[c].key_cmp(ev) == std::cmp::Ordering::Equal);
                if matches {
                    out.push((pk.clone(), v.row.clone()));
                }
            }
        }
        Ok(out)
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
        let evens = s
            .index_lookup(ix, &[Datum::Text("even".into())], Timestamp(10))
            .unwrap();
        assert_eq!(evens.len(), 3);
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
        let evens_now = s
            .index_lookup(ix, &[Datum::Text("even".into())], Timestamp(20))
            .unwrap();
        assert_eq!(evens_now.len(), 2);
        let evens_old = s
            .index_lookup(ix, &[Datum::Text("even".into())], Timestamp(10))
            .unwrap();
        assert_eq!(evens_old.len(), 3);
        let odds_now = s
            .index_lookup(ix, &[Datum::Text("odd".into())], Timestamp(20))
            .unwrap();
        assert_eq!(odds_now.len(), 3);
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
        let hits = s
            .index_lookup(ix, &[Datum::Text("n".into())], Timestamp(10))
            .unwrap();
        assert_eq!(hits.len(), 4);
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
        assert!(s
            .index_lookup(ix, &[Datum::Text("gone".into())], Timestamp(20))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn drop_table_removes_storage_and_indexes() {
        let mut s = setup();
        let t = TableId(0);
        let ix = s.create_index(t, "by_name", vec![1]).unwrap();
        s.drop_table(t).unwrap();
        assert!(s.read(t, &RowKey::single(1i64), Timestamp(10)).is_err());
        assert!(s.index_lookup(ix, &[], Timestamp(10)).is_err());
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
        let rows = s
            .range(
                t,
                Some(&RowKey::single(3i64)),
                Some(&RowKey::single(6i64)),
                Timestamp(10),
            )
            .unwrap();
        assert_eq!(rows.len(), 4);
    }
}

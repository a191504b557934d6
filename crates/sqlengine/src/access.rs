//! The storage-access abstraction the executor runs against.
//!
//! The `globaldb` crate implements [`DataAccess`] with sharding, network
//! latency accounting, MVCC snapshots, and row locks; [`MemAccess`] here
//! is a single-node in-memory implementation used by the SQL engine's own
//! tests (and handy as an embedded mini-database).

use crate::plan::BoundDdl;
use gdb_model::{Datum, GdbResult, IndexId, Row, RowKey, TableId, Timestamp};
use gdb_simnet::SimTime;
use gdb_storage::{Catalog, DataNodeStorage};

/// What the executor needs from the storage/cluster layer.
pub trait DataAccess {
    /// The catalog to resolve schemas against.
    fn catalog(&self) -> &Catalog;

    /// Snapshot point read.
    fn point_read(&mut self, table: TableId, key: &RowKey) -> GdbResult<Option<Row>>;

    /// Batched snapshot point reads (join inner side): one round trip per
    /// shard instead of one per key. The default just loops.
    fn multi_point_read(&mut self, table: TableId, keys: &[RowKey]) -> GdbResult<Vec<Option<Row>>> {
        keys.iter().map(|k| self.point_read(table, k)).collect()
    }

    /// Snapshot range read, inclusive bounds (`None` = unbounded).
    fn range_read(
        &mut self,
        table: TableId,
        lo: Option<&RowKey>,
        hi: Option<&RowKey>,
    ) -> GdbResult<Vec<(RowKey, Row)>>;

    /// Snapshot secondary-index prefix lookup.
    fn index_read(&mut self, index: IndexId, prefix: &[Datum]) -> GdbResult<Vec<(RowKey, Row)>>;

    /// Snapshot full scan.
    fn full_scan(&mut self, table: TableId) -> GdbResult<Vec<(RowKey, Row)>>;

    /// Lock the row for write and return its *newest committed* version
    /// (read-committed update semantics; the lock is held to transaction
    /// end).
    fn read_for_update(&mut self, table: TableId, key: &RowKey) -> GdbResult<Option<Row>>;

    /// Insert a new row (duplicate primary key is an error).
    fn insert(&mut self, table: TableId, row: Row) -> GdbResult<()>;

    /// Overwrite the row at `key` (caller holds the lock via
    /// [`DataAccess::read_for_update`]).
    fn update(&mut self, table: TableId, key: &RowKey, new_row: Row) -> GdbResult<()>;

    /// Delete the row at `key`.
    fn delete(&mut self, table: TableId, key: &RowKey) -> GdbResult<()>;

    /// Execute a DDL operation.
    fn apply_ddl(&mut self, ddl: &BoundDdl) -> GdbResult<()>;
}

/// Single-node, single-user in-memory implementation for tests: every
/// write commits immediately at an advancing timestamp.
pub struct MemAccess {
    storage: DataNodeStorage,
    now_ts: Timestamp,
}

impl MemAccess {
    pub fn new() -> Self {
        MemAccess {
            storage: DataNodeStorage::new(),
            now_ts: Timestamp(1),
        }
    }

    fn tick(&mut self) -> Timestamp {
        self.now_ts = self.now_ts.next();
        self.now_ts
    }

    pub fn storage(&self) -> &DataNodeStorage {
        &self.storage
    }
}

impl Default for MemAccess {
    fn default() -> Self {
        Self::new()
    }
}

impl DataAccess for MemAccess {
    fn catalog(&self) -> &Catalog {
        self.storage.catalog()
    }

    fn point_read(&mut self, table: TableId, key: &RowKey) -> GdbResult<Option<Row>> {
        Ok(self
            .storage
            .read(table, key, Timestamp::MAX)?
            .map(|v| v.row.clone()))
    }

    fn range_read(
        &mut self,
        table: TableId,
        lo: Option<&RowKey>,
        hi: Option<&RowKey>,
    ) -> GdbResult<Vec<(RowKey, Row)>> {
        Ok(self
            .storage
            .range(table, lo, hi, Timestamp::MAX)?
            .into_iter()
            .map(|v| (v.key.clone(), v.row.clone()))
            .collect())
    }

    fn index_read(&mut self, index: IndexId, prefix: &[Datum]) -> GdbResult<Vec<(RowKey, Row)>> {
        self.storage.index_lookup(index, prefix, Timestamp::MAX)
    }

    fn full_scan(&mut self, table: TableId) -> GdbResult<Vec<(RowKey, Row)>> {
        Ok(self
            .storage
            .scan(table, Timestamp::MAX)?
            .into_iter()
            .map(|v| (v.key.clone(), v.row.clone()))
            .collect())
    }

    fn read_for_update(&mut self, table: TableId, key: &RowKey) -> GdbResult<Option<Row>> {
        Ok(self.storage.read_newest(table, key)?.map(|v| v.row.clone()))
    }

    fn insert(&mut self, table: TableId, row: Row) -> GdbResult<()> {
        let schema = self.storage.catalog().table(table)?;
        let mut row = row;
        schema.coerce_row(&mut row);
        schema.check_row(&row)?;
        let key = schema.primary_key_of(&row);
        let ts = self.tick();
        self.storage.insert(table, &key, row, ts, SimTime::ZERO)
    }

    fn update(&mut self, table: TableId, key: &RowKey, new_row: Row) -> GdbResult<()> {
        let schema = self.storage.catalog().table(table)?;
        let mut new_row = new_row;
        schema.coerce_row(&mut new_row);
        schema.check_row(&new_row)?;
        let ts = self.tick();
        self.storage.update(table, key, new_row, ts, SimTime::ZERO)
    }

    fn delete(&mut self, table: TableId, key: &RowKey) -> GdbResult<()> {
        let ts = self.tick();
        self.storage.delete(table, key, ts, SimTime::ZERO)
    }

    fn apply_ddl(&mut self, ddl: &BoundDdl) -> GdbResult<()> {
        match ddl {
            BoundDdl::CreateTable {
                name,
                columns,
                primary_key,
                distribution_key,
                distribution,
            } => {
                let id = self.storage.catalog_mut().allocate_table_id();
                self.storage.create_table(gdb_model::TableSchema {
                    id,
                    name: name.clone(),
                    columns: columns.clone(),
                    primary_key: primary_key.clone(),
                    distribution_key: distribution_key.clone(),
                    distribution: distribution.clone(),
                })
            }
            BoundDdl::DropTable(id) => self.storage.drop_table(*id),
            BoundDdl::CreateIndex {
                table,
                name,
                columns,
            } => self
                .storage
                .create_index(*table, name.clone(), columns.clone())
                .map(|_| ()),
            BoundDdl::DropIndex { name, .. } => self.storage.drop_index(name),
        }
    }
}

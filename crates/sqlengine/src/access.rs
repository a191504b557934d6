//! The storage-access abstraction the executor runs against.
//!
//! The `globaldb` crate implements [`DataAccess`] with sharding, network
//! latency accounting, MVCC snapshots, and row locks; [`MemAccess`] here
//! is a single-node in-memory implementation used by the SQL engine's own
//! tests (and handy as an embedded mini-database).

use gdb_model::{Datum, Ddl, GdbError, GdbResult, IndexId, Row, RowKey, TableId, Timestamp};
use gdb_simnet::SimTime;
use gdb_storage::{Catalog, DataNodeStorage};

/// What the executor needs from the storage/cluster layer.
///
/// Locks have statement scope in what they cost. A statement is one call
/// of [`crate::execute`]; the implementation learns where it begins. Once
/// a statement has locked a row — by [`DataAccess::lock_rows`] or
/// [`DataAccess::read_for_update`] — its later `read_for_update`,
/// `update` or `delete` of that row ride the lock and need no request of
/// their own. An `insert` always locks, since it checks that its key is
/// new. The lock itself is held to transaction end.
pub trait DataAccess {
    /// The catalog to resolve schemas against.
    fn catalog(&self) -> &Catalog;

    /// Snapshot point read of the key `key`: `visit` sees the row with
    /// its key where it lies — the stored version or the transaction's
    /// own write — if there is one, and its error is the read's.
    fn point_read(
        &mut self,
        table: TableId,
        key: &[Datum],
        visit: &mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
    ) -> GdbResult<()>;

    /// Batched snapshot point reads (join inner side): one round trip per
    /// shard instead of one per key. `keys` holds the keys end to end,
    /// `key_len` datums each; `visit` sees the row of the `i`-th, with
    /// `i`, where it lies, in the order of `keys`. The default loops.
    fn multi_point_read(
        &mut self,
        table: TableId,
        keys: &[Datum],
        key_len: usize,
        visit: &mut dyn FnMut(usize, &Row) -> GdbResult<()>,
    ) -> GdbResult<()> {
        for (i, key) in keys.chunks(key_len.max(1)).enumerate() {
            self.point_read(table, key, &mut |_, row| visit(i, row))?;
        }
        Ok(())
    }

    /// Snapshot range read over `[lo, hi]` (`None` = unbounded; the upper
    /// bound covers every key it is a prefix of, [`RowKey::in_range`]):
    /// `visit` sees each row with its key, in key order, where it lies.
    fn range_read(
        &mut self,
        table: TableId,
        lo: Option<&[Datum]>,
        hi: Option<&[Datum]>,
        visit: &mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
    ) -> GdbResult<()>;

    /// Snapshot secondary-index prefix lookup: `visit` sees each row with
    /// its key, in key order, where it lies.
    fn index_read(
        &mut self,
        index: IndexId,
        prefix: &[Datum],
        visit: &mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
    ) -> GdbResult<()>;

    /// Lock the rows at `keys` for write, in one request per owning data
    /// node, ahead of the statement's per-key
    /// [`DataAccess::read_for_update`] and writes of them. Lock waits are
    /// taken key by key.
    fn lock_rows(&mut self, table: TableId, keys: &[RowKey]) -> GdbResult<()>;

    /// Lock the row for write and let `visit` see its *newest committed*
    /// version, if there is one (read-committed update semantics; the
    /// lock is held to transaction end). The executor hands a point
    /// statement's key here unread, so the key is locked whether or not
    /// a row is there, as a point predicate lock would be.
    fn read_for_update(
        &mut self,
        table: TableId,
        key: &[Datum],
        visit: &mut dyn FnMut(&Row) -> GdbResult<()>,
    ) -> GdbResult<()>;

    /// Insert a new row (duplicate primary key is an error).
    fn insert(&mut self, table: TableId, row: Row) -> GdbResult<()>;

    /// Overwrite the row at `key` (the statement holds the lock via
    /// [`DataAccess::read_for_update`]).
    fn update(&mut self, table: TableId, key: &[Datum], new_row: Row) -> GdbResult<()>;

    /// Delete the row at `key`.
    fn delete(&mut self, table: TableId, key: &[Datum]) -> GdbResult<()>;

    /// Execute a DDL operation. The default rejects it: DDL does not run
    /// inside a transaction.
    fn apply_ddl(&mut self, _ddl: &Ddl) -> GdbResult<()> {
        Err(GdbError::Plan("DDL cannot run inside a transaction".into()))
    }
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

    fn point_read(
        &mut self,
        table: TableId,
        key: &[Datum],
        visit: &mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
    ) -> GdbResult<()> {
        match self.storage.read(table, key, Timestamp::MAX)? {
            Some(v) => visit(v.key, v.row),
            None => Ok(()),
        }
    }

    fn range_read(
        &mut self,
        table: TableId,
        lo: Option<&[Datum]>,
        hi: Option<&[Datum]>,
        visit: &mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
    ) -> GdbResult<()> {
        for v in self.storage.range(table, lo, hi, Timestamp::MAX)? {
            visit(v.key, v.row)?;
        }
        Ok(())
    }

    fn index_read(
        &mut self,
        index: IndexId,
        prefix: &[Datum],
        visit: &mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
    ) -> GdbResult<()> {
        self.storage
            .index_lookup(index, prefix, Timestamp::MAX, &mut |v| visit(v.key, v.row))
    }

    /// One user, so no locks.
    fn lock_rows(&mut self, _table: TableId, _keys: &[RowKey]) -> GdbResult<()> {
        Ok(())
    }

    fn read_for_update(
        &mut self,
        table: TableId,
        key: &[Datum],
        visit: &mut dyn FnMut(&Row) -> GdbResult<()>,
    ) -> GdbResult<()> {
        match self.storage.read_newest(table, key)? {
            Some(v) => visit(v.row),
            None => Ok(()),
        }
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

    fn update(&mut self, table: TableId, key: &[Datum], new_row: Row) -> GdbResult<()> {
        let schema = self.storage.catalog().table(table)?;
        let mut new_row = new_row;
        schema.coerce_row(&mut new_row);
        schema.check_row(&new_row)?;
        let ts = self.tick();
        let key = RowKey::from(key);
        self.storage.update(table, &key, new_row, ts, SimTime::ZERO)
    }

    fn delete(&mut self, table: TableId, key: &[Datum]) -> GdbResult<()> {
        let ts = self.tick();
        self.storage
            .delete(table, &RowKey::from(key), ts, SimTime::ZERO)
    }

    fn apply_ddl(&mut self, ddl: &Ddl) -> GdbResult<()> {
        let mut ddl = ddl.clone();
        if let Ddl::CreateTable(schema) = &mut ddl {
            schema.id = self.storage.catalog_mut().allocate_table_id();
        }
        self.storage.apply_ddl(&ddl)
    }
}

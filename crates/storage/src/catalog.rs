//! The catalog: table and secondary-index metadata.
//!
//! Computing nodes are stateless (paper §II-A) and share the catalog; data
//! nodes keep a copy that DDL replay keeps current on replicas.

use gdb_model::{FxHashMap, GdbError, GdbResult, IndexId, Interner, TableId, TableSchema};

/// Metadata of one secondary index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    pub id: IndexId,
    pub name: String,
    pub table: TableId,
    /// Column positions forming the index key (the PK is appended
    /// internally to make entries unique).
    pub columns: Vec<usize>,
}

/// Table and index metadata.
///
/// Name lookups go through an [`Interner`]: each distinct name is
/// hashed as a string once to obtain a `Sym`, and the by-name maps key
/// on the `Sym` (a `u32`) with a fast hasher. Interned names are never
/// freed — catalogs see few distinct names and DDL is rare, so the
/// table stays tiny even across drop/recreate cycles.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: FxHashMap<TableId, TableSchema>,
    names: Interner,
    by_name: FxHashMap<gdb_model::Sym, TableId>,
    indexes: FxHashMap<IndexId, IndexDef>,
    index_by_name: FxHashMap<gdb_model::Sym, IndexId>,
    next_table: u32,
    next_index: u32,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the next table id (CN-side, before broadcasting DDL).
    pub fn allocate_table_id(&mut self) -> TableId {
        let id = TableId(self.next_table);
        self.next_table += 1;
        id
    }

    /// Register a table (id already set in the schema).
    pub fn create_table(&mut self, schema: TableSchema) -> GdbResult<()> {
        let sym = self.names.intern(&schema.name);
        if self.by_name.contains_key(&sym) {
            return Err(GdbError::Schema(format!(
                "table {} already exists",
                schema.name
            )));
        }
        self.next_table = self.next_table.max(schema.id.0 + 1);
        self.by_name.insert(sym, schema.id);
        self.tables.insert(schema.id, schema);
        Ok(())
    }

    pub fn drop_table(&mut self, id: TableId) -> GdbResult<TableSchema> {
        let schema = self
            .tables
            .remove(&id)
            .ok_or_else(|| GdbError::Schema(format!("unknown table {id}")))?;
        if let Some(sym) = self.names.get(&schema.name) {
            self.by_name.remove(&sym);
        }
        let dropped: Vec<IndexId> = self
            .indexes
            .values()
            .filter(|ix| ix.table == id)
            .map(|ix| ix.id)
            .collect();
        for ix in dropped {
            if let Some(def) = self.indexes.remove(&ix) {
                if let Some(sym) = self.names.get(&def.name) {
                    self.index_by_name.remove(&sym);
                }
            }
        }
        Ok(schema)
    }

    pub fn table(&self, id: TableId) -> GdbResult<&TableSchema> {
        self.tables
            .get(&id)
            .ok_or_else(|| GdbError::Schema(format!("unknown table {id}")))
    }

    pub fn table_by_name(&self, name: &str) -> GdbResult<&TableSchema> {
        let id = self
            .names
            .get(name)
            .and_then(|sym| self.by_name.get(&sym))
            .ok_or_else(|| GdbError::Schema(format!("unknown table {name}")))?;
        self.table(*id)
    }

    pub fn tables(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.values()
    }

    pub fn create_index(
        &mut self,
        table: TableId,
        name: impl Into<String>,
        columns: Vec<usize>,
    ) -> GdbResult<IndexId> {
        let name = name.into();
        let schema = self.table(table)?;
        if columns.iter().any(|&c| c >= schema.columns.len()) {
            return Err(GdbError::Schema(format!(
                "index {name}: column position out of range"
            )));
        }
        let sym = self.names.intern(&name);
        if self.index_by_name.contains_key(&sym) {
            return Err(GdbError::Schema(format!("index {name} already exists")));
        }
        let id = IndexId(self.next_index);
        self.next_index += 1;
        self.index_by_name.insert(sym, id);
        self.indexes.insert(
            id,
            IndexDef {
                id,
                name,
                table,
                columns,
            },
        );
        Ok(id)
    }

    pub fn drop_index(&mut self, name: &str) -> GdbResult<IndexDef> {
        let id = self
            .names
            .get(name)
            .and_then(|sym| self.index_by_name.remove(&sym))
            .ok_or_else(|| GdbError::Schema(format!("unknown index {name}")))?;
        Ok(self.indexes.remove(&id).expect("index map consistent"))
    }

    pub fn index(&self, id: IndexId) -> GdbResult<&IndexDef> {
        self.indexes
            .get(&id)
            .ok_or_else(|| GdbError::Schema(format!("unknown index {id}")))
    }

    pub fn index_by_name(&self, name: &str) -> GdbResult<&IndexDef> {
        let id = self
            .names
            .get(name)
            .and_then(|sym| self.index_by_name.get(&sym))
            .ok_or_else(|| GdbError::Schema(format!("unknown index {name}")))?;
        self.index(*id)
    }

    /// All indexes on a table.
    pub fn indexes_on(&self, table: TableId) -> Vec<&IndexDef> {
        let mut v: Vec<&IndexDef> = self
            .indexes
            .values()
            .filter(|ix| ix.table == table)
            .collect();
        v.sort_by_key(|ix| ix.id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_model::{ColumnDef, DataType, SchemaBuilder};

    fn schema(name: &str, id: u32) -> TableSchema {
        SchemaBuilder::new(name)
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("val", DataType::Text))
            .primary_key(&["id"])
            .build(TableId(id))
            .unwrap()
    }

    #[test]
    fn create_lookup_drop() {
        let mut c = Catalog::new();
        c.create_table(schema("t1", 0)).unwrap();
        assert_eq!(c.table_by_name("t1").unwrap().id, TableId(0));
        assert_eq!(c.table(TableId(0)).unwrap().name, "t1");
        c.drop_table(TableId(0)).unwrap();
        assert!(c.table_by_name("t1").is_err());
        assert!(c.drop_table(TableId(0)).is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        c.create_table(schema("t", 0)).unwrap();
        assert!(c.create_table(schema("t", 1)).is_err());
    }

    #[test]
    fn id_allocation_skips_registered() {
        let mut c = Catalog::new();
        c.create_table(schema("t", 5)).unwrap();
        assert_eq!(c.allocate_table_id(), TableId(6));
    }

    #[test]
    fn index_lifecycle() {
        let mut c = Catalog::new();
        c.create_table(schema("t", 0)).unwrap();
        let ix = c.create_index(TableId(0), "t_val", vec![1]).unwrap();
        assert_eq!(c.index_by_name("t_val").unwrap().id, ix);
        assert_eq!(c.indexes_on(TableId(0)).len(), 1);
        // Out-of-range column rejected.
        assert!(c.create_index(TableId(0), "bad", vec![9]).is_err());
        // Duplicate name rejected.
        assert!(c.create_index(TableId(0), "t_val", vec![0]).is_err());
        c.drop_index("t_val").unwrap();
        assert!(c.index_by_name("t_val").is_err());
    }

    #[test]
    fn drop_table_drops_its_indexes() {
        let mut c = Catalog::new();
        c.create_table(schema("t", 0)).unwrap();
        c.create_index(TableId(0), "ix", vec![1]).unwrap();
        c.drop_table(TableId(0)).unwrap();
        assert!(c.index_by_name("ix").is_err());
    }
}

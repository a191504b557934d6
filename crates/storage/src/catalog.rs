//! The catalog: table and secondary-index metadata.
//!
//! Computing nodes are stateless (paper §II-A) and share the catalog; data
//! nodes keep a copy that DDL replay keeps current on replicas.

use gdb_model::{Ddl, FxHashMap, GdbError, GdbResult, IndexId, TableId, TableSchema};
use std::collections::BTreeMap;

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

/// Table and index metadata. The by-name maps key on the name itself:
/// a lookup hashes the string once. Indexes are held in id order, so a
/// table's are listed in that order without a sort.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: FxHashMap<TableId, TableSchema>,
    by_name: FxHashMap<String, TableId>,
    indexes: BTreeMap<IndexId, IndexDef>,
    index_by_name: FxHashMap<String, IndexId>,
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

    /// Apply one DDL statement to the metadata.
    pub fn apply(&mut self, ddl: &Ddl) -> GdbResult<()> {
        match ddl {
            Ddl::CreateTable(schema) => self.create_table(schema.clone()),
            Ddl::DropTable(id) => self.drop_table(*id).map(|_| ()),
            Ddl::CreateIndex {
                table,
                name,
                columns,
            } => self
                .create_index(*table, name.clone(), columns.clone())
                .map(|_| ()),
            Ddl::DropIndex { name, .. } => self.drop_index(name).map(|_| ()),
        }
    }

    /// Register a table (id already set in the schema).
    pub fn create_table(&mut self, schema: TableSchema) -> GdbResult<()> {
        if self.by_name.contains_key(&schema.name) {
            return Err(GdbError::Schema(format!(
                "table {} already exists",
                schema.name
            )));
        }
        self.next_table = self.next_table.max(schema.id.0 + 1);
        self.by_name.insert(schema.name.clone(), schema.id);
        self.tables.insert(schema.id, schema);
        Ok(())
    }

    pub fn drop_table(&mut self, id: TableId) -> GdbResult<TableSchema> {
        let schema = self
            .tables
            .remove(&id)
            .ok_or_else(|| GdbError::Schema(format!("unknown table {id}")))?;
        self.by_name.remove(&schema.name);
        let dropped: Vec<IndexId> = self
            .indexes
            .values()
            .filter(|ix| ix.table == id)
            .map(|ix| ix.id)
            .collect();
        for ix in dropped {
            if let Some(def) = self.indexes.remove(&ix) {
                self.index_by_name.remove(&def.name);
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
            .by_name
            .get(name)
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
        if self.index_by_name.contains_key(&name) {
            return Err(GdbError::Schema(format!("index {name} already exists")));
        }
        let id = IndexId(self.next_index);
        self.next_index += 1;
        self.index_by_name.insert(name.clone(), id);
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
            .index_by_name
            .remove(name)
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
            .index_by_name
            .get(name)
            .ok_or_else(|| GdbError::Schema(format!("unknown index {name}")))?;
        self.index(*id)
    }

    /// All indexes on a table, in id order.
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = &IndexDef> {
        self.indexes.values().filter(move |ix| ix.table == table)
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
        assert_eq!(c.indexes_on(TableId(0)).count(), 1);
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

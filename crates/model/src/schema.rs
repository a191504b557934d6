//! Table schemas and distribution metadata.

use crate::datum::{DataType, Datum};
use crate::error::{GdbError, GdbResult};
use crate::ids::{ShardId, TableId};
use crate::row::{Row, RowKey};
use serde::{Deserialize, Serialize};

/// One column of a table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
    /// Scale for `Decimal` columns (digits after the point); 0 otherwise.
    pub scale: u8,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
            nullable: true,
            scale: 0,
        }
    }

    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }

    pub fn with_scale(mut self, scale: u8) -> Self {
        self.scale = scale;
        self
    }
}

/// How a table's rows are mapped to shards (paper §II-A: "DNs host portions
/// of tables based on the distribution key's hash value or range").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistributionKind {
    /// Hash the distribution-key columns; shard = hash % shard_count.
    Hash,
    /// Range-partition on the first distribution-key column (must be Int);
    /// `split_points[i]` is the first value of shard `i + 1`.
    Range { split_points: Vec<i64> },
    /// Small table replicated to every shard (TPC-C `ITEM`).
    Replicated,
}

/// Full schema of one table, including key and distribution metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSchema {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Column indices forming the primary key, in key order.
    pub primary_key: Vec<usize>,
    /// Column indices forming the distribution key (usually a PK prefix).
    pub distribution_key: Vec<usize>,
    pub distribution: DistributionKind,
}

impl TableSchema {
    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Extract the primary-key value from a full row (one allocation; the
    /// key shares the row's text).
    pub fn primary_key_of(&self, row: &Row) -> RowKey {
        self.primary_key.iter().map(|&i| row.0[i].clone()).collect()
    }

    /// Map a *primary-key* value to its shard by extracting the
    /// distribution-key columns from it (requires the distribution key to
    /// be a subset of the primary key, which the schema builder enforces).
    pub fn shard_of_pk(&self, pk: &RowKey, shard_count: u16) -> ShardId {
        if matches!(self.distribution, DistributionKind::Replicated) {
            return ShardId(0);
        }
        let vals = self.distribution_key.iter().map(|dc| {
            let pos = self
                .primary_key
                .iter()
                .position(|p| p == dc)
                .expect("distribution key must be a subset of the primary key");
            &pk.0[pos]
        });
        self.shard_of_values(vals, shard_count)
    }

    /// Map a distribution-key value to its shard.
    pub fn shard_of_key(&self, key: &RowKey, shard_count: u16) -> ShardId {
        self.shard_of_values(key.0.iter(), shard_count)
    }

    /// Map the distribution-key values, in distribution-key order, to
    /// their shard — hashed in place, nothing is built.
    ///
    /// For `Replicated` tables any shard holds the row; we return shard 0 as
    /// the canonical *write* target (writers must fan out to all shards —
    /// the executor handles that).
    pub fn shard_of_values<'d>(
        &self,
        values: impl IntoIterator<Item = &'d Datum>,
        shard_count: u16,
    ) -> ShardId {
        assert!(shard_count > 0);
        match &self.distribution {
            DistributionKind::Hash => {
                let h = RowKey::stable_hash_of(values);
                ShardId((h % shard_count as u64) as u16)
            }
            DistributionKind::Range { split_points } => {
                let v = match values.into_iter().next() {
                    Some(Datum::Int(v)) => *v,
                    _ => 0,
                };
                let idx = split_points.partition_point(|&p| p <= v);
                ShardId((idx as u16).min(shard_count - 1))
            }
            DistributionKind::Replicated => ShardId(0),
        }
    }

    /// Coerce a row in place: integer values destined for Decimal columns
    /// become decimals (SQL integer literals assigned to money columns).
    pub fn coerce_row(&self, row: &mut Row) {
        for (col, val) in self.columns.iter().zip(row.0.iter_mut()) {
            if col.data_type == DataType::Decimal {
                if let Datum::Int(v) = val {
                    *val = Datum::Decimal(*v);
                }
            }
        }
    }

    /// Validate that a row matches the schema (arity, types, nullability).
    pub fn check_row(&self, row: &Row) -> GdbResult<()> {
        if row.len() != self.columns.len() {
            return Err(GdbError::Schema(format!(
                "table {}: expected {} columns, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (col, val) in self.columns.iter().zip(row.0.iter()) {
            if val.is_null() {
                if !col.nullable {
                    return Err(GdbError::Schema(format!("column {} is NOT NULL", col.name)));
                }
                continue;
            }
            let vt = val.data_type().expect("non-null datum has a type");
            let ok =
                vt == col.data_type || (vt == DataType::Int && col.data_type == DataType::Decimal);
            if !ok {
                return Err(GdbError::Schema(format!(
                    "column {}: expected {:?}, got {:?}",
                    col.name, col.data_type, vt
                )));
            }
        }
        Ok(())
    }
}

/// Builder for [`TableSchema`] used by the catalog and tests.
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    name: String,
    columns: Vec<ColumnDef>,
    primary_key: Vec<String>,
    distribution_key: Vec<String>,
    distribution: DistributionKind,
}

impl SchemaBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        SchemaBuilder {
            name: name.into(),
            columns: Vec::new(),
            primary_key: Vec::new(),
            distribution_key: Vec::new(),
            distribution: DistributionKind::Hash,
        }
    }

    pub fn column(mut self, col: ColumnDef) -> Self {
        self.columns.push(col);
        self
    }

    pub fn primary_key(mut self, cols: &[&str]) -> Self {
        self.primary_key = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    pub fn distribute_by(mut self, cols: &[&str], kind: DistributionKind) -> Self {
        self.distribution_key = cols.iter().map(|s| s.to_string()).collect();
        self.distribution = kind;
        self
    }

    pub fn build(self, id: TableId) -> GdbResult<TableSchema> {
        let resolve = |names: &[String]| -> GdbResult<Vec<usize>> {
            names
                .iter()
                .map(|n| {
                    self.columns
                        .iter()
                        .position(|c| &c.name == n)
                        .ok_or_else(|| GdbError::Schema(format!("unknown column {n}")))
                })
                .collect()
        };
        if self.primary_key.is_empty() {
            return Err(GdbError::Schema(format!(
                "table {} has no primary key",
                self.name
            )));
        }
        let primary_key = resolve(&self.primary_key)?;
        let distribution_key = if self.distribution_key.is_empty() {
            primary_key.clone()
        } else {
            resolve(&self.distribution_key)?
        };
        // Point operations locate shards from the primary key alone, so
        // the distribution key must be a subset of it.
        if !matches!(self.distribution, DistributionKind::Replicated) {
            for dc in &distribution_key {
                if !primary_key.contains(dc) {
                    return Err(GdbError::Schema(format!(
                        "table {}: distribution key column {} must be part of the primary key",
                        self.name, self.columns[*dc].name
                    )));
                }
            }
        }
        Ok(TableSchema {
            id,
            name: self.name,
            columns: self.columns,
            primary_key,
            distribution_key,
            distribution: self.distribution,
        })
    }
}

/// One DDL statement, as the binder produces it, the redo stream carries
/// it and every node applies it (paper §IV-A: DDL replicates like any
/// commit). A bound `CreateTable` has no id yet: the CN that runs it
/// assigns one from its catalog before anything applies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ddl {
    CreateTable(TableSchema),
    DropTable(TableId),
    /// A secondary index over the given column positions.
    CreateIndex {
        table: TableId,
        name: String,
        columns: Vec<usize>,
    },
    DropIndex {
        table: TableId,
        name: String,
    },
}

impl Ddl {
    /// The table the statement creates, drops or indexes.
    pub fn table(&self) -> TableId {
        match self {
            Ddl::CreateTable(schema) => schema.id,
            Ddl::DropTable(table)
            | Ddl::CreateIndex { table, .. }
            | Ddl::DropIndex { table, .. } => *table,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> TableSchema {
        SchemaBuilder::new("t")
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .column(ColumnDef::new("name", DataType::Text))
            .column(ColumnDef::new("bal", DataType::Decimal).with_scale(2))
            .primary_key(&["id"])
            .build(TableId(1))
            .unwrap()
    }

    #[test]
    fn distribution_key_defaults_to_pk() {
        let s = sample_schema();
        assert_eq!(s.distribution_key, s.primary_key);
    }

    #[test]
    fn hash_distribution_is_stable() {
        let s = sample_schema();
        let row = Row::new(vec![Datum::Int(42), Datum::Null, Datum::Decimal(0)]);
        let a = s.shard_of_pk(&s.primary_key_of(&row), 6);
        let b = s.shard_of_pk(&s.primary_key_of(&row), 6);
        assert_eq!(a, b);
        assert!(a.0 < 6);
    }

    #[test]
    fn every_shard_mapping_agrees_with_the_key_hash() {
        let s = SchemaBuilder::new("t")
            .column(ColumnDef::new("w", DataType::Int).not_null())
            .column(ColumnDef::new("name", DataType::Text))
            .column(ColumnDef::new("id", DataType::Int).not_null())
            .primary_key(&["w", "id"])
            .distribute_by(&["w"], DistributionKind::Hash)
            .build(TableId(1))
            .unwrap();
        for w in 0..50i64 {
            let row = Row::new(vec![Datum::Int(w), Datum::from("n"), Datum::Int(w * 7)]);
            let by_key = s.shard_of_key(&RowKey::single(w), 7);
            assert_eq!(s.shard_of_pk(&s.primary_key_of(&row), 7), by_key);
            assert_eq!(s.shard_of_values([&Datum::Int(w)], 7), by_key);
        }
    }

    #[test]
    fn range_distribution_partitions() {
        let mut s = sample_schema();
        s.distribution = DistributionKind::Range {
            split_points: vec![100, 200],
        };
        assert_eq!(s.shard_of_key(&RowKey::single(50i64), 3), ShardId(0));
        assert_eq!(s.shard_of_key(&RowKey::single(100i64), 3), ShardId(1));
        assert_eq!(s.shard_of_key(&RowKey::single(199i64), 3), ShardId(1));
        assert_eq!(s.shard_of_key(&RowKey::single(250i64), 3), ShardId(2));
    }

    #[test]
    fn range_distribution_clamps_to_shard_count() {
        let mut s = sample_schema();
        s.distribution = DistributionKind::Range {
            split_points: vec![10, 20, 30],
        };
        // 4 ranges but only 2 shards: high ranges clamp to the last shard.
        assert_eq!(s.shard_of_key(&RowKey::single(35i64), 2), ShardId(1));
    }

    #[test]
    fn check_row_validates_arity_and_types() {
        let s = sample_schema();
        assert!(s
            .check_row(&Row::new(vec![
                Datum::Int(1),
                Datum::Text("x".into()),
                Datum::Decimal(5)
            ]))
            .is_ok());
        // Int coerces to Decimal.
        assert!(s
            .check_row(&Row::new(vec![Datum::Int(1), Datum::Null, Datum::Int(5)]))
            .is_ok());
        assert!(s.check_row(&Row::new(vec![Datum::Int(1)])).is_err());
        assert!(s
            .check_row(&Row::new(vec![Datum::Null, Datum::Null, Datum::Null]))
            .is_err());
        assert!(s
            .check_row(&Row::new(vec![
                Datum::Text("bad".into()),
                Datum::Null,
                Datum::Null
            ]))
            .is_err());
    }

    #[test]
    fn builder_rejects_unknown_and_missing_keys() {
        assert!(SchemaBuilder::new("t")
            .column(ColumnDef::new("a", DataType::Int))
            .primary_key(&["nope"])
            .build(TableId(1))
            .is_err());
        assert!(SchemaBuilder::new("t")
            .column(ColumnDef::new("a", DataType::Int))
            .build(TableId(1))
            .is_err());
    }
}

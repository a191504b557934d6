//! Name resolution and access-path planning.

use crate::ast::{self, BinOp, PExpr, SelectItem, Statement};
use crate::plan::*;
use gdb_model::{
    ColumnDef, DataType, Datum, Ddl, DistributionKind, GdbError, GdbResult, TableId, TableSchema,
};
use gdb_storage::Catalog;

/// Bind a parsed statement against the catalog.
pub fn bind_statement(stmt: &Statement, catalog: &Catalog) -> GdbResult<BoundStatement> {
    match stmt {
        Statement::CreateTable(ct) => bind_create_table(ct),
        Statement::DropTable(name) => {
            let t = catalog.table_by_name(name)?;
            Ok(BoundStatement::Ddl(Ddl::DropTable(t.id)))
        }
        Statement::CreateIndex {
            name,
            table,
            columns,
        } => {
            let schema = catalog.table_by_name(table)?;
            let cols = columns
                .iter()
                .map(|c| {
                    schema
                        .column_index(c)
                        .ok_or_else(|| GdbError::Plan(format!("unknown column {c}")))
                })
                .collect::<GdbResult<Vec<_>>>()?;
            Ok(BoundStatement::Ddl(Ddl::CreateIndex {
                table: schema.id,
                name: name.clone(),
                columns: cols,
            }))
        }
        Statement::DropIndex { name } => {
            let def = catalog.index_by_name(name)?;
            Ok(BoundStatement::Ddl(Ddl::DropIndex {
                table: def.table,
                name: name.clone(),
            }))
        }
        Statement::Insert {
            table,
            columns,
            values,
        } => bind_insert(table, columns.as_deref(), values, catalog),
        Statement::Update {
            table,
            sets,
            filter,
        } => bind_update(table, sets, filter.as_ref(), catalog),
        Statement::Delete { table, filter } => bind_delete(table, filter.as_ref(), catalog),
        Statement::Select(sel) => bind_select(sel, catalog).map(BoundStatement::Select),
    }
}

fn bind_create_table(ct: &ast::CreateTable) -> GdbResult<BoundStatement> {
    if ct.primary_key.is_empty() {
        return Err(GdbError::Plan(format!(
            "table {} needs a primary key",
            ct.name
        )));
    }
    let columns: Vec<ColumnDef> = ct
        .columns
        .iter()
        .map(|c| ColumnDef {
            name: c.name.clone(),
            data_type: match c.data_type {
                ast::ParsedType::Int => DataType::Int,
                ast::ParsedType::Decimal => DataType::Decimal,
                ast::ParsedType::Text => DataType::Text,
                ast::ParsedType::Bool => DataType::Bool,
            },
            nullable: !c.not_null,
            scale: if c.data_type == ast::ParsedType::Decimal {
                2
            } else {
                0
            },
        })
        .collect();
    let resolve = |names: &[String]| -> GdbResult<Vec<usize>> {
        names
            .iter()
            .map(|n| {
                columns
                    .iter()
                    .position(|c| &c.name == n)
                    .ok_or_else(|| GdbError::Plan(format!("unknown column {n}")))
            })
            .collect()
    };
    let primary_key = resolve(&ct.primary_key)?;
    let (distribution_key, distribution) = match &ct.distribute {
        None => (primary_key.clone(), DistributionKind::Hash),
        Some(ast::DistSpec::Hash(cols)) => (resolve(cols)?, DistributionKind::Hash),
        Some(ast::DistSpec::Range {
            columns: cols,
            split_points,
        }) => (
            resolve(cols)?,
            DistributionKind::Range {
                split_points: split_points.clone(),
            },
        ),
        Some(ast::DistSpec::Replication) => (primary_key.clone(), DistributionKind::Replicated),
    };
    // Shard routing extracts the distribution key from primary keys, so it
    // must be a subset of the primary key (mirrors SchemaBuilder's rule).
    if !matches!(distribution, DistributionKind::Replicated) {
        for dc in &distribution_key {
            if !primary_key.contains(dc) {
                return Err(GdbError::Plan(format!(
                    "table {}: distribution key column {} must be part of the primary key",
                    ct.name, columns[*dc].name
                )));
            }
        }
    }
    Ok(BoundStatement::Ddl(Ddl::CreateTable(TableSchema {
        id: TableId(0), // assigned by the node that runs the statement
        name: ct.name.clone(),
        columns,
        primary_key,
        distribution_key,
        distribution,
    })))
}

fn bind_insert(
    table: &str,
    columns: Option<&[String]>,
    values: &[Vec<PExpr>],
    catalog: &Catalog,
) -> GdbResult<BoundStatement> {
    let schema = catalog.table_by_name(table)?;
    let width = schema.columns.len();
    // Map the provided column list (or the full schema order) to positions.
    let positions: Vec<usize> = match columns {
        Some(cols) => cols
            .iter()
            .map(|c| {
                schema
                    .column_index(c)
                    .ok_or_else(|| GdbError::Plan(format!("unknown column {c}")))
            })
            .collect::<GdbResult<Vec<_>>>()?,
        None => (0..width).collect(),
    };
    let binder = ExprBinder {
        tables: vec![schema],
    };
    let mut rows = Vec::with_capacity(values.len());
    for tuple in values {
        if tuple.len() != positions.len() {
            return Err(GdbError::Plan(format!(
                "INSERT arity mismatch: {} values for {} columns",
                tuple.len(),
                positions.len()
            )));
        }
        let mut row: Vec<Expr> = vec![Expr::Lit(Datum::Null); width];
        for (pos, pe) in positions.iter().zip(tuple) {
            let e = binder.bind(pe)?;
            if e.max_slot().is_some() {
                return Err(GdbError::Plan(
                    "INSERT values cannot reference columns".into(),
                ));
            }
            row[*pos] = e;
        }
        rows.push(row);
    }
    Ok(BoundStatement::Insert {
        table: schema.id,
        rows,
    })
}

fn bind_update(
    table: &str,
    sets: &[(String, PExpr)],
    filter: Option<&PExpr>,
    catalog: &Catalog,
) -> GdbResult<BoundStatement> {
    let schema = catalog.table_by_name(table)?;
    let binder = ExprBinder {
        tables: vec![schema],
    };
    let bound_sets = sets
        .iter()
        .map(|(col, pe)| {
            let idx = schema
                .column_index(col)
                .ok_or_else(|| GdbError::Plan(format!("unknown column {col}")))?;
            if schema.primary_key.contains(&idx) {
                return Err(GdbError::Plan(format!(
                    "cannot update primary-key column {col}"
                )));
            }
            Ok((idx, binder.bind(pe)?))
        })
        .collect::<GdbResult<Vec<_>>>()?;
    let bound_filter = filter.map(|f| binder.bind(f)).transpose()?;
    let (access, residual) = plan_access(schema, catalog, bound_filter, 0)?;
    Ok(BoundStatement::Update {
        table: schema.id,
        sets: bound_sets,
        access,
        residual,
    })
}

fn bind_delete(
    table: &str,
    filter: Option<&PExpr>,
    catalog: &Catalog,
) -> GdbResult<BoundStatement> {
    let schema = catalog.table_by_name(table)?;
    let binder = ExprBinder {
        tables: vec![schema],
    };
    let bound_filter = filter.map(|f| binder.bind(f)).transpose()?;
    let (access, residual) = plan_access(schema, catalog, bound_filter, 0)?;
    Ok(BoundStatement::Delete {
        table: schema.id,
        access,
        residual,
    })
}

fn bind_select(sel: &ast::SelectStmt, catalog: &Catalog) -> GdbResult<SelectPlan> {
    if sel.from.is_empty() || sel.from.len() > 2 {
        return Err(GdbError::Plan("FROM must list one or two tables".into()));
    }
    let tables: Vec<&TableSchema> = sel
        .from
        .iter()
        .map(|n| catalog.table_by_name(n))
        .collect::<GdbResult<Vec<_>>>()?;
    let binder = ExprBinder {
        tables: tables.clone(),
    };

    // Projection: all aggregates or all plain expressions.
    let mut agg_specs = Vec::new();
    let mut col_exprs = Vec::new();
    for item in &sel.items {
        match item {
            SelectItem::Star => {
                for (slot, t) in tables.iter().enumerate() {
                    for idx in 0..t.columns.len() {
                        col_exprs.push(Expr::ColRef { slot, idx });
                    }
                }
            }
            SelectItem::Expr(PExpr::Agg(func, arg, distinct)) => {
                let bound_arg = arg.as_ref().map(|a| binder.bind(a)).transpose()?;
                agg_specs.push(AggSpec {
                    func: *func,
                    arg: bound_arg,
                    distinct: *distinct,
                });
            }
            SelectItem::Expr(pe) => col_exprs.push(binder.bind(pe)?),
        }
    }
    if !agg_specs.is_empty() && !col_exprs.is_empty() {
        return Err(GdbError::Plan(
            "mixing aggregates and plain columns is not supported".into(),
        ));
    }
    let projection = if agg_specs.is_empty() {
        Projection::Columns(col_exprs)
    } else {
        Projection::Aggregates(agg_specs)
    };

    let bound_filter = sel.filter.as_ref().map(|f| binder.bind(f)).transpose()?;

    // Split conjuncts by the highest slot they reference.
    let mut outer_conjuncts = Vec::new();
    let mut inner_conjuncts = Vec::new();
    if let Some(f) = bound_filter {
        for c in split_conjuncts(f) {
            match c.max_slot() {
                Some(1) => inner_conjuncts.push(c),
                _ => outer_conjuncts.push(c),
            }
        }
    }

    let (outer_access, outer_residual) =
        plan_access_from_conjuncts(tables[0], catalog, outer_conjuncts, 0)?;

    let join = if tables.len() == 2 {
        let (access, residual) =
            plan_access_from_conjuncts(tables[1], catalog, inner_conjuncts, 1)?;
        Some(JoinPlan {
            table: tables[1].id,
            access,
            residual,
        })
    } else if !inner_conjuncts.is_empty() {
        return Err(GdbError::Internal("slot-1 conjuncts without a join".into()));
    } else {
        None
    };

    let order_by = sel
        .order_by
        .as_ref()
        .map(|(col, desc)| {
            let (slot, idx) = binder.resolve_column(None, col)?;
            Ok::<_, GdbError>((slot, idx, *desc))
        })
        .transpose()?;

    Ok(SelectPlan {
        tables: tables.iter().map(|t| t.id).collect(),
        outer_access,
        outer_residual,
        join,
        projection,
        order_by,
        limit: sel.limit.map(|l| l as usize),
        for_update: sel.for_update,
    })
}

// ---- Expression binding ------------------------------------------------

struct ExprBinder<'a> {
    tables: Vec<&'a TableSchema>,
}

impl<'a> ExprBinder<'a> {
    fn resolve_column(&self, qual: Option<&str>, name: &str) -> GdbResult<(usize, usize)> {
        let mut found = None;
        for (slot, t) in self.tables.iter().enumerate() {
            if let Some(q) = qual {
                if t.name != q {
                    continue;
                }
            }
            if let Some(idx) = t.column_index(name) {
                if found.is_some() {
                    return Err(GdbError::Plan(format!("ambiguous column {name}")));
                }
                found = Some((slot, idx));
            }
        }
        found.ok_or_else(|| GdbError::Plan(format!("unknown column {name}")))
    }

    fn bind(&self, pe: &PExpr) -> GdbResult<Expr> {
        Ok(match pe {
            PExpr::Lit(d) => Expr::Lit(d.clone()),
            PExpr::Param(i) => Expr::Param(*i),
            PExpr::Col(qual, name) => {
                let (slot, idx) = self.resolve_column(qual.as_deref(), name)?;
                Expr::ColRef { slot, idx }
            }
            PExpr::Bin(l, op, r) => {
                Expr::Bin(Box::new(self.bind(l)?), *op, Box::new(self.bind(r)?))
            }
            PExpr::Not(e) => Expr::Not(Box::new(self.bind(e)?)),
            PExpr::Between { expr, lo, hi } => Expr::Between {
                expr: Box::new(self.bind(expr)?),
                lo: Box::new(self.bind(lo)?),
                hi: Box::new(self.bind(hi)?),
            },
            PExpr::InList { expr, list } => Expr::InList {
                expr: Box::new(self.bind(expr)?),
                list: list
                    .iter()
                    .map(|e| self.bind(e))
                    .collect::<GdbResult<_>>()?,
            },
            PExpr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.bind(expr)?),
                negated: *negated,
            },
            PExpr::Agg(..) => {
                return Err(GdbError::Plan(
                    "aggregate not allowed in this position".into(),
                ))
            }
        })
    }
}

// ---- Access-path planning ----------------------------------------------

fn split_conjuncts(e: Expr) -> Vec<Expr> {
    match e {
        Expr::Bin(l, BinOp::And, r) => {
            let mut out = split_conjuncts(*l);
            out.extend(split_conjuncts(*r));
            out
        }
        other => vec![other],
    }
}

fn conjoin(conjuncts: Vec<Expr>) -> Option<Expr> {
    conjuncts
        .into_iter()
        .reduce(|acc, c| Expr::Bin(Box::new(acc), BinOp::And, Box::new(c)))
}

fn plan_access(
    schema: &TableSchema,
    catalog: &Catalog,
    filter: Option<Expr>,
    slot: usize,
) -> GdbResult<(AccessPath, Option<Expr>)> {
    let conjuncts = filter.map(split_conjuncts).unwrap_or_default();
    plan_access_from_conjuncts(schema, catalog, conjuncts, slot)
}

/// Pick the best access path for `slot`'s table from its conjuncts.
///
/// Preference order: full-PK point lookup, PK prefix + range, secondary
/// index prefix, full scan. Equality/range values may reference *lower*
/// slots (join keys) but never the table's own slot.
fn plan_access_from_conjuncts(
    schema: &TableSchema,
    catalog: &Catalog,
    conjuncts: Vec<Expr>,
    slot: usize,
) -> GdbResult<(AccessPath, Option<Expr>)> {
    // For each column of this table: the equality expression, if any.
    let mut eq: Vec<Option<(usize, Expr)>> = vec![None; schema.columns.len()]; // (conjunct idx, value)
    let mut used = vec![false; conjuncts.len()];

    for (ci, c) in conjuncts.iter().enumerate() {
        if let Some((col, val)) = as_column_equality(c, slot) {
            if eq[col].is_none() {
                eq[col] = Some((ci, val));
            }
        }
    }

    // 1. Full primary-key equality → point lookup.
    if schema.primary_key.iter().all(|&k| eq[k].is_some()) {
        let key = schema
            .primary_key
            .iter()
            .map(|&k| {
                let (ci, val) = eq[k].clone().expect("checked");
                used[ci] = true;
                val
            })
            .collect();
        let residual = conjoin(
            conjuncts
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !used[*i])
                .map(|(_, c)| c)
                .collect(),
        );
        return Ok((AccessPath::PointLookup { key }, residual));
    }

    // 2. PK prefix equality (+ optional inclusive range on the next col) —
    // unless a secondary index covers strictly more equality columns
    // (e.g. TPC-C's customer-by-last-name lookup: PK prefix (w, d) loses
    // to the (w, d, last) index).
    let mut prefix_len = 0;
    while prefix_len < schema.primary_key.len() && eq[schema.primary_key[prefix_len]].is_some() {
        prefix_len += 1;
    }
    let best_index = best_index_match(schema, catalog, &eq);
    let index_beats_pk = best_index
        .as_ref()
        .is_some_and(|(_, cols)| cols.len() > prefix_len);
    if prefix_len > 0 && !index_beats_pk {
        let mut prefix = Vec::with_capacity(prefix_len);
        for &k in &schema.primary_key[..prefix_len] {
            let (ci, val) = eq[k].clone().expect("checked");
            used[ci] = true;
            prefix.push(val);
        }
        // Range on the next PK column?
        let (mut low, mut high) = (None, None);
        if prefix_len < schema.primary_key.len() {
            let next_col = schema.primary_key[prefix_len];
            for (ci, c) in conjuncts.iter().enumerate() {
                if used[ci] {
                    continue;
                }
                if let Some((lo, hi)) = as_column_range(c, slot, next_col) {
                    if let Some(l) = lo {
                        if low.is_none() {
                            low = Some(l);
                            used[ci] = true;
                        }
                    }
                    if let Some(h) = hi {
                        if high.is_none() {
                            high = Some(h);
                            // Note: if the same conjunct (BETWEEN) provided
                            // both bounds, it is already marked used.
                            used[ci] = true;
                        }
                    }
                }
            }
        }
        let residual = conjoin(
            conjuncts
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !used[*i])
                .map(|(_, c)| c)
                .collect(),
        );
        return Ok((AccessPath::PkRange { prefix, low, high }, residual));
    }

    // 3. Longest secondary-index full-prefix equality.
    if let Some((index, cols)) = best_index {
        let mut prefix = Vec::with_capacity(cols.len());
        for col in cols {
            let (ci, val) = eq[col].clone().expect("checked");
            used[ci] = true;
            prefix.push(val);
        }
        let residual = conjoin(
            conjuncts
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !used[*i])
                .map(|(_, c)| c)
                .collect(),
        );
        return Ok((AccessPath::IndexPrefix { index, prefix }, residual));
    }

    // 4. Full scan.
    Ok((AccessPath::FullScan, conjoin(conjuncts)))
}

/// The longest secondary index whose columns are all matched by
/// equalities.
fn best_index_match(
    schema: &TableSchema,
    catalog: &Catalog,
    eq: &[Option<(usize, Expr)>],
) -> Option<(gdb_model::IndexId, Vec<usize>)> {
    let mut best: Option<(gdb_model::IndexId, Vec<usize>)> = None;
    for ix in catalog.indexes_on(schema.id) {
        let mut covered = 0;
        while covered < ix.columns.len() && eq[ix.columns[covered]].is_some() {
            covered += 1;
        }
        if covered == ix.columns.len() && covered > 0 {
            let better = match &best {
                Some((_, cols)) => covered > cols.len(),
                None => true,
            };
            if better {
                best = Some((ix.id, ix.columns.clone()));
            }
        }
    }
    best
}

/// If `e` is `col = value` (or `value = col`) where `col` belongs to `slot`
/// and `value` does not reference `slot`, return `(column, value)`.
fn as_column_equality(e: &Expr, slot: usize) -> Option<(usize, Expr)> {
    if let Expr::Bin(l, BinOp::Eq, r) = e {
        match (l.as_ref(), r.as_ref()) {
            (Expr::ColRef { slot: s, idx }, val) if *s == slot && !val.references_slot(slot) => {
                return Some((*idx, val.clone()))
            }
            (val, Expr::ColRef { slot: s, idx }) if *s == slot && !val.references_slot(slot) => {
                return Some((*idx, val.clone()))
            }
            _ => {}
        }
    }
    None
}

/// If `e` constrains `col` (of `slot`) with an *inclusive* bound usable by
/// the range path, return `(low, high)` (either side may be None).
/// `BETWEEN lo AND hi` yields both; `>=`/`<=` yield one.
fn as_column_range(e: &Expr, slot: usize, col: usize) -> Option<(Option<Expr>, Option<Expr>)> {
    match e {
        Expr::Between { expr, lo, hi } => {
            if let Expr::ColRef { slot: s, idx } = expr.as_ref() {
                if *s == slot
                    && *idx == col
                    && !lo.references_slot(slot)
                    && !hi.references_slot(slot)
                {
                    return Some((Some((**lo).clone()), Some((**hi).clone())));
                }
            }
            None
        }
        Expr::Bin(l, op, r) => {
            let (colref, val, op_towards_col) = match (l.as_ref(), r.as_ref()) {
                (Expr::ColRef { slot: s, idx }, v)
                    if *s == slot && *idx == col && !v.references_slot(slot) =>
                {
                    (true, v.clone(), *op)
                }
                (v, Expr::ColRef { slot: s, idx })
                    if *s == slot && *idx == col && !v.references_slot(slot) =>
                {
                    // Flip: `v <= col` is `col >= v`.
                    let flipped = match op {
                        BinOp::Lte => BinOp::Gte,
                        BinOp::Gte => BinOp::Lte,
                        BinOp::Lt => BinOp::Gt,
                        BinOp::Gt => BinOp::Lt,
                        other => *other,
                    };
                    (true, v.clone(), flipped)
                }
                _ => return None,
            };
            if !colref {
                return None;
            }
            match op_towards_col {
                BinOp::Gte => Some((Some(val), None)),
                BinOp::Lte => Some((None, Some(val))),
                // Strict bounds still narrow the scan inclusively; the
                // original conjunct must stay in the residual, so we do
                // NOT claim them here.
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use gdb_model::{SchemaBuilder, TableId};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            SchemaBuilder::new("customer")
                .column(ColumnDef::new("c_w_id", DataType::Int).not_null())
                .column(ColumnDef::new("c_d_id", DataType::Int).not_null())
                .column(ColumnDef::new("c_id", DataType::Int).not_null())
                .column(ColumnDef::new("c_last", DataType::Text))
                .column(ColumnDef::new("c_first", DataType::Text))
                .column(ColumnDef::new("c_balance", DataType::Decimal))
                .primary_key(&["c_w_id", "c_d_id", "c_id"])
                .distribute_by(&["c_w_id"], DistributionKind::Hash)
                .build(TableId(0))
                .unwrap(),
        )
        .unwrap();
        c.create_index(TableId(0), "cust_by_last", vec![0, 1, 3])
            .unwrap();
        c.create_table(
            SchemaBuilder::new("order_line")
                .column(ColumnDef::new("ol_w_id", DataType::Int).not_null())
                .column(ColumnDef::new("ol_d_id", DataType::Int).not_null())
                .column(ColumnDef::new("ol_o_id", DataType::Int).not_null())
                .column(ColumnDef::new("ol_number", DataType::Int).not_null())
                .column(ColumnDef::new("ol_i_id", DataType::Int))
                .primary_key(&["ol_w_id", "ol_d_id", "ol_o_id", "ol_number"])
                .distribute_by(&["ol_w_id"], DistributionKind::Hash)
                .build(TableId(1))
                .unwrap(),
        )
        .unwrap();
        c.create_table(
            SchemaBuilder::new("stock")
                .column(ColumnDef::new("s_w_id", DataType::Int).not_null())
                .column(ColumnDef::new("s_i_id", DataType::Int).not_null())
                .column(ColumnDef::new("s_quantity", DataType::Int))
                .primary_key(&["s_w_id", "s_i_id"])
                .distribute_by(&["s_w_id"], DistributionKind::Hash)
                .build(TableId(2))
                .unwrap(),
        )
        .unwrap();
        c
    }

    fn bind(sql: &str) -> BoundStatement {
        bind_statement(&parse(sql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn full_pk_equality_becomes_point_lookup() {
        let b = bind("SELECT c_first FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?");
        match b {
            BoundStatement::Select(s) => {
                assert!(s.outer_access.is_point());
                assert!(s.outer_residual.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pk_prefix_with_between_becomes_range() {
        let b = bind(
            "SELECT ol_i_id FROM order_line WHERE ol_w_id = 1 AND ol_d_id = 2 \
             AND ol_o_id BETWEEN 100 AND 120",
        );
        match b {
            BoundStatement::Select(s) => match s.outer_access {
                AccessPath::PkRange { prefix, low, high } => {
                    assert_eq!(prefix.len(), 2);
                    assert!(low.is_some());
                    assert!(high.is_some());
                    assert!(s.outer_residual.is_none());
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn secondary_index_prefix_used() {
        let b = bind("SELECT c_first FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_last = ?");
        match b {
            BoundStatement::Select(s) => match s.outer_access {
                AccessPath::IndexPrefix { prefix, .. } => {
                    assert_eq!(prefix.len(), 3);
                    assert!(s.outer_residual.is_none());
                }
                other => panic!("expected index path, got {other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unindexed_predicate_full_scans_with_residual() {
        let b = bind("SELECT c_id FROM customer WHERE c_balance > 100");
        match b {
            BoundStatement::Select(s) => {
                assert_eq!(s.outer_access, AccessPath::FullScan);
                assert!(s.outer_residual.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_inner_side_uses_outer_columns_as_keys() {
        let b = bind(
            "SELECT COUNT(DISTINCT s_i_id) FROM order_line, stock \
             WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id BETWEEN ? AND ? \
             AND s_w_id = ? AND s_i_id = ol_i_id AND s_quantity < ?",
        );
        match b {
            BoundStatement::Select(s) => {
                let join = s.join.expect("join");
                // stock's full PK (s_w_id, s_i_id) is matched: point lookup
                // whose second key references the outer slot.
                match &join.access {
                    AccessPath::PointLookup { key } => {
                        assert_eq!(key.len(), 2);
                        assert!(key[1].references_slot(0), "join key from outer row");
                    }
                    other => panic!("{other:?}"),
                }
                // s_quantity < ? stays residual on the inner side.
                assert!(join.residual.is_some());
                assert!(matches!(s.projection, Projection::Aggregates(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_cannot_touch_pk() {
        let err = bind_statement(
            &parse("UPDATE customer SET c_id = 5 WHERE c_w_id = 1").unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(matches!(err, GdbError::Plan(_)));
    }

    #[test]
    fn update_plans_access_path() {
        let b = bind(
            "UPDATE customer SET c_balance = c_balance + ? \
             WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
        );
        match b {
            BoundStatement::Update { access, sets, .. } => {
                assert!(access.is_point());
                assert_eq!(sets.len(), 1);
                assert!(sets[0].1.references_slot(0), "SET references current row");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_maps_columns_and_pads_nulls() {
        let b = bind("INSERT INTO customer (c_w_id, c_d_id, c_id) VALUES (1, 2, 3)");
        match b {
            BoundStatement::Insert { rows, .. } => {
                assert_eq!(rows[0].len(), 6, "full schema width");
                assert_eq!(rows[0][5], Expr::Lit(Datum::Null));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn star_expands_all_columns() {
        let b = bind("SELECT * FROM stock WHERE s_w_id = 1 AND s_i_id = 2");
        match b {
            BoundStatement::Select(s) => match s.projection {
                Projection::Columns(cols) => assert_eq!(cols.len(), 3),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_names_error() {
        let c = catalog();
        assert!(bind_statement(&parse("SELECT x FROM customer").unwrap(), &c).is_err());
        assert!(bind_statement(&parse("SELECT c_id FROM nope").unwrap(), &c).is_err());
        assert!(
            bind_statement(&parse("INSERT INTO customer (zzz) VALUES (1)").unwrap(), &c).is_err()
        );
    }

    #[test]
    fn read_only_detection() {
        assert!(bind("SELECT c_id FROM customer WHERE c_w_id = 1").is_read_only());
        assert!(!bind("SELECT c_id FROM customer WHERE c_w_id = 1 FOR UPDATE").is_read_only());
        assert!(!bind("DELETE FROM customer WHERE c_w_id = 1").is_read_only());
    }

    #[test]
    fn order_by_binds_column() {
        let b = bind("SELECT c_first FROM customer WHERE c_w_id = 1 ORDER BY c_first");
        match b {
            BoundStatement::Select(s) => {
                assert_eq!(s.order_by, Some((0, 4, false)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_table_binds_distribution() {
        let b = bind(
            "CREATE TABLE t2 (a INT NOT NULL, b TEXT, PRIMARY KEY(a)) \
             DISTRIBUTE BY RANGE(a) SPLIT AT (10)",
        );
        match b {
            BoundStatement::Ddl(Ddl::CreateTable(TableSchema {
                distribution,
                primary_key,
                ..
            })) => {
                assert_eq!(
                    distribution,
                    DistributionKind::Range {
                        split_points: vec![10]
                    }
                );
                assert_eq!(primary_key, vec![0]);
            }
            other => panic!("{other:?}"),
        }
    }
}

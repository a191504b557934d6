//! The plan executor.

use crate::access::DataAccess;
use crate::ast::AggFunc;
use crate::eval::{eval, truthy, RowCtx};
use crate::plan::{AccessPath, AggSpec, BoundStatement, Expr, JoinPlan, Projection, SelectPlan};
#[cfg(test)]
use gdb_model::GdbError;
use gdb_model::{Datum, GdbResult, Row, RowKey, TableId};
use std::borrow::Cow;
use std::collections::HashSet;

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutput {
    /// SELECT result rows (projected).
    Rows(Vec<Row>),
    /// DML: number of rows affected.
    Count(u64),
}

impl ExecOutput {
    pub fn rows(self) -> Vec<Row> {
        match self {
            ExecOutput::Rows(r) => r,
            ExecOutput::Count(_) => Vec::new(),
        }
    }

    pub fn count(&self) -> u64 {
        match self {
            ExecOutput::Rows(r) => r.len() as u64,
            ExecOutput::Count(c) => *c,
        }
    }

    /// First row, first column as an i64 (for scalar queries).
    pub fn scalar_int(&self) -> Option<i64> {
        match self {
            ExecOutput::Rows(rows) => rows.first()?.get(0)?.as_decimal(),
            ExecOutput::Count(_) => None,
        }
    }
}

/// Execute a bound statement with the given parameters.
pub fn execute(
    stmt: &BoundStatement,
    params: &[Datum],
    da: &mut dyn DataAccess,
) -> GdbResult<ExecOutput> {
    match stmt {
        BoundStatement::Ddl(ddl) => {
            da.apply_ddl(ddl)?;
            Ok(ExecOutput::Count(0))
        }
        BoundStatement::Insert { table, rows } => exec_insert(*table, rows, params, da),
        BoundStatement::Update {
            table,
            sets,
            access,
            residual,
        } => exec_update(*table, sets, access, residual.as_ref(), params, da),
        BoundStatement::Delete {
            table,
            access,
            residual,
        } => exec_delete(*table, access, residual.as_ref(), params, da),
        BoundStatement::Select(plan) => exec_select(plan, params, da),
    }
}

fn exec_insert(
    table: TableId,
    rows: &[Vec<Expr>],
    params: &[Datum],
    da: &mut dyn DataAccess,
) -> GdbResult<ExecOutput> {
    let ctx = RowCtx::empty();
    let mut inserted = 0u64;
    for exprs in rows {
        let values = exprs
            .iter()
            .map(|e| eval(e, params, &ctx))
            .collect::<GdbResult<Vec<_>>>()?;
        da.insert(table, Row(values))?;
        inserted += 1;
    }
    Ok(ExecOutput::Count(inserted))
}

/// Fetch the rows of an access path on the outer table, handing each to
/// `emit` with its key, in key order: borrowed where it lies for a point
/// read, owned (already copied out of storage) for the other paths.
fn fetch_outer(
    table: TableId,
    access: &AccessPath,
    params: &[Datum],
    ctx: &RowCtx,
    da: &mut dyn DataAccess,
    emit: &mut dyn FnMut(&RowKey, Cow<Row>) -> GdbResult<()>,
) -> GdbResult<()> {
    let rows = match access {
        AccessPath::PointLookup { key } => {
            let rk = eval_key(key, params, ctx)?;
            return da.point_read(table, &rk, &mut |row| emit(&rk, Cow::Borrowed(row)));
        }
        AccessPath::PkRange { prefix, low, high } => {
            let prefix_vals = prefix
                .iter()
                .map(|e| eval(e, params, ctx))
                .collect::<GdbResult<Vec<_>>>()?;
            let lo = match low {
                Some(e) => Some(prefix_then(&prefix_vals, [eval(e, params, ctx)?])),
                None if prefix_vals.is_empty() => None,
                None => Some(prefix_then(&prefix_vals, [])),
            };
            // Upper bound: prefix + high, or prefix + MAX sentinel. Text is
            // the highest-ranked datum type in key order, so a chain of
            // 0xFF-style text works as a practical +∞ per prefix.
            let hi = match high {
                // Extend with +∞ for any remaining PK columns so the
                // inclusive bound covers full keys with this prefix.
                Some(e) => Some(prefix_then(
                    &prefix_vals,
                    [eval(e, params, ctx)?, max_sentinel()],
                )),
                None if prefix_vals.is_empty() => None,
                None => Some(prefix_then(&prefix_vals, [max_sentinel()])),
            };
            let mut rows = da.range_read(table, lo.as_ref(), hi.as_ref())?;
            // Filter exact prefix match (range bounds are necessary, not
            // sufficient, for composite keys).
            rows.retain(|(k, _)| {
                k.0.len() >= prefix_vals.len()
                    && k.0[..prefix_vals.len()]
                        .iter()
                        .zip(&prefix_vals)
                        .all(|(a, b)| a.key_cmp(b) == std::cmp::Ordering::Equal)
            });
            rows
        }
        AccessPath::IndexPrefix { index, prefix } => {
            let prefix_vals = prefix
                .iter()
                .map(|e| eval(e, params, ctx))
                .collect::<GdbResult<Vec<_>>>()?;
            da.index_read(*index, &prefix_vals)?
        }
        AccessPath::FullScan => da.full_scan(table)?,
    };
    for (key, row) in rows {
        emit(&key, Cow::Owned(row))?;
    }
    Ok(())
}

/// The keys of the rows an access path fetches (UPDATE and DELETE
/// re-read each one under its lock).
fn fetch_keys(
    table: TableId,
    access: &AccessPath,
    params: &[Datum],
    da: &mut dyn DataAccess,
) -> GdbResult<Vec<RowKey>> {
    let mut keys = Vec::new();
    fetch_outer(
        table,
        access,
        params,
        &RowCtx::empty(),
        da,
        &mut |key, _| {
            keys.push(key.clone());
            Ok(())
        },
    )?;
    Ok(keys)
}

/// Evaluate key expressions straight into a key's one allocation.
fn eval_key(exprs: &[Expr], params: &[Datum], ctx: &RowCtx) -> GdbResult<RowKey> {
    RowKey::try_from_fn(exprs.len(), |i| eval(&exprs[i], params, ctx))
}

/// A range bound: the key prefix followed by `tail`, in one allocation.
fn prefix_then<const N: usize>(prefix: &[Datum], tail: [Datum; N]) -> RowKey {
    prefix.iter().cloned().chain(tail).collect()
}

fn max_sentinel() -> Datum {
    // Highest-sorting datum in key order: a long high text value.
    Datum::Text("\u{10FFFF}\u{10FFFF}\u{10FFFF}\u{10FFFF}".into())
}

fn exec_update(
    table: TableId,
    sets: &[(usize, Expr)],
    access: &AccessPath,
    residual: Option<&Expr>,
    params: &[Datum],
    da: &mut dyn DataAccess,
) -> GdbResult<ExecOutput> {
    let mut affected = 0u64;
    for key in fetch_keys(table, access, params, da)? {
        // Lock and re-read the newest committed version (read-committed).
        let Some(current) = da.read_for_update(table, &key)? else {
            continue; // concurrently deleted
        };
        let row_ctx = RowCtx::outer(&current);
        if let Some(f) = residual {
            if !truthy(&eval(f, params, &row_ctx)?) {
                continue;
            }
        }
        let mut new_row = current.clone();
        for (idx, e) in sets {
            new_row.0[*idx] = eval(e, params, &row_ctx)?;
        }
        da.update(table, &key, new_row)?;
        affected += 1;
    }
    Ok(ExecOutput::Count(affected))
}

fn exec_delete(
    table: TableId,
    access: &AccessPath,
    residual: Option<&Expr>,
    params: &[Datum],
    da: &mut dyn DataAccess,
) -> GdbResult<ExecOutput> {
    let mut affected = 0u64;
    for key in fetch_keys(table, access, params, da)? {
        let Some(current) = da.read_for_update(table, &key)? else {
            continue;
        };
        let row_ctx = RowCtx::outer(&current);
        if let Some(f) = residual {
            if !truthy(&eval(f, params, &row_ctx)?) {
                continue;
            }
        }
        da.delete(table, &key)?;
        affected += 1;
    }
    Ok(ExecOutput::Count(affected))
}

fn exec_select(
    plan: &SelectPlan,
    params: &[Datum],
    da: &mut dyn DataAccess,
) -> GdbResult<ExecOutput> {
    // Without a join, an ORDER BY, a lock or an aggregate, each outer row
    // is projected where it lies (in storage, for a point read) and
    // nothing else is kept of it.
    let direct = match &plan.projection {
        Projection::Columns(exprs)
            if plan.join.is_none() && plan.order_by.is_none() && !plan.for_update =>
        {
            Some(exprs)
        }
        _ => None,
    };
    let mut out = Vec::new();
    let mut outer_rows = Vec::new();
    let empty_ctx = RowCtx::empty();
    let emit = &mut |key: &RowKey, row: Cow<Row>| -> GdbResult<()> {
        let Some(exprs) = direct else {
            outer_rows.push((key.clone(), row.into_owned()));
            return Ok(());
        };
        let ctx = RowCtx::outer(&row);
        if let Some(f) = &plan.outer_residual {
            if !truthy(&eval(f, params, &ctx)?) {
                return Ok(());
            }
        }
        if plan.limit.is_none_or(|limit| out.len() < limit) {
            out.push(project(exprs, params, &ctx)?);
        }
        Ok(())
    };
    fetch_outer(
        plan.tables[0],
        &plan.outer_access,
        params,
        &empty_ctx,
        da,
        emit,
    )?;
    if direct.is_some() {
        return Ok(ExecOutput::Rows(out));
    }

    // Filter outer rows; lock them if FOR UPDATE.
    let mut joined: Vec<(Row, Option<Row>)> = Vec::new();
    for (key, row) in outer_rows {
        let ctx = RowCtx::outer(&row);
        if let Some(f) = &plan.outer_residual {
            if !truthy(&eval(f, params, &ctx)?) {
                continue;
            }
        }
        let row = if plan.for_update {
            // Lock and use the newest version.
            match da.read_for_update(plan.tables[0], &key)? {
                Some(newest) => {
                    // Re-check the residual on the newest version.
                    let ctx = RowCtx::outer(&newest);
                    if let Some(f) = &plan.outer_residual {
                        if !truthy(&eval(f, params, &ctx)?) {
                            continue;
                        }
                    }
                    newest
                }
                None => continue,
            }
        } else {
            row
        };

        joined.push((row, None));
    }

    // Join: a point-lookup inner side batches all keys into one
    // multi-shard fetch (the CN pushes the lookups down in one round
    // trip); other access paths fetch per outer row.
    if let Some(jp) = &plan.join {
        let outer_only = std::mem::take(&mut joined);
        match &jp.access {
            AccessPath::PointLookup { key } => {
                let mut keys = Vec::with_capacity(outer_only.len());
                for (outer, _) in &outer_only {
                    keys.push(eval_key(key, params, &RowCtx::outer(outer))?);
                }
                let fetched = da.multi_point_read(jp.table, &keys)?;
                for ((outer, _), inner) in outer_only.into_iter().zip(fetched) {
                    let Some(inner) = inner else { continue };
                    if let Some(f) = &jp.residual {
                        let jctx = RowCtx::joined(&outer, &inner);
                        if !truthy(&eval(f, params, &jctx)?) {
                            continue;
                        }
                    }
                    joined.push((outer, Some(inner)));
                }
            }
            _ => {
                for (outer, _) in outer_only {
                    let inners = fetch_inner(jp, params, &outer, da)?;
                    for inner in inners {
                        joined.push((outer.clone(), Some(inner)));
                    }
                }
            }
        }
    }

    // ORDER BY before projection (it references table columns).
    if let Some((slot, idx, desc)) = plan.order_by {
        joined.sort_by(|a, b| {
            let get = |pair: &(Row, Option<Row>)| -> Datum {
                let row = if slot == 0 {
                    &pair.0
                } else {
                    pair.1.as_ref().expect("order by inner slot requires join")
                };
                row.0[idx].clone()
            };
            let o = get(a).key_cmp(&get(b));
            if desc {
                o.reverse()
            } else {
                o
            }
        });
    }
    if let Some(limit) = plan.limit {
        joined.truncate(limit);
    }

    match &plan.projection {
        Projection::Columns(exprs) => {
            let mut out = Vec::with_capacity(joined.len());
            for (outer, inner) in &joined {
                let ctx = match inner {
                    Some(i) => RowCtx::joined(outer, i),
                    None => RowCtx::outer(outer),
                };
                out.push(project(exprs, params, &ctx)?);
            }
            Ok(ExecOutput::Rows(out))
        }
        Projection::Aggregates(specs) => {
            let row = aggregate(specs, &joined, params)?;
            Ok(ExecOutput::Rows(vec![row]))
        }
    }
}

/// One output row: `exprs` evaluated over `ctx`.
fn project(exprs: &[Expr], params: &[Datum], ctx: &RowCtx) -> GdbResult<Row> {
    let vals = exprs
        .iter()
        .map(|e| eval(e, params, ctx))
        .collect::<GdbResult<Vec<_>>>()?;
    Ok(Row(vals))
}

fn fetch_inner(
    jp: &JoinPlan,
    params: &[Datum],
    outer: &Row,
    da: &mut dyn DataAccess,
) -> GdbResult<Vec<Row>> {
    let ctx = RowCtx::outer(outer);
    let mut out = Vec::new();
    fetch_outer(jp.table, &jp.access, params, &ctx, da, &mut |_, inner| {
        if let Some(f) = &jp.residual {
            let jctx = RowCtx::joined(outer, &inner);
            if !truthy(&eval(f, params, &jctx)?) {
                return Ok(());
            }
        }
        out.push(inner.into_owned());
        Ok(())
    })?;
    Ok(out)
}

fn aggregate(specs: &[AggSpec], rows: &[(Row, Option<Row>)], params: &[Datum]) -> GdbResult<Row> {
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let mut count = 0u64;
        let mut sum: i64 = 0;
        let mut sum_is_decimal = false;
        let mut min: Option<Datum> = None;
        let mut max: Option<Datum> = None;
        let mut distinct_seen: HashSet<Datum> = HashSet::new();

        for (outer, inner) in rows {
            let ctx = match inner {
                Some(i) => RowCtx::joined(outer, i),
                None => RowCtx::outer(outer),
            };
            let value = match &spec.arg {
                None => Datum::Int(1), // COUNT(*)
                Some(e) => eval(e, params, &ctx)?,
            };
            if spec.arg.is_some() && value.is_null() {
                continue; // aggregates skip NULLs
            }
            if spec.distinct && !distinct_seen.insert(value.clone()) {
                continue;
            }
            count += 1;
            match value {
                Datum::Int(v) => sum = sum.wrapping_add(v),
                Datum::Decimal(v) => {
                    sum = sum.wrapping_add(v);
                    sum_is_decimal = true;
                }
                _ => {}
            }
            min = Some(match min {
                None => value.clone(),
                Some(m) => {
                    if value.key_cmp(&m) == std::cmp::Ordering::Less {
                        value.clone()
                    } else {
                        m
                    }
                }
            });
            max = Some(match max {
                None => value.clone(),
                Some(m) => {
                    if value.key_cmp(&m) == std::cmp::Ordering::Greater {
                        value.clone()
                    } else {
                        m
                    }
                }
            });
        }

        let result = match spec.func {
            AggFunc::Count => Datum::Int(count as i64),
            AggFunc::Sum => {
                if count == 0 {
                    Datum::Null
                } else if sum_is_decimal {
                    Datum::Decimal(sum)
                } else {
                    Datum::Int(sum)
                }
            }
            AggFunc::Min => min.unwrap_or(Datum::Null),
            AggFunc::Max => max.unwrap_or(Datum::Null),
            AggFunc::Avg => {
                if count == 0 {
                    Datum::Null
                } else if sum_is_decimal {
                    Datum::Decimal(sum / count as i64)
                } else {
                    Datum::Int(sum / count as i64)
                }
            }
        };
        out.push(result);
    }
    Ok(Row(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemAccess;
    use crate::prepare;

    /// Run one SQL statement end-to-end on a MemAccess.
    fn run(da: &mut MemAccess, sql: &str, params: &[Datum]) -> GdbResult<ExecOutput> {
        let prepared = prepare(sql, da.catalog())?;
        execute(&prepared.bound, params, da)
    }

    fn setup() -> MemAccess {
        let mut da = MemAccess::new();
        run(
            &mut da,
            "CREATE TABLE accounts (id INT NOT NULL, owner TEXT, region TEXT, \
             balance DECIMAL, PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)",
            &[],
        )
        .unwrap();
        for (id, owner, region, bal) in [
            (1, "alice", "east", 1000),
            (2, "bob", "west", 2500),
            (3, "carol", "east", 50),
            (4, "dave", "west", 700),
            (5, "erin", "north", 0),
        ] {
            run(
                &mut da,
                "INSERT INTO accounts VALUES (?, ?, ?, ?)",
                &[
                    Datum::Int(id),
                    Datum::Text(owner.into()),
                    Datum::Text(region.into()),
                    Datum::Decimal(bal),
                ],
            )
            .unwrap();
        }
        da
    }

    #[test]
    fn point_select() {
        let mut da = setup();
        let out = run(
            &mut da,
            "SELECT owner, balance FROM accounts WHERE id = ?",
            &[Datum::Int(2)],
        )
        .unwrap();
        assert_eq!(
            out.rows(),
            vec![Row(vec![Datum::Text("bob".into()), Datum::Decimal(2500)])]
        );
    }

    #[test]
    fn full_scan_with_filter_order_limit() {
        let mut da = setup();
        let out = run(
            &mut da,
            "SELECT owner FROM accounts WHERE balance > 100 ORDER BY balance DESC LIMIT 2",
            &[],
        )
        .unwrap();
        let names: Vec<String> = out
            .rows()
            .iter()
            .map(|r| r.0[0].as_text().unwrap().to_owned())
            .collect();
        assert_eq!(names, vec!["bob", "alice"]);
    }

    #[test]
    fn update_with_expression_and_reread() {
        let mut da = setup();
        let out = run(
            &mut da,
            "UPDATE accounts SET balance = balance + ? WHERE id = ?",
            &[Datum::Decimal(500), Datum::Int(3)],
        )
        .unwrap();
        assert_eq!(out.count(), 1);
        let check = run(&mut da, "SELECT balance FROM accounts WHERE id = 3", &[]).unwrap();
        assert_eq!(check.rows()[0].0[0], Datum::Decimal(550));
    }

    #[test]
    fn update_with_residual_only_touches_matches() {
        let mut da = setup();
        let out = run(
            &mut da,
            "UPDATE accounts SET balance = 0 WHERE region = 'west'",
            &[],
        )
        .unwrap();
        assert_eq!(out.count(), 2);
        let sum = run(&mut da, "SELECT SUM(balance) FROM accounts", &[]).unwrap();
        assert_eq!(sum.rows()[0].0[0], Datum::Decimal(1050));
    }

    #[test]
    fn delete_and_count() {
        let mut da = setup();
        let out = run(&mut da, "DELETE FROM accounts WHERE balance = 0.0", &[]).unwrap();
        assert_eq!(out.count(), 1); // erin
        let count = run(&mut da, "SELECT COUNT(*) FROM accounts", &[]).unwrap();
        assert_eq!(count.rows()[0].0[0], Datum::Int(4));
    }

    #[test]
    fn aggregates_full_set() {
        let mut da = setup();
        let out = run(
            &mut da,
            "SELECT COUNT(*), SUM(balance), MIN(balance), MAX(balance), AVG(balance) \
             FROM accounts",
            &[],
        )
        .unwrap();
        assert_eq!(
            out.rows()[0],
            Row(vec![
                Datum::Int(5),
                Datum::Decimal(4250),
                Datum::Decimal(0),
                Datum::Decimal(2500),
                Datum::Decimal(850),
            ])
        );
    }

    #[test]
    fn count_distinct() {
        let mut da = setup();
        let out = run(&mut da, "SELECT COUNT(DISTINCT region) FROM accounts", &[]).unwrap();
        assert_eq!(out.rows()[0].0[0], Datum::Int(3));
    }

    #[test]
    fn aggregates_on_empty_input() {
        let mut da = setup();
        let out = run(
            &mut da,
            "SELECT COUNT(*), SUM(balance), MIN(balance), AVG(balance) \
             FROM accounts WHERE id = 999",
            &[],
        )
        .unwrap();
        assert_eq!(
            out.rows()[0],
            Row(vec![Datum::Int(0), Datum::Null, Datum::Null, Datum::Null])
        );
    }

    #[test]
    fn secondary_index_lookup_path() {
        let mut da = setup();
        run(&mut da, "CREATE INDEX by_region ON accounts (region)", &[]).unwrap();
        let prepared = prepare(
            "SELECT owner FROM accounts WHERE region = ? ORDER BY owner",
            da.catalog(),
        )
        .unwrap();
        // Confirm the planner chose the index.
        match &prepared.bound {
            BoundStatement::Select(s) => {
                assert!(matches!(s.outer_access, AccessPath::IndexPrefix { .. }))
            }
            other => panic!("{other:?}"),
        }
        let out = execute(&prepared.bound, &[Datum::Text("east".into())], &mut da).unwrap();
        let rows = out.rows();
        let names: Vec<&str> = rows.iter().map(|r| r.0[0].as_text().unwrap()).collect();
        assert_eq!(names, vec!["alice", "carol"]);
    }

    #[test]
    fn join_point_inner() {
        let mut da = setup();
        run(
            &mut da,
            "CREATE TABLE regions (name TEXT NOT NULL, tz INT, PRIMARY KEY (name))",
            &[],
        )
        .unwrap();
        for (name, tz) in [("east", -5), ("west", -8), ("north", 0)] {
            run(
                &mut da,
                "INSERT INTO regions VALUES (?, ?)",
                &[Datum::Text(name.into()), Datum::Int(tz)],
            )
            .unwrap();
        }
        let out = run(
            &mut da,
            "SELECT owner, tz FROM accounts, regions WHERE name = region AND balance > 500 \
             ORDER BY owner",
            &[],
        )
        .unwrap();
        let rows = out.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0],
            Row(vec![Datum::Text("alice".into()), Datum::Int(-5)])
        );
        assert_eq!(
            rows[1],
            Row(vec![Datum::Text("bob".into()), Datum::Int(-8)])
        );
        assert_eq!(
            rows[2],
            Row(vec![Datum::Text("dave".into()), Datum::Int(-8)])
        );
    }

    #[test]
    fn pk_range_on_prefix() {
        let mut da = MemAccess::new();
        run(
            &mut da,
            "CREATE TABLE ol (w INT NOT NULL, o INT NOT NULL, n INT NOT NULL, item INT, \
             PRIMARY KEY (w, o, n))",
            &[],
        )
        .unwrap();
        for o in 0..5i64 {
            for n in 0..3i64 {
                run(
                    &mut da,
                    "INSERT INTO ol VALUES (1, ?, ?, ?)",
                    &[Datum::Int(o), Datum::Int(n), Datum::Int(o * 10 + n)],
                )
                .unwrap();
            }
        }
        let out = run(
            &mut da,
            "SELECT item FROM ol WHERE w = 1 AND o BETWEEN 1 AND 3",
            &[],
        )
        .unwrap();
        assert_eq!(out.rows().len(), 9);
        // Prefix-only (no range): all of w=1.
        let all = run(&mut da, "SELECT item FROM ol WHERE w = 1", &[]).unwrap();
        assert_eq!(all.rows().len(), 15);
        // Prefix + lower bound only.
        let ge = run(&mut da, "SELECT item FROM ol WHERE w = 1 AND o >= 4", &[]).unwrap();
        assert_eq!(ge.rows().len(), 3);
    }

    #[test]
    fn insert_duplicate_pk_fails() {
        let mut da = setup();
        let err = run(
            &mut da,
            "INSERT INTO accounts VALUES (1, 'dup', 'east', 0)",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, GdbError::DuplicateKey(_)));
    }

    #[test]
    fn select_for_update_reads_newest() {
        let mut da = setup();
        let out = run(
            &mut da,
            "SELECT balance FROM accounts WHERE id = 1 FOR UPDATE",
            &[],
        )
        .unwrap();
        assert_eq!(out.rows()[0].0[0], Datum::Decimal(1000));
    }

    #[test]
    fn ddl_create_and_drop_via_sql() {
        let mut da = MemAccess::new();
        run(
            &mut da,
            "CREATE TABLE tmp (a INT NOT NULL, PRIMARY KEY (a))",
            &[],
        )
        .unwrap();
        run(&mut da, "INSERT INTO tmp VALUES (1)", &[]).unwrap();
        run(&mut da, "DROP TABLE tmp", &[]).unwrap();
        assert!(run(&mut da, "SELECT a FROM tmp", &[]).is_err());
    }

    #[test]
    fn scalar_int_helper() {
        let mut da = setup();
        let out = run(&mut da, "SELECT COUNT(*) FROM accounts", &[]).unwrap();
        assert_eq!(out.scalar_int(), Some(5));
    }
}

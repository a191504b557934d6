//! The plan executor.

use crate::access::DataAccess;
use crate::ast::AggFunc;
use crate::eval::{eval, truthy, RowCtx};
use crate::plan::{AccessPath, AggSpec, BoundStatement, Expr, JoinPlan, Projection, SelectPlan};
use gdb_model::{Datum, GdbError, GdbResult, Row, RowKey, TableId};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::ops::Range;

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

/// The buffers a statement evaluates its keys into, kept by the caller
/// from one statement to the next so that their capacity is reused: a
/// key a statement only probes with — a point read's, a join's inner
/// keys, a range's bounds, an index prefix — is never allocated. Each
/// buffer is cleared where it is filled.
#[derive(Debug, Default)]
pub struct Scratch {
    /// A point key, a range's two bounds end to end, or an index prefix.
    key: Vec<Datum>,
    /// A join's inner keys, end to end.
    probes: Vec<Datum>,
    /// The keys of the rows a range or index statement locks (each a
    /// shared handle on the stored key).
    locking: Vec<RowKey>,
}

/// Execute a bound statement with the given parameters, evaluating its
/// keys into `scratch`.
pub fn execute(
    stmt: &BoundStatement,
    params: &[Datum],
    da: &mut dyn DataAccess,
    scratch: &mut Scratch,
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
        } => {
            let residual = residual.as_ref();
            exec_write(*table, Some(sets), access, residual, params, da, scratch)
        }
        BoundStatement::Delete {
            table,
            access,
            residual,
        } => exec_write(*table, None, access, residual.as_ref(), params, da, scratch),
        BoundStatement::Select(plan) => exec_select(plan, params, da, scratch),
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
        // Sized once: the image is stored as built.
        let mut values = Vec::with_capacity(exprs.len());
        for e in exprs {
            values.push(eval(e, params, &ctx)?);
        }
        da.insert(table, Row(values))?;
        inserted += 1;
    }
    Ok(ExecOutput::Count(inserted))
}

/// Evaluate `exprs` over `ctx` onto the end of `buf`.
fn eval_onto(
    buf: &mut Vec<Datum>,
    exprs: &[Expr],
    params: &[Datum],
    ctx: &RowCtx,
) -> GdbResult<()> {
    for e in exprs {
        buf.push(eval(e, params, ctx)?);
    }
    Ok(())
}

/// Fetch the rows of an access path, handing each to `emit` with its key,
/// in key order, where it lies (in storage, or in the transaction's own
/// writes). `ctx` binds the columns the path's expressions may read (the
/// outer row, for a join's inner side); the key, bounds or prefix they
/// evaluate to go into `buf`.
fn fetch_outer(
    table: TableId,
    access: &AccessPath,
    params: &[Datum],
    ctx: &RowCtx,
    buf: &mut Vec<Datum>,
    da: &mut dyn DataAccess,
    emit: &mut dyn FnMut(&RowKey, &Row) -> GdbResult<()>,
) -> GdbResult<()> {
    buf.clear();
    match access {
        AccessPath::PointLookup { key } => {
            eval_onto(buf, key, params, ctx)?;
            da.point_read(table, buf, emit)
        }
        AccessPath::PkRange { prefix, low, high } => {
            // The key prefix, then the bound on the next column if there is
            // one, each bound where it lies in `buf`. An upper bound covers
            // every key it is a prefix of, so both ends of `a = 1` are `(1)`.
            let bound = |buf: &mut Vec<Datum>, last: Option<&Expr>| {
                if prefix.is_empty() && last.is_none() {
                    return Ok(None);
                }
                let start = buf.len();
                eval_onto(buf, prefix, params, ctx)?;
                if let Some(e) = last {
                    buf.push(eval(e, params, ctx)?);
                }
                GdbResult::Ok(Some(start..buf.len()))
            };
            let lo = bound(buf, low.as_ref())?;
            let hi = match (low, high) {
                (None, None) => lo.clone(),
                _ => bound(buf, high.as_ref())?,
            };
            let at = |bound: Option<Range<usize>>| bound.map(|r| &buf[r]);
            da.range_read(table, at(lo), at(hi), emit)
        }
        AccessPath::IndexPrefix { index, prefix } => {
            eval_onto(buf, prefix, params, ctx)?;
            da.index_read(*index, buf, emit)
        }
        AccessPath::FullScan => da.range_read(table, None, None, emit),
    }
}

/// What [`for_each_key`] hands each key to, with the data access to lock
/// and write its row through.
type EachKey<'e> = dyn FnMut(&mut dyn DataAccess, &[Datum]) -> GdbResult<()> + 'e;

/// Hand `each` the key of every row `access` fetches that `filter` admits,
/// so that `each` may lock and write it. A point key goes to `each` as
/// evaluated, read by nothing first: the [`DataAccess::read_for_update`]
/// in `each` is the statement's one request, and `filter` is left to
/// `each`, which sees the newest version. The key stays locked even if it
/// has no live row or its row fails `filter`, as a point predicate lock
/// would. The other paths collect the keys (each a shared handle, not a
/// copy) once the read is done and lock them in one request per data node
/// before `each` runs, so its per-key locks ride the set's.
fn for_each_key(
    table: TableId,
    access: &AccessPath,
    filter: Option<&Expr>,
    params: &[Datum],
    (buf, keys): (&mut Vec<Datum>, &mut Vec<RowKey>),
    da: &mut dyn DataAccess,
    each: &mut EachKey,
) -> GdbResult<()> {
    let empty = RowCtx::empty();
    if let AccessPath::PointLookup { key } = access {
        buf.clear();
        eval_onto(buf, key, params, &empty)?;
        return each(da, buf);
    }
    keys.clear();
    fetch_outer(table, access, params, &empty, buf, da, &mut |key, row| {
        if holds(filter, params, &RowCtx::outer(row))? {
            keys.push(key.clone());
        }
        Ok(())
    })?;
    da.lock_rows(table, keys)?;
    keys.iter().try_for_each(|key| each(da, key))?;
    keys.clear();
    Ok(())
}

/// True if `filter` is absent or holds over `ctx`.
fn holds(filter: Option<&Expr>, params: &[Datum], ctx: &RowCtx) -> GdbResult<bool> {
    filter.map_or(Ok(true), |f| Ok(truthy(&eval(f, params, ctx)?)))
}

/// UPDATE (`sets`) or DELETE (`None`): lock each row and read its newest
/// committed version where it lies (read-committed); where `residual`
/// holds there, write the new image built from it — the one copy — or
/// delete the row.
fn exec_write(
    table: TableId,
    sets: Option<&[(usize, Expr)]>,
    access: &AccessPath,
    residual: Option<&Expr>,
    params: &[Datum],
    da: &mut dyn DataAccess,
    scratch: &mut Scratch,
) -> GdbResult<ExecOutput> {
    let mut affected = 0u64;
    let bufs = (&mut scratch.key, &mut scratch.locking);
    for_each_key(table, access, None, params, bufs, da, &mut |da, key| {
        // `Some(Some(row))` overwrites the row, `Some(None)` deletes it.
        let mut write = None;
        da.read_for_update(table, key, &mut |current| {
            let ctx = RowCtx::outer(current);
            if holds(residual, params, &ctx)? {
                write = Some(match sets {
                    Some(sets) => {
                        let mut row = current.clone();
                        for (idx, e) in sets {
                            row.0[*idx] = eval(e, params, &ctx)?;
                        }
                        Some(row)
                    }
                    None => None,
                });
            }
            Ok(())
        })?;
        match write {
            Some(Some(row)) => da.update(table, key, row)?,
            Some(None) => da.delete(table, key)?,
            None => return Ok(()),
        }
        affected += 1;
        Ok(())
    })?;
    Ok(ExecOutput::Count(affected))
}

fn exec_select(
    plan: &SelectPlan,
    params: &[Datum],
    da: &mut dyn DataAccess,
    scratch: &mut Scratch,
) -> GdbResult<ExecOutput> {
    match &plan.projection {
        Projection::Columns(exprs)
            if plan.join.is_none() && plan.order_by.is_none() && !plan.for_update =>
        {
            select_direct(plan, exprs, params, da, &mut scratch.key)
        }
        _ => select_staged(plan, params, da, scratch),
    }
}

/// A SELECT without a join, an ORDER BY, a lock or an aggregate: each row
/// is projected where it lies (in storage, for a point read) and nothing
/// else is kept of it.
fn select_direct(
    plan: &SelectPlan,
    exprs: &[Expr],
    params: &[Datum],
    da: &mut dyn DataAccess,
    buf: &mut Vec<Datum>,
) -> GdbResult<ExecOutput> {
    let mut out = Vec::new();
    let emit = &mut |_: &RowKey, row: &Row| -> GdbResult<()> {
        let ctx = RowCtx::outer(row);
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
    let empty_ctx = RowCtx::empty();
    fetch_outer(
        plan.tables[0],
        &plan.outer_access,
        params,
        &empty_ctx,
        buf,
        da,
        emit,
    )?;
    Ok(ExecOutput::Rows(out))
}

/// Every other SELECT, as stages each row passes through where it lies:
/// the outer residual, the lock (FOR UPDATE re-reads the newest version
/// and checks the residual again), the join, then the [`Sink`]. Only
/// what a later stage reads is copied: the outer rows a join's inner
/// fetches or expressions need, and the rows ORDER BY / LIMIT keep.
fn select_staged(
    plan: &SelectPlan,
    params: &[Datum],
    da: &mut dyn DataAccess,
    scratch: &mut Scratch,
) -> GdbResult<ExecOutput> {
    let Scratch {
        key: buf,
        probes,
        locking,
    } = scratch;
    let mut sink = Sink::new(plan, params);
    let Some(jp) = &plan.join else {
        outer_rows(plan, params, (buf, locking), da, &mut |row| {
            sink.push(&RowCtx::outer(row))
        })?;
        return Ok(ExecOutput::Rows(sink.finish()));
    };
    // A point-keyed inner side is read in one batch after the outer rows,
    // by the keys they yield (end to end in `probes`); the outer rows
    // themselves are kept only if a later stage reads them. Any other
    // inner side is fetched per outer row, which its access path reads.
    let inner_key = match &jp.access {
        AccessPath::PointLookup { key } => Some(key),
        _ => None,
    };
    let keep_outer = inner_key.is_none() || reads_outer_after_join(plan, jp);
    let mut outers = Vec::new();
    probes.clear();
    outer_rows(plan, params, (buf, locking), da, &mut |row| {
        if let Some(key) = inner_key {
            eval_onto(probes, key, params, &RowCtx::outer(row))?;
        }
        if keep_outer {
            outers.push(row.clone());
        }
        Ok(())
    })?;
    let residual = jp.residual.as_ref();
    if let Some(key) = inner_key {
        da.multi_point_read(jp.table, probes, key.len(), &mut |i, inner| {
            let ctx = RowCtx {
                slots: [outers.get(i), Some(inner)],
            };
            if holds(residual, params, &ctx)? {
                sink.push(&ctx)?;
            }
            Ok(())
        })?;
    } else {
        for outer in &outers {
            let ctx = RowCtx::outer(outer);
            fetch_outer(
                jp.table,
                &jp.access,
                params,
                &ctx,
                buf,
                da,
                &mut |_, inner| {
                    let ctx = RowCtx::joined(outer, inner);
                    if holds(residual, params, &ctx)? {
                        sink.push(&ctx)?;
                    }
                    Ok(())
                },
            )?;
        }
    }
    Ok(ExecOutput::Rows(sink.finish()))
}

/// Hand `f` every outer row of `plan` that its residual admits, where it
/// lies: as fetched, or — FOR UPDATE — locked and re-read at its newest
/// version, which must pass the residual again.
fn outer_rows(
    plan: &SelectPlan,
    params: &[Datum],
    (buf, keys): (&mut Vec<Datum>, &mut Vec<RowKey>),
    da: &mut dyn DataAccess,
    f: &mut dyn FnMut(&Row) -> GdbResult<()>,
) -> GdbResult<()> {
    let (table, residual) = (plan.tables[0], plan.outer_residual.as_ref());
    let mut admitted = |row: &Row| -> GdbResult<()> {
        if holds(residual, params, &RowCtx::outer(row))? {
            f(row)?;
        }
        Ok(())
    };
    let access = &plan.outer_access;
    if !plan.for_update {
        let empty = RowCtx::empty();
        return fetch_outer(table, access, params, &empty, buf, da, &mut |_, row| {
            admitted(row)
        });
    }
    for_each_key(
        table,
        access,
        residual,
        params,
        (buf, keys),
        da,
        &mut |da, key| da.read_for_update(table, key, &mut admitted),
    )
}

/// True if a stage after the join — its residual, ORDER BY or the
/// projection — reads an outer (slot 0) column.
fn reads_outer_after_join(plan: &SelectPlan, jp: &JoinPlan) -> bool {
    let reads = |e: &Expr| e.references_slot(0);
    jp.residual.as_ref().is_some_and(reads)
        || plan.order_by.is_some_and(|(slot, ..)| slot == 0)
        || match &plan.projection {
            Projection::Columns(exprs) => exprs.iter().any(reads),
            Projection::Aggregates(specs) => specs.iter().filter_map(|s| s.arg.as_ref()).any(reads),
        }
}

/// Where the rows of a staged SELECT end. Without ORDER BY or LIMIT each
/// row is projected, or folded into the aggregates, as it passes. With
/// them, a row is copied — projected, or its aggregate arguments taken —
/// only if it makes the cut so far: LIMIT n keeps at most n, and a row
/// goes after the kept rows it ties with, where a stable sort of all
/// rows would put it.
struct Sink<'p> {
    plan: &'p SelectPlan,
    params: &'p [Datum],
    /// The kept rows, in arrival order (no ORDER BY).
    rows: Vec<Row>,
    /// The kept rows with their ORDER BY value, in output order (but for
    /// the final stable sort when there is no LIMIT).
    ranked: Vec<(Datum, Row)>,
    /// The running aggregates, when they fold as rows pass.
    folds: Vec<Fold>,
}

impl<'p> Sink<'p> {
    fn new(plan: &'p SelectPlan, params: &'p [Datum]) -> Self {
        let folds = match &plan.projection {
            Projection::Aggregates(specs) if plan.order_by.is_none() && plan.limit.is_none() => {
                specs.iter().map(|_| Fold::default()).collect()
            }
            _ => Vec::new(),
        };
        Sink {
            plan,
            params,
            rows: Vec::new(),
            ranked: Vec::new(),
            folds,
        }
    }

    fn push(&mut self, ctx: &RowCtx) -> GdbResult<()> {
        let (plan, limit) = (self.plan, self.plan.limit);
        if let Projection::Aggregates(specs) = &plan.projection {
            if !self.folds.is_empty() {
                for (fold, spec) in self.folds.iter_mut().zip(specs) {
                    fold.add(spec, agg_arg(spec, self.params, ctx)?);
                }
                return Ok(());
            }
        }
        let Some((slot, idx, desc)) = plan.order_by else {
            if limit.is_none_or(|n| self.rows.len() < n) {
                let row = self.keep(ctx)?;
                self.rows.push(row);
            }
            return Ok(());
        };
        let value = ctx.slots[slot]
            .and_then(|row| row.0.get(idx))
            .ok_or_else(|| GdbError::Internal(format!("no ORDER BY column {slot}.{idx}")))?;
        // After every kept row that sorts at or before it.
        let at = match limit {
            Some(_) => self
                .ranked
                .partition_point(|(v, _)| order(v, value, desc) != Ordering::Greater),
            None => self.ranked.len(),
        };
        if limit.is_some_and(|n| at >= n) {
            return Ok(());
        }
        let row = self.keep(ctx)?;
        self.ranked.insert(at, (value.clone(), row));
        if let Some(n) = limit {
            self.ranked.truncate(n);
        }
        Ok(())
    }

    /// What is kept of a row: its projection, or its aggregate arguments.
    fn keep(&self, ctx: &RowCtx) -> GdbResult<Row> {
        match &self.plan.projection {
            Projection::Columns(exprs) => project(exprs, self.params, ctx),
            Projection::Aggregates(specs) => specs
                .iter()
                .map(|spec| agg_arg(spec, self.params, ctx))
                .collect::<GdbResult<Vec<_>>>()
                .map(Row),
        }
    }

    fn finish(mut self) -> Vec<Row> {
        if let Some((_, _, desc)) = self.plan.order_by {
            if self.plan.limit.is_none() {
                self.ranked.sort_by(|a, b| order(&a.0, &b.0, desc));
            }
            self.rows = self.ranked.into_iter().map(|(_, row)| row).collect();
        }
        let Projection::Aggregates(specs) = &self.plan.projection else {
            return self.rows;
        };
        if self.folds.is_empty() {
            self.folds = specs.iter().map(|_| Fold::default()).collect();
            for args in self.rows {
                for ((fold, spec), value) in self.folds.iter_mut().zip(specs).zip(args.0) {
                    fold.add(spec, value);
                }
            }
        }
        let values = self.folds.into_iter().zip(specs);
        vec![Row(values
            .map(|(fold, spec)| fold.finish(spec.func))
            .collect())]
    }
}

/// The ORDER BY comparison of two values.
fn order(a: &Datum, b: &Datum, desc: bool) -> Ordering {
    let o = a.key_cmp(b);
    if desc {
        o.reverse()
    } else {
        o
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

/// An aggregate's argument over `ctx` (`COUNT(*)` counts a 1 per row).
fn agg_arg(spec: &AggSpec, params: &[Datum], ctx: &RowCtx) -> GdbResult<Datum> {
    match &spec.arg {
        None => Ok(Datum::Int(1)),
        Some(e) => eval(e, params, ctx),
    }
}

/// One aggregate's running state.
#[derive(Default)]
struct Fold {
    count: u64,
    sum: i64,
    sum_is_decimal: bool,
    min: Option<Datum>,
    max: Option<Datum>,
    distinct_seen: HashSet<Datum>,
}

impl Fold {
    fn add(&mut self, spec: &AggSpec, value: Datum) {
        if spec.arg.is_some() && value.is_null() {
            return; // aggregates skip NULLs
        }
        if spec.distinct && !self.distinct_seen.insert(value.clone()) {
            return;
        }
        self.count += 1;
        match value {
            Datum::Int(v) => self.sum = self.sum.wrapping_add(v),
            Datum::Decimal(v) => {
                self.sum = self.sum.wrapping_add(v);
                self.sum_is_decimal = true;
            }
            _ => {}
        }
        if self
            .min
            .as_ref()
            .is_none_or(|m| value.key_cmp(m) == Ordering::Less)
        {
            self.min = Some(value.clone());
        }
        if self
            .max
            .as_ref()
            .is_none_or(|m| value.key_cmp(m) == Ordering::Greater)
        {
            self.max = Some(value);
        }
    }

    fn finish(self, func: AggFunc) -> Datum {
        let count = self.count as i64;
        let number = |v: i64| {
            if self.sum_is_decimal {
                Datum::Decimal(v)
            } else {
                Datum::Int(v)
            }
        };
        match func {
            AggFunc::Count => Datum::Int(count),
            AggFunc::Sum if count == 0 => Datum::Null,
            AggFunc::Sum => number(self.sum),
            AggFunc::Min => self.min.unwrap_or(Datum::Null),
            AggFunc::Max => self.max.unwrap_or(Datum::Null),
            AggFunc::Avg if count == 0 => Datum::Null,
            AggFunc::Avg => number(self.sum / count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemAccess;
    use crate::prepare;

    /// Run one SQL statement end-to-end on a MemAccess.
    fn run(da: &mut MemAccess, sql: &str, params: &[Datum]) -> GdbResult<ExecOutput> {
        let prepared = prepare(sql, da.catalog())?;
        execute(&prepared.bound, params, da, &mut Scratch::default())
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
        let east = [Datum::Text("east".into())];
        let out = execute(&prepared.bound, &east, &mut da, &mut Scratch::default()).unwrap();
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

    /// A key prefix reads every row extending it, whatever its later key
    /// columns hold: a text column above any fixed stand-in for +∞ too.
    #[test]
    fn pk_prefix_reads_keys_with_high_text_columns() {
        let mut da = MemAccess::new();
        run(
            &mut da,
            "CREATE TABLE t (a INT NOT NULL, b TEXT NOT NULL, v INT, PRIMARY KEY (a, b))",
            &[],
        )
        .unwrap();
        let high = "\u{10FFFF}".repeat(4) + "z";
        for (b, v) in [("x", 1), (high.as_str(), 2)] {
            let row = [Datum::Text(b.into()), Datum::Int(v)];
            run(&mut da, "INSERT INTO t VALUES (1, ?, ?)", &row).unwrap();
        }
        let v = |out: ExecOutput| -> Vec<Datum> {
            out.rows().into_iter().map(|r| r.0[0].clone()).collect()
        };
        let want = vec![Datum::Int(1), Datum::Int(2)];
        assert_eq!(v(run(&mut da, "SELECT v FROM t", &[]).unwrap()), want);
        assert_eq!(
            v(run(&mut da, "SELECT v FROM t WHERE a = 1", &[]).unwrap()),
            want
        );
        let count = run(&mut da, "SELECT COUNT(*) FROM t WHERE a = 1", &[]).unwrap();
        assert_eq!(count.scalar_int(), Some(2));
        let bumped = run(&mut da, "UPDATE t SET v = v + 10 WHERE a = 1", &[]).unwrap();
        assert_eq!(bumped.count(), 2);
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

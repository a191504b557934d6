//! The executor's streaming stages against a reference that reads every
//! row, sorts everything, then truncates. Over random tables with many
//! duplicate sort values, on `MemAccess`: `ORDER BY … LIMIT` keeps the
//! rows a stable sort would keep, aggregates fold to what a pass over
//! the full set gives, keys-only UPDATE/DELETE touch exactly the rows
//! their filter selects, and joins stream the pairs a nested loop finds —
//! whether or not a later stage reads the outer row.

use gdb_model::{Datum, GdbResult, Row, RowKey};
use gdb_sqlengine::access::{DataAccess, MemAccess};
use gdb_sqlengine::{execute, prepare, ExecOutput, Scratch};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// `t`'s rows by `(g, id)`: `(s, v)`, `v` nullable.
type TRows = BTreeMap<(i64, i64), (i64, Option<i64>)>;

struct Data {
    t: TRows,
    /// `u`: `uk → q`.
    u: BTreeMap<i64, i64>,
    /// `w`: `(wk, n) → r`.
    w: BTreeMap<(i64, i64), i64>,
}

fn run(da: &mut MemAccess, sql: &str, params: &[Datum]) -> GdbResult<ExecOutput> {
    let prepared = prepare(sql, da.catalog())?;
    execute(&prepared.bound, params, da, &mut Scratch::default())
}

fn load(data: &Data) -> MemAccess {
    let mut da = MemAccess::new();
    for ddl in [
        "CREATE TABLE t (g INT NOT NULL, id INT NOT NULL, s INT, v INT, PRIMARY KEY (g, id))",
        "CREATE TABLE u (uk INT NOT NULL, q INT, PRIMARY KEY (uk))",
        "CREATE TABLE w (wk INT NOT NULL, n INT NOT NULL, r INT, PRIMARY KEY (wk, n))",
    ] {
        run(&mut da, ddl, &[]).unwrap();
    }
    let v = |v: Option<i64>| v.map_or(Datum::Null, Datum::Int);
    for (&(g, id), &(s, val)) in &data.t {
        let row = [Datum::Int(g), Datum::Int(id), Datum::Int(s), v(val)];
        run(&mut da, "INSERT INTO t VALUES (?, ?, ?, ?)", &row).unwrap();
    }
    for (&uk, &q) in &data.u {
        run(
            &mut da,
            "INSERT INTO u VALUES (?, ?)",
            &[Datum::Int(uk), Datum::Int(q)],
        )
        .unwrap();
    }
    for (&(wk, n), &r) in &data.w {
        let row = [Datum::Int(wk), Datum::Int(n), Datum::Int(r)];
        run(&mut da, "INSERT INTO w VALUES (?, ?, ?)", &row).unwrap();
    }
    da
}

/// Every row of `t` as `MemAccess` holds it, in key order.
fn stored_t(da: &mut MemAccess) -> Vec<Row> {
    let table = da.catalog().table_by_name("t").unwrap().id;
    let mut rows = Vec::new();
    da.range_read(table, None, None, &mut |_: &RowKey, row: &Row| {
        rows.push(row.clone());
        Ok(())
    })
    .unwrap();
    rows
}

fn int(d: &Datum) -> Option<i64> {
    d.as_int()
}

fn ints(values: &[Option<i64>]) -> Row {
    Row(values
        .iter()
        .map(|v| v.map_or(Datum::Null, Datum::Int))
        .collect())
}

/// The reference ORDER BY: a stable sort of everything, then truncate.
fn sort_truncate<T>(mut rows: Vec<(i64, T)>, desc: bool, limit: Option<usize>) -> Vec<T> {
    rows.sort_by(|a, b| if desc { b.0.cmp(&a.0) } else { a.0.cmp(&b.0) });
    rows.truncate(limit.unwrap_or(usize::MAX));
    rows.into_iter().map(|(_, t)| t).collect()
}

/// COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v), COUNT(DISTINCT s)
/// over `(s, v)` pairs.
fn fold(rows: &[(i64, Option<i64>)]) -> Row {
    let vs: Vec<i64> = rows.iter().filter_map(|r| r.1).collect();
    let n = vs.len() as i64;
    let sum: i64 = vs.iter().sum();
    let mut distinct: Vec<i64> = rows.iter().map(|r| r.0).collect();
    distinct.sort_unstable();
    distinct.dedup();
    ints(&[
        Some(rows.len() as i64),
        Some(n),
        (n > 0).then_some(sum),
        vs.iter().min().copied(),
        vs.iter().max().copied(),
        (n > 0).then(|| sum / n),
        Some(distinct.len() as i64),
    ])
}

fn arb_data() -> impl Strategy<Value = Data> {
    // Later duplicates of a key overwrite earlier ones.
    let t = proptest::collection::vec(
        (
            (0i64..3, 0i64..25),
            (0i64..4, proptest::option::of(-5i64..5)),
        ),
        0..40,
    );
    let u = proptest::collection::vec((0i64..5, -3i64..3), 0..5);
    let w = proptest::collection::vec(((0i64..5, 0i64..3), -3i64..3), 0..10);
    (t, u, w).prop_map(|(t, u, w)| Data {
        t: t.into_iter().collect(),
        u: u.into_iter().collect(),
        w: w.into_iter().collect(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn streaming_stages_match_sort_then_truncate(
        data in arb_data(),
        g in 0i64..3,
        limit in proptest::option::of(0usize..6),
        desc in any::<bool>(),
        p in -4i64..4,
    ) {
        let mut da = load(&data);
        let rows: Vec<(i64, i64, Option<i64>)> = data
            .t
            .iter()
            .filter(|(k, _)| k.0 == g)
            .map(|(&(_, id), &(s, v))| (id, s, v))
            .collect();
        let dir = if desc { "DESC" } else { "ASC" };
        let lim = limit.map_or(String::new(), |n| format!(" LIMIT {n}"));
        let gp = [Datum::Int(g)];
        let gpp = [Datum::Int(g), Datum::Int(p)];

        // ORDER BY … LIMIT over a primary-key prefix: ties keep key order.
        let sql = format!("SELECT id, v FROM t WHERE g = ? ORDER BY s {dir}{lim}");
        let want = sort_truncate(
            rows.iter().map(|&(id, s, v)| (s, ints(&[Some(id), v]))).collect(),
            desc,
            limit,
        );
        prop_assert_eq!(run(&mut da, &sql, &gp).unwrap().rows(), want, "{}", sql);

        // LIMIT without ORDER BY keeps the first rows in key order.
        let sql = format!("SELECT id FROM t WHERE g = ?{lim}");
        let first = rows.iter().map(|&(id, ..)| (0, ints(&[Some(id)]))).collect();
        let want = sort_truncate(first, false, limit);
        prop_assert_eq!(run(&mut da, &sql, &gp).unwrap().rows(), want, "{}", sql);

        // A full scan with a residual, ordered on a nullable column.
        let sql = format!("SELECT g, id FROM t WHERE v > ? ORDER BY v {dir}{lim}");
        let all: Vec<(i64, Row)> = data
            .t
            .iter()
            .filter_map(|(&(g, id), &(_, v))| {
                v.filter(|&v| v > p).map(|v| (v, ints(&[Some(g), Some(id)])))
            })
            .collect();
        let want = sort_truncate(all, desc, limit);
        prop_assert_eq!(run(&mut da, &sql, &[Datum::Int(p)]).unwrap().rows(), want, "{}", sql);

        // Aggregates fold as rows pass …
        let sql = "SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v), COUNT(DISTINCT s) \
                   FROM t WHERE g = ?";
        let pairs: Vec<(i64, Option<i64>)> = rows.iter().map(|&(_, s, v)| (s, v)).collect();
        prop_assert_eq!(run(&mut da, sql, &gp).unwrap().rows(), vec![fold(&pairs)]);
        // … and over the rows ORDER BY … LIMIT keeps.
        let sql = format!(
            "SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v), COUNT(DISTINCT s) \
             FROM t WHERE g = ? ORDER BY s {dir}{lim}"
        );
        let kept = sort_truncate(pairs.iter().map(|&(s, v)| (s, (s, v))).collect(), desc, limit);
        prop_assert_eq!(run(&mut da, &sql, &gp).unwrap().rows(), vec![fold(&kept)], "{}", sql);

        // A point-keyed inner side, no outer column read after the join;
        // LIMIT keeps the first pairs.
        let inner = |s: i64| data.u.get(&s).copied();
        let sql = format!("SELECT q FROM t, u WHERE g = ? AND uk = s{lim}");
        let want: Vec<Row> = rows
            .iter()
            .filter_map(|&(_, s, _)| inner(s))
            .map(|q| ints(&[Some(q)]))
            .take(limit.unwrap_or(usize::MAX))
            .collect();
        prop_assert_eq!(run(&mut da, &sql, &gp).unwrap().rows(), want, "{}", sql);
        // The same join with an inner residual, ordered and limited on the
        // inner column, projecting an outer one.
        let sql = format!(
            "SELECT id, q FROM t, u WHERE g = ? AND uk = s AND q > ? ORDER BY q {dir}{lim}"
        );
        let pairs: Vec<(i64, Row)> = rows
            .iter()
            .filter_map(|&(id, s, _)| {
                inner(s).filter(|&q| q > p).map(|q| (q, ints(&[Some(id), Some(q)])))
            })
            .collect();
        let want = sort_truncate(pairs, desc, limit);
        prop_assert_eq!(run(&mut da, &sql, &gpp).unwrap().rows(), want, "{}", sql);
        // The Stock-Level shape: COUNT(DISTINCT) over the inner rows.
        let sql = "SELECT COUNT(DISTINCT q) FROM t, u WHERE g = ? AND uk = s AND q < ?";
        let mut qs: Vec<i64> =
            rows.iter().filter_map(|&(_, s, _)| inner(s)).filter(|&q| q < p).collect();
        qs.sort_unstable();
        qs.dedup();
        let want = vec![ints(&[Some(qs.len() as i64)])];
        prop_assert_eq!(run(&mut da, sql, &gpp).unwrap().rows(), want);
        // A range-keyed inner side, fetched per outer row.
        let sql = "SELECT id, r FROM t, w WHERE g = ? AND wk = s";
        let want: Vec<Row> = rows
            .iter()
            .flat_map(|&(id, s, _)| {
                let pairs = data.w.range((s, i64::MIN)..=(s, i64::MAX));
                pairs.map(move |(_, &r)| ints(&[Some(id), Some(r)]))
            })
            .collect();
        prop_assert_eq!(run(&mut da, sql, &gp).unwrap().rows(), want);

        // Keys-only UPDATE: the residual is checked on the locked row.
        let mut updated = data.t.clone();
        let mut affected = 0;
        for ((rg, _), (s, v)) in updated.iter_mut() {
            if *rg == g && v.is_some_and(|v| v > p) {
                *s += 1;
                affected += 1;
            }
        }
        let out = run(&mut da, "UPDATE t SET s = s + 1 WHERE g = ? AND v > ?", &gpp).unwrap();
        prop_assert_eq!(out.count(), affected);
        let want: Vec<Row> = updated
            .iter()
            .map(|(&(g, id), &(s, v))| ints(&[Some(g), Some(id), Some(s), v]))
            .collect();
        prop_assert_eq!(stored_t(&mut da), want);

        // Keys-only DELETE.
        let before = updated.len();
        updated.retain(|&(rg, _), &mut (s, _)| !(rg == g && s == p));
        let out = run(&mut da, "DELETE FROM t WHERE g = ? AND s = ?", &gpp).unwrap();
        prop_assert_eq!(out.count(), (before - updated.len()) as u64);
        let stored: Vec<(i64, i64)> = stored_t(&mut da)
            .iter()
            .map(|r| (int(&r.0[0]).unwrap(), int(&r.0[1]).unwrap()))
            .collect();
        prop_assert_eq!(stored, updated.keys().copied().collect::<Vec<_>>());
    }
}

//! Broad SQL feature coverage through the full
//! prepare → bind → plan → execute pipeline on the in-memory engine.

use gdb_model::{Datum, GdbError, GdbResult, Row};
use gdb_sqlengine::access::{DataAccess, MemAccess};
use gdb_sqlengine::{execute, prepare, ExecOutput, Scratch};

fn run(da: &mut MemAccess, sql: &str, params: &[Datum]) -> GdbResult<ExecOutput> {
    let p = prepare(sql, da.catalog())?;
    execute(&p.bound, params, da, &mut Scratch::default())
}

fn setup() -> MemAccess {
    let mut da = MemAccess::new();
    run(
        &mut da,
        "CREATE TABLE items (id INT NOT NULL, cat TEXT, qty INT, price DECIMAL, note TEXT, \
         PRIMARY KEY (id))",
        &[],
    )
    .unwrap();
    for (id, cat, qty, price, note) in [
        (1, "fruit", 10, 150, Some("fresh")),
        (2, "fruit", 0, 300, None),
        (3, "tool", 5, 2500, Some("heavy")),
        (4, "tool", 7, 1200, None),
        (5, "book", 2, 999, Some("rare")),
    ] {
        run(
            &mut da,
            "INSERT INTO items VALUES (?, ?, ?, ?, ?)",
            &[
                Datum::Int(id),
                Datum::Text(cat.into()),
                Datum::Int(qty),
                Datum::Decimal(price),
                note.map(|n| Datum::Text(n.into())).unwrap_or(Datum::Null),
            ],
        )
        .unwrap();
    }
    da
}

#[test]
fn in_list_predicate() {
    let mut da = setup();
    let out = run(
        &mut da,
        "SELECT id FROM items WHERE cat IN ('fruit', 'book') ORDER BY id",
        &[],
    )
    .unwrap();
    let ids: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| r.0[0].as_int().unwrap())
        .collect();
    assert_eq!(ids, vec![1, 2, 5]);
}

#[test]
fn is_null_and_is_not_null() {
    let mut da = setup();
    let out = run(
        &mut da,
        "SELECT id FROM items WHERE note IS NULL ORDER BY id",
        &[],
    )
    .unwrap();
    let ids: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| r.0[0].as_int().unwrap())
        .collect();
    assert_eq!(ids, vec![2, 4]);
    let out = run(
        &mut da,
        "SELECT COUNT(*) FROM items WHERE note IS NOT NULL",
        &[],
    )
    .unwrap();
    assert_eq!(out.scalar_int(), Some(3));
}

#[test]
fn null_never_equals_anything() {
    let mut da = setup();
    // note = 'fresh' matches only the non-null 'fresh'; NULL rows excluded.
    let out = run(&mut da, "SELECT COUNT(*) FROM items WHERE note = note", &[]).unwrap();
    // NULL = NULL is unknown ⇒ rows 2 and 4 excluded.
    assert_eq!(out.scalar_int(), Some(3));
}

#[test]
fn arithmetic_projection_and_filter() {
    let mut da = setup();
    let out = run(
        &mut da,
        "SELECT id, qty * 2 + 1 FROM items WHERE qty * price > 5000 ORDER BY id",
        &[],
    )
    .unwrap();
    let rows = out.rows();
    // qty*price: 1500, 0, 12500, 8400, 1998 → ids 3, 4.
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0], Row(vec![Datum::Int(3), Datum::Int(11)]));
    assert_eq!(rows[1], Row(vec![Datum::Int(4), Datum::Int(15)]));
}

#[test]
fn order_by_desc_and_limit_zero() {
    let mut da = setup();
    let out = run(
        &mut da,
        "SELECT id FROM items ORDER BY qty DESC LIMIT 2",
        &[],
    )
    .unwrap();
    let ids: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| r.0[0].as_int().unwrap())
        .collect();
    assert_eq!(ids, vec![1, 4]);
    let out = run(&mut da, "SELECT id FROM items LIMIT 0", &[]).unwrap();
    assert!(out.rows().is_empty());
}

#[test]
fn order_by_text_column() {
    let mut da = setup();
    let out = run(&mut da, "SELECT cat FROM items ORDER BY cat LIMIT 1", &[]).unwrap();
    assert_eq!(out.rows()[0].0[0], Datum::Text("book".into()));
}

#[test]
fn multi_row_insert_and_count() {
    let mut da = setup();
    let out = run(
        &mut da,
        "INSERT INTO items VALUES (10, 'x', 1, 1, NULL), (11, 'x', 2, 2, NULL), (12, 'x', 3, 3, NULL)",
        &[],
    )
    .unwrap();
    assert_eq!(out.count(), 3);
    let out = run(&mut da, "SELECT COUNT(*) FROM items", &[]).unwrap();
    assert_eq!(out.scalar_int(), Some(8));
}

#[test]
fn multi_row_insert_is_atomic_per_statement_failure() {
    let mut da = setup();
    // The second row duplicates id 1: the statement errors after the first
    // row applied (single-node semantics; the cluster wraps statements in
    // transactions which roll back fully — covered in core tests).
    let err = run(
        &mut da,
        "INSERT INTO items VALUES (20, 'y', 1, 1, NULL), (1, 'y', 1, 1, NULL)",
        &[],
    )
    .unwrap_err();
    assert!(matches!(err, GdbError::DuplicateKey(_)));
}

#[test]
fn delete_with_residual_predicate() {
    let mut da = setup();
    let out = run(&mut da, "DELETE FROM items WHERE qty = 0", &[]).unwrap();
    assert_eq!(out.count(), 1);
    let out = run(&mut da, "SELECT COUNT(*) FROM items", &[]).unwrap();
    assert_eq!(out.scalar_int(), Some(4));
}

#[test]
fn not_and_parenthesized_boolean_logic() {
    let mut da = setup();
    let out = run(
        &mut da,
        "SELECT id FROM items WHERE NOT (cat = 'tool' OR qty = 0) ORDER BY id",
        &[],
    )
    .unwrap();
    let ids: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| r.0[0].as_int().unwrap())
        .collect();
    assert_eq!(ids, vec![1, 5]);
}

#[test]
fn between_on_decimal_column() {
    let mut da = setup();
    let out = run(
        &mut da,
        "SELECT id FROM items WHERE price BETWEEN 500 AND 2000 ORDER BY id",
        &[],
    )
    .unwrap();
    let ids: Vec<i64> = out
        .rows()
        .iter()
        .map(|r| r.0[0].as_int().unwrap())
        .collect();
    assert_eq!(ids, vec![4, 5]);
}

#[test]
fn select_star_projection_width() {
    let mut da = setup();
    let out = run(&mut da, "SELECT * FROM items WHERE id = 1", &[]).unwrap();
    assert_eq!(out.rows()[0].len(), 5);
}

#[test]
fn update_then_index_consistency() {
    let mut da = setup();
    run(&mut da, "CREATE INDEX by_cat ON items (cat)", &[]).unwrap();
    run(&mut da, "UPDATE items SET cat = 'fruit' WHERE id = 3", &[]).unwrap();
    let out = run(
        &mut da,
        "SELECT COUNT(*) FROM items WHERE cat = 'fruit'",
        &[],
    )
    .unwrap();
    assert_eq!(out.scalar_int(), Some(3));
    let out = run(
        &mut da,
        "SELECT COUNT(*) FROM items WHERE cat = 'tool'",
        &[],
    )
    .unwrap();
    assert_eq!(out.scalar_int(), Some(1));
}

#[test]
fn avg_and_sum_with_nulls_skipped() {
    let mut da = setup();
    run(
        &mut da,
        "INSERT INTO items VALUES (9, 'fruit', NULL, NULL, NULL)",
        &[],
    )
    .unwrap();
    // AVG(qty) over {10, 0, 5, 7, 2} — the NULL row is skipped.
    let out = run(&mut da, "SELECT AVG(qty), COUNT(qty) FROM items", &[]).unwrap();
    assert_eq!(out.rows()[0], Row(vec![Datum::Int(4), Datum::Int(5)]));
}

#[test]
fn division_and_divide_by_zero() {
    let mut da = setup();
    let out = run(&mut da, "SELECT qty / 2 FROM items WHERE id = 1", &[]).unwrap();
    assert_eq!(out.rows()[0].0[0], Datum::Int(5));
    let err = run(&mut da, "SELECT qty / 0 FROM items WHERE id = 1", &[]).unwrap_err();
    assert!(matches!(err, GdbError::Execution(_)));
}

#[test]
fn unknown_parameter_index_errors() {
    let mut da = setup();
    let err = run(&mut da, "SELECT id FROM items WHERE id = ?", &[]).unwrap_err();
    assert!(matches!(err, GdbError::Execution(_)));
}

#[test]
fn qualified_star_join_columns() {
    let mut da = setup();
    run(
        &mut da,
        "CREATE TABLE cats (name TEXT NOT NULL, tax DECIMAL, PRIMARY KEY (name))",
        &[],
    )
    .unwrap();
    for (name, tax) in [("fruit", 5), ("tool", 19), ("book", 0)] {
        run(
            &mut da,
            "INSERT INTO cats VALUES (?, ?)",
            &[Datum::Text(name.into()), Datum::Decimal(tax)],
        )
        .unwrap();
    }
    let out = run(
        &mut da,
        "SELECT items.id, cats.tax FROM items, cats \
         WHERE cats.name = items.cat AND items.qty > 4 ORDER BY id",
        &[],
    )
    .unwrap();
    let rows = out.rows();
    assert_eq!(rows.len(), 3); // ids 1, 3, 4
    assert_eq!(rows[0], Row(vec![Datum::Int(1), Datum::Decimal(5)]));
    assert_eq!(rows[1], Row(vec![Datum::Int(3), Datum::Decimal(19)]));
}

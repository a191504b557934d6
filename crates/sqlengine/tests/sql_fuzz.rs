//! Fuzz of the SQL text surface: `lex`, `parse` and `prepare` fed random
//! text, random token sequences and byte-mutated TPC-C and Sysbench
//! statements. Each must answer `Ok` or `Err`, never panic. `prepare`
//! binds against the TPC-C tables plus one Sysbench table, so mutated
//! statements reach the binder with names it knows; every statement that
//! prepares is then executed with random parameters against those tables
//! holding a few rows each.

use gdb_model::{Datum, GdbResult};
use gdb_sqlengine::access::{DataAccess, MemAccess};
use gdb_sqlengine::lexer::lex;
use gdb_sqlengine::{execute, parse, prepare, Scratch};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const DDL: &[&str] = &[
    "CREATE TABLE district (d_w_id INT NOT NULL, d_id INT NOT NULL, d_tax DECIMAL, \
     d_next_o_id INT, PRIMARY KEY (d_w_id, d_id)) DISTRIBUTE BY HASH(d_w_id)",
    "CREATE TABLE customer (c_w_id INT NOT NULL, c_d_id INT NOT NULL, c_id INT NOT NULL, \
     c_last TEXT, c_first TEXT, c_balance DECIMAL, \
     PRIMARY KEY (c_w_id, c_d_id, c_id)) DISTRIBUTE BY HASH(c_w_id)",
    "CREATE INDEX cust_by_last ON customer (c_w_id, c_d_id, c_last)",
    "CREATE TABLE order_line (ol_w_id INT NOT NULL, ol_d_id INT NOT NULL, \
     ol_o_id INT NOT NULL, ol_number INT NOT NULL, ol_i_id INT, ol_amount DECIMAL, \
     PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number)) DISTRIBUTE BY HASH(ol_w_id)",
    "CREATE TABLE stock (s_w_id INT NOT NULL, s_i_id INT NOT NULL, s_quantity INT, \
     PRIMARY KEY (s_w_id, s_i_id)) DISTRIBUTE BY HASH(s_w_id)",
    "CREATE TABLE item (i_id INT NOT NULL, i_price DECIMAL, PRIMARY KEY (i_id)) \
     DISTRIBUTE BY REPLICATION",
    "CREATE TABLE sbtest1 (id INT NOT NULL, k INT, c TEXT, PRIMARY KEY (id)) \
     DISTRIBUTE BY HASH(id)",
];

/// Statements of the TPC-C and Sysbench drivers, the mutation seeds.
const STATEMENTS: &[&str] = &[
    "SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ? FOR UPDATE",
    "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?",
    "INSERT INTO item VALUES (?, 1.5)",
    "SELECT c_id, c_first FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_last = ? \
     ORDER BY c_first DESC LIMIT 1",
    "DELETE FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
    "SELECT COUNT(DISTINCT s_i_id) FROM order_line, stock WHERE ol_w_id = ? AND ol_d_id = ? \
     AND ol_o_id BETWEEN ? AND ? AND s_w_id = ? AND s_i_id = ol_i_id AND s_quantity < ?",
    "SELECT SUM(ol_amount), MIN(ol_i_id) FROM order_line WHERE ol_w_id = ? AND ol_d_id = ?",
    "SELECT ol_i_id FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id >= ? \
     AND ol_o_id <= ? ORDER BY ol_i_id",
    "SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?",
    "UPDATE sbtest1 SET k = k + 1 WHERE id = ?",
    "SELECT c FROM sbtest1 WHERE id IN (1, -2, ?) AND NOT c IS NULL OR k <> 3",
    "CREATE TABLE t (a INT NOT NULL, PRIMARY KEY (a)) DISTRIBUTE BY RANGE(a) SPLIT AT (-1, 9)",
];

/// What the token-sequence fuzz strings together: keywords, punctuation,
/// literals at the edges of their types, the catalog's names.
const VOCAB: &str = "SELECT FROM WHERE AND OR NOT INSERT INTO VALUES UPDATE SET DELETE \
    CREATE DROP TABLE INDEX ON PRIMARY KEY DISTRIBUTE BY HASH RANGE REPLICATION INT TEXT NULL \
    ORDER ASC DESC LIMIT FOR COUNT SUM AVG DISTINCT BETWEEN IN AS TRUE IS SPLIT AT UNIQUE \
    , ( ) . * + - / = != < <= > >= ? ; 0 1 2.5 9223372036854775807 99999999999999999999 'x' '' \
    district d_id customer c_id c_last order_line ol_o_id stock s_i_id sbtest1 id k c nope";

/// The test catalog: every `DDL` table, created through the engine.
fn catalog() -> MemAccess {
    let mut da = MemAccess::new();
    for ddl in DDL {
        let p = prepare(ddl, da.catalog()).unwrap_or_else(|e| panic!("{ddl}: {e}"));
        execute(&p.bound, &[], &mut da, &mut Scratch::default())
            .unwrap_or_else(|e| panic!("{ddl}: {e}"));
    }
    da
}

/// Rows each table holds before a statement runs: keys around 1 and 2.
const LOAD: &[&str] = &[
    "INSERT INTO district VALUES (1, 1, 0.1, 3001), (1, 2, 0.2, 3001)",
    "INSERT INTO customer VALUES (1, 1, 1, 'BAR', 'a', 10.0), (1, 1, 2, 'OUGHT', 'b', -1.5)",
    "INSERT INTO order_line VALUES (1, 1, 1, 1, 1, 1.0), (1, 1, 2, 1, 2, 2.0), \
     (1, 1, 3, 2, 2, 3.0)",
    "INSERT INTO stock VALUES (1, 1, 5), (1, 2, 50)",
    "INSERT INTO item VALUES (1, 1.0), (2, 2.5)",
    "INSERT INTO sbtest1 VALUES (1, 1, 'x'), (2, 2, NULL)",
];

/// The test catalog with `LOAD`'s rows in it.
fn loaded() -> MemAccess {
    let mut da = catalog();
    for sql in LOAD {
        let p = prepare(sql, da.catalog()).unwrap_or_else(|e| panic!("{sql}: {e}"));
        execute(&p.bound, &[], &mut da, &mut Scratch::default())
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    da
}

/// A parameter: NULL, integers at the edges and around the loaded keys
/// (so random `BETWEEN` bounds are often inverted), decimals, text.
fn param() -> impl Strategy<Value = Datum> {
    const INTS: [i64; 8] = [i64::MIN, -1, 0, 1, 2, 3, 3001, i64::MAX];
    prop_oneof![
        Just(Datum::Null),
        (0..INTS.len()).prop_map(|i| Datum::Int(INTS[i])),
        (0..INTS.len()).prop_map(|i| Datum::Int(INTS[i])),
        (-2i64..4).prop_map(Datum::Decimal),
        (0usize..3).prop_map(|i| Datum::from(["", "BAR", "x"][i])),
    ]
}

/// Prepare `sql` and, if it prepares, execute it against `da` with
/// `params`; `Err` says what panicked.
fn run(da: &mut MemAccess, sql: &str, params: &[Datum]) -> Result<(), String> {
    let Ok(p) = prepare(sql, da.catalog()) else {
        return Ok(());
    };
    match catch_unwind(AssertUnwindSafe(|| {
        execute(&p.bound, params, da, &mut Scratch::default())
    })) {
        Ok(_) => Ok(()),
        Err(_) => Err(format!("execute panicked on {sql:?} with {params:?}")),
    }
}

/// Lex, parse and prepare `sql`; `Err` names the layer that panicked.
fn feed(da: &MemAccess, sql: &str) -> Result<(), String> {
    let layers: [(&str, &dyn Fn() -> GdbResult<()>); 3] = [
        ("lex", &|| lex(sql).map(drop)),
        ("parse", &|| parse(sql).map(drop)),
        ("prepare", &|| prepare(sql, da.catalog()).map(drop)),
    ];
    for (layer, run) in layers {
        if catch_unwind(AssertUnwindSafe(run)).is_err() {
            return Err(format!("{layer} panicked on {sql:?}"));
        }
    }
    Ok(())
}

/// Apply `edits` — `(position, kind, byte)` — to `seed`'s bytes: delete,
/// insert, overwrite, or truncate there.
fn mutate(seed: &str, edits: &[(usize, u8, u8)]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(pos, kind, byte) in edits {
        let at = pos % (bytes.len() + 1);
        match kind % 4 {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => bytes[at] = byte,
            3 => bytes.truncate(at),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A mutation byte: mostly SQL punctuation, digits and quotes, sometimes
/// any byte at all.
fn sql_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        (0usize..24).prop_map(|i| b"()',.;?*=<>!-+/ 0919aZ_\""[i]),
        any::<u8>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn random_text_is_rejected_without_panics(
        text in "[-a-zA-Z0-9_ (),.*+/=<>!?;'\"#]{0,64}",
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let da = catalog();
        prop_assert_eq!(feed(&da, &text), Ok(()));
        prop_assert_eq!(feed(&da, &String::from_utf8_lossy(&bytes)), Ok(()));
    }

    #[test]
    fn random_token_sequences_are_rejected_without_panics(
        words in proptest::collection::vec(0usize..1000, 0..24),
    ) {
        let vocab: Vec<&str> = VOCAB.split_whitespace().collect();
        let sql: Vec<&str> = words.iter().map(|&i| vocab[i % vocab.len()]).collect();
        prop_assert_eq!(feed(&catalog(), &sql.join(" ")), Ok(()));
    }

    #[test]
    fn mutated_workload_statements_are_rejected_without_panics(
        seed in 0..STATEMENTS.len(),
        edits in proptest::collection::vec((0usize..200, any::<u8>(), sql_byte()), 1..6),
    ) {
        prop_assert_eq!(feed(&catalog(), &mutate(STATEMENTS[seed], &edits)), Ok(()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Every seed statement, and every mutation of one that prepares,
    /// executes to `Ok` or `Err` with random parameters — NULLs, edge
    /// integers, inverted range bounds, too few of them — against loaded
    /// tables.
    #[test]
    fn prepared_statements_execute_without_panics(
        seed in 0..STATEMENTS.len(),
        edits in proptest::collection::vec((0usize..200, any::<u8>(), sql_byte()), 0..3),
        params in proptest::collection::vec(param(), 0..9),
    ) {
        let mut da = loaded();
        prop_assert_eq!(run(&mut da, STATEMENTS[seed], &params), Ok(()));
        prop_assert_eq!(run(&mut da, &mutate(STATEMENTS[seed], &edits), &params), Ok(()));
    }
}

/// A composite-key range whose bounds cross (`lo > hi`) is empty, not a
/// panic, in both of its SQL forms.
#[test]
fn inverted_key_range_returns_no_rows() {
    let mut da = MemAccess::new();
    for sql in [
        "CREATE TABLE t (a INT NOT NULL, b INT NOT NULL, PRIMARY KEY (a, b))",
        "INSERT INTO t VALUES (1, 2), (1, 3), (1, 4)",
    ] {
        let p = prepare(sql, da.catalog()).unwrap();
        execute(&p.bound, &[], &mut da, &mut Scratch::default()).unwrap();
    }
    for sql in [
        "SELECT b FROM t WHERE a = 1 AND b BETWEEN 4 AND 2",
        "SELECT b FROM t WHERE a = 1 AND b >= 4 AND b <= 2",
    ] {
        let p = prepare(sql, da.catalog()).unwrap();
        assert_eq!(
            execute(&p.bound, &[], &mut da, &mut Scratch::default())
                .unwrap()
                .rows(),
            vec![],
            "{sql}"
        );
    }
}

#[test]
fn every_seed_statement_prepares() {
    let da = catalog();
    for sql in STATEMENTS {
        prepare(sql, da.catalog()).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

/// Every nesting form the parser recursed on without bound: parentheses,
/// `NOT` and unary minus each overflowed the stack (an abort, not even a
/// panic) at 100 000 levels, and a long `AND` chain built a tree as deep
/// that the binder and the tree's drop overflowed on.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let da = catalog();
    let n = 100_000;
    for sql in [
        format!(
            "SELECT c FROM sbtest1 WHERE id = {}1{}",
            "(".repeat(n),
            ")".repeat(n)
        ),
        format!("SELECT c FROM sbtest1 WHERE {}id = 1", "NOT ".repeat(n)),
        format!("SELECT c FROM sbtest1 WHERE id = {}1", "- ".repeat(n)),
        format!(
            "SELECT c FROM sbtest1 WHERE {}id = 1",
            "id = 1 AND ".repeat(n)
        ),
        format!("SELECT {}1 FROM sbtest1", "1 + ".repeat(n)),
    ] {
        assert!(parse(&sql).is_err(), "{}", &sql[..60]);
        assert!(prepare(&sql, da.catalog()).is_err());
    }
}

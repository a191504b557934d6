//! Differential testing: a random sequence of SQL statements executed both
//! on the distributed GlobalDB cluster (primary reads, real sharding, 2PC,
//! replication) and on the single-node reference engine (`MemAccess`) must
//! produce identical results — rows, counts, and error kinds.

use gaussdb_global::sqlengine::access::MemAccess;
use gaussdb_global::sqlengine::{execute, prepare, DataAccess, Scratch};
use gaussdb_global::{Cluster, ClusterConfig, Datum, RoutingPolicy, SimDuration, SimTime};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
enum Op {
    Insert { k: i64, cat: i64, v: i64 },
    Update { k: i64, v: i64 },
    BumpWhereCat { cat: i64, delta: i64 },
    Delete { k: i64 },
    PointSelect { k: i64 },
    RangeSelect { lo: i64, hi: i64 },
    IndexSelect { cat: i64 },
    Aggregate,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..30, 0i64..4, 0i64..100).prop_map(|(k, cat, v)| Op::Insert { k, cat, v }),
        (0i64..30, 0i64..100).prop_map(|(k, v)| Op::Update { k, v }),
        (0i64..4, -5i64..5).prop_map(|(cat, delta)| Op::BumpWhereCat { cat, delta }),
        (0i64..30).prop_map(|k| Op::Delete { k }),
        (0i64..30).prop_map(|k| Op::PointSelect { k }),
        (0i64..30, 0i64..30).prop_map(|(a, b)| Op::RangeSelect {
            lo: a.min(b),
            hi: a.max(b)
        }),
        (0i64..4).prop_map(|cat| Op::IndexSelect { cat }),
        Just(Op::Aggregate),
    ]
}

const DDL: &str = "CREATE TABLE t (k INT NOT NULL, cat INT, v INT, PRIMARY KEY (k)) \
                   DISTRIBUTE BY HASH(k)";
const IDX: &str = "CREATE INDEX t_by_cat ON t (cat)";

fn op_sql(op: &Op) -> (String, Vec<Datum>) {
    match op {
        Op::Insert { k, cat, v } => (
            "INSERT INTO t VALUES (?, ?, ?)".into(),
            vec![Datum::Int(*k), Datum::Int(*cat), Datum::Int(*v)],
        ),
        Op::Update { k, v } => (
            "UPDATE t SET v = ? WHERE k = ?".into(),
            vec![Datum::Int(*v), Datum::Int(*k)],
        ),
        Op::BumpWhereCat { cat, delta } => (
            "UPDATE t SET v = v + ? WHERE cat = ?".into(),
            vec![Datum::Int(*delta), Datum::Int(*cat)],
        ),
        Op::Delete { k } => ("DELETE FROM t WHERE k = ?".into(), vec![Datum::Int(*k)]),
        Op::PointSelect { k } => (
            "SELECT k, cat, v FROM t WHERE k = ?".into(),
            vec![Datum::Int(*k)],
        ),
        Op::RangeSelect { lo, hi } => (
            "SELECT k, v FROM t WHERE k BETWEEN ? AND ? ORDER BY k".into(),
            vec![Datum::Int(*lo), Datum::Int(*hi)],
        ),
        Op::IndexSelect { cat } => (
            "SELECT k, v FROM t WHERE cat = ? ORDER BY k".into(),
            vec![Datum::Int(*cat)],
        ),
        Op::Aggregate => (
            "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t".into(),
            vec![],
        ),
    }
}

/// Normalized outcome for comparison.
#[derive(Debug, PartialEq)]
enum Outcome {
    Rows(Vec<Vec<Datum>>),
    Count(u64),
    Error(&'static str),
}

fn kind(e: &gaussdb_global::GdbError) -> &'static str {
    use gaussdb_global::GdbError::*;
    match e {
        Schema(_) => "schema",
        Parse(_) => "parse",
        Plan(_) => "plan",
        Execution(_) => "execution",
        TxnAborted(_) => "aborted",
        WriteConflict(_) => "conflict",
        NodeUnavailable(_) => "unavailable",
        DuplicateKey(_) => "duplicate",
        NotFound(_) => "notfound",
        StaleRoute(_) => "stale_route",
        Internal(_) => "internal",
    }
}

fn run_differential(ops: &[Op], seed: u64) {
    // Reference: single-node in-memory engine.
    let mut reference = MemAccess::new();
    // One scratch for every reference statement, as a transaction's.
    let mut scratch = Scratch::default();
    execute(
        &prepare(DDL, reference.catalog()).unwrap().bound,
        &[],
        &mut reference,
        &mut scratch,
    )
    .unwrap();
    execute(
        &prepare(IDX, reference.catalog()).unwrap().bound,
        &[],
        &mut reference,
        &mut scratch,
    )
    .unwrap();

    // System under test: the distributed cluster with exact primary reads.
    let mut cluster = Cluster::new(
        ClusterConfig::globaldb_three_city()
            .with_seed(seed)
            .with_routing(RoutingPolicy::Primary),
    );
    cluster.ddl(DDL).unwrap();
    cluster.ddl(IDX).unwrap();

    let mut at = SimTime::from_millis(10);
    for (i, op) in ops.iter().enumerate() {
        let (sql, params) = op_sql(op);

        let expected = {
            let prepared = prepare(&sql, reference.catalog()).unwrap();
            match execute(&prepared.bound, &params, &mut reference, &mut scratch) {
                Ok(out) => match out {
                    gaussdb_global::ExecOutput::Rows(rows) => {
                        Outcome::Rows(rows.into_iter().map(|r| r.0).collect())
                    }
                    gaussdb_global::ExecOutput::Count(c) => Outcome::Count(c),
                },
                Err(e) => Outcome::Error(kind(&e)),
            }
        };

        // Strictly serial execution: the next statement begins only after
        // the previous one's commit acknowledged (matching the sequential
        // reference engine).
        let actual = match cluster.execute_sql(i % 3, at, &sql, &params) {
            Ok((out, outcome)) => {
                at = outcome.completed_at + SimDuration::from_millis(1);
                match out {
                    gaussdb_global::ExecOutput::Rows(rows) => {
                        Outcome::Rows(rows.into_iter().map(|r| r.0).collect())
                    }
                    gaussdb_global::ExecOutput::Count(c) => Outcome::Count(c),
                }
            }
            Err(e) => {
                at += SimDuration::from_millis(1);
                Outcome::Error(kind(&e))
            }
        };
        assert_eq!(actual, expected, "divergence at op {i}: {op:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn cluster_matches_reference(
        ops in proptest::collection::vec(arb_op(), 1..50),
        seed in 0u64..1000,
    ) {
        run_differential(&ops, seed);
    }
}

/// A long deterministic mixed sequence as a plain regression test (runs on
/// every `cargo test` without proptest shrink overhead).
#[test]
fn long_deterministic_sequence() {
    let mut rng = SmallRng::seed_from_u64(2024);
    use rand::Rng;
    let ops: Vec<Op> = (0..200)
        .map(|_| match rng.gen_range(0..8) {
            0 => Op::Insert {
                k: rng.gen_range(0..30),
                cat: rng.gen_range(0..4),
                v: rng.gen_range(0..100),
            },
            1 => Op::Update {
                k: rng.gen_range(0..30),
                v: rng.gen_range(0..100),
            },
            2 => Op::BumpWhereCat {
                cat: rng.gen_range(0..4),
                delta: rng.gen_range(-5..5),
            },
            3 => Op::Delete {
                k: rng.gen_range(0..30),
            },
            4 => Op::PointSelect {
                k: rng.gen_range(0..30),
            },
            5 => {
                let a = rng.gen_range(0i64..30);
                let b = rng.gen_range(0i64..30);
                Op::RangeSelect {
                    lo: a.min(b),
                    hi: a.max(b),
                }
            }
            6 => Op::IndexSelect {
                cat: rng.gen_range(0..4),
            },
            _ => Op::Aggregate,
        })
        .collect();
    run_differential(&ops, 77);
}

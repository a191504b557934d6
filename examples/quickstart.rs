//! Quickstart: create a geo-distributed cluster, run SQL, read from
//! replicas.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
#![allow(clippy::inconsistent_digit_grouping)] // money literals read as dollars_cents

use globaldb::{Cluster, ClusterConfig, Datum, SimDuration, SimTime};

fn main() {
    // A GlobalDB cluster in the paper's Three-City geometry: GClock
    // timestamps, asynchronous LZ4-compressed replication, read-on-replica.
    let mut cluster = Cluster::new(ClusterConfig::globaldb_three_city());

    cluster
        .ddl(
            "CREATE TABLE accounts (
                id INT NOT NULL,
                owner TEXT,
                balance DECIMAL,
                PRIMARY KEY (id)
             ) DISTRIBUTE BY HASH(id)",
        )
        .expect("create table");

    // Writes go to the shard primaries; redo ships to replicas in the
    // other two cities in the background.
    let t0 = SimTime::from_millis(10);
    for (i, owner) in ["ada", "grace", "edsger", "barbara"].iter().enumerate() {
        let (_, outcome) = cluster
            .execute_sql(
                0,
                t0 + SimDuration::from_millis(i as u64 * 5),
                "INSERT INTO accounts VALUES (?, ?, ?)",
                &[
                    Datum::Int(i as i64),
                    Datum::from(*owner),
                    Datum::Decimal(1_000_00),
                ],
            )
            .expect("insert");
        println!(
            "insert #{i}: commit ts {:?}, latency {}",
            outcome.commit_ts.unwrap(),
            outcome.latency
        );
    }

    // A read-write transaction with multiple statements.
    let debit = cluster
        .prepare("UPDATE accounts SET balance = balance - ? WHERE id = ?")
        .unwrap();
    let credit = cluster
        .prepare("UPDATE accounts SET balance = balance + ? WHERE id = ?")
        .unwrap();
    let ((), outcome) = cluster
        .run_transaction(0, SimTime::from_millis(100), false, false, |txn| {
            txn.execute(&debit, &[Datum::Decimal(250_00), Datum::Int(0)])?;
            txn.execute(&credit, &[Datum::Decimal(250_00), Datum::Int(1)])?;
            Ok(())
        })
        .expect("transfer");
    println!(
        "transfer: wrote shards {:?} ({}), latency {}",
        outcome.shards_written,
        if outcome.shards_written.len() > 1 {
            "2PC"
        } else {
            "single-shard"
        },
        outcome.latency
    );

    // Let replication and the RCP catch up, then read from a replica.
    cluster.run_until(SimTime::from_millis(600));
    let sel = cluster
        .prepare("SELECT owner, balance FROM accounts WHERE id = ?")
        .unwrap();
    let ((), outcome) = cluster
        .run_transaction(1, SimTime::from_millis(610), true, true, |txn| {
            println!(
                "read-only txn: ROR={} snapshot={:?}",
                txn.is_ror(),
                txn.snapshot()
            );
            for id in 0..2 {
                let out = txn.execute(&sel, &[Datum::Int(id)])?;
                let rows = out.rows();
                println!("  account {id}: {} has {}", rows[0].0[0], rows[0].0[1]);
            }
            Ok(())
        })
        .expect("ror read");
    println!(
        "served from replica: {} (latency {})",
        outcome.used_replica, outcome.latency
    );
    println!(
        "cluster stats: {} replica reads, {} primary reads, {} heartbeats",
        cluster.db.stats().reads_on_replica,
        cluster.db.stats().reads_on_primary,
        cluster.db.stats().heartbeats_sent
    );
}

//! Geo-replication tour: asynchronous log shipping, the Replica
//! Consistency Point, bounded-staleness reads, and replica failover
//! (paper §IV).
//!
//! ```text
//! cargo run --release --example geo_replication
//! ```

use globaldb::{Cluster, ClusterConfig, Datum, RoutingPolicy, SimDuration, SimTime, Timestamp};

fn main() {
    let mut cluster = Cluster::new(ClusterConfig::globaldb_three_city());
    cluster
        .ddl(
            "CREATE TABLE sensors (id INT NOT NULL, site TEXT, reading INT, \
             PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)",
        )
        .unwrap();
    let table = cluster.db.catalog().table_by_name("sensors").unwrap().id;
    let rows: Vec<gdb_model::Row> = (0..1000i64)
        .map(|i| {
            gdb_model::Row(vec![
                Datum::Int(i),
                Datum::from(format!("site-{}", i % 7)),
                Datum::Int(0),
            ])
        })
        .collect();
    cluster.bulk_load(table, rows).unwrap();
    cluster.finish_load();

    // Write a burst of updates at t=100ms.
    for i in 0..50i64 {
        cluster
            .execute_sql(
                0,
                SimTime::from_millis(100) + SimDuration::from_micros(i as u64 * 200),
                "UPDATE sensors SET reading = ? WHERE id = ?",
                &[Datum::Int(42), Datum::Int(i)],
            )
            .unwrap();
    }

    // Watch the RCP converge: right after the burst the replicas lag; the
    // RCP (min over replicas of max applied commit ts) trails reality by
    // the shipping+replay delay, then catches up.
    println!("RCP convergence after a write burst:");
    for ms in [105u64, 120, 150, 200, 400] {
        cluster.run_until(SimTime::from_millis(ms));
        let rcp = cluster.db.cn_rcp(1);
        let lag_ms = (ms as f64 * 1000.0 - rcp.as_micros() as f64) / 1000.0;
        println!("  t={ms:>4} ms   RCP={rcp:?}   lag≈{lag_ms:.1} ms");
    }

    // Strongly consistent replica read at the RCP snapshot.
    let sel = cluster
        .prepare("SELECT reading FROM sensors WHERE id = ?")
        .unwrap();
    let ((), o) = cluster
        .run_transaction(1, SimTime::from_millis(450), true, true, |txn| {
            let out = txn.execute(&sel, &[Datum::Int(7)])?;
            println!(
                "replica read at snapshot {:?}: reading = {}",
                txn.snapshot(),
                out.rows()[0].0[0]
            );
            Ok(())
        })
        .unwrap();
    println!(
        "  served by replica: {}, latency {}",
        o.used_replica, o.latency
    );

    // Bounded staleness: demand ≤ 5 ms fresh data — local replicas may be
    // too stale; the skyline then routes to the primary instead.
    cluster.db.set_routing(RoutingPolicy::ReadOnReplica {
        freshness_bound: Some(SimDuration::from_millis(5)),
    });
    let ((), o) = cluster
        .run_transaction(1, SimTime::from_millis(460), true, true, |txn| {
            txn.execute(&sel, &[Datum::Int(7)]).map(|_| ())
        })
        .unwrap();
    println!(
        "with a 5 ms freshness bound: served by replica = {} (falls back to \
         primary when replicas are too stale)",
        o.used_replica
    );
    cluster.db.set_routing(RoutingPolicy::ReadOnReplica {
        freshness_bound: None,
    });

    // Failover: kill every replica in the reader's region — reads keep
    // working from primaries/remote replicas; the skyline drops dead nodes.
    let reader_region = cluster.db.cns()[1].region;
    let dead: Vec<_> = cluster
        .db
        .shards()
        .iter()
        .flat_map(|s| s.replicas.iter())
        .filter(|r| r.region == reader_region)
        .map(|r| r.node)
        .collect();
    println!("killing {} replicas in the reader's region...", dead.len());
    for n in dead {
        cluster.db.topo_mut().set_node_down(n, true);
    }
    let ((), o) = cluster
        .run_transaction(1, SimTime::from_millis(480), true, true, |txn| {
            txn.execute(&sel, &[Datum::Int(7)]).map(|_| ())
        })
        .unwrap();
    println!(
        "after failover: query still answered (latency {}, replica={})",
        o.latency, o.used_replica
    );

    let _ = Timestamp::ZERO;
}

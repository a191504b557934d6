//! Additional cluster behaviours: statement atomicity, GTM-mode ROR,
//! automatic clock-failure fallback, and freshness-bound accounting.

use globaldb::{
    Cluster, ClusterConfig, Datum, GdbError, SimDuration, SimTime, TmMode, TransitionDirection,
};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

fn kv_cluster(config: ClusterConfig) -> Cluster {
    let mut c = Cluster::new(config);
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    let table = c.db.catalog().table_by_name("kv").unwrap().id;
    c.bulk_load(
        table,
        (0..50i64)
            .map(|i| gdb_model::Row(vec![Datum::Int(i), Datum::Int(0)]))
            .collect(),
    )
    .unwrap();
    c.finish_load();
    c
}

/// Multi-row INSERT is one transaction on the cluster: a duplicate in the
/// middle rolls the whole statement back.
#[test]
fn multi_row_insert_is_atomic() {
    let mut c = kv_cluster(ClusterConfig::globaldb_one_region());
    let err = c
        .execute_sql(
            0,
            t(10),
            "INSERT INTO kv VALUES (100, 1), (3, 1), (101, 1)",
            &[],
        )
        .unwrap_err();
    assert!(matches!(err, GdbError::DuplicateKey(_)));
    // Neither 100 nor 101 exists: the statement rolled back atomically.
    let (out, _) = c
        .execute_sql(
            0,
            t(50),
            "SELECT COUNT(*) FROM kv WHERE k BETWEEN 100 AND 101",
            &[],
        )
        .unwrap();
    assert_eq!(out.scalar_int(), Some(0));
}

/// ROR also works in centralized GTM mode, using the GTM-rate staleness
/// estimator (paper §IV-B: "When running under GTM mode, we estimate the
/// staleness based on the gap between the RCP and the last committed
/// timestamp, and the rate at which new timestamps were issued").
#[test]
fn ror_in_gtm_mode() {
    let mut config = ClusterConfig::globaldb_one_region();
    config.tm_mode = TmMode::Gtm;
    let mut c = kv_cluster(config);
    // Generate commits so the GTM issue rate is non-zero.
    for i in 0..30u64 {
        c.execute_sql(
            (i % 3) as usize,
            t(10) + SimDuration::from_millis(i * 5),
            "UPDATE kv SET v = v + 1 WHERE k = ?",
            &[Datum::Int((i % 50) as i64)],
        )
        .unwrap();
    }
    c.run_until(t(800));
    // Pick a key whose shard primary is NOT co-hosted with the reading CN
    // (otherwise reading the local primary is the optimal choice).
    let table = c.db.catalog().table_by_name("kv").unwrap().clone();
    let cn1_host = c.db.topo().node_host(c.db.cns()[1].node);
    let key = (0..50i64)
        .find(|&k| {
            let s = table
                .shard_of_pk(&gdb_model::RowKey::single(k), c.db.shards().len() as u16)
                .0 as usize;
            c.db.topo().node_host(c.db.shards()[s].primary) != cn1_host
        })
        .expect("remote-shard key");
    let sel = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    let ((), o) = c
        .run_transaction(1, t(810), true, true, |txn| {
            assert!(txn.is_ror());
            txn.execute(&sel, &[Datum::Int(key)]).map(|_| ())
        })
        .unwrap();
    assert!(o.used_replica, "GTM-mode ROR must serve from replicas");
    assert!(o.snapshot > globaldb::Timestamp::ZERO);
}

/// A clock synchronization failure triggers the automatic online fallback
/// to GTM mode (paper: "keeps the system fully operational in the event of
/// a clock synchronization failure").
#[test]
fn clock_failure_auto_falls_back_to_gtm() {
    let mut c = kv_cluster(ClusterConfig::globaldb_one_region());
    assert_eq!(c.db.cn_mode(0), TmMode::GClock);
    // Clock fault on CN 1.
    c.db.cns_mut()[1].tm.gclock.set_healthy(false);
    // The heartbeat watchdog picks it up and drives the transition.
    c.run_until(t(2000));
    assert_eq!(
        c.db.last_transition_completed(),
        Some(TransitionDirection::ToGtm)
    );
    for cn in 0..3 {
        assert_eq!(c.db.cn_mode(cn), TmMode::Gtm);
    }
    // Writes keep working afterwards.
    c.execute_sql(1, t(2010), "UPDATE kv SET v = 9 WHERE k = 1", &[])
        .unwrap();
}

/// A freshness bound only the primary meets sends a read-only
/// transaction's reads to the primary.
#[test]
fn a_freshness_bound_only_the_primary_meets_reads_the_primary() {
    let mut config = ClusterConfig::globaldb_one_region();
    config.routing = globaldb::RoutingPolicy::ReadOnReplica {
        // Nothing is ever this fresh except the primary itself.
        freshness_bound: Some(SimDuration::from_nanos(1)),
    };
    let mut c = kv_cluster(config);
    c.run_until(t(300));
    let sel = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
    let ((), o) = c
        .run_transaction(0, t(310), true, true, |txn| {
            txn.execute(&sel, &[Datum::Int(1)]).map(|_| ())
        })
        .unwrap();
    assert!(!o.used_replica, "1ns bound forces primary reads");
}

/// Replica freshness is a first-class metrics surface: the snapshot
/// carries one RCP-lag gauge and one log-ship backlog gauge per
/// (shard, replica), under the names the operator console reads.
#[test]
fn metrics_snapshot_carries_replica_lag_gauges() {
    let mut c = kv_cluster(ClusterConfig::globaldb_three_city());
    c.execute_sql(0, t(100), "UPDATE kv SET v = 1 WHERE k = 7", &[])
        .unwrap();
    c.run_until(t(500));
    let snap = c.metrics_snapshot();
    for s in 0..c.db.shards().len() {
        for r in 0..c.db.shards()[s].replicas.len() {
            let lag = gdb_replication::metrics::replica_rcp_lag_gauge(s, r);
            let backlog = gdb_replication::metrics::replica_backlog_gauge(s, r);
            let lag_v = snap
                .gauge(&lag)
                .unwrap_or_else(|| panic!("missing gauge {lag}"));
            assert!(lag_v >= 0.0);
            assert!(snap.gauge(&backlog).is_some(), "missing gauge {backlog}");
        }
    }
    // The exact names are an API other tooling greps for; pin them.
    assert!(snap.gauge("replication.replica_rcp_lag_us.s0.r0").is_some());
    assert!(snap
        .gauge("replication.replica_backlog_records.s0.r0")
        .is_some());
}

//! Criterion microbenchmarks for the hot paths of the reproduction:
//! timestamp oracles, RCP computation, skyline selection, redo
//! encode/compress, MVCC visibility, and SQL parse/bind.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gdb_compress::Codec;
use gdb_consistency::RcpCalculator;
use gdb_model::{
    ColumnDef, DataType, Datum, Row, RowKey, SchemaBuilder, TableId, Timestamp, TxnId,
};
use gdb_router::{NodeMetrics, Skyline};
use gdb_simclock::{GClock, GClockConfig};
use gdb_simnet::{NetNodeId, SimDuration, SimTime};
use gdb_sqlengine::DataAccess;
use gdb_storage::Table;
use gdb_txnmgr::GtmServer;
use gdb_wal::{record::decode_all, RedoBuffer, RedoPayload};

fn bench_timestamp_oracles(c: &mut Criterion) {
    let mut group = c.benchmark_group("timestamps");
    group.bench_function("gtm_commit", |b| {
        let mut gtm = GtmServer::new();
        b.iter(|| black_box(gtm.commit_gtm().unwrap()));
    });
    group.bench_function("gclock_commit", |b| {
        let mut g = GClock::new(1, 120.0, GClockConfig::default());
        g.sync(SimTime::from_secs(1));
        let now = SimTime::from_secs(1) + SimDuration::from_micros(500);
        b.iter(|| black_box(g.commit_timestamp(now)));
    });
    group.bench_function("dual_commit", |b| {
        let mut gtm = GtmServer::new();
        b.iter(|| black_box(gtm.commit_dual(Timestamp(1_000_000))));
    });
    group.finish();
}

fn bench_rcp(c: &mut Criterion) {
    c.bench_function("rcp_compute_12_replicas", |b| {
        let mut rcp = RcpCalculator::new((0..12).collect());
        for i in 0..12 {
            rcp.report(i, Timestamp(1000 + i as u64));
        }
        b.iter(|| {
            rcp.report(5, Timestamp(2000));
            black_box(rcp.compute())
        });
    });
}

fn bench_skyline(c: &mut Criterion) {
    let nodes: Vec<NodeMetrics> = (0..12)
        .map(|i| NodeMetrics {
            node: NetNodeId(i),
            staleness: SimDuration::from_millis((i as u64 * 13) % 80),
            latency: SimDuration::from_millis(1 + (i as u64 * 7) % 50),
            load: (i as f64) / 12.0,
            healthy: i % 7 != 3,
        })
        .collect();
    c.bench_function("skyline_compute_select_12_nodes", |b| {
        b.iter(|| {
            let sky = Skyline::compute(black_box(&nodes));
            black_box(sky.select(Some(SimDuration::from_millis(60))))
        });
    });
}

fn redo_batch() -> Vec<u8> {
    let mut buf = RedoBuffer::new();
    for i in 0..256u64 {
        buf.append(
            TxnId(i),
            RedoPayload::Insert {
                table: TableId(3),
                key: RowKey::new(vec![Datum::Int(i as i64 % 32), Datum::Int(i as i64)]),
                row: Row(vec![
                    Datum::Int(i as i64),
                    Datum::from(format!("warehouse-{} payload item", i % 600)),
                    Datum::Decimal(i as i64 * 100),
                ]),
            },
        );
        buf.append(
            TxnId(i),
            RedoPayload::Commit {
                commit_ts: Timestamp(i + 1),
            },
        );
    }
    buf.batch_from(gdb_wal::Lsn(0), 10_000).encode()
}

fn bench_redo(c: &mut Criterion) {
    let wire = redo_batch();
    let mut group = c.benchmark_group("redo");
    group.bench_function("decode_512_records", |b| {
        b.iter(|| black_box(decode_all(&wire).unwrap()));
    });
    group.bench_function("lz4_compress_batch", |b| {
        b.iter(|| black_box(Codec::Lz4.encode(&wire)));
    });
    let compressed = Codec::Lz4.encode(&wire);
    group.bench_function("lz4_decompress_batch", |b| {
        b.iter(|| black_box(Codec::Lz4.decode(&compressed).unwrap()));
    });
    group.finish();
}

fn bench_mvcc(c: &mut Criterion) {
    let mut table = Table::new();
    for key in 0..1_000i64 {
        for v in 0..8u64 {
            table
                .install_version(
                    &RowKey::single(key),
                    Some(Row(vec![Datum::Int(key), Datum::Int(v as i64)])),
                    Timestamp(10 + v * 10),
                    SimTime::ZERO,
                )
                .unwrap();
        }
    }
    let mut group = c.benchmark_group("mvcc");
    group.bench_function("point_read_mid_snapshot", |b| {
        let key = RowKey::single(500i64);
        b.iter(|| black_box(table.read(&key, Timestamp(45))));
    });
    group.bench_function("range_100_keys", |b| {
        let lo = RowKey::single(400i64);
        let hi = RowKey::single(499i64);
        b.iter(|| black_box(table.range(Some(&lo), Some(&hi), Timestamp(45)).len()));
    });
    group.finish();
}

fn bench_sql(c: &mut Criterion) {
    let mut catalog = gdb_storage::Catalog::new();
    catalog
        .create_table(
            SchemaBuilder::new("stock")
                .column(ColumnDef::new("s_w_id", DataType::Int).not_null())
                .column(ColumnDef::new("s_i_id", DataType::Int).not_null())
                .column(ColumnDef::new("s_quantity", DataType::Int))
                .primary_key(&["s_w_id", "s_i_id"])
                .build(TableId(0))
                .unwrap(),
        )
        .unwrap();
    let sql = "SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ? FOR UPDATE";
    let mut group = c.benchmark_group("sql");
    group.bench_function("parse_bind_point_select", |b| {
        b.iter(|| black_box(gdb_sqlengine::prepare(sql, &catalog).unwrap()));
    });
    let prepared = gdb_sqlengine::prepare(sql, &catalog).unwrap();
    group.bench_function("execute_prepared_on_mem", |b| {
        let mut da = gdb_sqlengine::access::MemAccess::new();
        gdb_sqlengine::execute(
            &gdb_sqlengine::prepare(
                "CREATE TABLE stock (s_w_id INT NOT NULL, s_i_id INT NOT NULL, \
                 s_quantity INT, PRIMARY KEY (s_w_id, s_i_id))",
                da.catalog(),
            )
            .unwrap()
            .bound,
            &[],
            &mut da,
        )
        .unwrap();
        let ins =
            gdb_sqlengine::prepare("INSERT INTO stock VALUES (?, ?, ?)", da.catalog()).unwrap();
        for i in 0..1_000i64 {
            gdb_sqlengine::execute(
                &ins.bound,
                &[Datum::Int(1), Datum::Int(i), Datum::Int(50)],
                &mut da,
            )
            .unwrap();
        }
        // The MemAccess catalog allocates its own ids, matching `prepared`.
        b.iter(|| {
            black_box(
                gdb_sqlengine::execute(&prepared.bound, &[Datum::Int(1), Datum::Int(500)], &mut da)
                    .unwrap(),
            )
        });
    });
    group.finish();
}

/// The event-engine hot path: schedule-and-drain mixes, closure and
/// typed-event flavors. Delays are mostly under 8 ms with every 16th
/// hundreds of milliseconds out, matching the cluster's
/// flush/deliver/RCP cadence and its background timers.
fn bench_scheduler(c: &mut Criterion) {
    use gdb_simnet::{Sim, TypedEvent};

    const N: u64 = 64;
    fn delay(i: u64) -> SimDuration {
        // 0..~8ms mix with every 16th event 200+ ms out.
        if i % 16 == 15 {
            SimDuration::from_millis(200 + i)
        } else {
            SimDuration::from_nanos((i * 127_001) % 8_000_000)
        }
    }

    enum Tick {
        Bump,
    }
    impl TypedEvent<u64> for Tick {
        fn fire(self, w: &mut u64, _sim: &mut Sim<u64, Tick>) {
            *w += 1;
        }
    }

    let mut group = c.benchmark_group("scheduler");
    group.bench_function("typed_push_pop_64", |b| {
        let mut sim: Sim<u64, Tick> = Sim::new();
        let mut w = 0u64;
        b.iter(|| {
            for i in 0..N {
                sim.schedule_event_after(delay(i), Tick::Bump);
            }
            while sim.step(&mut w) {}
            black_box(w)
        });
    });
    group.bench_function("closure_push_pop_64", |b| {
        let mut sim: Sim<u64> = Sim::new();
        let mut w = 0u64;
        b.iter(|| {
            for i in 0..N {
                sim.schedule_after(delay(i), |w, _| *w += 1);
            }
            while sim.step(&mut w) {}
            black_box(w)
        });
    });
    group.finish();
}

/// Per-event metrics recording: pre-registered handles (array index)
/// vs the string path (hash each name per call).
fn bench_metrics(c: &mut Criterion) {
    use gdb_obs::MetricsRegistry;

    let mut group = c.benchmark_group("metrics");
    group.bench_function("record_handle", |b| {
        let mut m = MetricsRegistry::default();
        let ticks = m.register_counter("txnmgr.commits");
        let lat = m.register_histogram("txnmgr.latency_us");
        let d = SimDuration::from_micros(850);
        b.iter(|| {
            m.bump(ticks);
            m.record(lat, d);
        });
    });
    group.bench_function("record_string", |b| {
        let mut m = MetricsRegistry::default();
        let d = SimDuration::from_micros(850);
        b.iter(|| {
            m.count("txnmgr.commits", 1);
            m.observe("txnmgr.latency_us", d);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_timestamp_oracles,
    bench_rcp,
    bench_skyline,
    bench_redo,
    bench_mvcc,
    bench_sql,
    bench_scheduler,
    bench_metrics
);
criterion_main!(benches);

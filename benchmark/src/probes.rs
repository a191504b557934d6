//! Isolated probes of each crate's public API: what one operation of a
//! layer costs with nothing else running. They bound what an end-to-end
//! gain from that layer can be, and tell a slow layer from a layer that
//! is called too often.
//!
//! Every probe is a loop over inputs made beforehand from a fixed seed,
//! repeated until it has run for [`MIN_BUSY`].

use crate::stats::Metrics;
use gdb_bench::txnpath::{self, Script};
use gdb_compress::Codec;
use gdb_consistency::RcpCalculator;
use gdb_model::{
    ColumnDef, DataType, Datum, DistributionKind, Row, RowKey, TableSchema, Timestamp, TxnId,
};
use gdb_obs::MetricsRegistry;
use gdb_realnet::wire::{self, Ack, Request};
use gdb_realnet::{FaultController, StaticMembership, TcpTransport, ThreadTransport};
use gdb_replication::{ReplicaApplier, ShippingChannel};
use gdb_router::skyline::{NodeMetrics, Skyline};
use gdb_simclock::{GClock, WallClock};
use gdb_simnet::{NetNodeId, Sim, SimDuration, SimTime, TypedEvent};
use gdb_storage::DataNodeStorage;
use gdb_wal::{GroupCommitWal, LogBatch, RedoBuffer, RedoPayload, RedoRecord};
use gdb_workloads::tpcc;
use globaldb::{Cluster, ClusterConfig, Envelope, RpcKind, Transport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const MIN_BUSY: Duration = Duration::from_millis(200);

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let r = f();
    (r, started.elapsed())
}

/// Runs probes for a minimum busy time each.
struct Prober {
    min_busy: Duration,
}

impl Prober {
    /// Repeat `pass` — which does some operations, times them itself (so
    /// that it can prepare fresh state outside the timed part) and
    /// returns their number and the time they took — and return the
    /// nanoseconds per operation.
    fn ns_per_op(&self, mut pass: impl FnMut() -> (u64, Duration)) -> f64 {
        let (mut ops, mut busy) = (0, Duration::ZERO);
        while busy < self.min_busy {
            let (n, d) = pass();
            ops += n;
            busy += d;
        }
        busy.as_nanos() as f64 / ops as f64
    }

    /// [`Prober::ns_per_op`] for a pass with nothing to prepare.
    fn ns_per(&self, n: u64, mut pass: impl FnMut()) -> f64 {
        self.ns_per_op(|| (n, timed(&mut pass).1))
    }
}

/// The redo stream of the `txn_bench` script: the records a primary
/// seals for shipping, as owned payloads.
fn redo_of(script: &Script) -> RedoBuffer {
    const TEXT: &str = "customer-credit-note: balance carried forward";
    let mut buffer = RedoBuffer::new();
    for (i, writes) in script.0.iter().enumerate() {
        let txn = TxnId(i as u64);
        for w in writes {
            let mut row = vec![Datum::Int(w.value)];
            if w.text.is_some() {
                row.push(Datum::Text(TEXT.into()));
            }
            buffer.append(
                txn,
                RedoPayload::Insert {
                    table: txnpath::TABLES[w.table as usize],
                    key: RowKey::single(w.key as i64),
                    row: Row(row),
                },
            );
        }
        let commit_ts = Timestamp(i as u64 + 1);
        buffer.append(txn, RedoPayload::Commit { commit_ts });
    }
    buffer
}

/// An empty replica storage holding the script's two tables.
fn replica_storage() -> DataNodeStorage {
    let mut storage = DataNodeStorage::new();
    for (i, id) in txnpath::TABLES.into_iter().enumerate() {
        let schema = TableSchema {
            id,
            name: format!("t{i}"),
            columns: vec![
                ColumnDef::new("k", DataType::Int).not_null(),
                ColumnDef::new("v", DataType::Int),
            ],
            primary_key: vec![0],
            distribution_key: vec![0],
            distribution: DistributionKind::Hash,
        };
        storage.create_table(schema).expect("fresh storage");
    }
    storage
}

/// Statement texts of the workloads (`tpcc::txns::Statements`, which keeps
/// its own private, and the two sysbench statements of this benchmark).
const STATEMENTS: [&str; 8] = [
    "SELECT c_discount, c_last, c_credit FROM customer \
     WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
    "UPDATE stock SET s_quantity = ?, s_ytd = ?, s_order_cnt = ?, s_remote_cnt = ? \
     WHERE s_w_id = ? AND s_i_id = ?",
    "INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, NULL, ?, ?)",
    "SELECT c_id, c_first FROM customer \
     WHERE c_w_id = ? AND c_d_id = ? AND c_last = ? ORDER BY c_first",
    "DELETE FROM new_order WHERE no_w_id = ? AND no_d_id = ? AND no_o_id = ?",
    "SELECT COUNT(DISTINCT s_i_id) FROM order_line, stock \
     WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id BETWEEN ? AND ? \
     AND s_w_id = ? AND s_i_id = ol_i_id AND s_quantity < ?",
    "SELECT c FROM sbtest0 WHERE id = ?",
    "UPDATE sbtest0 SET k = k + 1 WHERE id = ?",
];

/// A self-replicating storm of typed events: each schedules one or two
/// more a short virtual time ahead, until the budget is spent.
struct Storm {
    rng: SmallRng,
    budget: u64,
}

struct Tick;

impl TypedEvent<Storm> for Tick {
    fn fire(self, w: &mut Storm, sim: &mut Sim<Storm, Tick>) {
        for _ in 0..w.rng.gen_range(1..=2) {
            if w.budget > 0 {
                w.budget -= 1;
                let ahead = SimDuration::from_nanos(w.rng.gen_range(1_000..8_000_000));
                sim.schedule_event_after(ahead, Tick);
            }
        }
    }
}

/// Round trips of one small envelope through a real transport.
fn rtt_us(p: &Prober, transport: &mut dyn Transport, cluster: &mut Cluster, env: Envelope) -> f64 {
    let ns = p.ns_per(2_000, || {
        for _ in 0..2_000 {
            black_box(transport.deliver(cluster.db.topo_mut(), env)).expect("deliverable");
        }
    });
    transport.shutdown();
    ns / 1e3
}

/// Run every probe. `quick` shortens each to a tenth.
pub fn run(quick: bool) -> Metrics {
    let p = Prober {
        min_busy: if quick { MIN_BUSY / 10 } else { MIN_BUSY },
    };
    let mut m = Metrics::default();

    // A cluster to borrow a realistic topology, route table and catalog
    // from; it runs no transaction here.
    let mut cluster = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(SEED));
    let cn0 = cluster.db.cns()[0].node;
    let remote: NetNodeId = {
        let topo = cluster.db.topo();
        let shards = cluster.db.shards();
        let far = shards
            .iter()
            .find(|s| topo.node_host(s.primary) != topo.node_host(cn0));
        far.expect("a primary on another host").primary
    };
    let env = Envelope {
        kind: RpcKind::DnRead,
        from: cn0,
        to: remote,
        bytes: 128,
    };

    // realnet
    let request = Request {
        kind: RpcKind::DnRead,
        from: cn0,
        to: remote,
        seq: 7,
        declared: 128,
        delay_ns: 0,
    };
    let ack = Ack {
        seq: 7,
        ok: true,
        value: 7,
    };
    let codec_ns = p.ns_per(10_000, || {
        for _ in 0..10_000 {
            let frame = wire::encode_request(black_box(&request));
            black_box(wire::decode_frame(&frame[4..]).expect("own frame"));
            let reply = wire::encode_ack(black_box(&ack));
            black_box(wire::decode_ack(&reply[4..]).expect("own ack"));
        }
    });
    m.push("realnet.wire_codec_ns", codec_ns, "ns");
    let membership = StaticMembership::from_topology(cluster.db.topo());
    let faults = FaultController::default;
    let mut thread = ThreadTransport::launch(membership.clone(), faults(), WallClock::new());
    m.push(
        "realnet.thread_rtt_us",
        rtt_us(&p, &mut thread, &mut cluster, env),
        "us",
    );
    let mut tcp = TcpTransport::launch(membership, faults(), WallClock::new())
        .expect("bind loopback listeners");
    m.push(
        "realnet.tcp_rtt_us",
        rtt_us(&p, &mut tcp, &mut cluster, env),
        "us",
    );

    // replication and compress, on the redo stream of the txn_bench script
    let script = txnpath::generate_script(SEED, 20_000);
    let redo = redo_of(&script);
    let mut batches: Vec<LogBatch> = Vec::new();
    let drain_ns = p.ns_per_op(|| {
        let mut channel = ShippingChannel::new(Codec::Lz4);
        batches.clear();
        let ((), d) = timed(|| {
            while let Some(wire) = channel.drain(&redo) {
                batches.push(wire.batch);
            }
        });
        (redo.len() as u64, d)
    });
    m.push("replication.drain_ns_per_record", drain_ns, "ns");
    let replay_ns = p.ns_per_op(|| {
        let mut applier = ReplicaApplier::new(replica_storage());
        let ((), d) = timed(|| {
            for batch in &batches {
                applier
                    .apply_batch(&batch.records, SimTime::from_micros(batch.first_lsn.0))
                    .expect("replay");
            }
        });
        assert_eq!(applier.records_applied, redo.len() as u64);
        (redo.len() as u64, d)
    });
    m.push("replication.replay_ns_per_record", replay_ns, "ns");
    let raw: Vec<Vec<u8>> = batches.iter().map(LogBatch::encode).collect();
    let raw_bytes: u64 = raw.iter().map(|b| b.len() as u64).sum();
    let wire_batches: Vec<Vec<u8>> = raw.iter().map(|b| Codec::Lz4.encode(b)).collect();
    let encode_ns = p.ns_per(raw_bytes, || {
        for b in &raw {
            black_box(Codec::Lz4.encode(black_box(b)));
        }
    });
    let decode_ns = p.ns_per(raw_bytes, || {
        for w in &wire_batches {
            black_box(Codec::Lz4.decode(black_box(w)).expect("own encoding"));
        }
    });
    // bytes per ns = GB/s; 1 GB/s = 1000 MB/s.
    m.push("compress.encode_mb_s", 1e3 / encode_ns, "MB/s");
    m.push("compress.decode_mb_s", 1e3 / decode_ns, "MB/s");

    // wal: append every record of the stream, commit at each transaction
    // end, sync once per 64 transactions (the shard log's group commit).
    let records: Vec<&RedoRecord> = redo.iter().collect();
    let wal_ns = p.ns_per_op(|| {
        let mut wal = GroupCommitWal::with_window(64);
        let ((), d) = timed(|| {
            for rec in &records {
                wal.append_parts(rec.lsn, rec.txn, rec.payload.as_view());
                if matches!(rec.payload, RedoPayload::Commit { .. }) {
                    wal.commit();
                }
            }
            wal.sync();
        });
        black_box(wal.durable().len());
        (records.len() as u64, d)
    });
    m.push("wal.append_sync_ns_per_record", wal_ns, "ns");

    // storage: the txn_bench hot path (lock, install, log, ship, replay)
    let txnpath_ns = p.ns_per_op(|| {
        let result = txnpath::run_fast(&script, 64);
        (result.committed, result.wall)
    });
    m.push("storage.txnpath_us_per_txn", txnpath_ns / 1e3, "us");

    // router
    let routes = cluster.db.routes();
    let (shards, cns) = (routes.len(), cluster.db.cns().len());
    let route_ns = p.ns_per(3 * 30_000, || {
        for i in 0..30_000usize {
            black_box(routes.primary(black_box(i % shards)));
            black_box(routes.nearest(black_box(i % cns)));
            black_box(routes.check_epoch(black_box(i % shards), 0)).expect("epoch 0 is current");
        }
    });
    m.push("router.route_ns", route_ns, "ns");
    let mut rng = SmallRng::seed_from_u64(SEED);
    let candidates: Vec<NodeMetrics> = (0..3)
        .map(|i| NodeMetrics {
            node: NetNodeId(i),
            staleness: SimDuration::from_micros(rng.gen_range(0..50_000)),
            latency: SimDuration::from_micros(rng.gen_range(200..30_000)),
            load: rng.gen_range(0.0..1.0),
            healthy: true,
        })
        .collect();
    let skyline_ns = p.ns_per(10_000, || {
        for _ in 0..10_000 {
            black_box(Skyline::compute(black_box(&candidates)).select(None));
        }
    });
    m.push("router.skyline_ns", skyline_ns, "ns");

    // consistency: one RCP round over 12 replicas
    let mut rcp = RcpCalculator::new((0..12).collect());
    let mut round = 0u64;
    let rcp_ns = p.ns_per(10_000, || {
        for _ in 0..10_000 {
            round += 1;
            for slot in 0..12u32 {
                rcp.report(slot, Timestamp(round * 100 + slot as u64));
            }
            black_box(rcp.compute());
        }
    });
    m.push("consistency.rcp_compute_ns", rcp_ns, "ns");

    // sqlengine, against a catalog with the workloads' tables
    for ddl in tpcc::schema::ddl() {
        cluster.ddl(ddl).expect("tpcc ddl");
    }
    cluster
        .ddl("CREATE TABLE sbtest0 (id INT NOT NULL, k INT, c TEXT, pad TEXT, PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)")
        .expect("sysbench ddl");
    let statements = STATEMENTS.len() as u64;
    let parse_ns = p.ns_per(100 * statements, || {
        for _ in 0..100 {
            for sql in STATEMENTS {
                black_box(gdb_sqlengine::parser::parse(black_box(sql)).expect("parses"));
            }
        }
    });
    m.push("sqlengine.parse_us", parse_ns / 1e3, "us");
    let catalog = cluster.db.catalog();
    let prepare_ns = p.ns_per(100 * statements, || {
        for _ in 0..100 {
            for sql in STATEMENTS {
                black_box(gdb_sqlengine::prepare(black_box(sql), catalog).expect("prepares"));
            }
        }
    });
    m.push("sqlengine.prepare_us", prepare_ns / 1e3, "us");

    // simnet
    const STORM_EVENTS: u64 = 200_000;
    let storm_ns = p.ns_per_op(|| {
        let mut world = Storm {
            rng: SmallRng::seed_from_u64(SEED),
            budget: STORM_EVENTS - 64,
        };
        let mut sim: Sim<Storm, Tick> = Sim::new();
        for i in 0..64 {
            sim.schedule_event_at(SimTime::from_micros(i * 37), Tick);
        }
        let (fired, d) = timed(|| sim.run_to_completion(&mut world, u64::MAX));
        assert_eq!(fired, STORM_EVENTS);
        (fired, d)
    });
    m.push("simnet.events_per_s", 1e9 / storm_ns, "1/s");
    let one_way_ns = p.ns_per(20_000, || {
        for _ in 0..20_000 {
            black_box(cluster.db.topo_mut().one_way(cn0, remote, 128));
        }
    });
    m.push("simnet.one_way_ns", one_way_ns, "ns");

    // obs
    let mut registry = MetricsRegistry::new();
    let counter = registry.register_counter("probe.counter");
    let hist = registry.register_histogram("probe.hist_us");
    let counter_ns = p.ns_per(100_000, || {
        for _ in 0..100_000 {
            black_box(&mut registry).bump(counter);
        }
    });
    m.push("obs.counter_inc_ns", counter_ns, "ns");
    let hist_ns = p.ns_per(100_000, || {
        for i in 0..100_000u64 {
            black_box(&mut registry).record(hist, SimDuration::from_micros(i % 5_000));
        }
    });
    m.push("obs.hist_record_ns", hist_ns, "ns");
    cluster.run_until(SimTime::from_millis(200));
    let snapshot_ns = p.ns_per(1, || {
        black_box(cluster.metrics_snapshot());
    });
    m.push("obs.snapshot_ms", snapshot_ns / 1e6, "ms");

    // simclock
    let gclock = GClock::new(SEED, 37.0, cluster.db.config().gclock);
    let gclock_ns = p.ns_per(100_000, || {
        for i in 0..100_000u64 {
            black_box(gclock.now_bound(black_box(SimTime::from_micros(i))));
        }
    });
    m.push("simclock.gclock_now_ns", gclock_ns, "ns");

    m
}

//! Deterministic resource budgets for the hot paths.
//!
//! Wall-clock time is measured in one place, `benchmark/`. What *can* be
//! checked by plain `cargo test` on any machine is what a hot path is
//! allowed to cost in allocations, bytes, fsyncs and routing decisions:
//! fixed-seed scripts make those counts exact, so each budget below is an
//! absolute ceiling a little above the measured figure, not a ratio
//! against an older implementation. A regression of the kind the retired
//! speed-up gates caught (a per-transaction clone, a boxed event per
//! tick, per-operation scratch in the router) overshoots its budget by
//! an order of magnitude.
//!
//! The counting allocator is local to this test binary and counts per
//! thread; the harness runs every `#[test]` on its own thread, so
//! parallel tests cannot pollute each other's counts.

use gdb_bench::txnpath::{generate_script, run_fast};
use gdb_model::TableId;
use gdb_obs::{CounterId, HistId, MetricsRegistry};
use gdb_router::RouteTable;
use gdb_simnet::{NetNodeId, Sim, SimDuration, SimTime, TypedEvent};
use gdb_workloads::tpcc::{TpccMix, TpccScale, TpccWorkload};
use gdb_workloads::{KeyDistribution, KeySampler, Workload};
use globaldb::{Cluster, ClusterConfig, Datum, Prepared, Row, RpcKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

// ---- Per-thread counting allocator ----------------------------------------

struct CountingAlloc;

thread_local! {
    // `const` initializers and no destructors: touching these from inside
    // the allocator neither allocates nor races thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    ALLOCS.set(ALLOCS.get() + 1);
    ALLOC_BYTES.set(ALLOC_BYTES.get() + size as u64);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping only touches thread-local `Cell`s.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run `f` and return its result with the allocator calls and bytes this
/// thread requested meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (ALLOCS.get(), ALLOC_BYTES.get());
    let out = f();
    (out, ALLOCS.get() - a0, ALLOC_BYTES.get() - b0)
}

// ---- Storage commit path ---------------------------------------------------

/// 60 000 fixed-seed transactions through the calls a shard makes for
/// them — lock → install → stage redo → group commit → drain + compress
/// → replay — window 64 (measured: 9.79 allocs/txn, 938 fsyncs). Per
/// write that is the key, the installed row, the redo record's row and
/// the replica's drained copy of it; per transaction the replica's
/// pending-write buffer. The ceiling of 1.4 (measured 1.17) this replaced
/// priced a decode-into-scratch pipeline the cluster never ran.
#[test]
fn txn_path_allocation_and_fsync_budget() {
    const TXNS: usize = 60_000;
    const WINDOW: usize = 64;
    let script = generate_script(42, TXNS);
    let (result, allocs, _) = counted(|| run_fast(&script, WINDOW));
    assert_eq!(result.committed, TXNS as u64);
    assert_eq!(result.synced_txns, TXNS as u64, "every commit made durable");
    let per_txn = allocs as f64 / TXNS as f64;
    assert!(
        per_txn <= 10.5,
        "{per_txn:.2} allocs/txn over budget ({allocs} allocs)"
    );
    assert!(
        result.fsyncs <= (TXNS / WINDOW + 1) as u64,
        "{} fsyncs: more than one per {WINDOW}-txn window",
        result.fsyncs
    );
}

// ---- Background events -----------------------------------------------------

/// What the recurring background events (seal, ship, vacuum, replay) may
/// cost, on work counters that do not depend on the machine: each is
/// proportional to the redo handled, none to the state that is resident.
/// The implementations this replaced re-checksummed the open 4 KiB tail
/// page per seal (≈ 2 KiB each here), zeroed all 65 536 match slots per
/// block (655 M), walked every chain per vacuum (100 000) and cloned key
/// and row out of every replayed record (6 allocations per write here).
#[test]
fn background_work_scales_with_redo_not_with_state() {
    use gdb_model::{ColumnDef, DataType, RowKey, SchemaBuilder, TableId, Timestamp, TxnId};
    use gdb_wal::{GroupCommitWal, Lsn, RedoPayload, RedoRecord};

    // Seal: 10 000 one-record group commits walk each byte at most twice
    // (once when appended, once more when its page is re-opened).
    let mut wal = GroupCommitWal::with_window(usize::MAX);
    for i in 0..10_000u64 {
        wal.append(&RedoRecord {
            lsn: Lsn(i),
            txn: TxnId(i),
            payload: RedoPayload::Heartbeat {
                commit_ts: Timestamp(i),
            },
        });
        wal.commit();
        wal.sync();
    }
    assert_eq!(wal.fsyncs, 10_000);
    assert!(
        wal.checksummed_bytes <= 2 * wal.segment().len() as u64,
        "{} bytes checksummed for a {}-byte segment",
        wal.checksummed_bytes,
        wal.segment().len()
    );

    // Ship: 10 000 small blocks through one match table clear nothing.
    let mut table = gdb_compress::MatchTable::default();
    let mut out = Vec::new();
    let block: Vec<u8> = (0..200u32).map(|i| (i * 7 % 251) as u8).collect();
    for _ in 0..10_000 {
        out.clear();
        gdb_compress::compress_into(&block, &mut table, &mut out);
    }
    assert_eq!(table.slots_cleared(), 0);

    // Vacuum: 100 updated keys in a 100 000-row table are 100 chains to
    // look at, and none on an immediate second pass.
    let mut tbl = gdb_storage::Table::new();
    for k in 0..100_000i64 {
        tbl.install_version(
            &RowKey::single(k),
            Some(Row(vec![Datum::Int(k)])),
            Timestamp(1),
            SimTime::ZERO,
        )
        .unwrap();
    }
    for k in 0..100i64 {
        tbl.install_version(
            &RowKey::single(k * 1_000),
            Some(Row(vec![Datum::Int(-k)])),
            Timestamp(2),
            SimTime::ZERO,
        )
        .unwrap();
    }
    assert_eq!(tbl.vacuum(Timestamp(2)), 100);
    assert!(tbl.chains_examined <= 100, "{}", tbl.chains_examined);
    let examined = tbl.chains_examined;
    assert_eq!(tbl.vacuum(Timestamp(2)), 0);
    assert_eq!(tbl.chains_examined, examined, "second pass found work");

    // Replay: an owned stream of single-row updates moves its keys and
    // rows into storage, sharing its keys with the tuple-lock map instead
    // of copying them, and buffers each transaction's writes in a vector
    // a finished one left. Measured: 14 allocations (the maps' growth),
    // bounded at that plus 10 %; 512 (bounded at 538) while each
    // transaction buffered into a new vector; a key copy each was 1 012.
    const UPDATES: i64 = 500;
    let sb_row = |id: i64, k: i64| {
        Row(vec![
            Datum::Int(id),
            Datum::Int(k),
            Datum::from(format!("c-{id:08}")),
            Datum::Text("padpadpadpad".into()),
        ])
    };
    let mut storage = gdb_storage::DataNodeStorage::new();
    storage
        .create_table(
            SchemaBuilder::new("sbtest")
                .column(ColumnDef::new("id", DataType::Int).not_null())
                .column(ColumnDef::new("k", DataType::Int))
                .column(ColumnDef::new("c", DataType::Text))
                .column(ColumnDef::new("pad", DataType::Text))
                .primary_key(&["id"])
                .build(TableId(0))
                .unwrap(),
        )
        .unwrap();
    for id in 0..UPDATES {
        storage
            .apply_put(
                TableId(0),
                &RowKey::single(id),
                sb_row(id, 0),
                Timestamp(1),
                SimTime::ZERO,
            )
            .unwrap();
    }
    let mut stream = Vec::with_capacity(2 * UPDATES as usize);
    for id in 0..UPDATES {
        let txn = TxnId(id as u64);
        for payload in [
            RedoPayload::Update {
                table: TableId(0),
                key: RowKey::single(id),
                new_row: sb_row(id, 1),
            },
            RedoPayload::Commit {
                commit_ts: Timestamp(2 + id as u64),
            },
        ] {
            stream.push(RedoRecord {
                lsn: Lsn(stream.len() as u64),
                txn,
                payload,
            });
        }
    }
    assert_eq!(stream.len(), 1_000);
    let mut applier = gdb_replication::ReplicaApplier::new(storage);
    let (applied, allocs, _) =
        counted(|| applier.apply_batch_owned(stream, SimTime::from_millis(1)));
    applied.unwrap();
    assert_eq!(applier.records_applied, 1_000);
    assert!(
        allocs <= 15,
        "{allocs} allocations replaying {UPDATES} owned updates"
    );
}

// ---- The sysbench table and its bulk load ----------------------------------

/// The fixed-seed three-city cluster with the empty 4-column sysbench
/// table.
fn sbtest_schema() -> (Cluster, TableId) {
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(42));
    c.ddl(
        "CREATE TABLE sbtest (id INT NOT NULL, k INT, c TEXT, pad TEXT, \
         PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)",
    )
    .unwrap();
    let table = c.db.catalog().table_by_name("sbtest").unwrap().id;
    (c, table)
}

/// The sysbench table's rows `1..=rows`.
fn sbtest_rows(rows: i64) -> Vec<Row> {
    (1..=rows)
        .map(|id| {
            Row(vec![
                Datum::Int(id),
                Datum::Int(id % 97),
                Datum::from(format!("c-{id:08}")),
                Datum::Text("padpadpadpad".into()),
            ])
        })
        .collect()
}

/// [`sbtest_schema`] loaded with `rows` rows.
fn sbtest_cluster(rows: i64) -> Cluster {
    let (mut c, table) = sbtest_schema();
    c.bulk_load(table, sbtest_rows(rows)).unwrap();
    c.finish_load();
    c
}

/// What `Cluster::bulk_load` costs per row: the fixed-seed three-city
/// cluster (6 shards, 2 replicas each), the 4-column sysbench table,
/// 20 000 rows built before counting. Per row that is the key, with the
/// loader's own row moved into the primary's version, plus the key
/// B-tree's growth (measured: 1.17). The replicas get their rows from
/// the primaries' snapshots at `finish_load`. Writing each replica's
/// copy here as well, two clones per row, measured 3.52; a vector of
/// target shards per row and a clone for every copy measured 5.52.
#[test]
fn bulk_load_allocation_budget() {
    const ROWS: i64 = 20_000;
    let (mut c, table) = sbtest_schema();
    let rows = sbtest_rows(ROWS);
    let (loaded, allocs, _) = counted(|| c.bulk_load(table, rows).unwrap());
    assert_eq!(loaded, ROWS as usize);
    let per_row = allocs as f64 / ROWS as f64;
    assert!(
        per_row <= 1.40,
        "{per_row:.2} allocs per loaded row over budget"
    );
}

// ---- Log shipping ----------------------------------------------------------

/// What shipping a shard's redo to its two replicas costs in framing and
/// compression, on work counters. Fixed-seed three-city cluster, the
/// 4-column sysbench table, 2 000 single-row updates 50 µs of virtual
/// time apart, so every flush seals a window and both replicas ship it.
/// Each record is framed once, into the durable segment, and each window
/// is compressed once (measured: 1.000 framings per sealed record and
/// 1.000 bytes compressed per durable byte, over 6 660 records and
/// 170 161 bytes). A channel that framed and compressed its own batches
/// cost 3 and 2: one framing into the segment and one per replica.
#[test]
fn log_shipping_frames_and_compresses_each_window_once() {
    const ROWS: i64 = 2_200;
    const UPDATES: u64 = 2_000;
    let mut c = sbtest_cluster(ROWS);
    let update = c
        .prepare("UPDATE sbtest SET k = k + 1 WHERE id = ?")
        .unwrap();
    // (records sealed, durable bytes, records framed by channels, bytes
    // compressed by channels), summed over the shards.
    let work = |c: &Cluster| {
        let mut w = [0u64; 4];
        for shard in c.db.shards() {
            w[0] += shard.log.sealed_head().0;
            w[1] += shard.log.durable().segment().len() as u64;
            for r in &shard.replicas {
                w[2] += r.channel.stats.framed_records;
                w[3] += r.channel.stats.compressed_bytes;
            }
        }
        w
    };
    let before = work(&c);
    let mut rng = SmallRng::seed_from_u64(42);
    let (t0, cns) = (c.now(), c.db.cns().len());
    for i in 0..UPDATES {
        let at = t0 + SimDuration::from_micros(50 * (i + 1));
        c.run_until(at);
        let id = rng.gen_range(1..=ROWS);
        c.execute_prepared(i as usize % cns, at, &update, &[Datum::Int(id)])
            .unwrap();
    }
    c.run_until(c.now() + SimDuration::from_secs(1));
    let after = work(&c);
    let [sealed, durable, framed, compressed] = [0, 1, 2, 3].map(|i| after[i] - before[i]);
    assert!(sealed >= 3 * UPDATES, "{sealed} records sealed");
    let framings = (sealed + framed) as f64 / sealed as f64;
    assert!(framings <= 1.0, "{framings:.3} framings per sealed record");
    let compressions = compressed as f64 / durable as f64;
    assert!(
        compressions <= 1.02,
        "{compressions:.3} bytes compressed per durable byte shipped"
    );
    for shard in c.db.shards() {
        for r in &shard.replicas {
            assert_eq!(r.channel.backlog(shard.log.sealed()), 0, "all shipped");
        }
    }
}

// ---- Event engine ----------------------------------------------------------
// A self-replicating storm: each tick bumps one counter and records one
// histogram sample (the per-event metrics cost), then schedules 1-2
// children while the budget lasts. Delays mix the scales a cluster run
// schedules: mostly message-scale (0.3-8 ms), some under 0.2 ms, a few
// background-scale (150-600 ms).

struct Storm {
    rng: SmallRng,
    /// Events still allowed to be scheduled.
    budget: u64,
    fired: u64,
    metrics: MetricsRegistry,
    ticks: CounterId,
    delay_us: HistId,
}

const STORM_TICKS: &str = "engine.storm.ticks";

enum StormEvent {
    Tick { delay: SimDuration },
}

impl TypedEvent<Storm> for StormEvent {
    fn fire(self, w: &mut Storm, sim: &mut Sim<Storm, StormEvent>) {
        let StormEvent::Tick { delay } = self;
        w.fired += 1;
        w.metrics.bump(w.ticks);
        w.metrics.record(w.delay_us, delay);
        let fanout = if w.rng.gen_bool(0.55) { 2 } else { 1 };
        for _ in 0..fanout {
            if w.budget == 0 {
                break;
            }
            w.budget -= 1;
            let roll = w.rng.gen_range(0u32..100);
            let nanos = if roll < 80 {
                w.rng.gen_range(300_000u64..8_000_000)
            } else if roll < 96 {
                w.rng.gen_range(0u64..200_000)
            } else {
                w.rng.gen_range(150_000_000u64..600_000_000)
            };
            let d = SimDuration::from_nanos(nanos);
            sim.schedule_event_after(d, StormEvent::Tick { delay: d });
        }
    }
}

/// 2 M typed events through `Sim` (measured: 19 allocations — the queue
/// and the histogram growing to their steady size; 2 606 with the timing
/// wheel this heap replaced). One boxed closure per event would be
/// 2 000 000.
#[test]
fn typed_event_storm_allocation_budget() {
    const EVENTS: u64 = 2_000_000;
    const SEEDS: u64 = 64;
    let mut metrics = MetricsRegistry::default();
    let ticks = metrics.register_counter(STORM_TICKS);
    let delay_us = metrics.register_histogram("engine.storm.delay_us");
    let mut world = Storm {
        rng: SmallRng::seed_from_u64(42),
        budget: EVENTS - SEEDS,
        fired: 0,
        metrics,
        ticks,
        delay_us,
    };
    let mut sim: Sim<Storm, StormEvent> = Sim::new();
    for i in 0..SEEDS {
        sim.schedule_event_at(
            SimTime::from_micros(i * 37),
            StormEvent::Tick {
                delay: SimDuration::ZERO,
            },
        );
    }
    let (_, allocs, _) = counted(|| sim.run_to_completion(&mut world, u64::MAX));
    // Event accounting: everything scheduled fired exactly once.
    assert_eq!(world.fired, EVENTS);
    assert_eq!(sim.events_executed(), EVENTS);
    assert_eq!(world.metrics.snapshot().counter(STORM_TICKS), Some(EVENTS));
    assert!(
        allocs <= 32,
        "{allocs} allocations for {EVENTS} events ({:.4}/event)",
        allocs as f64 / EVENTS as f64
    );
}

// ---- Routing + per-terminal driver state -----------------------------------

const SHARDS: usize = 64;
const REGIONS: usize = 5;
const TERMINALS: usize = 5_000;
const KEYS: i64 = 1_024;
const EPOCHS: usize = 4;
const OPS_PER_EPOCH: usize = 8;
const MOVES_PER_EPOCH: usize = 8;
/// Every Nth op also asks for the CN's nearest shard (the read-only
/// anchor pick).
const NEAREST_EVERY: usize = 16;
const ROUTE_SEED: u64 = 42;
/// Recomputed at the commit that retired `scale_bench` (the copy in its
/// last JSON artifact had been rounded through `f64`).
const ROUTING_DIGEST: u64 = 6_713_003_561_629_948_585;

/// FNV-1a fold of one routing decision.
fn fold(digest: u64, v: u64) -> u64 {
    (digest ^ v).wrapping_mul(0x1000_0000_01b3)
}

struct RouteRun {
    ops: u64,
    stale: u64,
    digest: u64,
}

/// The fixed-seed routing script: every terminal draws Zipfian keys from
/// one shared sampler, hashes them to shards, validates its route epoch
/// (refreshing once on a stale reject) and periodically asks for the
/// nearest shard; after each epoch a batch of primaries moves and the
/// table is rebuilt. Every decision is folded into the digest.
fn run_routing(
    placement: &[(NetNodeId, u64)],
    cns: &[NetNodeId],
    rtt: &impl Fn(NetNodeId, NetNodeId) -> SimDuration,
) -> RouteRun {
    let mut placement = placement.to_vec();
    let mut version = 0u64;
    let mut table = RouteTable::build(version, &placement, cns, rtt);
    let sampler = KeySampler::new(KeyDistribution::Zipfian { theta: 0.99 }, KEYS);
    let mut rngs: Vec<SmallRng> = (0..TERMINALS)
        .map(|t| SmallRng::seed_from_u64(ROUTE_SEED ^ (t as u64).wrapping_mul(0x9e3779b9)))
        .collect();
    let mut route_epoch = vec![0u64; TERMINALS];
    let mut moves = SmallRng::seed_from_u64(ROUTE_SEED ^ 0x5ca1_eb0b);
    let origin = placement.clone();

    let mut run = RouteRun {
        ops: 0,
        stale: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    for _ in 0..EPOCHS {
        for t in 0..TERMINALS {
            for i in 0..OPS_PER_EPOCH {
                let key = sampler.sample(&mut rngs[t]);
                let shard =
                    ((key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17) as usize % SHARDS;
                let primary = match table.check_epoch(shard, route_epoch[t]) {
                    Ok(node) => node,
                    Err(owner) => {
                        run.stale += 1;
                        run.digest = fold(run.digest, 0xdead ^ owner);
                        route_epoch[t] = version;
                        table
                            .check_epoch(shard, version)
                            .expect("retry at the current epoch must route")
                    }
                };
                if i % NEAREST_EVERY == 0 {
                    run.digest = fold(run.digest, table.nearest(t % cns.len()) as u64);
                }
                run.digest = fold(run.digest, key as u64);
                run.digest = fold(run.digest, ((shard as u64) << 32) | primary.0 as u64);
                run.ops += 1;
            }
        }
        // Synchronized cutover: move a batch of primaries onto other
        // shards' original nodes, bump the epoch once, rebuild.
        version += 1;
        for _ in 0..MOVES_PER_EPOCH {
            let s = moves.gen_range(0..SHARDS);
            let donor = moves.gen_range(0..SHARDS);
            placement[s] = (origin[donor].0, version);
        }
        table = RouteTable::build(version, &placement, cns, rtt);
        run.digest = fold(run.digest, version);
    }
    run
}

/// 160 000 routed operations over 64 shards / 5 regions / 5 000
/// terminals. The digest pins every decision (keys drawn, shard, primary,
/// nearest pick, stale reject) to the value the flat table and the
/// frozen map walk both produced when the table landed; the byte budget
/// pins driver state to O(terminals) — an RNG and a route epoch each plus
/// the table rebuilds, nothing per operation (measured: 87 548 B =
/// 17.5 B/terminal; per-op scratch alone would add 64 B × 160 000).
#[test]
fn routing_digest_and_terminal_state_budget() {
    let cluster =
        Cluster::new(ClusterConfig::globaldb_scale(REGIONS, SHARDS).with_seed(ROUTE_SEED));
    let placement: Vec<(NetNodeId, u64)> = cluster
        .db
        .shards()
        .iter()
        .map(|s| (s.primary, s.owner_epoch))
        .collect();
    let cns: Vec<NetNodeId> = cluster.db.cns().iter().map(|c| c.node).collect();
    let topo = cluster.db.topo();
    let rtt = |a: NetNodeId, b: NetNodeId| topo.nominal_rtt(a, b);

    let (run, _, bytes) = counted(|| run_routing(&placement, &cns, &rtt));
    assert_eq!(run.ops, (EPOCHS * TERMINALS * OPS_PER_EPOCH) as u64);
    assert_eq!(run.stale, 9_931);
    assert_eq!(run.digest, ROUTING_DIGEST);
    let per_terminal = bytes as f64 / TERMINALS as f64;
    assert!(
        per_terminal <= 20.0,
        "{per_terminal:.1} B/terminal over budget ({bytes} B)"
    );
}

// ---- Statement path --------------------------------------------------------

/// What one prepared statement costs between `execute_prepared` and the
/// data nodes: bind parameters, resolve the shard, pick the read target
/// (skyline under ROR) or lock + stage the write, charge the messages,
/// commit. Fixed-seed three-city cluster, the 4-column sysbench table,
/// every statement at one virtual instant so no background event
/// (shipping, RCP round, heartbeat) runs inside the counted window.
/// Measured: 2.00 allocs per ROR point select (the output row and its
/// vector) and 5.48 per single-row update; the bounds are those plus
/// 10 %. 3.00 and 10.47 while every statement allocated the key it
/// evaluated, read by or not, and every transaction built its overlay,
/// write log, lock list and participant set afresh; 3.00 and 13.47 while
/// the write set, the overlay and the redo record each held an image and
/// UPDATE copied the locked row before building its own; 10.00 and 14.47
/// while a point read cloned the stored row and picking the read node
/// built the skyline; 14.00 and 33.47 while every layer copied the keys,
/// rows and strings it now shares. The statement layer that cloned the
/// `TableSchema` per data-access call and kept the write set in a map
/// plus a set (PR 12) measured 23.00 and 60.45 on this same script.
#[test]
fn statement_path_allocation_budget() {
    const ROWS: i64 = 2_200;
    const STATEMENTS: i64 = 1_000;
    let mut c = sbtest_cluster(ROWS);
    let select = c.prepare("SELECT c FROM sbtest WHERE id = ?").unwrap();
    let update = c
        .prepare("UPDATE sbtest SET k = k + 1 WHERE id = ?")
        .unwrap();
    // Let heartbeats and RCP rounds hand every CN a consistency point.
    let at = SimTime::from_millis(100);
    c.run_until(at);
    let cns = c.db.cns().len() as i64;

    // Distinct keys per statement (no lock waits); the first hundred of
    // each kind warm the maps and vectors that grow to a steady size.
    let mut run = |stmt: &Prepared, ids: std::ops::RangeInclusive<i64>| {
        for id in ids {
            c.execute_prepared((id % cns) as usize, at, stmt, &[Datum::Int(id)])
                .unwrap();
        }
    };
    run(&select, 1..=100);
    let (_, select_allocs, _) = counted(|| run(&select, 101..=100 + STATEMENTS));
    run(&update, 1..=100);
    let (_, update_allocs, _) = counted(|| run(&update, 101..=100 + STATEMENTS));

    let stats = c.db.stats();
    assert_eq!(stats.committed, 2 * (100 + STATEMENTS as u64));
    assert!(
        stats.reads_on_replica > STATEMENTS as u64 / 2,
        "the selects ran the ROR path ({} replica reads)",
        stats.reads_on_replica
    );
    let per_select = select_allocs as f64 / STATEMENTS as f64;
    let per_update = update_allocs as f64 / STATEMENTS as f64;
    assert!(
        per_select <= 2.2,
        "{per_select:.2} allocs per ROR point select over budget"
    );
    assert!(
        per_update <= 6.0,
        "{per_update:.2} allocs per single-row update over budget"
    );
}

// ---- TPC-C -----------------------------------------------------------------

/// The TPC-C standard mix at `TpccScale::small()` on the simulated
/// three-city cluster, driven the way `benchmark/`'s `tpcc_sim` drives it:
/// 96 terminals in a closed loop with 10 ms of virtual think time, the
/// background events due (shipping, replay, RCP rounds, vacuum) run
/// before each transaction and counted with it. Measured after a warm-up:
/// 121.53 allocs/txn, bounded at that plus 10 %; 179.79 (bounded at 230)
/// while every key a statement evaluated was allocated, each transaction
/// built its collections afresh, every put re-inserted its unchanged
/// index entries and each replica buffered a pending transaction's
/// writes in a new vector; 304.81 while range, index and locked reads copied
/// every row out to the executor and each write held three images;
/// 326.19 while point reads cloned the stored row and picking a read node
/// built the skyline; 718.32 while every layer copied the keys, rows and
/// strings it now shares.
#[test]
fn tpcc_allocation_budget() {
    const TERMINALS: u64 = 96;
    const WARMUP: usize = 500;
    const TXNS: usize = 1_000;
    let think = SimDuration::from_millis(10);
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(42));
    let mut wl = TpccWorkload::new(TpccScale::small(), TpccMix::standard(), 42);
    wl.setup(&mut c).unwrap();
    let t0 = c.now();
    let mut terminals: BinaryHeap<Reverse<(SimTime, usize)>> = (0..TERMINALS)
        .map(|i| Reverse((t0 + SimDuration::from_micros(1_000 + i * 137), i as usize)))
        .collect();
    let mut committed = 0;
    let mut run = |txns: usize| {
        for _ in 0..txns {
            let Reverse((at, terminal)) = terminals.pop().unwrap();
            c.run_until(at);
            let next = match wl.run_one(&mut c, terminal, at).1 {
                Ok(outcome) => {
                    committed += 1;
                    outcome.completed_at
                }
                Err(e) if e.is_retryable() => at,
                Err(e) => panic!("TPC-C transaction failed: {e}"),
            };
            terminals.push(Reverse((next + think, terminal)));
        }
    };
    run(WARMUP);
    let (_, allocs, _) = counted(|| run(TXNS));
    assert!(
        committed > (WARMUP + TXNS) * 9 / 10,
        "{committed} committed"
    );
    let per_txn = allocs as f64 / TXNS as f64;
    assert!(
        per_txn <= 133.7,
        "{per_txn:.2} allocs per TPC-C transaction over budget"
    );
}

/// Data-node messages of the TPC-C standard mix at tiny scale on the
/// three-city cluster, per transaction run (each round trip to one node
/// is a request and a reply). A locking statement costs one `DnWrite`
/// round trip per shard it locks on, and its reads-for-update and writes
/// ride that lock; a statement's snapshot reads cost one `DnRead` per
/// node read, and a point locking statement has none: its lock request
/// reads the row. Measured: 36.08 `DnWrite` and 12.73 `DnRead`; 35.04
/// and 34.07 while a point locking statement read its row at the
/// snapshot before locking it, and 52.05 and 34.95 while each
/// UPDATE/DELETE locked its row a second time to write it and a
/// multi-row statement locked row by row. The `DnRead` bound is the
/// measured figure plus 10 %, which a snapshot pre-read per point
/// locking statement overshoots; the `DnWrite` bound, set at 35.04 plus
/// 10 %, is overshot by a second lock round trip per written row.
#[test]
fn tpcc_data_node_message_budget() {
    let params = gdb_bench::BenchParams {
        scale: TpccScale::tiny(),
        scale_name: "tiny",
        run: gdb_workloads::RunConfig {
            terminals: 8,
            duration: SimDuration::from_secs(6),
            warmup: SimDuration::from_secs(1),
            think_time: SimDuration::from_millis(10),
        },
        seed: 42,
    };
    let config = ClusterConfig::globaldb_three_city().with_seed(42);
    let (c, _) = gdb_bench::tpcc_run(config, &params, TpccMix::standard(), |_| {});
    let stats = c.db.stats();
    let txns = (stats.committed + stats.aborted) as f64;
    assert!(txns > 500.0, "{txns} transactions");
    let per_txn = |kind| c.db.plane().msgs(kind) as f64 / txns;
    let (write, read) = (per_txn(RpcKind::DnWrite), per_txn(RpcKind::DnRead));
    assert!(
        write <= 38.5,
        "{write:.2} DnWrite messages per TPC-C transaction over budget"
    );
    assert!(
        read <= 14.0,
        "{read:.2} DnRead messages per TPC-C transaction over budget"
    );
}

// ---- Row locks -------------------------------------------------------------

/// A primary's row-lock table holds the locks not yet released, not one
/// entry per row ever locked: the vacuum that rides an RCP round sweeps
/// the released ones, and a follower built from the primary's storage
/// starts with none. Tiny-scale TPC-C on the three-city cluster, then
/// `SWEEP_ROUNDS` RCP intervals with the terminals stopped (measured: 22
/// entries when the run ends, the last gone 5 rounds later, once the
/// transactions begun before the end have released theirs; 4 002 stayed
/// while nothing swept).
#[test]
fn lock_tables_hold_only_unreleased_locks() {
    /// Heartbeats keep the horizon rising with the terminals stopped, so
    /// each of these rounds vacuums.
    const SWEEP_ROUNDS: u64 = 8;
    let config = ClusterConfig::globaldb_three_city().with_seed(42);
    let interval = config.rcp_interval * SWEEP_ROUNDS;
    let params = gdb_bench::BenchParams {
        scale: TpccScale::tiny(),
        scale_name: "tiny",
        run: gdb_workloads::RunConfig {
            terminals: 8,
            duration: SimDuration::from_secs(6),
            warmup: SimDuration::from_secs(1),
            think_time: SimDuration::from_millis(10),
        },
        seed: 42,
    };
    let (mut c, _) = gdb_bench::tpcc_run(config, &params, TpccMix::standard(), |_| {});
    let entries = |c: &Cluster| -> (usize, usize) {
        let shards = c.db.shards().iter();
        let primaries = shards.clone().map(|s| s.storage.locks.len()).sum();
        let followers = shards
            .flat_map(|s| &s.replicas)
            .map(|r| r.applier.storage.locks.len())
            .sum();
        (primaries, followers)
    };
    assert_eq!(entries(&c).1, 0, "a follower holds row locks");
    c.run_until(c.now() + interval);
    assert_eq!(entries(&c), (0, 0), "released locks outlived a vacuum");
}

// ---- Steady-state memory ---------------------------------------------------

/// Version storage stays flat under a steady write load: vacuum rides the
/// RCP rounds, so the versions a run leaves resident do not grow with its
/// length. Tiny-scale sysbench UPDATE-index on the three-city cluster with
/// 8 terminals: the arena bytes of every primary and replica after 2
/// virtual seconds and after 6 more may differ by at most
/// `FLAT_GROWTH_BYTES` (measured: 114 720 → 116 272 B; a vacuum every
/// 5 s grew 187 872 → 280 128 B).
#[test]
fn resident_versions_stay_flat_under_steady_updates() {
    use gdb_workloads::sysbench::{SysbenchMode, SysbenchScale, SysbenchWorkload};
    const FLAT_GROWTH_BYTES: usize = 8 * 1024;

    let mut c = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(42));
    let mut wl = SysbenchWorkload::new(SysbenchScale::tiny(), SysbenchMode::UpdateIndex, 42);
    wl.setup(&mut c).unwrap();
    let run = |c: &mut Cluster, wl: &mut SysbenchWorkload, secs| {
        let config = gdb_workloads::RunConfig {
            terminals: 8,
            duration: SimDuration::from_secs(secs),
            warmup: SimDuration::ZERO,
            think_time: SimDuration::from_millis(10),
        };
        let report = gdb_workloads::run_workload(c, wl, config);
        assert!(report.total_commits() > 0);
        c.db.shards()
            .iter()
            .map(|s| {
                let replicas = s
                    .replicas
                    .iter()
                    .map(|r| r.applier.storage.resident_bytes());
                s.storage.resident_bytes() + replicas.sum::<usize>()
            })
            .sum::<usize>()
    };
    let early = run(&mut c, &mut wl, 2);
    let late = run(&mut c, &mut wl, 6);
    assert!(
        late <= early + FLAT_GROWTH_BYTES,
        "resident version bytes grew {early} -> {late} B over 6 virtual seconds"
    );
}

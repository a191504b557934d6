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
use gdb_obs::{CounterId, HistId, MetricsRegistry};
use gdb_router::RouteTable;
use gdb_simnet::{NetNodeId, Sim, SimDuration, SimTime, TypedEvent};
use gdb_workloads::{KeyDistribution, KeySampler};
use globaldb::{Cluster, ClusterConfig, Datum, Prepared, Row};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// 60 000 fixed-seed transactions through lock → install → group commit
/// → compress → ship → replay, window 64 (measured: 1.30 allocs/txn,
/// 938 fsyncs). The pre-arena path cost 22.7 allocs/txn and one fsync
/// per transaction.
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
        per_txn <= 1.4,
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
    // rows into storage. Ceiling: one key copy plus one row copy per
    // write record (the borrowed path's per-record clone alone).
    const UPDATES: i64 = 500;
    let sb_row = |id: i64, k: i64| {
        Row(vec![
            Datum::Int(id),
            Datum::Int(k),
            Datum::Text(format!("c-{id:08}")),
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
    let (_, ceiling, _) = counted(|| {
        for rec in &stream {
            if let RedoPayload::Update { key, new_row, .. } = &rec.payload {
                std::hint::black_box((key.clone(), new_row.clone()));
            }
        }
    });
    let mut applier = gdb_replication::ReplicaApplier::new(storage);
    let (applied, allocs, _) =
        counted(|| applier.apply_batch_owned(stream, SimTime::from_millis(1)));
    applied.unwrap();
    assert_eq!(applier.records_applied, 1_000);
    assert!(
        allocs <= ceiling,
        "{allocs} allocations replaying {UPDATES} owned updates; one key + one row copy each is {ceiling}"
    );
}

// ---- Event engine ----------------------------------------------------------
// A self-replicating storm: each tick bumps one counter and records one
// histogram sample (the per-event metrics cost), then schedules 1-2
// children while the budget lasts. Delays exercise all three levels of
// the timing wheel: mostly near-future buckets, some at-cursor inserts, a
// few far-future heap spills.

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
                // Near future: lands in the wheel's bucket ring.
                w.rng.gen_range(300_000u64..8_000_000)
            } else if roll < 96 {
                // Sub-slot: at/before the cursor slot (fine-order heap).
                w.rng.gen_range(0u64..200_000)
            } else {
                // Beyond the ~134 ms wheel window: far-future heap.
                w.rng.gen_range(150_000_000u64..600_000_000)
            };
            let d = SimDuration::from_nanos(nanos);
            sim.schedule_event_after(d, StormEvent::Tick { delay: d });
        }
    }
}

/// 2 M typed events through `Sim` (measured: 2 606 allocations, 0.0013
/// per event — slot vectors and heaps growing to their steady size). One
/// boxed closure per event would be 2 000 000.
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
        allocs <= 2_900,
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
/// Measured: 14.00 allocs per ROR point select and 33.47 per single-row
/// update. The statement layer that cloned the `TableSchema` per
/// data-access call and kept the write set in a map plus a set (PR 12)
/// measured 23.00 and 60.45 on this same script.
#[test]
fn statement_path_allocation_budget() {
    const ROWS: i64 = 2_200;
    const STATEMENTS: i64 = 1_000;
    let mut c = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(42));
    c.ddl(
        "CREATE TABLE sbtest (id INT NOT NULL, k INT, c TEXT, pad TEXT, \
         PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)",
    )
    .unwrap();
    let table = c.db.catalog().table_by_name("sbtest").unwrap().id;
    let rows = (1..=ROWS)
        .map(|id| {
            Row(vec![
                Datum::Int(id),
                Datum::Int(id % 97),
                Datum::Text(format!("c-{id:08}")),
                Datum::Text("padpadpadpad".into()),
            ])
        })
        .collect();
    c.bulk_load(table, rows).unwrap();
    c.finish_load();
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
        per_select <= 15.0,
        "{per_select:.2} allocs per ROR point select over budget"
    );
    assert!(
        per_update <= 35.0,
        "{per_update:.2} allocs per single-row update over budget"
    );
}

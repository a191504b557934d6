//! Sampling allocation-site profiler for the full-stack workloads.
//!
//! Drives TPC-C (`tpcc`, standard mix at `TpccScale::small()`),
//! single-row Zipfian updates (`update`, 10 × 25 000 sysbench rows) or
//! read-on-replica point selects (`point`, uniform over the same rows) on
//! the simulated three-city cluster the way `benchmark/` does: 96 terminals in
//! a closed loop, the due background events run before each transaction.
//! After a warm-up, every `EVERY`-th allocation records its backtrace.
//! Samples are grouped by their first `FRAMES` frames inside `crates/` and
//! split into foreground (`run_one`: the transaction) and background
//! (`run_until`: shipping, replay, RCP rounds, vacuum), and each group is
//! printed as estimated allocations per transaction.
//!
//! ```text
//! CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo run --release -p gdb-bench \
//!     --example alloc_sites -- <tpcc|update|point> [TXNS=2000] [EVERY=53] [FRAMES=2] [SEED=42]
//! ```

use gdb_workloads::sysbench::{SysbenchMode, SysbenchScale, SysbenchWorkload};
use gdb_workloads::tpcc::{TpccMix, TpccScale, TpccWorkload};
use gdb_workloads::{KeyDistribution, Workload};
use globaldb::{Cluster, ClusterConfig, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Mutex;

const PHASES: [&str; 2] = ["foreground (run_one)", "background (run_until)"];

/// The sysbench tables of `update` and `point`.
const SYSBENCH: SysbenchScale = SysbenchScale {
    tables: 10,
    rows_per_table: 25_000,
};

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
    /// Sample every this many allocations; 0 while not measuring.
    static EVERY: Cell<u64> = const { Cell::new(0) };
    /// Set while a sample is being taken (its own allocations don't count).
    static BUSY: Cell<bool> = const { Cell::new(false) };
    static PHASE: Cell<usize> = const { Cell::new(0) };
}

static SAMPLES: Mutex<Vec<(usize, Backtrace)>> = Mutex::new(Vec::new());

/// Count one allocation and sample it if it is the `EVERY`-th.
fn note() {
    let every = EVERY.get();
    if every > 0 && !BUSY.get() {
        COUNT.set(COUNT.get() + 1);
        if COUNT.get().is_multiple_of(every) {
            BUSY.set(true);
            let sample = (PHASE.get(), Backtrace::force_capture());
            SAMPLES
                .lock()
                .expect("no panic while sampling")
                .push(sample);
            BUSY.set(false);
        }
    }
}

struct Sampling;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches thread-local `Cell`s and, under the
// `BUSY` guard, a mutex-held vector whose own allocations are not sampled.
unsafe impl GlobalAlloc for Sampling {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Sampling = Sampling;

/// The first `frames` frames of `bt` inside this workspace's crates, as
/// `function (crates/…/file.rs:line)`.
fn site(bt: &Backtrace, frames: usize) -> String {
    let text = bt.to_string();
    let mut function = "";
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        match line.strip_prefix("at ") {
            Some(path) => match path.find("crates/") {
                Some(i) if !path.contains("/examples/") && out.len() < frames => {
                    out.push(format!("{function} ({})", &path[i..]));
                }
                _ => {}
            },
            None => function = line.split_once(": ").map_or(line, |(_, f)| f),
        }
    }
    if out.is_empty() {
        "(outside crates/)".into()
    } else {
        out.join("\n      <- ")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let num = |i: usize, default: u64| {
        args.get(i)
            .map_or(default, |a| a.parse().expect("a number"))
    };
    let (txns, every, frames, seed) = (num(1, 2_000), num(2, 53), num(3, 2), num(4, 42));
    let mut workload: Box<dyn Workload> = match args.first().map(String::as_str) {
        Some("tpcc") => Box::new(TpccWorkload::new(
            TpccScale::small(),
            TpccMix::standard(),
            seed,
        )),
        Some("update") => {
            let zipf = KeyDistribution::Zipfian { theta: 0.99 };
            Box::new(
                SysbenchWorkload::new(SYSBENCH, SysbenchMode::UpdateIndex, seed)
                    .with_key_dist(zipf),
            )
        }
        Some("point") => Box::new(SysbenchWorkload::new(
            SYSBENCH,
            SysbenchMode::PointSelect,
            seed,
        )),
        _ => panic!("usage: alloc_sites <tpcc|update|point> [TXNS] [EVERY] [FRAMES] [SEED]"),
    };
    let mut cluster = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(seed));
    workload.setup(&mut cluster).expect("set-up");
    let t0 = cluster.now();
    let mut terminals: BinaryHeap<Reverse<(SimTime, usize)>> = (0..96u64)
        .map(|i| Reverse((t0 + SimDuration::from_micros(1_000 + i * 137), i as usize)))
        .collect();
    let mut run = |n: u64| {
        for _ in 0..n {
            let Reverse((at, terminal)) = terminals.pop().expect("terminals never leave");
            PHASE.set(1);
            cluster.run_until(at);
            PHASE.set(0);
            let next = workload
                .run_one(&mut cluster, terminal, at)
                .1
                .map_or(at, |o| o.completed_at);
            terminals.push(Reverse((next + SimDuration::from_millis(10), terminal)));
        }
    };
    run(txns / 4);
    EVERY.set(every.max(1));
    run(txns);
    EVERY.set(0);

    let samples = std::mem::take(&mut *SAMPLES.lock().expect("sampling stopped"));
    let per_txn = |n: usize| (n as u64 * every) as f64 / txns as f64;
    println!(
        "{} allocations/txn over {txns} transactions",
        COUNT.get() as f64 / txns as f64
    );
    for (phase, name) in PHASES.iter().enumerate() {
        let mut sites: HashMap<String, usize> = HashMap::new();
        for (_, bt) in samples.iter().filter(|s| s.0 == phase) {
            *sites.entry(site(bt, frames as usize)).or_default() += 1;
        }
        let mut sites: Vec<(String, usize)> = sites.into_iter().collect();
        sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let total = sites.iter().map(|s| s.1).sum();
        println!("\n{name}: ~{:.1} allocations/txn", per_txn(total));
        for (site, n) in sites.iter().take(25) {
            println!("{:8.1}  {site}", per_txn(*n));
        }
    }
}

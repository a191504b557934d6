//! One repetition: set up a fresh cluster, run the fixed-count phase,
//! run the timed window, check the outputs.
//!
//! The load is a closed loop on one driver thread: 96 virtual terminals,
//! each sending its next transaction 10 ms of *virtual* time after the
//! previous one completed (a copy of `gdb_workloads::run_workload`'s heap
//! loop that stops on a count or a wall-clock deadline instead of a
//! virtual one). The simulator executes one transaction at a time, so no
//! queue can build up: the rate is work completed per wall second.

use crate::stats::LogHist;
use crate::trace::{SpanName, Totals, Trace};
use crate::workloads::{classify, set_up, Bench, Ended, WorkloadId};
use crate::{alloc, Plan};
use gdb_model::Timestamp;
use globaldb::{Cluster, SimDuration, SimTime, ALL_RPC_KINDS};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

const TERMINALS: usize = 96;
const THINK_TIME_MS: u64 = 10;
/// Replication health is sampled once per this many transactions.
const SAMPLE_EVERY: u64 = 1_000;

/// Cumulative counters of the process and the cluster at one instant,
/// read through public accessors only. Metrics are differences of two.
#[derive(Clone)]
pub struct Reading {
    pub allocs: u64,
    pub live_bytes: u64,
    pub virtual_now: SimTime,
    /// Per `RpcKind::index`.
    pub msgs: [u64; ALL_RPC_KINDS.len()],
    pub plane_bytes: u64,
    pub xregion_bytes: u64,
    pub committed: u64,
    pub aborted: u64,
    pub lock_waits: u64,
    pub commit_wait_us: u64,
    pub reads_on_replica: u64,
    pub reads_on_primary: u64,
    pub blocked_fallbacks: u64,
    pub skyline_selections: u64,
    pub rcp_rounds: u64,
    pub versions_vacuumed: u64,
    pub ship_batches: u64,
    pub ship_records: u64,
    pub ship_raw_bytes: u64,
    pub ship_wire_bytes: u64,
    pub fsyncs: u64,
    pub durable_bytes: u64,
    pub arena_resident_bytes: u64,
}

impl Reading {
    pub fn take(cluster: &Cluster) -> Self {
        // The allocator first: reading the cluster below allocates nothing,
        // but nothing should depend on that.
        let (allocs, live_bytes) = (alloc::allocs(), alloc::live_bytes());
        let db = &cluster.db;
        let stats = db.stats();
        let mut r = Reading {
            allocs,
            live_bytes,
            virtual_now: cluster.now(),
            msgs: ALL_RPC_KINDS.map(|k| db.plane().msgs(k)),
            plane_bytes: ALL_RPC_KINDS.iter().map(|&k| db.plane().bytes(k)).sum(),
            xregion_bytes: db.topo().cross_region_totals().bytes,
            committed: stats.committed,
            aborted: stats.aborted,
            lock_waits: stats.lock_waits,
            commit_wait_us: stats.commit_wait_total.as_micros(),
            reads_on_replica: stats.reads_on_replica,
            reads_on_primary: stats.reads_on_primary,
            blocked_fallbacks: stats.replica_blocked_fallbacks,
            skyline_selections: db
                .obs()
                .metrics
                .counter(gdb_router::metrics::SKYLINE_SELECTIONS),
            rcp_rounds: stats.rcp_rounds,
            versions_vacuumed: stats.versions_vacuumed,
            ship_batches: 0,
            ship_records: 0,
            ship_raw_bytes: 0,
            ship_wire_bytes: 0,
            fsyncs: 0,
            durable_bytes: 0,
            arena_resident_bytes: 0,
        };
        for shard in db.shards() {
            let wal = shard.log.durable();
            r.fsyncs += wal.fsyncs;
            r.durable_bytes += wal.durable().len() as u64;
            r.arena_resident_bytes += shard.storage.resident_bytes() as u64;
            for replica in &shard.replicas {
                let s = &replica.channel.stats;
                r.ship_batches += s.batches;
                r.ship_records += s.records;
                r.ship_raw_bytes += s.raw_bytes;
                r.ship_wire_bytes += s.wire_bytes;
                r.arena_resident_bytes += replica.applier.storage.resident_bytes() as u64;
            }
        }
        r
    }

    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }
}

/// A stretch of the run between two readings.
pub struct Phase {
    pub from: Reading,
    pub to: Reading,
    pub attempts: u64,
    pub wall_s: f64,
}

/// What one repetition measured.
pub struct Rep {
    pub setup_s: f64,
    /// Peak live heap from before set-up to the end of the count phase.
    pub peak_live_bytes: u64,
    /// The fixed-count phase: same work for the same seed.
    pub count: Phase,
    /// The timed window that follows it.
    pub timed: Phase,
    /// Wall time of each `run_one` call of the timed window.
    pub latency: LogHist,
    pub kinds: &'static [&'static str],
    /// The same, per transaction type (indexed like `kinds`).
    pub latency_by_kind: Vec<LogHist>,
    /// Virtual-time latency the clients saw, both phases.
    pub virtual_latency: LogHist,
    /// Attempts completed by the end of each tenth of the timed window.
    pub decile_attempts: [u64; 10],
    /// Both phases.
    pub attempted: u64,
    pub failed: u64,
    pub spec_rollbacks: u64,
    pub backlog_records_max: u64,
    pub rcp_lag_us_mean: f64,
    /// Span totals of the timed window, when traced.
    pub totals: Option<Totals>,
}

struct Loop<'a> {
    cluster: &'a mut Cluster,
    bench: &'a mut dyn Bench,
    trace: Option<&'a Trace>,
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    attempted: u64,
    failed: u64,
    spec_rollbacks: u64,
    virtual_latency: LogHist,
    /// Latest virtual completion time any client saw.
    last_completion: SimTime,
    /// Largest commit timestamp seen per shard written.
    max_commit_ts: Vec<Timestamp>,
    last_rcp: Vec<Timestamp>,
    backlog_records_max: u64,
    rcp_lag_us_sum: u64,
    rcp_lag_samples: u64,
}

impl Loop<'_> {
    /// Run the next terminal's transaction. Returns its type and the wall
    /// nanoseconds `run_one` took.
    fn step(&mut self) -> Result<(usize, u64), String> {
        let Reverse((at, terminal)) = self.heap.pop().expect("terminals never leave");
        // Background events due before this transaction (log shipping,
        // replay, RCP rounds, heartbeats, vacuum) run here, outside the
        // transaction's own time; `run_transaction` would otherwise run
        // them itself, to the same effect.
        if let Some(t) = self.trace {
            t.begin(SpanName::Bg);
        }
        self.cluster.run_until(at);
        if let Some(t) = self.trace {
            t.next(SpanName::Txn);
        }
        let started = Instant::now();
        let (kind, result) = self.bench.run_one(self.cluster, terminal, at, self.trace);
        let ns = started.elapsed().as_nanos() as u64;
        if let Some(t) = self.trace {
            t.end();
            t.finish_txn();
        }
        self.attempted += 1;
        let next = match classify(self.bench.kinds()[kind], &result)? {
            Ended::Committed => {
                let outcome = result.expect("classified as committed");
                self.virtual_latency.record(outcome.latency.as_nanos());
                self.last_completion = self.last_completion.max(outcome.completed_at);
                if let Some(ts) = outcome.commit_ts {
                    for &s in &outcome.shards_written {
                        self.max_commit_ts[s] = self.max_commit_ts[s].max(ts);
                    }
                }
                outcome.completed_at + SimDuration::from_millis(THINK_TIME_MS)
            }
            Ended::SpecRollback => {
                self.spec_rollbacks += 1;
                at + SimDuration::from_millis(THINK_TIME_MS)
            }
            Ended::Failed => {
                self.failed += 1;
                at + SimDuration::from_millis(THINK_TIME_MS)
            }
        };
        self.heap.push(Reverse((next, terminal)));
        if self.attempted.is_multiple_of(SAMPLE_EVERY) {
            self.sample_replication()?;
        }
        Ok((kind, ns))
    }

    /// The RCP a CN sees never goes backwards; also note how far it
    /// trails virtual now and how much sealed redo waits to be shipped.
    fn sample_replication(&mut self) -> Result<(), String> {
        let db = &self.cluster.db;
        let now_us = self.cluster.now().as_micros();
        for (cn, last) in self.last_rcp.iter_mut().enumerate() {
            let rcp = db.cn_rcp(cn);
            if rcp < *last {
                return Err(format!("RCP of CN {cn} went back from {last} to {rcp}"));
            }
            *last = rcp;
            self.rcp_lag_us_sum += now_us.saturating_sub(rcp.as_micros());
            self.rcp_lag_samples += 1;
        }
        for shard in db.shards() {
            for replica in &shard.replicas {
                let backlog = replica.channel.backlog(shard.log.sealed());
                self.backlog_records_max = self.backlog_records_max.max(backlog);
            }
        }
        Ok(())
    }

    /// Let replication settle for one virtual second past the last
    /// commit, then check that every replica replayed every commit the
    /// clients were told about.
    fn check_replicas_caught_up(&mut self) -> Result<(), String> {
        let settle = self.last_completion.max(self.cluster.now()) + SimDuration::from_secs(1);
        self.cluster.run_until(settle);
        for (s, shard) in self.cluster.db.shards().iter().enumerate() {
            for (r, replica) in shard.replicas.iter().enumerate() {
                let replayed = replica.applier.max_commit_ts();
                if replayed < self.max_commit_ts[s] {
                    return Err(format!(
                        "replica {r} of shard {s} replayed up to {replayed}, \
                         but a client saw commit {}",
                        self.max_commit_ts[s]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Run one repetition of `id`: a fresh cluster, `count_phase_txns`
/// transactions, then transactions for `window` of wall time, then the
/// output checks. With `trace`, spans are recorded during the window.
pub fn run_rep(
    id: WorkloadId,
    plan: Plan,
    window: Duration,
    trace: Option<&Trace>,
) -> Result<Rep, String> {
    alloc::reset_peak();
    let (mut stack, mut bench, setup_s) = set_up(id, plan.seed, trace);
    let cluster = stack.cluster();
    let t0 = cluster.now();
    let shards = cluster.db.shards().len();
    let cns = cluster.db.cns().len();
    let kinds = bench.kinds();
    let mut lp = Loop {
        // Staggered starts, as in `run_workload`: no thundering herd. The
        // first starts 1 ms after the load, not 1 µs: a GClock snapshot
        // taken within the clock's error bound of the load timestamp can
        // fall before it and see no rows ("stale snapshot").
        heap: (0..TERMINALS)
            .map(|i| Reverse((t0 + SimDuration::from_micros(1_000 + i as u64 * 137), i)))
            .collect(),
        cluster,
        bench: bench.as_mut(),
        trace,
        attempted: 0,
        failed: 0,
        spec_rollbacks: 0,
        virtual_latency: LogHist::default(),
        last_completion: t0,
        max_commit_ts: vec![Timestamp::ZERO; shards],
        last_rcp: vec![Timestamp::ZERO; cns],
        backlog_records_max: 0,
        rcp_lag_us_sum: 0,
        rcp_lag_samples: 0,
    };
    let mut latency = LogHist::default();
    let mut latency_by_kind: Vec<LogHist> = kinds.iter().map(|_| LogHist::default()).collect();

    // Fixed-count phase.
    let from = Reading::take(lp.cluster);
    let started = Instant::now();
    for _ in 0..id.count_phase_txns() / if plan.quick { 10 } else { 1 } {
        lp.step()?;
    }
    let count = Phase {
        wall_s: started.elapsed().as_secs_f64(),
        to: Reading::take(lp.cluster),
        from,
        attempts: lp.attempted,
    };
    let peak_live_bytes = alloc::peak_bytes();

    // Timed window.
    if let Some(t) = trace {
        t.set_enabled(true);
    }
    let mut decile_attempts = [0; 10];
    let mut decile = 0;
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed();
        while decile < 10 && elapsed >= window * (decile as u32 + 1) / 10 {
            decile_attempts[decile] = lp.attempted - count.attempts;
            decile += 1;
        }
        if decile == 10 {
            break;
        }
        let (kind, ns) = lp.step()?;
        latency.record(ns);
        latency_by_kind[kind].record(ns);
    }
    let timed = Phase {
        wall_s: started.elapsed().as_secs_f64(),
        from: count.to.clone(),
        to: Reading::take(lp.cluster),
        attempts: lp.attempted - count.attempts,
    };
    if let Some(t) = trace {
        t.set_enabled(false);
    }

    lp.check_replicas_caught_up()?;
    let rep = Rep {
        setup_s,
        peak_live_bytes,
        count,
        timed,
        latency,
        kinds,
        latency_by_kind,
        virtual_latency: lp.virtual_latency,
        decile_attempts,
        attempted: lp.attempted,
        failed: lp.failed,
        spec_rollbacks: lp.spec_rollbacks,
        backlog_records_max: lp.backlog_records_max,
        rcp_lag_us_mean: lp.rcp_lag_us_sum as f64 / lp.rcp_lag_samples.max(1) as f64,
        totals: trace.map(Trace::take),
    };
    bench.check(stack.cluster())?;
    stack.shutdown()?;
    Ok(rep)
}

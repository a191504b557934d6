//! From repetitions to named metrics.
//!
//! An end-to-end run is three repetitions on fresh clusters with the
//! same seed, and reports the median repetition of each metric. A
//! per-layer run is one plain and one traced repetition plus the layer
//! probes. Timings come from the timed window, counts from the
//! fixed-count phase before it (see `driver`).

use crate::driver::{run_rep, Phase, Reading, Rep};
use crate::stats::{median, Metrics};
use crate::trace::{SpanName, Trace};
use crate::workloads::WorkloadId;
use crate::{out_dir, probes, Plan};
use gdb_realnet::Backend;
use globaldb::RpcKind;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::time::Duration;

const MIB: f64 = (1 << 20) as f64;
const REPS: usize = 3;

/// What a run did besides its metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

/// End-to-end metrics that are counts of work done: exact for a given
/// seed on the simulated backend.
pub fn is_count(name: &str) -> bool {
    matches!(
        name,
        "allocs_per_txn" | "peak_live_mib" | "msgs_per_txn" | "xregion_bytes_per_txn"
    )
}

fn per(total: u64, n: u64) -> f64 {
    total as f64 / n.max(1) as f64
}

/// The median `run_one` time of each transaction type, weighted by the
/// type's share of the window's attempts. With one type this is the plain
/// median. With the TPC-C mix the plain median is not usable: it falls in
/// the gap between Payment (43 %, fast) and New-Order (45 %, slow), where
/// one percent more of either type moves it by several percent — on
/// `tpcc_tcp` it spread 17 % over ten seeds, while each type's own median
/// sits where its samples are dense.
fn typical_latency_ns(rep: &Rep) -> f64 {
    let all = rep.latency.count().max(1) as f64;
    rep.latency_by_kind
        .iter()
        .map(|h| h.count() as f64 / all * h.percentile(0.5))
        .sum()
}

/// The end-to-end metrics of one repetition, in report order.
fn end_to_end_of(rep: &Rep) -> Vec<(&'static str, f64, &'static str)> {
    let c = &rep.count;
    vec![
        (
            "txn_per_s",
            rep.timed.attempts as f64 / rep.timed.wall_s,
            "txn/s",
        ),
        ("txn_p50_us", typical_latency_ns(rep) / 1e3, "us"),
        (
            "allocs_per_txn",
            per(c.to.allocs - c.from.allocs, c.attempts),
            "count",
        ),
        ("peak_live_mib", rep.peak_live_bytes as f64 / MIB, "MiB"),
        (
            "msgs_per_txn",
            per(c.to.total_msgs() - c.from.total_msgs(), c.attempts),
            "count",
        ),
        (
            "xregion_bytes_per_txn",
            per(c.to.xregion_bytes - c.from.xregion_bytes, c.attempts),
            "B",
        ),
        ("setup_s", rep.setup_s, "s"),
    ]
}

/// The same seed must do the same work in every repetition on the
/// simulated backend: messages, commits, aborts and WAN bytes of the
/// count phase repeat exactly. Allocator calls repeat to within a few:
/// `HashMap`s with churn rehash at moments that depend on their
/// per-process random hash keys.
fn check_count_phase_repeats(runs: &[Rep]) -> Result<(), String> {
    let work = |p: &Phase| {
        [
            p.to.total_msgs() - p.from.total_msgs(),
            p.to.committed - p.from.committed,
            p.to.aborted - p.from.aborted,
            p.to.xregion_bytes - p.from.xregion_bytes,
        ]
    };
    let allocs = |p: &Phase| p.to.allocs - p.from.allocs;
    let first = &runs[0].count;
    for (i, rep) in runs.iter().enumerate().skip(1) {
        if work(&rep.count) != work(first) {
            return Err(format!(
                "count phase is not deterministic: [msgs, commits, aborts, xregion bytes] \
                 was {:?} in repetition 1 and {:?} in repetition {}",
                work(first),
                work(&rep.count),
                i + 1
            ));
        }
        let (a, b) = (allocs(first), allocs(&rep.count));
        if a.abs_diff(b) * 1_000 > a {
            return Err(format!(
                "count phase made {a} allocator calls in repetition 1 and {b} in repetition {}",
                i + 1
            ));
        }
    }
    Ok(())
}

/// Three repetitions, the median of each end-to-end metric.
pub fn end_to_end(id: WorkloadId, plan: Plan) -> Result<(Outcome, Metrics), String> {
    let reps = if plan.quick { 1 } else { REPS };
    let window = Duration::from_secs_f64(plan.seconds / reps as f64);
    let mut runs: Vec<Rep> = Vec::new();
    for _ in 0..reps {
        // The previous repetition's cluster is gone by now: `run_rep`
        // returns only numbers.
        runs.push(run_rep(id, plan, window, None)?);
    }
    if id.backend() == Backend::Sim {
        check_count_phase_repeats(&runs)?;
    }
    let per_rep: Vec<_> = runs.iter().map(end_to_end_of).collect();
    for (i, rep) in per_rep.iter().enumerate() {
        let values: Vec<String> = rep.iter().map(|(n, v, _)| format!("{n}={v:.4}")).collect();
        println!("# repetition {}: {}", i + 1, values.join(" "));
    }
    let mut metrics = Metrics::default();
    for (i, &(name, _, unit)) in per_rep[0].iter().enumerate() {
        let values: Vec<f64> = per_rep.iter().map(|r| r[i].1).collect();
        metrics.push(name, median(&values), unit);
    }
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    // Not in the contract's list: 0 on a healthy run, which no relative
    // bound can hold. The result line carries `attempted` and `failed`.
    metrics.push("failed_share", failed as f64 / attempted as f64, "ratio");
    let rollbacks: u64 = runs.iter().map(|r| r.spec_rollbacks).sum();
    metrics.push(
        "spec_rollback_share",
        rollbacks as f64 / attempted as f64,
        "ratio",
    );
    let samples: u64 = runs.iter().map(|r| r.latency.count()).sum();
    metrics.push("txn_p50_samples", samples as f64 / reps as f64, "count");
    Ok((Outcome { attempted, failed }, metrics))
}

/// One plain and one traced repetition, then the probes.
pub fn per_layer(id: WorkloadId, plan: Plan) -> Result<(Outcome, Metrics), String> {
    let window = Duration::from_secs_f64(plan.seconds / 2.0);
    let plain = run_rep(id, plan, window, None)?;
    let trace = Trace::default();
    let traced = run_rep(id, plan, window, Some(&trace))?;
    let totals = traced.totals.as_ref().expect("a traced repetition");

    let mut m = Metrics::default();
    let us = |ns: u64, n: u64| ns as f64 / 1e3 / n.max(1) as f64;

    // core, from the spans of the traced window.
    let nt = traced.timed.attempts;
    let fg = totals.sum_ns(SpanName::Txn);
    let bg = totals.sum_ns(SpanName::Bg);
    let own_fg: u64 = [
        SpanName::Txn,
        SpanName::Begin,
        SpanName::Execute,
        SpanName::Commit,
    ]
    .iter()
    .map(|n| totals.self_ns[n.index()])
    .sum();
    let traced_virtual_ms = (traced.timed.to.virtual_now.as_micros()
        - traced.timed.from.virtual_now.as_micros()) as f64
        / 1e3;
    let wall_per_txn = |r: &Rep| r.timed.wall_s / r.timed.attempts.max(1) as f64;
    m.push("core.fg_us_per_txn", us(fg, nt), "us");
    m.push("core.bg_us_per_txn", us(bg, nt), "us");
    m.push(
        "core.bg_share",
        bg as f64 / (fg + bg).max(1) as f64,
        "ratio",
    );
    m.push(
        "core.bg_us_per_virt_ms",
        bg as f64 / 1e3 / traced_virtual_ms.max(1e-9),
        "us",
    );
    m.push("core.self_us_per_txn", us(own_fg, nt), "us");
    m.push(
        "core.span_coverage",
        (fg + bg) as f64 / 1e9 / traced.timed.wall_s,
        "ratio",
    );
    m.push(
        "core.trace_overhead",
        wall_per_txn(&traced) / wall_per_txn(&plain),
        "ratio",
    );
    m.push(
        "core.txn_p99_us",
        plain.latency.percentile(0.99) / 1e3,
        "us",
    );
    m.push(
        "core.txn_p999_us",
        plain.latency.percentile(0.999) / 1e3,
        "us",
    );
    let d = &plain.decile_attempts;
    m.push("core.tput_last_over_first", per(d[9] - d[8], d[0]), "ratio");

    // Everything below: differences of public counters over the plain
    // repetition, count phase and timed window together.
    let (a, b): (&Reading, &Reading) = (&plain.count.from, &plain.timed.to);
    let n = plain.attempted;
    m.push(
        "core.retained_bytes_per_txn",
        (b.live_bytes as f64 - a.live_bytes as f64) / n as f64,
        "B",
    );
    let msgs = |kinds: &[RpcKind]| -> f64 {
        let total: u64 = kinds
            .iter()
            .map(|k| b.msgs[k.index()] - a.msgs[k.index()])
            .sum();
        per(total, n)
    };
    m.push(
        "core.dn_read_msgs_per_txn",
        msgs(&[RpcKind::DnRead]),
        "count",
    );
    m.push(
        "core.dn_write_msgs_per_txn",
        msgs(&[RpcKind::DnWrite]),
        "count",
    );
    m.push(
        "core.two_pc_msgs_per_txn",
        msgs(&[RpcKind::TwoPcPrepare, RpcKind::TwoPcCommit]),
        "count",
    );
    m.push(
        "core.log_ship_msgs_per_txn",
        msgs(&[RpcKind::LogShipBatch]),
        "count",
    );
    m.push(
        "core.rcp_msgs_per_txn",
        msgs(&[RpcKind::RcpGather, RpcKind::RcpDistribute]),
        "count",
    );
    m.push(
        "core.plane_bytes_per_txn",
        per(b.plane_bytes - a.plane_bytes, n),
        "B",
    );

    let deliver = totals.deliver_hist();
    m.push("realnet.deliver_us_per_txn", us(deliver.sum(), nt), "us");
    m.push(
        "realnet.deliver_p50_us",
        deliver.percentile(0.5) / 1e3,
        "us",
    );
    m.push(
        "realnet.deliver_p99_us",
        deliver.percentile(0.99) / 1e3,
        "us",
    );

    // Virtual time: the modelled behaviour, which a change that only
    // saves wall time must leave where it was.
    let virtual_s = (b.virtual_now.as_micros() - a.virtual_now.as_micros()) as f64 / 1e6;
    let committed = b.committed - a.committed;
    m.push(
        "txnmgr.virt_txn_per_s",
        committed as f64 / virtual_s,
        "txn/virt_s",
    );
    m.push(
        "txnmgr.virt_p50_us",
        plain.virtual_latency.percentile(0.5) / 1e3,
        "virt_us",
    );
    m.push(
        "txnmgr.lock_waits_per_ktxn",
        1e3 * per(b.lock_waits - a.lock_waits, n),
        "count",
    );
    m.push(
        "txnmgr.commit_wait_us_per_txn",
        per(b.commit_wait_us - a.commit_wait_us, n),
        "virt_us",
    );

    let records = b.ship_records - a.ship_records;
    let (raw, wire) = (
        b.ship_raw_bytes - a.ship_raw_bytes,
        b.ship_wire_bytes - a.ship_wire_bytes,
    );
    m.push("replication.records_per_txn", per(records, n), "count");
    m.push("replication.raw_bytes_per_txn", per(raw, n), "B");
    m.push("replication.wire_bytes_per_txn", per(wire, n), "B");
    m.push(
        "replication.records_per_batch",
        per(records, b.ship_batches - a.ship_batches),
        "count",
    );
    m.push(
        "replication.backlog_records_max",
        plain.backlog_records_max as f64,
        "count",
    );
    m.push("compress.ratio", per(raw, wire), "ratio");
    m.push(
        "wal.fsyncs_per_ktxn",
        1e3 * per(b.fsyncs - a.fsyncs, n),
        "count",
    );
    m.push(
        "wal.durable_bytes_per_txn",
        per(b.durable_bytes - a.durable_bytes, n),
        "B",
    );
    m.push(
        "storage.arena_resident_mib",
        b.arena_resident_bytes as f64 / MIB,
        "MiB",
    );
    m.push(
        "storage.versions_vacuumed_per_txn",
        per(b.versions_vacuumed - a.versions_vacuumed, n),
        "count",
    );
    let on_replica = b.reads_on_replica - a.reads_on_replica;
    let reads = on_replica + b.reads_on_primary - a.reads_on_primary;
    m.push("router.replica_read_share", per(on_replica, reads), "ratio");
    m.push(
        "router.blocked_fallbacks_per_kread",
        1e3 * per(b.blocked_fallbacks - a.blocked_fallbacks, reads),
        "count",
    );
    m.push(
        "router.skyline_selections_per_ktxn",
        1e3 * per(b.skyline_selections - a.skyline_selections, n),
        "count",
    );
    m.push(
        "consistency.rcp_rounds_per_virt_s",
        (b.rcp_rounds - a.rcp_rounds) as f64 / virtual_s,
        "1/virt_s",
    );
    m.push(
        "consistency.rcp_lag_ms",
        plain.rcp_lag_us_mean / 1e3,
        "virt_ms",
    );

    m.0.extend(probes::run(plan.quick).0);

    // Not every workload has these, so they are printed and written to
    // `out/` but are not part of the contract's per-layer list: the
    // phases of `run_transaction` where the benchmark owns the closure,
    // and the median per transaction type where there is more than one.
    for (name, span) in [
        ("core.begin_us", SpanName::Begin),
        ("core.execute_us", SpanName::Execute),
        ("core.commit_us", SpanName::Commit),
    ] {
        let h = &totals.hist[span.index()];
        if h.count() > 0 {
            m.push(name, us(h.sum(), h.count()), "us");
        }
    }
    if plain.kinds.len() > 1 {
        for (kind, h) in plain.kinds.iter().zip(&plain.latency_by_kind) {
            m.push(
                format!("workloads.{kind}_p50_us"),
                h.percentile(0.5) / 1e3,
                "us",
            );
        }
    }

    let path = out_dir().join(format!("{}.trace.json", id.name()));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| File::create(&path))
        .and_then(|f| {
            let mut out = BufWriter::new(f);
            totals.write_chrome_trace(&mut out)?;
            out.flush()
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;

    Ok((
        Outcome {
            attempted: plain.attempted + traced.attempted,
            failed: plain.failed + traced.failed,
        },
        m,
    ))
}

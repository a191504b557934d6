//! The chaos runner: a TPC-C workload in the foreground with its history
//! recorded, a fault plan interleaved as simulation events, a heal-all
//! recovery phase, and final whole-database checks.

use crate::fault::Fault;
use crate::oracle::{Coverage, FailoverWindow, LossWindows, Oracle};
use crate::plan::{canned, FaultPlan};
use crate::scenario::{PlanSource, Scenario};
use crate::trace::new_trace;
use gdb_rebalance::RebalanceController;
use gdb_workloads::tpcc::{consistency, TpccMix, TpccScale, TpccWorkload};
use gdb_workloads::{run_workload, RunConfig, Workload};
use globaldb::config::FLUSH_INTERVAL;
use globaldb::txn::history::History;
use globaldb::{Cluster, GlobalDb, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// What a chaos run produced.
#[derive(Debug)]
pub struct ChaosReport {
    pub plan_name: String,
    /// Fault applications + violations, in virtual-time order. Two runs
    /// of the same seed produce identical traces.
    pub trace: Vec<String>,
    pub violations: Vec<String>,
    /// Transactions of the tormented run (the oracle's read-back is not
    /// counted).
    pub txns_committed: u64,
    pub txns_aborted: u64,
    /// What the oracle checked of the recorded history.
    pub checked: Coverage,
    /// The recorded history, read-back included.
    pub history: History,
    pub rcp_rounds: u64,
    pub rcp_rounds_abandoned: u64,
    pub collector_failovers: u64,
    pub tpcc_rows_verified: usize,
    /// The fault window (committed/aborted counts cover the whole run).
    pub duration: SimDuration,
    /// End-to-end commit latency over the whole run.
    pub latency: gdb_obs::HistSummary,
    /// Full metrics snapshot of the tormented cluster, before the read-back.
    pub metrics: gdb_obs::MetricsReport,
}

impl ChaosReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "plan: {}\ncommitted: {}  aborted: {}\n\
             checked txns: {}  reads: {}  writes: {}\n\
             rcp rounds: {} ({} abandoned)  collector failovers: {}\n\
             tpcc rows verified: {}\n--- trace ---\n",
            self.plan_name,
            self.txns_committed,
            self.txns_aborted,
            self.checked.txns,
            self.checked.reads,
            self.checked.writes,
            self.rcp_rounds,
            self.rcp_rounds_abandoned,
            self.collector_failovers,
            self.tpcc_rows_verified,
        );
        for line in &self.trace {
            out.push_str(line);
            out.push('\n');
        }
        if self.violations.is_empty() {
            out.push_str("--- all invariants held ---\n");
        } else {
            out.push_str("--- VIOLATIONS ---\n");
            for v in &self.violations {
                out.push_str(v);
                out.push('\n');
            }
        }
        out
    }
}

/// Restore every outstanding fault: heal partitions, clear injected
/// delay, reconnect clock-sync daemons, and restart every downed node
/// through its typed recovery path.
pub fn heal_all(db: &mut GlobalDb, now: SimTime) {
    db.topo_mut().heal_all();
    db.set_injected_delay(SimDuration::ZERO);
    for cn in 0..db.cns().len() {
        db.resume_clock_sync(cn, now);
    }
    for shard in 0..db.shards().len() {
        if db.topo().is_node_down(db.shards()[shard].primary) {
            db.restart_primary(shard);
        }
        for replica in 0..db.shards()[shard].replicas.len() {
            if db
                .topo()
                .is_node_down(db.shards()[shard].replicas[replica].node)
            {
                db.restart_replica(shard, replica, now);
            }
        }
    }
    if db.topo().is_node_down(db.gtm_node()) {
        db.restart_gtm();
    }
    for cn in 0..db.cns().len() {
        if db.topo().is_node_down(db.cns()[cn].node) {
            db.restart_cn(cn, now);
        }
    }
    // Anything still down is an orphan (e.g. a crashed-and-replaced old
    // primary that never rejoined); bring it back so the topology is clean.
    for node in db.topo().down_nodes() {
        db.restore_node(node);
    }
}

/// Extract every primary-failover episode (crash followed by promotion
/// of the same shard) from an already-shifted plan, for the oracle's
/// bounded-loss durability check.
fn failover_windows(plan: &FaultPlan) -> Vec<FailoverWindow> {
    let mut out = Vec::new();
    for ev in &plan.events {
        if let Fault::PromoteReplica { shard, .. } = ev.fault {
            let crash_at = plan
                .events
                .iter()
                .filter(|e| {
                    e.at <= ev.at
                        && matches!(e.fault, Fault::CrashPrimary { shard: s } if s == shard)
                })
                .map(|e| e.at)
                .max();
            if let Some(crash_at) = crash_at {
                out.push(FailoverWindow {
                    crash_at,
                    promote_at: ev.at,
                });
            }
        }
    }
    out
}

/// Run `scn`: deploy its cluster, load TPC-C, arm the auto-rebalancer
/// if asked, run the workload under its fault plan, heal, and check the
/// recorded history and the TPC-C consistency conditions. The report's
/// plan name is the scenario's name, or the plan's when that is empty.
pub fn run(scn: &Scenario) -> ChaosReport {
    let plan = match &scn.plan {
        PlanSource::Canned(name) => {
            canned::by_name(name).unwrap_or_else(|| panic!("no canned plan {name:?}"))
        }
        PlanSource::Inline(plan) => plan.clone(),
        &PlanSource::Generated {
            overlap,
            migrations,
            elastic,
        } => crate::nemesis::generate(
            scn.seed,
            overlap,
            migrations,
            elastic,
            &scn.cluster,
            scn.duration,
        ),
    };
    let mut cluster = Cluster::new(scn.cluster.clone());
    let strict = cluster.db.config().replication.is_sync();
    let scale = TpccScale::tiny();
    let mut workload = TpccWorkload::new(scale, TpccMix::standard(), scn.seed ^ 0xc4a0_5bad);
    workload.setup(&mut cluster).expect("TPC-C setup");

    let t0 = cluster.now();
    let start = t0 + scn.warmup;
    let end = start + scn.duration;
    if let Some(every) = scn.rebalance_every {
        // Recurring controller ticks over warmup and the fault window,
        // scheduled on the cluster's own simulation.
        let ctrl = Rc::new(RefCell::new(RebalanceController::new()));
        let mut at = t0 + every;
        while at <= end {
            let ctrl = Rc::clone(&ctrl);
            cluster.sim.schedule_at(at, move |w, sim| {
                ctrl.borrow_mut().tick_at(w, sim);
            });
            at += every;
        }
    }
    let trace = new_trace();

    let plan = plan.shifted(SimDuration::from_nanos(start.as_nanos()));
    let plan_name = plan.name.clone();
    // Async replication may lose the tail of acked writes still in the
    // shipping pipeline when a primary dies: an unsealed batch (one flush
    // interval), a sealed batch in flight, plus scheduling slack — but
    // never more. That bound is what the oracle enforces.
    let losses = LossWindows {
        failovers: if strict {
            Vec::new()
        } else {
            failover_windows(&plan)
        },
        tail: FLUSH_INTERVAL * 2 + SimDuration::from_millis(250),
    };
    plan.schedule(&mut cluster, Rc::clone(&trace));
    let oracle = Oracle::arm(&mut cluster, start, end, &trace);

    run_workload(
        &mut cluster,
        &mut workload,
        RunConfig {
            terminals: scn.terminals,
            duration: scn.duration,
            warmup: scn.warmup,
            think_time: SimDuration::from_millis(10),
        },
    );

    // Recovery: heal everything, let replication / RCP catch up.
    let now = cluster.now();
    heal_all(&mut cluster.db, now);
    cluster.run_until(now + scn.grace);

    let metrics = cluster.metrics_snapshot();
    let (committed, aborted) = (cluster.db.stats().committed, cluster.db.stats().aborted);
    let mut verdict = oracle.verdict(&mut cluster, &losses);
    let tpcc_rows_verified = match consistency::verify(&mut cluster, &scale) {
        Ok(rows) => rows,
        Err(e) => {
            let msg = format!("TPC-C consistency after {plan_name}: {e}");
            verdict.violations.push(msg);
            0
        }
    };

    let trace_lines = trace.borrow().lines();
    let latency = metrics
        .histogram(gdb_txnmgr::metrics::LATENCY_US)
        .cloned()
        .unwrap_or_default();
    ChaosReport {
        plan_name: if scn.name.is_empty() {
            plan_name
        } else {
            scn.name.clone()
        },
        trace: trace_lines,
        violations: verdict.violations,
        txns_committed: committed,
        txns_aborted: aborted,
        checked: verdict.coverage,
        history: verdict.history,
        rcp_rounds: cluster.db.stats().rcp_rounds,
        rcp_rounds_abandoned: cluster.db.stats().rcp_rounds_abandoned,
        collector_failovers: cluster.db.stats().collector_failovers,
        tpcc_rows_verified,
        duration: scn.duration,
        latency,
        metrics,
    }
}

//! The chaos runner: a TPC-C workload in the foreground with its history
//! recorded, a fault plan interleaved as simulation events, a heal-all
//! recovery phase, and final whole-database checks.

use crate::fault::Fault;
use crate::nemesis::{ClusterShape, NemesisConfig};
use crate::oracle::{Coverage, FailoverWindow, LossWindows, Oracle};
use crate::plan::FaultPlan;
use crate::trace::new_trace;
use gdb_workloads::tpcc::{consistency, TpccMix, TpccScale, TpccWorkload};
use gdb_workloads::{run_workload, RunConfig, Workload};
use globaldb::config::FLUSH_INTERVAL;
use globaldb::txn::history::History;
use globaldb::{Cluster, ClusterConfig, Geometry, GlobalDb, ReplicationMode, SimDuration, SimTime};
use std::rc::Rc;

/// Knobs for one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    pub cluster_seed: u64,
    pub workload_seed: u64,
    pub terminals: usize,
    /// Fault-free lead-in before the plan starts.
    pub warmup: SimDuration,
    /// The fault window (plan offsets land inside it).
    pub duration: SimDuration,
    /// Idle recovery time between heal-all and the final checks.
    pub grace: SimDuration,
    /// Let the nemesis generator overlay concurrent fault episodes
    /// ([`NemesisConfig::overlap`]).
    pub overlap: bool,
    /// Let the nemesis generator draw online-migration episodes
    /// ([`NemesisConfig::migrations`]).
    pub migrations: bool,
    /// Let the nemesis generator draw elastic-membership episodes
    /// ([`NemesisConfig::elastic`]).
    pub elastic: bool,
    /// Replication mode under torment. Synchronous modes get the strict
    /// durability oracle; `Async` gets the bounded-loss check (a failover
    /// may lose at most the shipping-window tail).
    pub replication: ReplicationMode,
}

impl ChaosConfig {
    /// A short run sized for the integration suite.
    pub fn quick(seed: u64) -> Self {
        ChaosConfig {
            cluster_seed: seed,
            workload_seed: seed ^ 0xc4a0_5bad,
            terminals: 8,
            warmup: SimDuration::from_millis(500),
            duration: SimDuration::from_secs(3),
            grace: SimDuration::from_secs(2),
            overlap: false,
            migrations: false,
            elastic: false,
            replication: ReplicationMode::SyncRemoteQuorum { quorum: 1 },
        }
    }

    /// The cluster every chaos run torments: the Three-City GlobalDB
    /// deployment with two CNs per region (so collector leadership can
    /// fail over), quorum-synchronous replication (so every fault leaves
    /// acknowledged writes recoverable and errors retryable), and
    /// two-phase RCP rounds (so a collector crash can land mid-round).
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut c = ClusterConfig::globaldb_three_city().with_seed(self.cluster_seed);
        c.cn_count = 6;
        c.replication = self.replication;
        c.rcp_two_phase = true;
        c
    }
}

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

/// Run TPC-C under `plan` and return the full report.
pub fn run_plan(plan: FaultPlan, cfg: &ChaosConfig) -> ChaosReport {
    run_plan_prepped(plan, cfg, cfg.cluster_config(), |_| {})
}

/// [`run_plan`] against an explicit cluster config, with a post-load
/// cluster hook called after TPC-C setup, before the plan is scheduled —
/// the entry point for scenario files, whose `[topology]` table
/// overrides the canonical chaos shape and whose hook arms periodic
/// events of their own (e.g. recurring auto-rebalance ticks). The hook
/// must schedule via the cluster's own simulation so determinism is
/// preserved.
pub fn run_plan_prepped(
    plan: FaultPlan,
    cfg: &ChaosConfig,
    cc: ClusterConfig,
    prep: impl FnOnce(&mut Cluster),
) -> ChaosReport {
    let mut cluster = Cluster::new(cc);
    let strict = cluster.db.config().replication.is_sync();
    let scale = TpccScale::tiny();
    let mut workload = TpccWorkload::new(scale, TpccMix::standard(), cfg.workload_seed);
    workload.setup(&mut cluster).expect("TPC-C setup");
    prep(&mut cluster);

    let t0 = cluster.now();
    let start = t0 + cfg.warmup;
    let end = start + cfg.duration;
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
            terminals: cfg.terminals,
            duration: cfg.duration,
            warmup: cfg.warmup,
            think_time: SimDuration::from_millis(10),
        },
    );

    // Recovery: heal everything, let replication / RCP catch up.
    let now = cluster.now();
    heal_all(&mut cluster.db, now);
    cluster.run_until(now + cfg.grace);

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
        plan_name,
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
        duration: cfg.duration,
        latency,
        metrics,
    }
}

/// The seeded nemesis schedule over `cfg`'s fault window for a cluster
/// deployed from `cc`, drawing the episode families `cfg` enables. It is
/// a pure function of its inputs, so a run of it — trace included —
/// replays bit-for-bit.
pub fn nemesis_plan(seed: u64, cfg: &ChaosConfig, cc: &ClusterConfig) -> FaultPlan {
    let shape = ClusterShape {
        shards: cc.shard_count,
        replicas_per_shard: cc.replicas_per_shard,
        cns: cc.cn_count,
        regions: match cc.geometry {
            Geometry::OneRegion { .. } => 1,
            Geometry::ThreeCity { .. } => 3,
            Geometry::MultiRegion { regions, .. } => regions,
        },
    };
    let nemesis = NemesisConfig {
        overlap: cfg.overlap,
        migrations: cfg.migrations,
        elastic: cfg.elastic,
        ..NemesisConfig::new(seed, SimTime::ZERO, cfg.duration)
    };
    crate::nemesis::generate(&nemesis, &shape)
}

/// Generate a nemesis schedule from `seed` and run it on the canonical
/// chaos cluster.
pub fn run_nemesis(seed: u64, cfg: &ChaosConfig) -> ChaosReport {
    run_plan(nemesis_plan(seed, cfg, &cfg.cluster_config()), cfg)
}

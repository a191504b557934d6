//! Sim/real divergence harness: the same small TPC-C run — one
//! transaction every 10 ms at fixed virtual instants, its history
//! recorded and checked by the chaos oracle — on every execution
//! backend, and the backends must agree.
//!
//! "Agree" means three things:
//!
//! 1. the oracle's invariants over the recorded history (external
//!    consistency, read correctness, lost updates, durability of acked
//!    writes, replica-read containment, RCP monotonicity) hold on
//!    *every* backend — real threads and sockets introduce real
//!    concurrency in delivery, but the transaction logic still runs on
//!    the virtual-time driver, so nothing the oracle checks may break;
//! 2. the committed-write sets of sim and real runs coincide, measured
//!    as Jaccard overlap of `(table, key, n)`: the n-th committed write
//!    of a key in timestamp order. Arrivals are fixed, so the same
//!    transactions run in the same order everywhere; wall-clock delays
//!    may tip an occasional one across a timeout boundary, but nearly
//!    all commits must match;
//! 3. the plane-vs-silo accounting cross-check passes: every message
//!    the driver charged through a real transport was routed by exactly
//!    one silo.
//!
//! The fault tests reuse the chaos plan format unchanged
//! ([`FaultPlan::at`] with [`Fault`] variants): delay-spike and
//! partition nemeses manipulate the shared topology, which the real
//! transports consult per message — so the same plan runs *physically*
//! (injected delay actually slept, partitioned links actually refusing
//! delivery) on thread and TCP backends.

use gdb_chaos::oracle::key_writes;
use gdb_chaos::trace::new_trace;
use gdb_chaos::{Fault, FaultPlan, LossWindows, Oracle};
use gdb_model::{GdbError, RowKey, TableId};
use gdb_realnet::{Backend, RealCluster};
use gdb_simnet::{SimDuration, SimTime};
use gdb_workloads::tpcc::{TpccMix, TpccScale, TpccWorkload};
use gdb_workloads::Workload;
use globaldb::ClusterConfig;
use std::collections::BTreeSet;

const TXNS: u64 = 180;
const ARRIVAL: SimDuration = SimDuration::from_millis(10);
const TERMINALS: u64 = 8;
/// Arrivals, then quiet time for replication and RCP to settle.
const RUN: SimDuration = SimDuration::from_millis(2500);

struct RunOutcome {
    backend: Backend,
    violations: Vec<String>,
    committed: BTreeSet<(TableId, RowKey, usize)>,
    reads: u64,
    /// Transactions refused because a node or link was unreachable.
    unavailable: u64,
}

/// Run the TPC-C schedule on one backend, after `faults` scheduled
/// whatever the test injects relative to the run's start, and collect
/// the outcome.
fn tpcc_run(backend: Backend, faults: impl FnOnce(&mut RealCluster, SimTime)) -> RunOutcome {
    let mut rc = RealCluster::launch(ClusterConfig::globaldb_three_city(), backend);
    let mut tpcc = TpccWorkload::new(TpccScale::tiny(), TpccMix::standard(), 7);
    tpcc.setup(&mut rc.cluster).expect("TPC-C setup");
    let t0 = rc.cluster.now();
    faults(&mut rc, t0);
    let oracle = Oracle::arm(&mut rc.cluster, t0, t0 + RUN, &new_trace());
    let mut unavailable = 0;
    for i in 0..TXNS {
        let at = t0 + SimDuration::from_nanos(ARRIVAL.as_nanos() * i);
        match tpcc
            .run_one(&mut rc.cluster, (i % TERMINALS) as usize, at)
            .1
        {
            Err(GdbError::NodeUnavailable(_)) => unavailable += 1,
            Err(e) => assert!(e.is_retryable(), "{}: {e}", backend.label()),
            Ok(_) => {}
        }
    }
    rc.cluster.run_until(t0 + RUN);
    // No failover faults in these plans: strict durability.
    let verdict = oracle.verdict(&mut rc.cluster, &LossWindows::default());
    let report = rc.shutdown();
    report
        .verify_against_plane(rc.cluster.db.plane())
        .expect("plane/silo accounting must agree");
    let committed = key_writes(&verdict.history)
        .into_iter()
        .flat_map(|((table, key), writes)| {
            let acked = writes.into_iter().filter(|w| w.ack.is_some());
            acked.enumerate().map(move |(n, _)| (table, key.clone(), n))
        })
        .collect();
    RunOutcome {
        backend,
        violations: verdict.violations,
        committed,
        reads: verdict.coverage.reads,
        unavailable,
    }
}

/// Schedule `plan` at offsets from the run's start.
fn plan_at(plan: FaultPlan) -> impl FnOnce(&mut RealCluster, SimTime) {
    move |rc, t0| {
        let plan = plan.shifted(SimDuration::from_nanos(t0.as_nanos()));
        plan.schedule(&mut rc.cluster, new_trace());
    }
}

fn assert_clean(r: &RunOutcome) {
    assert!(
        r.violations.is_empty(),
        "oracle violations on {} backend: {:?}",
        r.backend.label(),
        r.violations
    );
    assert!(
        !r.committed.is_empty() && r.reads > 0,
        "{} backend committed or read nothing",
        r.backend.label()
    );
}

/// Jaccard overlap of two committed-write sets.
fn agreement<T: Ord>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> f64 {
    let inter = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

#[test]
fn no_fault_oracle_passes_on_every_backend_and_committed_sets_agree() {
    let sim = tpcc_run(Backend::Sim, |_, _| {});
    let thread = tpcc_run(Backend::Thread, |_, _| {});
    let tcp = tpcc_run(Backend::Tcp, |_, _| {});
    for r in [&sim, &thread, &tcp] {
        assert_clean(r);
    }
    for other in [&thread, &tcp] {
        let overlap = agreement(&sim.committed, &other.committed);
        println!(
            "committed-set agreement sim vs {}: {:.3} ({} sim / {} {} writes)",
            other.backend.label(),
            overlap,
            sim.committed.len(),
            other.committed.len(),
            other.backend.label(),
        );
        assert!(
            overlap >= 0.9,
            "sim and {} committed sets diverged: agreement {:.3}",
            other.backend.label(),
            overlap
        );
    }
}

/// The delay-spike + partition nemesis families, expressed in the
/// ordinary chaos plan format, executed physically on real backends.
fn delay_and_partition_plan() -> FaultPlan {
    FaultPlan::new("realnet_delay_partition")
        .at(
            SimTime::from_millis(1000),
            Fault::DelaySpike {
                extra: SimDuration::from_millis(2),
            },
        )
        .at(SimTime::from_millis(1400), Fault::ClearDelay)
        .at(
            SimTime::from_millis(1600),
            Fault::PartitionRegions { a: 0, b: 1 },
        )
        .at(
            SimTime::from_millis(2000),
            Fault::HealRegions { a: 0, b: 1 },
        )
}

#[test]
fn chaos_fault_plan_runs_physically_on_thread_backend() {
    assert_clean(&tpcc_run(
        Backend::Thread,
        plan_at(delay_and_partition_plan()),
    ));
}

#[test]
fn chaos_fault_plan_runs_physically_on_tcp_backend() {
    assert_clean(&tpcc_run(Backend::Tcp, plan_at(delay_and_partition_plan())));
}

/// Realnet-native socket-level faults (link drop + link delay via the
/// [`gdb_realnet::FaultController`]) scheduled mid-run in chaos-plan
/// style: the dropped link behaves like a partition at the connection
/// layer, and after healing the oracle's strict durability check must
/// still pass.
#[test]
fn link_drop_and_delay_hooks_hold_invariants_on_tcp_backend() {
    let r = tpcc_run(Backend::Tcp, |rc, t0| {
        let faults = rc.faults();
        let at = |ms| t0 + SimDuration::from_millis(ms);
        // Host pair 0↔1 carries the bulk of cross-region traffic in the
        // three-city layout; drop it for 400 virtual ms, then slow it.
        let f = faults.clone();
        rc.cluster.sim.schedule_at(at(1000), move |_, _| {
            f.drop_link(0, 1);
        });
        let f = faults.clone();
        rc.cluster.sim.schedule_at(at(1400), move |_, _| {
            f.heal_link(0, 1);
            f.set_link_delay(0, 1, SimDuration::from_millis(1));
        });
        rc.cluster.sim.schedule_at(at(1800), move |_, _| {
            faults.heal_all();
        });
    });
    assert_clean(&r);
    assert!(
        r.unavailable > 0,
        "the dropped link must have failed some transactions"
    );
}

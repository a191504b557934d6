//! Observability integration: identical seeds produce bit-identical
//! traces and metrics snapshots; transaction spans nest their phase
//! children; the per-phase histograms make the paper's commit-wait story
//! (GTM round trip vs bounded GClock wait) visible in numbers.

use gdb_workloads::driver::{run_workload, RunConfig, Workload};
use gdb_workloads::tpcc::{TpccMix, TpccScale, TpccWorkload};
use globaldb::{
    Cluster, ClusterConfig, Datum, MetricsReport, ReplicationMode, Row, SimDuration, SimTime, Span,
    SpanKind, TmMode, TransitionDirection,
};

/// Run a short TPC-C burst and return the trace render + metrics
/// snapshot (the cluster too, for span-level assertions).
fn run_tpcc(config: ClusterConfig, workload_seed: u64) -> (Cluster, String, MetricsReport) {
    let mut cluster = Cluster::new(config);
    cluster.db.obs_mut().tracer.enable(500_000);
    let mut wl = TpccWorkload::new(TpccScale::tiny(), TpccMix::standard(), workload_seed);
    wl.setup(&mut cluster).expect("tpcc setup");
    run_workload(
        &mut cluster,
        &mut wl,
        RunConfig {
            terminals: 4,
            duration: SimDuration::from_secs(1),
            warmup: SimDuration::from_millis(200),
            think_time: SimDuration::from_millis(10),
        },
    );
    let render = cluster.db.obs().tracer.render();
    let snap = cluster.metrics_snapshot();
    (cluster, render, snap)
}

#[test]
fn identical_seeds_identical_trace_and_metrics() {
    let (_, render_a, snap_a) = run_tpcc(ClusterConfig::globaldb_three_city(), 42);
    let (_, render_b, snap_b) = run_tpcc(ClusterConfig::globaldb_three_city(), 42);
    assert!(!render_a.is_empty(), "tracer recorded nothing");
    assert_eq!(render_a, render_b, "same seed produced different traces");
    assert_eq!(snap_a, snap_b, "same seed produced different metrics");

    let (_, render_c, _) = run_tpcc(ClusterConfig::globaldb_three_city(), 43);
    assert_ne!(
        render_a, render_c,
        "different seeds replayed the same trace"
    );
}

#[test]
fn txn_spans_nest_their_phases() {
    let (cluster, _, _) = run_tpcc(ClusterConfig::globaldb_three_city(), 42);
    let tracer = &cluster.db.obs().tracer;
    assert_eq!(tracer.dropped(), 0, "span capacity too small for this run");

    // Find a write transaction: a Txn root with all five phase children.
    let write_txn = tracer
        .spans()
        .iter()
        .filter(|s| s.is_root() && s.kind == SpanKind::Txn)
        .find(|s| tracer.children(s.id).len() == 5)
        .expect("no write transaction recorded");
    let kids = tracer.children(write_txn.id);
    let kinds: Vec<SpanKind> = kids.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        vec![
            SpanKind::SnapshotAcquire,
            SpanKind::Execute,
            SpanKind::Prepare,
            SpanKind::CommitWait,
            SpanKind::ReplicationAck,
        ]
    );
    // Phases tile the transaction: each child starts where the previous
    // ended, the first at txn begin, the last ending at the final ack.
    assert_eq!(kids[0].start, write_txn.start);
    for pair in kids.windows(2) {
        assert_eq!(pair[0].end, pair[1].start);
    }
    assert_eq!(kids.last().unwrap().end, write_txn.end);

    // Read-only transactions record just snapshot + execute.
    let read_txn = tracer
        .spans()
        .iter()
        .filter(|s| s.is_root() && s.kind == SpanKind::Txn)
        .find(|s| tracer.children(s.id).len() == 2);
    if let Some(r) = read_txn {
        let kinds: Vec<SpanKind> = tracer.children(r.id).iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SpanKind::SnapshotAcquire, SpanKind::Execute]);
    }

    // Background activities are spanned too.
    assert!(
        tracer.spans().iter().any(|s| s.kind == SpanKind::LogShip),
        "no log-shipping spans"
    );
}

#[test]
fn two_pc_branch_spans_cover_their_phase() {
    let (cluster, _, _) = run_tpcc(ClusterConfig::globaldb_three_city(), 42);
    let tracer = &cluster.db.obs().tracer;

    // Every write transaction fans its commit record out per shard; the
    // branches are children of the replication-ack span, all starting at
    // the phase start (the fan-out is parallel) with the slowest branch
    // defining the phase end. Multi-shard writes additionally carry
    // prepare branches under the prepare span with the same covering
    // geometry.
    let mut repl_checked = 0;
    let mut prepare_checked = 0;
    for txn in tracer
        .spans()
        .iter()
        .filter(|s| s.is_root() && s.kind == SpanKind::Txn)
    {
        let kids = tracer.children(txn.id);
        if kids.len() != 5 {
            continue; // read-only
        }
        for phase in [&kids[2], &kids[4]] {
            // Prepare, ReplicationAck
            let branches = tracer.children(phase.id);
            if branches.is_empty() {
                assert_eq!(
                    phase.kind,
                    SpanKind::Prepare,
                    "replication-ack span must have branch children"
                );
                continue; // single-shard commit: no prepare round
            }
            for b in &branches {
                assert_eq!(b.kind, SpanKind::TwoPcBranch);
                assert_eq!(b.start, phase.start, "branch starts at phase start");
                assert!(b.end <= phase.end, "branch outlives its phase");
            }
            let slowest = branches.iter().map(|b| b.end).max().unwrap();
            assert_eq!(
                slowest, phase.end,
                "the slowest branch must define the phase end"
            );
            match phase.kind {
                SpanKind::Prepare => prepare_checked += 1,
                _ => repl_checked += 1,
            }
        }
    }
    assert!(repl_checked > 0, "no replication-ack branches recorded");
    assert!(
        prepare_checked > 0,
        "no multi-shard prepare branches recorded (TPC-C new-order should cross shards)"
    );
}

/// A commit that fails mid-phase closes the spans it opened at the
/// failure: its phases lie inside the root, and the root ends with the
/// failing phase.
#[test]
fn a_failed_commit_closes_its_spans_at_the_failure() {
    let mut config = ClusterConfig::globaldb_three_city();
    config.replication = ReplicationMode::SyncRemoteQuorum { quorum: 2 };
    let mut c = Cluster::new(config);
    c.ddl("CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
        .unwrap();
    let table = c.db.catalog().table_by_name("kv").unwrap().id;
    c.bulk_load(table, vec![Row(vec![Datum::Int(1), Datum::Int(0)])])
        .unwrap();
    c.finish_load();
    for shard in 0..c.db.shards().len() {
        for replica in 0..c.db.shards()[shard].replicas.len() {
            c.db.crash_replica(shard, replica);
        }
    }
    c.db.obs_mut().tracer.enable(64);
    let at = c.now();
    let res = c.execute_sql(0, at, "UPDATE kv SET v = 1 WHERE k = 1", &[]);
    assert!(res.is_err(), "a write without a reachable quorum must fail");

    let tracer = &c.db.obs().tracer;
    let txn = tracer
        .spans()
        .iter()
        .find(|s| s.is_root() && s.kind == SpanKind::Txn)
        .expect("the failed commit records its root span");
    let kids = tracer.children(txn.id);
    let kinds: Vec<SpanKind> = kids.iter().map(|s| s.kind).collect();
    assert_eq!(
        kinds,
        [
            SpanKind::SnapshotAcquire,
            SpanKind::Execute,
            SpanKind::Prepare,
            SpanKind::CommitWait,
            SpanKind::ReplicationAck,
        ]
    );
    // The quorum wait failed before the shard's ack: no branch.
    assert!(tracer.children(kids[4].id).is_empty());
    assert_eq!(
        txn.end, kids[4].end,
        "the root closes with the failing phase"
    );
    for kid in &kids {
        assert!(txn.start <= kid.start && kid.start <= kid.end && kid.end <= txn.end);
    }
}

#[test]
fn transition_spans_tile_the_protocol_phases() {
    // GTM → GClock (with a DUAL hold window), then back. Each completed
    // transition records a root span whose phase children tile it.
    let mut cfg = ClusterConfig::globaldb_one_region();
    cfg.tm_mode = TmMode::Gtm;
    let mut c = Cluster::new(cfg);
    c.db.obs_mut().tracer.enable(10_000);
    c.run_until(SimTime::from_millis(100));
    c.start_transition(TransitionDirection::ToGClock);
    c.run_until(SimTime::from_secs(2));
    assert_eq!(
        c.db.last_transition_completed(),
        Some(TransitionDirection::ToGClock)
    );
    c.start_transition(TransitionDirection::ToGtm);
    c.run_until(SimTime::from_secs(4));
    assert_eq!(
        c.db.last_transition_completed(),
        Some(TransitionDirection::ToGtm)
    );

    let tracer = &c.db.obs().tracer;
    let transitions: Vec<_> = tracer
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Transition)
        .collect();
    assert_eq!(transitions.len(), 2, "one span per completed transition");
    // Labels: 0 = ToGClock, 1 = ToGtm, in execution order.
    assert_eq!(transitions[0].label, 0);
    assert_eq!(transitions[1].label, 1);

    for root in &transitions {
        assert!(root.is_root());
        assert!(root.end > root.start, "transition span has real extent");
        let kids = tracer.children(root.id);
        assert!(
            kids.len() == 2 || kids.len() == 3,
            "dual-acks [+ hold] + final-acks, got {} children",
            kids.len()
        );
        assert_eq!(kids[0].kind, SpanKind::TransitionDualAcks);
        if kids.len() == 3 {
            assert_eq!(kids[1].kind, SpanKind::TransitionHold);
        }
        assert_eq!(kids.last().unwrap().kind, SpanKind::TransitionFinalAcks);
        // The phases tile the root exactly.
        assert_eq!(kids[0].start, root.start);
        for pair in kids.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "phase gap in {:?}", root.kind);
        }
        assert_eq!(kids.last().unwrap().end, root.end);
    }
    // GTM → GClock passes through the DUAL hold wait; the reverse
    // direction switches as soon as the DUAL acks are in.
    assert_eq!(tracer.children(transitions[0].id).len(), 3);
    assert_eq!(tracer.children(transitions[1].id).len(), 2);
}

/// The root span of `kind` and its phase children, checked to tile the
/// root from its start in order: every phase but the last is closed and
/// ends where the next begins. Returns the root, the phase kinds, and
/// the last phase (the open one, while the activity runs).
fn phase_tree(tracer: &globaldb::Tracer, kind: SpanKind) -> (Span, Vec<SpanKind>, Span) {
    let roots: Vec<_> = tracer.spans().iter().filter(|s| s.kind == kind).collect();
    assert_eq!(roots.len(), 1, "one {kind:?} root");
    let root = roots[0].clone();
    assert!(root.is_root());
    let kids = tracer.children(root.id);
    assert_eq!(kids[0].start, root.start, "the first phase starts the root");
    for pair in kids.windows(2) {
        assert!(pair[0].end > pair[0].start, "{:?} is closed", pair[0].kind);
        assert_eq!(pair[0].end, pair[1].start, "phase gap under {kind:?}");
    }
    let kinds = kids.iter().map(|s| s.kind).collect();
    (root, kinds, (*kids.last().unwrap()).clone())
}

#[test]
fn unfinished_transition_and_migration_leave_root_and_phase_open() {
    // A GTM → GClock transition and a primary move, started together and
    // stopped with the transition in its hold wait and the move in
    // catch-up.
    let mut cfg = ClusterConfig::globaldb_one_region();
    cfg.tm_mode = TmMode::Gtm;
    let mut c = Cluster::new(cfg);
    c.db.obs_mut().tracer.enable(10_000);
    let start = SimTime::from_millis(100);
    c.run_until(start);
    c.start_transition(TransitionDirection::ToGClock);
    let region = c.db.regions()[0];
    c.start_migration(0, region, 1).unwrap();
    c.run_until(start + SimDuration::from_micros(350));

    let tracer = &c.db.obs().tracer;
    let mut open = Vec::new();
    for (kind, phases) in [
        (
            SpanKind::Transition,
            [SpanKind::TransitionDualAcks, SpanKind::TransitionHold],
        ),
        (
            SpanKind::Migration,
            [SpanKind::MigrationSnapshot, SpanKind::MigrationCatchup],
        ),
    ] {
        let (root, kinds, phase) = phase_tree(tracer, kind);
        assert_eq!((root.start, root.end), (start, start), "{kind:?} is open");
        assert_eq!(kinds, phases);
        assert_eq!(phase.parent, root.id);
        assert_eq!(phase.end, phase.start, "{:?} is open", phase.kind);
        open.push((root.id, phase.id));
    }

    c.run_until(SimTime::from_millis(200));
    assert_eq!(
        c.db.last_transition_completed(),
        Some(TransitionDirection::ToGClock)
    );
    assert_eq!(c.db.last_migration_completed(), Some(0));
    let tracer = &c.db.obs().tracer;
    for ((kind, phases), (root_id, phase_id)) in [
        (
            SpanKind::Transition,
            [
                SpanKind::TransitionDualAcks,
                SpanKind::TransitionHold,
                SpanKind::TransitionFinalAcks,
            ],
        ),
        (
            SpanKind::Migration,
            [
                SpanKind::MigrationSnapshot,
                SpanKind::MigrationCatchup,
                SpanKind::MigrationCutover,
            ],
        ),
    ]
    .into_iter()
    .zip(open)
    {
        let (root, kinds, last) = phase_tree(tracer, kind);
        assert_eq!(root.id, root_id, "the open root is the one closed");
        assert!(tracer.children(root_id).iter().any(|s| s.id == phase_id));
        assert_eq!(kinds, phases);
        assert!(root.end > root.start);
        assert!(last.end > last.start, "{:?} is closed", last.kind);
        assert_eq!(last.end, root.end, "the phases tile {kind:?} exactly");
    }
}

#[test]
fn phase_histograms_expose_commit_wait_contrast() {
    // GTM + sync replication across three cities vs GClock + async: the
    // paper's Fig. 6a gap must be visible in the phase histograms.
    let (_, _, baseline) = run_tpcc(ClusterConfig::baseline_three_city(), 42);
    let (_, _, globaldb) = run_tpcc(ClusterConfig::globaldb_three_city(), 42);

    for snap in [&baseline, &globaldb] {
        for phase in ["execute", "commit_wait"] {
            let h = snap
                .histogram(&format!("txnmgr.phase.{phase}_us"))
                .unwrap_or_else(|| panic!("missing phase histogram {phase}"));
            assert!(h.count > 0, "empty phase histogram {phase}");
        }
        assert!(snap.histogram("txnmgr.latency_us").is_some());
    }
    let base_wait = baseline.histogram("txnmgr.phase.commit_wait_us").unwrap();
    let gdb_wait = globaldb.histogram("txnmgr.phase.commit_wait_us").unwrap();
    assert!(
        base_wait.mean_us > 10 * gdb_wait.mean_us,
        "GTM commit wait ({} us) should dwarf GClock's ({} us)",
        base_wait.mean_us,
        gdb_wait.mean_us
    );

    // Counters mirrored from cluster stats and the network are present.
    assert!(globaldb.counter("txnmgr.committed").unwrap() > 0);
    assert!(globaldb.counter("simnet.msgs").unwrap() > 0);
    assert!(globaldb.counter("router.skyline.selections").unwrap() > 0);
    assert!(globaldb.counter("replication.ship.batches").unwrap() > 0);
    // Cross-region traffic counts real shipped bytes, not just probes.
    let msgs = globaldb.counter("simnet.cross_region.msgs").unwrap();
    let bytes = globaldb.counter("simnet.cross_region.bytes").unwrap();
    assert!(msgs > 0 && bytes > msgs, "cross-region bytes undercounted");
}

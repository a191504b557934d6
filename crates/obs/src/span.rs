//! Virtual-time trace spans.
//!
//! A [`Span`] is a named interval of virtual time with an optional parent,
//! recorded **retrospectively**: the instrumented code computes its phase
//! boundaries (transactions execute synchronously inside one simulation
//! event, so all boundaries are known at commit) and records the finished
//! span in one call. Long-lived system activities (an RCP round awaiting
//! its finish phase) open a span with [`Tracer::begin`] and close it with
//! [`Tracer::end`] when the completion event fires; one with phases (a
//! mode transition, a shard migration) keeps its root and current phase
//! open as [`OpenPhases`] and moves on with [`Tracer::next_phase`].
//!
//! The tracer is **off by default** — a disabled tracer is two branch
//! instructions per record — and capacity-bounded when enabled: once
//! `capacity` spans are stored, further records increment a drop counter
//! instead of growing memory. All timestamps are virtual, so the same
//! seed produces a bit-identical trace ([`Tracer::render`] is the stable
//! form tests compare).

use gdb_simnet::SimTime;
use serde::{Deserialize, Serialize};

/// Index of a span within its tracer's buffer.
pub type SpanId = u32;

/// Sentinel parent for root spans.
pub const NO_PARENT: SpanId = SpanId::MAX;

/// The span taxonomy (see DESIGN.md "Observability").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// Whole transaction, begin to final ack. Root span.
    Txn,
    /// Snapshot acquisition (GTM round trip or local GClock read).
    SnapshotAcquire,
    /// Client operations between begin and commit request.
    Execute,
    /// 2PC prepare round across written shards.
    Prepare,
    /// Commit-timestamp acquisition + commit wait (GClock uncertainty or
    /// GTM round trip, per the commit plan).
    CommitWait,
    /// Synchronous-replication quorum ack after the commit point.
    ReplicationAck,
    /// One RCP round, collect through finish.
    RcpRound,
    /// One redo log-shipping batch, seal to arrival.
    LogShip,
    /// A skyline read-target re-selection (the router changed its pick).
    SkylineReselect,
    /// One shard's branch of a 2PC round (prepare fan-out or post-commit
    /// replication ack), child of `Prepare` / `ReplicationAck`.
    TwoPcBranch,
    /// Whole online TM-mode transition, start to completion. Root span.
    Transition,
    /// Transition phase: switch-to-DUAL fan-out through the last DUAL ack.
    TransitionDualAcks,
    /// Transition phase: the DUAL hold wait (GTM→GClock direction only).
    TransitionHold,
    /// Transition phase: final-mode fan-out through the last final ack.
    TransitionFinalAcks,
    /// Whole online shard migration, start to cutover/abort. Root span.
    Migration,
    /// Migration phase: snapshot copy of the source storage image.
    MigrationSnapshot,
    /// Migration phase: from the snapshot's arrival to the flush that
    /// starts the barrier.
    MigrationCatchup,
    /// Migration phase: writer-drain barrier + ownership/epoch cutover.
    MigrationCutover,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::SnapshotAcquire => "snapshot_acquire",
            SpanKind::Execute => "execute",
            SpanKind::Prepare => "prepare",
            SpanKind::CommitWait => "commit_wait",
            SpanKind::ReplicationAck => "replication_ack",
            SpanKind::RcpRound => "rcp_round",
            SpanKind::LogShip => "log_ship",
            SpanKind::SkylineReselect => "skyline_reselect",
            SpanKind::TwoPcBranch => "two_pc_branch",
            SpanKind::Transition => "transition",
            SpanKind::TransitionDualAcks => "transition_dual_acks",
            SpanKind::TransitionHold => "transition_hold",
            SpanKind::TransitionFinalAcks => "transition_final_acks",
            SpanKind::Migration => "migration",
            SpanKind::MigrationSnapshot => "migration_snapshot",
            SpanKind::MigrationCatchup => "migration_catchup",
            SpanKind::MigrationCutover => "migration_cutover",
        }
    }
}

/// One recorded interval of virtual time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    pub id: SpanId,
    /// Parent span id, or [`NO_PARENT`] for roots.
    pub parent: SpanId,
    pub kind: SpanKind,
    /// Small label distinguishing instances (txn seq, shard id, round id).
    pub label: u64,
    pub start: SimTime,
    /// Equal to `start` while a begin/end span is still open.
    pub end: SimTime,
}

impl Span {
    pub fn is_root(&self) -> bool {
        self.parent == NO_PARENT
    }
}

/// The open spans of a long-lived activity whose phases follow one
/// another: its root and its current phase, both with end == start until
/// closed. Each phase change closes the current phase and opens the next
/// at the same instant, so the closed phases tile the root from its start.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenPhases {
    root: Option<SpanId>,
    phase: Option<SpanId>,
}

/// Bounded retrospective span recorder.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// Enable recording with a hard span-count bound.
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.capacity = capacity;
        self.spans.reserve(capacity.min(4096));
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Spans silently dropped after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn push(&mut self, mut span: Span) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        let id = self.spans.len() as SpanId;
        span.id = id;
        self.spans.push(span);
        Some(id)
    }

    /// Record a completed root span.
    pub fn record(
        &mut self,
        kind: SpanKind,
        label: u64,
        start: SimTime,
        end: SimTime,
    ) -> Option<SpanId> {
        self.push(Span {
            id: 0,
            parent: NO_PARENT,
            kind,
            label,
            start,
            end,
        })
    }

    /// Record a completed child span under `parent`. A `None` parent
    /// (the parent itself was dropped or tracing is off) drops the child
    /// too, keeping the tree closed.
    pub fn record_child(
        &mut self,
        parent: Option<SpanId>,
        kind: SpanKind,
        label: u64,
        start: SimTime,
        end: SimTime,
    ) -> Option<SpanId> {
        let parent = parent?;
        self.push(Span {
            id: 0,
            parent,
            kind,
            label,
            start,
            end,
        })
    }

    /// Open a span whose end is not yet known (end == start until
    /// [`Tracer::end`]).
    pub fn begin(&mut self, kind: SpanKind, label: u64, start: SimTime) -> Option<SpanId> {
        self.record(kind, label, start, start)
    }

    /// Close a span opened with [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>, end: SimTime) {
        if let Some(id) = id {
            if let Some(span) = self.spans.get_mut(id as usize) {
                span.end = end;
            }
        }
    }

    /// Open root `kind` and its first phase `first` at `at`.
    pub fn begin_phases(
        &mut self,
        kind: SpanKind,
        first: SpanKind,
        label: u64,
        at: SimTime,
    ) -> OpenPhases {
        let root = self.begin(kind, label, at);
        let phase = self.record_child(root, first, label, at, at);
        OpenPhases { root, phase }
    }

    /// Close `open`'s current phase at `at` and open `next`, under the
    /// same root and with its label, in its place.
    pub fn next_phase(&mut self, open: &mut OpenPhases, next: SpanKind, at: SimTime) {
        self.end(open.phase, at);
        let label = open.root.and_then(|r| self.spans.get(r as usize));
        let label = label.map_or(0, |s| s.label);
        open.phase = self.record_child(open.root, next, label, at, at);
    }

    /// Close `open`'s current phase and its root at `at`.
    pub fn end_phases(&mut self, open: OpenPhases, at: SimTime) {
        self.end(open.phase, at);
        self.end(open.root, at);
    }

    /// Direct children of `parent`, in recording order.
    pub fn children(&self, parent: SpanId) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.parent == parent).collect()
    }

    /// Stable one-line-per-span rendering; identical seeds must produce
    /// identical renders. Format:
    /// `id parent kind label start_ns end_ns`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = if s.is_root() {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{} {} {} {} {} {}\n",
                s.id,
                parent,
                s.kind.name(),
                s.label,
                s.start.as_nanos(),
                s.end.as_nanos()
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!("dropped {}\n", self.dropped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_simnet::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::default();
        assert_eq!(tr.record(SpanKind::Txn, 1, t(0), t(5)), None);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.dropped(), 0);
    }

    #[test]
    fn nesting_and_lifecycle() {
        let mut tr = Tracer::default();
        tr.enable(16);
        let txn = tr.record(SpanKind::Txn, 7, t(0), t(10));
        let snap = tr.record_child(txn, SpanKind::SnapshotAcquire, 7, t(0), t(1));
        let exec = tr.record_child(txn, SpanKind::Execute, 7, t(1), t(6));
        let wait = tr.record_child(txn, SpanKind::CommitWait, 7, t(6), t(9));
        assert!(snap.is_some() && exec.is_some() && wait.is_some());
        let kids = tr.children(txn.unwrap());
        assert_eq!(kids.len(), 3);
        assert!(kids.iter().all(|s| !s.is_root()));
        assert!(tr.spans()[txn.unwrap() as usize].is_root());
        // Children tile the parent interval in order.
        assert_eq!(kids[0].end, kids[1].start);
    }

    #[test]
    fn begin_end_closes_open_span() {
        let mut tr = Tracer::default();
        tr.enable(4);
        let id = tr.begin(SpanKind::RcpRound, 3, t(2));
        assert_eq!(tr.spans()[0].end, t(2));
        tr.end(id, t(8));
        assert_eq!(tr.spans()[0].end, t(8));
        assert_eq!(
            tr.spans()[0].end.since(tr.spans()[0].start),
            SimDuration::from_millis(6)
        );
    }

    #[test]
    fn phases_stay_open_then_tile_their_root() {
        let mut tr = Tracer::default();
        tr.enable(8);
        let mut open = tr.begin_phases(SpanKind::Migration, SpanKind::MigrationSnapshot, 5, t(1));
        tr.next_phase(&mut open, SpanKind::MigrationCatchup, t(3));
        // Unfinished: the root and the current phase are open, the
        // earlier phase is closed.
        let render = "0 - migration 5 1000000 1000000\n\
                      1 0 migration_snapshot 5 1000000 3000000\n\
                      2 0 migration_catchup 5 3000000 3000000\n";
        assert_eq!(tr.render(), render);
        tr.end_phases(open, t(4));
        assert_eq!((tr.spans()[0].end, tr.spans()[2].end), (t(4), t(4)));
    }

    #[test]
    fn capacity_bound_drops_and_counts() {
        let mut tr = Tracer::default();
        tr.enable(2);
        let a = tr.record(SpanKind::Txn, 0, t(0), t(1));
        let _b = tr.record(SpanKind::Txn, 1, t(1), t(2));
        let c = tr.record(SpanKind::Txn, 2, t(2), t(3));
        assert!(a.is_some());
        assert_eq!(c, None);
        assert_eq!(tr.dropped(), 1);
        // A child of a dropped parent is dropped silently (tree stays closed).
        let kid = tr.record_child(c, SpanKind::Execute, 2, t(2), t(3));
        assert_eq!(kid, None);
        assert_eq!(tr.spans().len(), 2);
        assert!(tr.render().contains("dropped 1"));
    }

    #[test]
    fn render_is_stable() {
        let build = || {
            let mut tr = Tracer::default();
            tr.enable(8);
            let p = tr.record(SpanKind::Txn, 42, t(0), t(12));
            tr.record_child(p, SpanKind::Prepare, 42, t(5), t(7));
            tr.render()
        };
        assert_eq!(build(), build());
        assert!(build().starts_with("0 - txn 42 0 12000000\n1 0 prepare 42"));
    }
}

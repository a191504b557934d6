//! The commit pipeline, structured as explicit phases (paper §III/§IV):
//!
//! 1. **Prepare** ([`TxnHandle::prepare_phase`]) — the 2PC prepare round
//!    across written shards (multi-shard only), each branch durably
//!    replicating writes + PREPARE;
//! 2. **Commit point** ([`TxnHandle::commit_point_phase`]) — obtain the
//!    commit timestamp per the TM mode (local GClock read, GTM counter
//!    round trip, or DUAL);
//! 3. **Commit wait** — the clock-uncertainty (or DUAL bridging) wait;
//! 4. **Replicate-ack** ([`TxnHandle::replicate_phase`]) — ship the
//!    commit record to each shard, install versions, release locks, and
//!    collect the per-shard acks.
//!
//! Each phase returns a state struct carrying its timing boundaries; the
//! per-shard 2PC branches are kept so observability can record them as
//! child spans of the prepare / replication-ack phases.

use super::{TxnHandle, OP_MSG_BYTES};
use crate::net::RpcKind;
use crate::repl_driver::{Replica, Shard};
use crate::stats::TxnOutcome;
use gdb_model::{Datum, GdbError, GdbResult, Timestamp};
use gdb_obs::SpanKind;
use gdb_replication::{quorum_wait, ReplicationMode};
use gdb_simnet::{SimDuration, SimTime};
use gdb_txnmgr::{CommitPlan, TmMode};
use gdb_wal::RedoPayload;

/// One shard's branch of a 2PC round: out-message through ack.
#[derive(Debug, Clone, Copy)]
struct BranchAck {
    shard: usize,
    acked: SimTime,
}

/// Outcome of the 2PC prepare round. Empty (`prepare_done` = phase start,
/// no branches) for single-shard commits, which skip the round.
struct PrepareOutcome {
    prepare_done: SimTime,
    branches: Vec<BranchAck>,
}

/// Outcome of commit-timestamp acquisition.
struct CommitPoint {
    commit_ts: Timestamp,
    /// Commit wait imposed by the plan (GClock uncertainty window or DUAL
    /// bridging wait; zero for a pure GTM counter commit).
    clock_wait: SimDuration,
}

/// Outcome of the commit-record fan-out after the commit point.
struct ReplicateOutcome {
    /// When the commit wait ended (versions may not become visible, nor
    /// locks release, before this instant).
    wait_end: SimTime,
    /// When the last shard ack returned: the client-visible commit time.
    ack: SimTime,
    branches: Vec<BranchAck>,
}

/// The full set of write-phase boundaries, passed to phase recording.
struct WritePhases {
    prepare_done: SimTime,
    wait_end: SimTime,
    ack: SimTime,
    prepare_branches: Vec<BranchAck>,
    commit_branches: Vec<BranchAck>,
}

impl<'a> TxnHandle<'a> {
    /// Estimated redo bytes for one shard's portion of the write set.
    fn redo_bytes(&self, shard: usize) -> u64 {
        let mut bytes = 64u64; // pending + commit framing
        for w in &self.write_log {
            if w.shard == shard {
                bytes += 48;
                if let Some(r) = &w.row {
                    bytes +=
                        r.0.iter()
                            .map(|d| match d {
                                Datum::Text(s) => s.len() as u64 + 2,
                                _ => 9,
                            })
                            .sum::<u64>();
                }
            }
        }
        bytes
    }

    /// Strongest replication mode demanded by the tables this transaction
    /// wrote on `shard` (per-table sync overrides, else the cluster mode).
    fn shard_replication_mode(&self, shard: usize) -> ReplicationMode {
        fn rank(m: ReplicationMode) -> u8 {
            match m {
                ReplicationMode::Async => 0,
                ReplicationMode::SyncLocalQuorum => 1,
                ReplicationMode::SyncRemoteQuorum { .. } => 2,
            }
        }
        let mut mode = self.db.config.replication;
        for w in &self.write_log {
            if w.shard != shard {
                continue;
            }
            if let Some(&m) = self.db.table_replication.get(&w.table) {
                if rank(m) > rank(mode) {
                    mode = m;
                }
            }
        }
        mode
    }

    /// Extra commit wait imposed by synchronous replication for one shard.
    fn sync_quorum_wait(&mut self, shard: usize, bytes: u64) -> GdbResult<SimDuration> {
        let mode = self.shard_replication_mode(shard);
        let db = &mut *self.db;
        let Shard {
            primary,
            region,
            replicas,
            ..
        } = &db.shards[shard];
        // Ship to each chosen replica, in replica-vector order, and
        // collect the acknowledgment delays (`None` = unreachable).
        let mut acks = |chosen: &dyn Fn(&Replica) -> bool| -> Vec<Option<SimDuration>> {
            let ship = |r: &Replica| {
                db.plane.ship_rtt(
                    &mut db.topo,
                    RpcKind::SyncQuorumShip,
                    *primary,
                    r.node,
                    bytes,
                )
            };
            replicas.iter().filter(|r| chosen(r)).map(ship).collect()
        };
        match mode {
            ReplicationMode::Async => Ok(SimDuration::ZERO),
            ReplicationMode::SyncLocalQuorum => {
                // All same-region replicas; if none exist (geo placement),
                // the nearest replica stands in.
                let delays = if replicas.iter().any(|r| r.region == *region) {
                    acks(&|r| r.region == *region)
                } else {
                    vec![acks(&|_| true).into_iter().flatten().min()]
                };
                let q = delays.iter().flatten().count();
                quorum_wait(&delays, q.max(1)).ok_or_else(|| {
                    GdbError::NodeUnavailable("sync local quorum unreachable".into())
                })
            }
            ReplicationMode::SyncRemoteQuorum { quorum } => {
                let single_region = db.regions.len() == 1;
                let delays = acks(&|r| r.region != *region || single_region);
                quorum_wait(&delays, quorum).ok_or_else(|| {
                    GdbError::NodeUnavailable("sync remote quorum unreachable".into())
                })
            }
        }
    }

    /// Phase 1 — the 2PC prepare round (multi-shard only): writes + PREPARE
    /// must be durable (and quorum-replicated in sync modes) on every shard
    /// before the commit point.
    fn prepare_phase(
        &mut self,
        write_shards: &[usize],
        multi_shard: bool,
    ) -> GdbResult<PrepareOutcome> {
        let start = self.now;
        let mut out = PrepareOutcome {
            prepare_done: start,
            branches: Vec::new(),
        };
        if !multi_shard {
            return Ok(out);
        }
        let cn_node = self.db.cns[self.cn].node;
        for &s in write_shards {
            let bytes = self.redo_bytes(s);
            let db = &mut *self.db;
            let primary = db.shards[s].primary;
            let ow = db
                .plane
                .send(&mut db.topo, RpcKind::TwoPcPrepare, cn_node, primary, bytes)
                .ok_or_else(|| GdbError::NodeUnavailable("shard unreachable".into()))?;
            let arrive = start + ow;
            db.shards[s]
                .log
                .append(arrive, self.txn, RedoPayload::Prepare);
            let q = self.sync_quorum_wait(s, bytes)?;
            let db = &mut *self.db;
            let back = db
                .plane
                .send(
                    &mut db.topo,
                    RpcKind::TwoPcPrepare,
                    primary,
                    cn_node,
                    OP_MSG_BYTES,
                )
                .ok_or_else(|| GdbError::NodeUnavailable("shard unreachable".into()))?;
            let acked = arrive + q + back;
            out.prepare_done = out.prepare_done.max(acked);
            out.branches.push(BranchAck { shard: s, acked });
        }
        self.now = out.prepare_done;
        Ok(out)
    }

    /// Phase 2 — the commit point: obtain the commit timestamp per the TM
    /// mode's plan.
    fn commit_point_phase(&mut self) -> GdbResult<CommitPoint> {
        self.db.sync_cn_clock(self.cn, self.now);
        let plan = self.db.cns[self.cn].tm.plan_commit(self.now);
        let cn_node = self.db.cns[self.cn].node;
        let (commit_ts, clock_wait) = match plan {
            CommitPlan::GClockLocal { ts, commit_wait } => (ts, commit_wait),
            CommitPlan::ViaGtmCounter => {
                let db = &mut *self.db;
                let gtm_node = db.gtm_node;
                let rtt = db
                    .plane
                    .rtt(&mut db.topo, RpcKind::GtmCommitTs, cn_node, gtm_node)
                    .ok_or_else(|| GdbError::NodeUnavailable("GTM unreachable".into()))?;
                self.now += rtt;
                // A straggler GTM transaction after the cluster moved to
                // GClock aborts here (paper §III-A); `commit` rolls back.
                db.gtm.commit_gtm()?
            }
            CommitPlan::ViaGtmDual { gclock_ts } => {
                let db = &mut *self.db;
                let gtm_node = db.gtm_node;
                let rtt = db
                    .plane
                    .rtt(&mut db.topo, RpcKind::GtmDualCommit, cn_node, gtm_node)
                    .ok_or_else(|| GdbError::NodeUnavailable("GTM unreachable".into()))?;
                self.now += rtt;
                let ts = db.gtm.commit_dual(gclock_ts);
                let wait = db.cns[self.cn].tm.dual_post_wait(self.now, ts);
                (ts, wait)
            }
        };
        self.db.stats.commit_wait_total += clock_wait;
        Ok(CommitPoint {
            commit_ts,
            clock_wait,
        })
    }

    /// Phases 3+4 — commit wait, then the commit-record fan-out: ship the
    /// commit record to each shard; versions install and locks release at
    /// each shard's apply instant — but never before the commit wait ends
    /// (Spanner-style: releasing a hot-row lock early would let the next
    /// writer obtain a *smaller* timestamp than this commit's).
    fn replicate_phase(
        &mut self,
        write_shards: &[usize],
        multi_shard: bool,
        point: &CommitPoint,
    ) -> GdbResult<ReplicateOutcome> {
        let commit_ts = point.commit_ts;
        let wait_end = self.now + point.clock_wait;
        let cn_node = self.db.cns[self.cn].node;
        let mut out = ReplicateOutcome {
            wait_end,
            ack: wait_end,
            branches: Vec::new(),
        };
        for &s in write_shards {
            let bytes = if multi_shard {
                OP_MSG_BYTES // writes shipped during prepare
            } else {
                self.redo_bytes(s)
            };
            let db = &mut *self.db;
            let primary = db.shards[s].primary;
            let ow = db
                .plane
                .send(&mut db.topo, RpcKind::TwoPcCommit, cn_node, primary, bytes)
                .ok_or_else(|| GdbError::NodeUnavailable("shard unreachable".into()))?;
            // Single-shard sync replication waits at commit time. The
            // quorum check runs *before* the commit record is appended: if
            // the quorum is unreachable the whole transaction must roll
            // back, and a commit record already in the log would replicate
            // a commit the primary never installed.
            let q = if multi_shard {
                SimDuration::ZERO
            } else {
                self.sync_quorum_wait(s, bytes)?
            };
            let apply_at = self.now + ow;
            let visible_at = apply_at.max(wait_end);
            let payload = if multi_shard {
                RedoPayload::CommitPrepared { commit_ts }
            } else {
                RedoPayload::Commit { commit_ts }
            };
            self.commit_appended = true;
            self.db.shards[s].log.append(apply_at, self.txn, payload);
            let shard_ack = apply_at + q;
            let db = &mut *self.db;
            let back = db
                .plane
                .send(
                    &mut db.topo,
                    RpcKind::TwoPcCommit,
                    primary,
                    cn_node,
                    OP_MSG_BYTES,
                )
                .ok_or_else(|| GdbError::NodeUnavailable("shard unreachable".into()))?;
            let acked = (shard_ack + back).max(wait_end);
            out.ack = out.ack.max(acked);
            out.branches.push(BranchAck { shard: s, acked });

            // Install the versions on the primary at the apply instant
            // (each staged row moves into storage: one entry per shard).
            for w in self.write_log.iter_mut().filter(|w| w.shard == s) {
                let storage = &mut self.db.shards[s].storage;
                match w.row.take() {
                    Some(r) => storage.apply_put(w.table, &w.key, r, commit_ts, visible_at)?,
                    None => storage.apply_delete(w.table, &w.key, commit_ts, visible_at)?,
                }
            }
            // Pin the locks to the visibility instant.
            for (ls, table, key) in &self.locked {
                if ls == &s {
                    self.db.shards[s]
                        .storage
                        .locks
                        .set_release(*table, key, self.txn, visible_at);
                }
            }
        }
        self.now = out.ack;
        Ok(out)
    }

    /// Commit the transaction; consumes the handle's buffered writes.
    ///
    /// On a commit-time failure before the commit record ships (quorum
    /// unreachable, GTM unreachable, straggler GTM abort), the transaction
    /// rolls back cleanly: locks release and ABORT records resolve any
    /// PREPARE / PENDING_COMMIT state already replicated — otherwise a
    /// fault hitting mid-commit would leave replica tuples locked forever.
    pub fn commit(mut self) -> GdbResult<TxnOutcome> {
        self.finished = true;
        match self.try_commit() {
            Ok(outcome) => Ok(outcome),
            Err(e) => {
                if !self.commit_appended {
                    self.abort_inner();
                }
                Err(e)
            }
        }
    }

    fn try_commit(&mut self) -> GdbResult<TxnOutcome> {
        let exec_done = self.now;

        if self.shards_written.is_empty() {
            // Pure read: nothing to make durable.
            self.record_phases(exec_done, None);
            return Ok(TxnOutcome {
                commit_ts: None,
                snapshot: self.snapshot,
                completed_at: self.now,
                latency: self.now.since(self.started_at),
                shards_written: vec![],
                used_replica: self.used_replica,
                aborted: false,
            });
        }

        let write_shards = self.shards_written.clone();
        let multi_shard = write_shards.len() > 1;

        let prepare = self.prepare_phase(&write_shards, multi_shard)?;
        let point = self.commit_point_phase()?;
        let replicate = self.replicate_phase(&write_shards, multi_shard, &point)?;

        self.db.cns[self.cn].tm.finish_commit(point.commit_ts);
        if self.db.cns[self.cn].tm.mode == TmMode::GClock {
            // Asynchronous observe so the GTM can later take over without
            // waiting (Fig. 3) and DUAL timestamps bridge (Listing 1).
            self.db.gtm.observe_commit(point.commit_ts);
        }
        self.record_phases(
            exec_done,
            Some(WritePhases {
                prepare_done: prepare.prepare_done,
                wait_end: replicate.wait_end,
                ack: replicate.ack,
                prepare_branches: prepare.branches,
                commit_branches: replicate.branches,
            }),
        );

        Ok(TxnOutcome {
            commit_ts: Some(point.commit_ts),
            snapshot: self.snapshot,
            completed_at: self.now,
            latency: self.now.since(self.started_at),
            shards_written: write_shards,
            used_replica: self.used_replica,
            aborted: false,
        })
    }

    /// Record the per-phase latency breakdown (and, when tracing is on,
    /// the transaction's span tree). The phases tile the transaction:
    /// begin → snapshot acquire → execute, then for writes prepare →
    /// commit-wait → replication-ack. The commit-wait phase deliberately
    /// includes the commit-timestamp acquisition (a GTM round trip in
    /// centralized mode, the clock-uncertainty wait in GClock mode) —
    /// that sum is exactly the per-commit cost Fig. 6a contrasts.
    ///
    /// The parallel 2PC branches become children of the `prepare` /
    /// `replication_ack` spans: each branch starts at the phase start and
    /// ends at its shard's ack, so together they cover the parent exactly
    /// (the phase ends when its slowest branch does).
    fn record_phases(&mut self, exec_done: SimTime, write: Option<WritePhases>) {
        let tm = self.db.hot.txn;
        let m = &mut self.db.obs.metrics;
        m.record(tm.phase_snapshot_us, self.begin_done.since(self.started_at));
        m.record(tm.phase_execute_us, exec_done.since(self.begin_done));
        if let Some(w) = &write {
            m.record(tm.phase_prepare_us, w.prepare_done.since(exec_done));
            m.record(tm.phase_commit_wait_us, w.wait_end.since(w.prepare_done));
            m.record(tm.phase_replication_ack_us, w.ack.since(w.wait_end));
        }
        let t = &mut self.db.obs.tracer;
        if t.is_enabled() {
            let label = self.txn.0;
            let root = t.record(SpanKind::Txn, label, self.started_at, self.now);
            t.record_child(
                root,
                SpanKind::SnapshotAcquire,
                label,
                self.started_at,
                self.begin_done,
            );
            t.record_child(root, SpanKind::Execute, label, self.begin_done, exec_done);
            if let Some(w) = &write {
                let prepare =
                    t.record_child(root, SpanKind::Prepare, label, exec_done, w.prepare_done);
                for b in &w.prepare_branches {
                    t.record_child(
                        prepare,
                        SpanKind::TwoPcBranch,
                        b.shard as u64,
                        exec_done,
                        b.acked,
                    );
                }
                t.record_child(
                    root,
                    SpanKind::CommitWait,
                    label,
                    w.prepare_done,
                    w.wait_end,
                );
                let repl = t.record_child(root, SpanKind::ReplicationAck, label, w.wait_end, w.ack);
                for b in &w.commit_branches {
                    t.record_child(
                        repl,
                        SpanKind::TwoPcBranch,
                        b.shard as u64,
                        w.wait_end,
                        b.acked,
                    );
                }
            }
        }
    }
}

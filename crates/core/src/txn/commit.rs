//! The commit pipeline, structured as explicit phases (paper §III/§IV):
//!
//! 1. **Prepare** ([`TxnHandle::prepare_phase`]) — the 2PC prepare round
//!    across written shards (multi-shard only), each branch durably
//!    replicating writes + PREPARE;
//! 2. **Commit point** ([`GlobalDb::commit_stamp`]) — obtain the commit
//!    timestamp per the TM mode (local GClock read, GTM counter round
//!    trip, or DUAL): the one stamp path heartbeats and DDL share;
//! 3. **Commit wait** — the clock-uncertainty (or DUAL bridging) wait;
//! 4. **Replicate-ack** ([`TxnHandle::replicate_phase`]) — ship the
//!    commit record to each shard, install versions, release locks, and
//!    collect the per-shard acks.
//!
//! Each phase leaves its end instant on the handle's clock. With the
//! tracer on, each per-shard 2PC branch is recorded as its ack is
//! computed, a child span of the open prepare / replication-ack span.

use super::history::Event;
use super::{gtm_rtt, TxnHandle, OP_MSG_BYTES};
use crate::cluster::GlobalDb;
use crate::net::RpcKind;
use crate::repl_driver::{Replica, Shard};
use crate::stats::TxnOutcome;
use gdb_model::{Datum, GdbError, GdbResult, Timestamp};
use gdb_obs::{SpanId, SpanKind};
use gdb_replication::{quorum_wait, ReplicationMode};
use gdb_simnet::{NetNodeId, SimDuration, SimTime};
use gdb_txnmgr::CommitPlan;
use gdb_wal::RedoPayload;

/// A commit timestamp from [`GlobalDb::commit_stamp`].
pub(crate) struct CommitStamp {
    pub(crate) ts: Timestamp,
    /// When the commit wait ends (the GClock uncertainty wait, the DUAL
    /// bridging wait or the GTM's own; the instant the timestamp is
    /// issued for a pure GTM counter commit). Nothing may be ordered
    /// behind `ts` before it: no version becomes visible, no lock
    /// releases, and no record that moves replicas' max commit ts is
    /// staged.
    pub(crate) wait_end: SimTime,
}

impl GlobalDb {
    /// Obtain a commit timestamp for CN `cn` per its TM mode's plan: the
    /// one stamp path of transactions, heartbeats and DDL. `now` is the
    /// CN's cursor; it advances past any GTM round trip, also when the GTM
    /// then refuses (a straggler GTM commit after the move to GClock,
    /// paper §III-A). An unreachable GTM fails the stamp.
    pub(crate) fn commit_stamp(&mut self, cn: usize, now: &mut SimTime) -> GdbResult<CommitStamp> {
        self.sync_cn_clock(cn, *now);
        let (ts, wait) = match self.cns[cn].tm.plan_commit(*now) {
            CommitPlan::GClockLocal { ts, commit_wait } => {
                // Observed asynchronously so the GTM can later take over
                // without waiting (Fig. 3) and DUAL timestamps bridge
                // (Listing 1).
                self.gtm.observe_commit(ts);
                (ts, commit_wait)
            }
            CommitPlan::ViaGtmCounter => {
                *now += gtm_rtt(self, cn, RpcKind::GtmCommitTs)?;
                self.gtm.commit_gtm()?
            }
            CommitPlan::ViaGtmDual { gclock_ts } => {
                *now += gtm_rtt(self, cn, RpcKind::GtmDualCommit)?;
                let ts = self.gtm.commit_dual(gclock_ts);
                (ts, self.cns[cn].tm.dual_post_wait(*now, ts))
            }
        };
        Ok(CommitStamp {
            ts,
            wait_end: *now + wait,
        })
    }
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

    /// Extra commit wait imposed by synchronous replication for one shard.
    fn sync_quorum_wait(&mut self, shard: usize, bytes: u64) -> GdbResult<SimDuration> {
        let db = &mut *self.db;
        let Shard {
            primary, replicas, ..
        } = &db.shards[shard];
        let region = db.topo.node_region(*primary);
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
        match db.config.replication {
            ReplicationMode::Async => Ok(SimDuration::ZERO),
            ReplicationMode::SyncLocalQuorum => {
                // All same-region replicas; if none exist (geo placement),
                // the nearest replica stands in.
                let delays = if replicas.iter().any(|r| r.region == region) {
                    acks(&|r| r.region == region)
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
                let delays = acks(&|r| r.region != region || single_region);
                quorum_wait(&delays, quorum).ok_or_else(|| {
                    GdbError::NodeUnavailable("sync remote quorum unreachable".into())
                })
            }
        }
    }

    /// One 2PC message `from` → `to`; an unreachable shard fails the
    /// commit.
    fn send(
        &mut self,
        kind: RpcKind,
        from: NetNodeId,
        to: NetNodeId,
        bytes: u64,
    ) -> GdbResult<SimDuration> {
        let db = &mut *self.db;
        let one_way = db.plane.send(&mut db.topo, kind, from, to, bytes);
        one_way.ok_or_else(|| GdbError::NodeUnavailable("shard unreachable".into()))
    }

    /// Phase 1 — the 2PC prepare round (multi-shard only): writes + PREPARE
    /// must be durable (and quorum-replicated in sync modes) on every shard
    /// before the commit point. Moves the clock to the last ack; each
    /// shard's branch is a child of the open `span`.
    fn prepare_phase(
        &mut self,
        write_shards: &[usize],
        multi_shard: bool,
        span: Option<SpanId>,
    ) -> GdbResult<()> {
        if !multi_shard {
            return Ok(());
        }
        let start = self.now;
        let mut prepare_done = start;
        let cn_node = self.db.cns[self.cn].node;
        for &s in write_shards {
            let bytes = self.redo_bytes(s);
            let primary = self.db.shards[s].primary;
            let arrive = start + self.send(RpcKind::TwoPcPrepare, cn_node, primary, bytes)?;
            let log = &mut self.db.shards[s].log;
            log.append(arrive, self.txn, RedoPayload::Prepare);
            let q = self.sync_quorum_wait(s, bytes)?;
            let back = self.send(RpcKind::TwoPcPrepare, primary, cn_node, OP_MSG_BYTES)?;
            let acked = arrive + q + back;
            prepare_done = prepare_done.max(acked);
            let t = &mut self.db.obs.tracer;
            t.record_child(span, SpanKind::TwoPcBranch, s as u64, start, acked);
        }
        self.now = prepare_done;
        Ok(())
    }

    /// Phases 3+4 — commit wait, then the commit-record fan-out: ship the
    /// commit record to each shard; versions install and locks release at
    /// each shard's apply instant — but never before the commit wait ends
    /// (Spanner-style: releasing a hot-row lock early would let the next
    /// writer obtain a *smaller* timestamp than this commit's). Moves the
    /// clock to the last ack, the client-visible commit time; each shard's
    /// branch is a child of the open `span`.
    fn replicate_phase(
        &mut self,
        write_shards: &[usize],
        multi_shard: bool,
        stamp: &CommitStamp,
        span: Option<SpanId>,
    ) -> GdbResult<()> {
        let (commit_ts, wait_end) = (stamp.ts, stamp.wait_end);
        let cn_node = self.db.cns[self.cn].node;
        let mut ack = wait_end;
        for &s in write_shards {
            let bytes = if multi_shard {
                OP_MSG_BYTES // writes shipped during prepare
            } else {
                self.redo_bytes(s)
            };
            let primary = self.db.shards[s].primary;
            let ow = self.send(RpcKind::TwoPcCommit, cn_node, primary, bytes)?;
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
            self.commit_appended = Some(commit_ts);
            self.db.shards[s].log.append(apply_at, self.txn, payload);
            let back = self.send(RpcKind::TwoPcCommit, primary, cn_node, OP_MSG_BYTES)?;
            let acked = (apply_at + q + back).max(wait_end);
            ack = ack.max(acked);
            let t = &mut self.db.obs.tracer;
            t.record_child(span, SpanKind::TwoPcBranch, s as u64, wait_end, acked);

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
        self.now = ack;
        Ok(())
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
        let result = self.try_commit();
        if result.is_err() && self.commit_appended.is_none() {
            self.abort_inner();
        } else {
            let ts = result
                .as_ref()
                .map_or(self.commit_appended, |o| o.commit_ts);
            let ack = result.as_ref().ok().map(|o| o.completed_at);
            self.record(|txn| Event::End { txn, ts, ack });
            self.release_locks(true);
        }
        // Nothing reads the participant set after the lock release.
        let shards_written = std::mem::take(&mut self.shards_written);
        result.map(|outcome| TxnOutcome {
            shards_written,
            ..outcome
        })
    }

    fn try_commit(&mut self) -> GdbResult<TxnOutcome> {
        let exec_done = self.now;
        let (label, t) = (self.txn.0, &mut self.db.obs.tracer);
        let root = t.begin(SpanKind::Txn, label, self.started_at);
        let (started, begun) = (self.started_at, self.begin_done);
        t.record_child(root, SpanKind::SnapshotAcquire, label, started, begun);
        t.record_child(root, SpanKind::Execute, label, begun, exec_done);

        if self.shards_written.is_empty() {
            // Pure read: nothing to make durable.
            self.db.obs.tracer.end(root, exec_done);
            self.record_phases(exec_done, None);
            return Ok(self.outcome(None));
        }

        // The phases read the participant set while they change the
        // handle; it is back in place before anything else reads it.
        let write_shards = std::mem::take(&mut self.shards_written);
        let ts = self.write_phases(&write_shards, exec_done, root);
        self.shards_written = write_shards;
        Ok(self.outcome(Some(ts?)))
    }

    /// Prepare, stamp, wait and replicate the commit across
    /// `write_shards` under the open `root` span, recording the phases;
    /// returns the commit timestamp. The parallel 2PC branches are
    /// children of the `prepare` / `replication_ack` spans: each starts at
    /// the phase start and ends at its shard's ack, so together they cover
    /// the parent exactly (the phase ends when its slowest branch does).
    /// A phase that fails closes its span and `root` at the failure: the
    /// clock, or the phase's start if the clock has not reached it.
    fn write_phases(
        &mut self,
        write_shards: &[usize],
        exec_done: SimTime,
        root: Option<SpanId>,
    ) -> GdbResult<Timestamp> {
        let (multi_shard, label) = (write_shards.len() > 1, self.txn.0);
        let t = &mut self.db.obs.tracer;
        let prepare = t.record_child(root, SpanKind::Prepare, label, exec_done, exec_done);
        let prepared = self.prepare_phase(write_shards, multi_shard, prepare);
        self.close_phase(root, prepare, self.now, prepared)?;
        let prepare_done = self.now;

        let stamp = self.db.commit_stamp(self.cn, &mut self.now);
        let stamp = self.close_phase(root, None, self.now, stamp)?;
        let wait_end = stamp.wait_end;
        self.db.stats.commit_wait_total += wait_end.since(self.now);
        let t = &mut self.db.obs.tracer;
        t.record_child(root, SpanKind::CommitWait, label, prepare_done, wait_end);
        let repl = t.record_child(root, SpanKind::ReplicationAck, label, wait_end, wait_end);
        let replicated = self.replicate_phase(write_shards, multi_shard, &stamp, repl);
        self.close_phase(root, repl, self.now.max(wait_end), replicated)?;

        self.db.obs.tracer.end(root, self.now);
        self.record_phases(exec_done, Some([prepare_done, wait_end, self.now]));
        Ok(stamp.ts)
    }

    /// Close a phase's open `span` at `end` and pass on the phase's
    /// `result`; a failed phase closes the transaction's `root` there too.
    fn close_phase<T>(
        &mut self,
        root: Option<SpanId>,
        span: Option<SpanId>,
        end: SimTime,
        result: GdbResult<T>,
    ) -> GdbResult<T> {
        let t = &mut self.db.obs.tracer;
        t.end(span, end);
        if result.is_err() {
            t.end(root, end);
        }
        result
    }

    /// Record the per-phase latency breakdown of a committed transaction.
    /// The phases tile the transaction: begin → snapshot acquire →
    /// execute, then for writes prepare → commit-wait → replication-ack,
    /// whose ends `write` holds. The commit-wait phase deliberately
    /// includes the commit-timestamp acquisition (a GTM round trip in
    /// centralized mode, the clock-uncertainty wait in GClock mode) —
    /// that sum is exactly the per-commit cost Fig. 6a contrasts.
    fn record_phases(&mut self, exec_done: SimTime, write: Option<[SimTime; 3]>) {
        let tm = self.db.hot.txn;
        let m = &mut self.db.obs.metrics;
        m.record(tm.phase_snapshot_us, self.begin_done.since(self.started_at));
        m.record(tm.phase_execute_us, exec_done.since(self.begin_done));
        if let Some([prepare_done, wait_end, ack]) = write {
            m.record(tm.phase_prepare_us, prepare_done.since(exec_done));
            m.record(tm.phase_commit_wait_us, wait_end.since(prepare_done));
            m.record(tm.phase_replication_ack_us, ack.since(wait_end));
        }
    }
}

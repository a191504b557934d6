//! Transaction execution: the [`TxnHandle`] drives SQL plans against the
//! distributed cluster, accumulating latency from every message the
//! transaction would send (shard RTTs, GTM round trips, lock waits, commit
//! waits, 2PC rounds, quorum waits). Every message goes through the typed
//! message plane ([`crate::net::MessagePlane`]), so per-[`RpcKind`]
//! traffic and latency are accounted at one chokepoint.
//!
//! The pipeline is phase-structured: begin acquires the snapshot
//! ([`TxnHandle::begin`]), the statement operations in [`ops`] accumulate
//! reads/locks/staged writes, and [`commit`] runs the explicit commit
//! phases — prepare → commit-point → commit-wait → replicate-ack — each
//! returning a phase-state struct that carries its timing boundaries.

mod commit;
pub mod history;
mod ops;

use crate::cluster::GlobalDb;
use crate::config::RoutingPolicy;
use crate::net::RpcKind;
use crate::stats::TxnOutcome;
use gdb_model::{Datum, GdbError, GdbResult, Row, RowKey, RowMap, TableId, Timestamp, TxnId};
use gdb_simnet::{SimDuration, SimTime};
use gdb_sqlengine::{execute, ExecOutput, Prepared, Scratch};
use gdb_txnmgr::BeginPlan;
use gdb_wal::RedoPayload;
use history::Event;

/// Nominal request/response payload size for point operations.
const OP_MSG_BYTES: u64 = 256;
/// Placeholder lock lease; replaced with the exact commit-apply time at
/// commit (nothing else runs between acquire and commit within one event).
const LOCK_LEASE: SimDuration = SimDuration(10_000_000_000);

#[derive(Debug, Clone)]
struct WriteOp {
    shard: usize,
    table: TableId,
    key: RowKey,
    /// `None` = delete.
    row: Option<Row>,
}

/// The collections a transaction fills, kept on [`GlobalDb`] from one
/// transaction to the next so that each starts with the capacity the
/// last one grew: [`TxnHandle::begin`] takes them, and the handle hands
/// them back emptied when it drops, however it ended.
#[derive(Default)]
pub(crate) struct TxnScratch {
    overlay: RowMap<usize>,
    write_log: Vec<WriteOp>,
    locked: Vec<(usize, TableId, RowKey)>,
    shards_written: Vec<usize>,
    exec: Scratch,
}

/// An open transaction bound to one computing node.
pub struct TxnHandle<'a> {
    pub(crate) db: &'a mut GlobalDb,
    cn: usize,
    txn: TxnId,
    started_at: SimTime,
    /// When snapshot acquisition finished (phase boundary for
    /// observability; the begin→begin_done interval is the
    /// `snapshot_acquire` phase).
    begin_done: SimTime,
    /// The running virtual-time cursor (start + accumulated latency).
    pub now: SimTime,
    snapshot: Timestamp,
    /// Routing epoch the CN's route table carried when this transaction
    /// began. Every shard access validates it against the shard's
    /// `owner_epoch`; a migration cutover between begin and the access
    /// yields a retryable [`GdbError::StaleRoute`].
    pub(crate) route_epoch: u64,
    /// True while this transaction reads at the RCP from replicas.
    ror: bool,
    freshness_bound: Option<SimDuration>,
    single_shard_hint: bool,
    /// This transaction's own uncommitted writes, consulted before
    /// committed state by every read: per key, the index of its latest
    /// entry in `write_log`, which owns the image.
    overlay: RowMap<usize>,
    /// Every staged write in order, each owning its image (`None` =
    /// deleted); the commit installs them from here.
    write_log: Vec<WriteOp>,
    /// Every row lock this transaction holds, once each, with the row's
    /// key: the one allocation of it the transaction makes, which its
    /// writes of the row share. Commit and abort set the release instants
    /// from here.
    locked: Vec<(usize, TableId, RowKey)>,
    /// Where the running statement's entries in `locked` begin: the locks
    /// it took, and those it found already held (moved in from before).
    /// Its later reads-for-update and writes of those rows ride them.
    stmt_start: usize,
    /// Shards holding staged writes (and so a `PENDING_COMMIT` record),
    /// ascending: the 2PC participant set.
    shards_written: Vec<usize>,
    /// What the running statement evaluates its keys into.
    exec: Scratch,
    used_replica: bool,
    finished: bool,
    /// The commit timestamp, once a COMMIT / COMMIT_PREPARED record has
    /// been appended to any shard's redo log: past this point a failure
    /// must not emit ABORT records (the replicas may already have
    /// replayed the commit).
    commit_appended: Option<Timestamp>,
}

/// A round trip from CN `cn` to the GTM; an unreachable GTM fails the
/// transaction.
fn gtm_rtt(db: &mut GlobalDb, cn: usize, kind: RpcKind) -> GdbResult<SimDuration> {
    let (cn_node, gtm_node) = (db.cns[cn].node, db.gtm_node);
    let rtt = db.plane.rtt(&mut db.topo, kind, cn_node, gtm_node);
    rtt.ok_or_else(|| GdbError::NodeUnavailable("GTM unreachable".into()))
}

/// Acquire a primary-read snapshot for CN `cn` at `now`: a GTM round
/// trip in centralized mode, else the local clock's snapshot after its
/// invocation wait. Returns the snapshot and the time it was obtained.
fn acquire_snapshot(
    db: &mut GlobalDb,
    cn: usize,
    now: SimTime,
    single_shard: bool,
) -> GdbResult<(Timestamp, SimTime)> {
    match db.cns[cn].tm.plan_begin(now, single_shard) {
        BeginPlan::ViaGtm => {
            let rtt = gtm_rtt(db, cn, RpcKind::GtmBeginTs)?;
            Ok((db.gtm.begin_snapshot(), now + rtt))
        }
        BeginPlan::Local {
            snapshot,
            invocation_wait,
        } => Ok((snapshot, now + invocation_wait)),
    }
}

impl<'a> TxnHandle<'a> {
    pub(crate) fn begin(
        db: &'a mut GlobalDb,
        cn: usize,
        at: SimTime,
        read_only: bool,
        single_shard: bool,
    ) -> GdbResult<Self> {
        if db.topo.is_node_down(db.cns[cn].node) {
            return Err(GdbError::NodeUnavailable(format!("cn {cn} is down")));
        }
        db.sync_cn_clock(cn, at);
        let route_epoch = db.cns[cn].route_epoch;
        let mut now = at;
        let mut ror = false;
        let mut freshness_bound = None;
        let mut snapshot = Timestamp::ZERO;

        if read_only {
            if let RoutingPolicy::ReadOnReplica {
                freshness_bound: fb,
            } = db.config.routing
            {
                let rcp = db.cns[cn].rcp;
                if rcp > Timestamp::ZERO {
                    ror = true;
                    freshness_bound = fb;
                    snapshot = rcp;
                }
            }
        }
        if !ror {
            (snapshot, now) = acquire_snapshot(db, cn, now, single_shard)?;
        }

        let txn = db.next_txn_id(cn);
        let TxnScratch {
            overlay,
            write_log,
            locked,
            shards_written,
            exec,
        } = std::mem::take(&mut db.txn_scratch);
        let mut handle = TxnHandle {
            db,
            cn,
            txn,
            started_at: at,
            begin_done: now,
            now,
            snapshot,
            route_epoch,
            ror,
            freshness_bound,
            single_shard_hint: single_shard,
            overlay,
            write_log,
            locked,
            stmt_start: 0,
            shards_written,
            exec,
            used_replica: false,
            finished: false,
            commit_appended: None,
        };
        handle.record_snapshot();
        Ok(handle)
    }

    /// Append an event to the history, if recording.
    fn record(&mut self, event: impl FnOnce(TxnId) -> Event) {
        if let Some(h) = &mut self.db.history {
            h.push(event(self.txn));
        }
    }

    /// Record, if recording, the snapshot just taken.
    fn record_snapshot(&mut self) {
        let db = &mut *self.db;
        if let Some(h) = &mut db.history {
            h.push(Event::Begin {
                txn: self.txn,
                cn: self.cn,
                start: self.started_at,
                snapshot: self.snapshot,
                ror: self.ror,
                cn_rcp: db.cns[self.cn].rcp,
            });
        }
    }

    /// The snapshot this transaction reads at.
    pub fn snapshot(&self) -> Timestamp {
        self.snapshot
    }

    /// True while reads are served from replicas at the RCP.
    pub fn is_ror(&self) -> bool {
        self.ror
    }

    /// Execute a prepared statement inside this transaction. The call is
    /// the statement's scope: a row it locks costs one lock request, and
    /// its later reads-for-update and writes of that row cost nothing
    /// more.
    pub fn execute(&mut self, prepared: &Prepared, params: &[Datum]) -> GdbResult<ExecOutput> {
        if matches!(prepared.bound, gdb_sqlengine::BoundStatement::Ddl(_)) {
            return Err(GdbError::Plan(
                "DDL cannot run inside a transaction; use Cluster::ddl".into(),
            ));
        }
        if self.ror {
            if !prepared.bound.is_read_only() {
                return Err(GdbError::Execution(
                    "write statement in a read-only (ROR) transaction".into(),
                ));
            }
            // DDL-visibility conditions (§IV-A): if the query's tables have
            // unreplayed DDL, fall back to primary reads for the whole txn.
            if !self
                .db
                .ddl
                .ror_allowed(self.snapshot, prepared.bound.tables())
            {
                self.fallback_to_primary()?;
            }
        }
        self.stmt_start = self.locked.len();
        let mut exec = std::mem::take(&mut self.exec);
        let out = execute(&prepared.bound, params, self, &mut exec);
        self.exec = exec;
        out
    }

    /// Downgrade an ROR transaction to primary reads (DDL gate or
    /// persistent replica blockage): acquire a normal snapshot.
    fn fallback_to_primary(&mut self) -> GdbResult<()> {
        self.ror = false;
        (self.snapshot, self.now) =
            acquire_snapshot(self.db, self.cn, self.now, self.single_shard_hint)?;
        self.record_snapshot();
        Ok(())
    }

    /// Release at `self.now` every lock no commit apply pins: all of them
    /// on abort; on commit, those on the shards it wrote nothing on (an
    /// absent key, a row only read for update).
    fn release_locks(&mut self, committed: bool) {
        for (shard, table, key) in self.locked.drain(..) {
            if !(committed && self.shards_written.contains(&shard)) {
                let locks = &mut self.db.shards[shard].storage.locks;
                locks.set_release(table, &key, self.txn, self.now);
            }
        }
    }

    fn abort_inner(&mut self) {
        self.release_locks(false);
        for &s in &self.shards_written {
            self.db.shards[s]
                .log
                .append(self.now, self.txn, RedoPayload::Abort);
        }
        self.finished = true;
        let (ts, ack) = (None, None);
        self.record(|txn| Event::End { txn, ts, ack });
    }

    /// Abort the transaction: release locks, discard buffered writes, and
    /// emit ABORT records so replicas unlock the tuples. Returns the
    /// outcome so callers can record the abort in cluster statistics.
    pub fn abort(mut self) -> TxnOutcome {
        self.abort_inner();
        TxnOutcome {
            aborted: true,
            ..self.outcome(None)
        }
    }

    /// The outcome as of now, committed at `commit_ts` (`None`: a pure
    /// read), with no participant set: [`TxnHandle::commit`] moves the
    /// handle's in once nothing else reads it.
    fn outcome(&self, commit_ts: Option<Timestamp>) -> TxnOutcome {
        TxnOutcome {
            commit_ts,
            snapshot: self.snapshot,
            completed_at: self.now,
            latency: self.now.since(self.started_at),
            shards_written: Vec::new(),
            used_replica: self.used_replica,
            aborted: false,
        }
    }
}

/// Hands the transaction's collections back to [`GlobalDb`], emptied.
impl Drop for TxnHandle<'_> {
    fn drop(&mut self) {
        let mut scratch = TxnScratch {
            overlay: std::mem::take(&mut self.overlay),
            write_log: std::mem::take(&mut self.write_log),
            locked: std::mem::take(&mut self.locked),
            shards_written: std::mem::take(&mut self.shards_written),
            exec: std::mem::take(&mut self.exec),
        };
        scratch.overlay.clear();
        scratch.write_log.clear();
        scratch.locked.clear();
        scratch.shards_written.clear();
        self.db.txn_scratch = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::TxnHandle;
    use crate::{Cluster, ClusterConfig, Datum, GdbError, Prepared, Row, SimDuration};

    /// A transaction's collections reach the next one emptied, however it
    /// ended: after an abort, and after a statement that failed midway
    /// (its range's lock set collected, a row locked), the next
    /// transaction on that CN sees none of the writes, holds none of the
    /// locks and stages no redo.
    #[test]
    fn the_next_transaction_starts_from_emptied_scratch() {
        let mut c = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(9));
        c.ddl("CREATE TABLE t (k INT NOT NULL, v INT NOT NULL, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
            .unwrap();
        let table = c.db.catalog().table_by_name("t").unwrap().id;
        let rows = (1..=4).map(|k| Row(vec![Datum::Int(k), Datum::Int(0)]));
        c.bulk_load(table, rows.collect()).unwrap();
        c.finish_load();
        let bump = c.prepare("UPDATE t SET v = v + 1 WHERE k = ?").unwrap();
        let null_all = c.prepare("UPDATE t SET v = NULL WHERE k >= ?").unwrap();
        let read = c.prepare("SELECT k, v FROM t WHERE k >= ?").unwrap();
        let one = [Datum::Int(1)];
        let mut at = c.now() + SimDuration::from_millis(10);
        for rolled_back in [true, false] {
            let failed = c.run_transaction(0, at, false, false, |txn| {
                if rolled_back {
                    txn.execute(&bump, &one)?;
                    return Err(GdbError::Execution("rolled back".into()));
                }
                txn.execute(&bump, &[Datum::Int(2)])?;
                txn.execute(&null_all, &one).map(|_| ())
            });
            assert!(failed.is_err());
            // Long after the failed transaction released its locks.
            at += SimDuration::from_secs(1);
            let (next, outcome) = c
                .run_transaction(0, at, false, false, |txn| {
                    assert!(txn.overlay.is_empty() && txn.write_log.is_empty());
                    assert!(txn.locked.is_empty() && txn.shards_written.is_empty());
                    let rows = txn.execute(&read, &one)?.rows();
                    assert!(rows.iter().all(|r| r.0[1] == Datum::Int(0)), "{rows:?}");
                    assert_eq!(rows.len(), 4);
                    assert!(txn.locked.is_empty() && txn.write_log.is_empty());
                    Ok(txn.txn)
                })
                .unwrap();
            assert!(outcome.commit_ts.is_none() && outcome.shards_written.is_empty());
            for shard in c.db.shards() {
                assert!(shard.log.staged_txns().all(|t| t != next));
                for k in 1..=4 {
                    let holder = shard.storage.locks.holder(table, &[Datum::Int(k)], at);
                    assert_eq!(holder, None, "k = {k}");
                }
            }
            at += SimDuration::from_millis(10);
        }
    }

    /// A lock the transaction already holds — taken by an earlier
    /// statement, or twice within one — is remembered once, so commit
    /// and abort release each `(shard, table, key)` once.
    #[test]
    fn a_lock_already_held_is_remembered_once() {
        let mut c = Cluster::new(ClusterConfig::globaldb_three_city().with_seed(3));
        for ddl in [
            "CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)",
            "CREATE TABLE r (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY REPLICATION",
        ] {
            c.ddl(ddl).unwrap();
        }
        for name in ["t", "r"] {
            let table = c.db.catalog().table_by_name(name).unwrap().id;
            let rows = (1..=3).map(|k| Row(vec![Datum::Int(k), Datum::Int(0)]));
            c.bulk_load(table, rows.collect()).unwrap();
        }
        c.finish_load();
        let for_update = c.prepare("SELECT v FROM t WHERE k = ? FOR UPDATE").unwrap();
        let update = c.prepare("UPDATE t SET v = v + 1 WHERE k = ?").unwrap();
        let update_all = c.prepare("UPDATE t SET v = v + 1 WHERE k >= ?").unwrap();
        let update_r = c.prepare("UPDATE r SET v = v + 1 WHERE k = ?").unwrap();
        let shards = c.db.shards().len();
        // The number of locks the transaction remembers after `stmt`.
        fn locks(txn: &mut TxnHandle, stmt: &Prepared, k: i64) -> usize {
            txn.execute(stmt, &[Datum::Int(k)]).unwrap();
            txn.locked.len()
        }
        let at = c.now() + SimDuration::from_millis(10);
        c.run_transaction(0, at, false, false, |txn| {
            assert_eq!(locks(txn, &for_update, 1), 1);
            assert_eq!(locks(txn, &update, 1), 1, "held since the last statement");
            assert_eq!(locks(txn, &update, 2), 2);
            assert_eq!(locks(txn, &update_all, 1), 3, "rows 1 and 2 already held");
            assert_eq!(locks(txn, &update_r, 1), 3 + shards);
            assert_eq!(locks(txn, &update_r, 1), 3 + shards);
            Ok(())
        })
        .unwrap();
    }
}

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
mod ops;

use crate::cluster::GlobalDb;
use crate::config::RoutingPolicy;
use crate::net::RpcKind;
use crate::stats::TxnOutcome;
use gdb_model::{Datum, GdbError, GdbResult, Row, RowKey, RowMap, TableId, Timestamp, TxnId};
use gdb_simnet::{SimDuration, SimTime};
use gdb_sqlengine::{execute, ExecOutput, Prepared};
use gdb_txnmgr::BeginPlan;
use gdb_wal::RedoPayload;

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
    /// This transaction's own uncommitted writes (`None` = deleted),
    /// consulted before committed state by every read.
    overlay: RowMap<Option<Row>>,
    write_log: Vec<WriteOp>,
    locked: Vec<(usize, TableId, RowKey)>,
    /// Shards holding staged writes (and so a `PENDING_COMMIT` record),
    /// ascending: the 2PC participant set.
    shards_written: Vec<usize>,
    used_replica: bool,
    finished: bool,
    /// Set once a COMMIT / COMMIT_PREPARED record has been appended to any
    /// shard's redo log: past this point a failure must not emit ABORT
    /// records (the replicas may already have replayed the commit).
    commit_appended: bool,
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
            let cn_node = db.cns[cn].node;
            let gtm_node = db.gtm_node;
            let rtt = db
                .plane
                .rtt(&mut db.topo, RpcKind::GtmBeginTs, cn_node, gtm_node)
                .ok_or_else(|| GdbError::NodeUnavailable("GTM unreachable".into()))?;
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
        Ok(TxnHandle {
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
            overlay: RowMap::new(),
            write_log: Vec::new(),
            locked: Vec::new(),
            shards_written: Vec::new(),
            used_replica: false,
            finished: false,
            commit_appended: false,
        })
    }

    /// The snapshot this transaction reads at.
    pub fn snapshot(&self) -> Timestamp {
        self.snapshot
    }

    /// True while reads are served from replicas at the RCP.
    pub fn is_ror(&self) -> bool {
        self.ror
    }

    /// Execute a prepared statement inside this transaction.
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
                .ror_allowed(self.snapshot, &prepared.bound.tables())
            {
                self.db.stats.ror_rejected_ddl += 1;
                self.fallback_to_primary()?;
            }
        }
        execute(&prepared.bound, params, self)
    }

    /// Downgrade an ROR transaction to primary reads (DDL gate or
    /// persistent replica blockage): acquire a normal snapshot.
    fn fallback_to_primary(&mut self) -> GdbResult<()> {
        self.ror = false;
        (self.snapshot, self.now) =
            acquire_snapshot(self.db, self.cn, self.now, self.single_shard_hint)?;
        Ok(())
    }

    fn abort_inner(&mut self) {
        for (shard, table, key) in std::mem::take(&mut self.locked) {
            self.db.shards[shard]
                .storage
                .locks
                .set_release(table, &key, self.txn, self.now);
        }
        for &s in &self.shards_written {
            self.db.shards[s]
                .log
                .append(self.now, self.txn, RedoPayload::Abort);
        }
        self.overlay.clear();
        self.write_log.clear();
        self.finished = true;
    }

    /// Abort the transaction: release locks, discard buffered writes, and
    /// emit ABORT records so replicas unlock the tuples. Returns the
    /// outcome so callers can record the abort in cluster statistics.
    pub fn abort(mut self) -> TxnOutcome {
        self.abort_inner();
        TxnOutcome {
            commit_ts: None,
            snapshot: self.snapshot,
            completed_at: self.now,
            latency: self.now.since(self.started_at),
            shards_written: vec![],
            used_replica: self.used_replica,
            aborted: true,
        }
    }
}

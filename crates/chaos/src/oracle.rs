//! The invariant oracle: a checker over the workload's own history.
//!
//! While a fault plan executes, the cluster records every transaction
//! ([`globaldb::txn::history`]). After the run heals, [`Oracle::verdict`]
//! reads every written key back and [`check`]s the whole history. The
//! recorder gives each key's version order and each transaction's
//! timestamps, so the serialization order is known, and [`check`] states
//! one rule over it: every transaction sits at a position in timestamp
//! order, and every dependency edge out of it — the version a read saw
//! (wr), the next write of that key (rw), an ack before its start
//! (real time) — runs forward from that position. DESIGN.md "Invariants
//! checked by the oracle" names each edge's Adya class. Under
//! asynchronous replication a failover may lose what [`LossWindows`]
//! excuses. RCP monotonicity and the RCP bound concern collector state,
//! not transactions: [`Oracle::arm`] schedules a state check for them.

use crate::trace::TraceHandle;
use gdb_model::{RowKey, TableId, TxnId};
use globaldb::txn::history::{Event, History, Version, HISTORY_CAPACITY};
use globaldb::{Cluster, DataAccess, GlobalDb, SimDuration, SimTime, Timestamp};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// How often the RCP state check runs while the plan executes.
const RCP_CHECK_EVERY: SimDuration = SimDuration::from_millis(25);

/// One primary-failover episode of the executed fault plan: the crash of
/// a shard's primary and the later promotion of one of its replicas.
#[derive(Debug, Clone, Copy)]
pub struct FailoverWindow {
    pub crash_at: SimTime,
    pub promote_at: SimTime,
}

/// Where asynchronous replication may lose acknowledged writes: those
/// acked less than `tail` before a failover's crash or later, by a
/// transaction that started before the promotion (it ran on the old
/// primary). Empty (the default) under synchronous replication.
#[derive(Debug, Clone, Default)]
pub struct LossWindows {
    pub failovers: Vec<FailoverWindow>,
    pub tail: SimDuration,
}

impl LossWindows {
    /// Whether a reader may miss `w`: it was never acknowledged, or it
    /// lies in a loss window.
    fn excuses(&self, w: &KeyWrite) -> bool {
        w.ack.is_none_or(|ack| {
            self.failovers
                .iter()
                .any(|f| ack + self.tail > f.crash_at && w.start < f.promote_at)
        })
    }
}

/// How much of a run's history the checker covered (the read-back not
/// counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Transactions that ended, committed or not.
    pub txns: u64,
    pub reads: u64,
    /// Writes of committed transactions.
    pub writes: u64,
}

/// One write of a key that committed, or may have (in doubt).
#[derive(Debug, Clone, Copy)]
pub struct KeyWrite {
    pub txn: TxnId,
    pub ts: Timestamp,
    /// `None` for a delete.
    pub digest: Option<u32>,
    /// When the writing transaction started.
    pub start: SimTime,
    /// `None` while in doubt: never acknowledged.
    pub ack: Option<SimTime>,
}

/// Every key's committed and in-doubt writes, in timestamp order.
pub fn key_writes(history: &History) -> BTreeMap<(TableId, RowKey), Vec<KeyWrite>> {
    let (mut starts, mut ends) = (HashMap::new(), HashMap::new());
    for e in &history.events {
        match *e {
            Event::Begin { txn, start, .. } => _ = starts.insert(txn, start),
            Event::End {
                txn,
                ts: Some(ts),
                ack,
            } => _ = ends.insert(txn, (ts, ack)),
            _ => {}
        }
    }
    let mut out: BTreeMap<_, Vec<KeyWrite>> = BTreeMap::new();
    for e in &history.events {
        let Event::Write {
            txn,
            table,
            key,
            digest,
        } = e
        else {
            continue;
        };
        let Some(&(ts, ack)) = ends.get(txn) else {
            continue;
        };
        let (txn, digest, start) = (*txn, *digest, starts[txn]);
        let writes = out.entry((*table, key.clone())).or_default();
        // A transaction's last write to a key is the image it installs.
        match writes.last_mut() {
            Some(w) if w.txn == txn => w.digest = digest,
            _ => writes.push(KeyWrite {
                txn,
                ts,
                digest,
                start,
                ack,
            }),
        }
    }
    for writes in out.values_mut() {
        writes.sort_by_key(|w| w.ts);
    }
    out
}

/// What `txn`'s read, sitting at position `at`, may not have seen,
/// described. The version it saw (its wr edge) lies at or below `at` and
/// was written as seen; the next acknowledged write of the key after that
/// version (its rw edge) lies above `at`, unless the write is excused.
/// Versions below `floor`, the oldest recorded commit, predate the
/// recording.
fn read_fault(
    (txn, at, floor): (TxnId, Timestamp, Timestamp),
    writes: &[KeyWrite],
    seen: Option<Version>,
    losses: &LossWindows,
) -> Option<String> {
    let visible: Vec<_> = writes
        .iter()
        .filter(|w| w.ts <= at && w.txn != txn)
        .collect();
    // One past the write the read observed; 0 = from before recording.
    let after = match seen {
        Some(v) if v.ts > at => return Some(format!("saw {}, above its position", v.ts)),
        Some(v) => match visible.iter().rposition(|w| w.ts == v.ts) {
            Some(i) if visible[i].digest == Some(v.digest) => i + 1,
            Some(i) => return Some(format!("saw {} unlike what {} wrote", v.ts, visible[i].txn)),
            None if v.ts >= floor => return Some(format!("saw {}, written by nobody", v.ts)),
            None => 0,
        },
        // Absent: after the newest delete, else from before recording.
        None => visible
            .iter()
            .rposition(|w| w.digest.is_none())
            .map_or(0, |i| i + 1),
    };
    // Every acknowledged write it skipped must lie in a loss window.
    let w = visible[after..].iter().rev().find(|w| !losses.excuses(w))?;
    let ack = w.ack.unwrap_or_default();
    Some(format!(
        "missed {}'s write at {} (acked at {ack})",
        w.txn, w.ts
    ))
}

/// The real-time edges: every commit acked by a transaction's start
/// (`(start, at, txn)`) lies at or below its position `at`. Sort both
/// sides by time, then sweep the newest commit acked so far.
fn external_consistency(
    mut commits: Vec<(SimTime, Timestamp, TxnId)>,
    mut starts: Vec<(SimTime, Timestamp, TxnId)>,
    out: &mut Vec<String>,
) {
    commits.sort_unstable();
    starts.sort_by_key(|q| q.0);
    let mut acked = commits.into_iter().peekable();
    let mut newest: Option<(Timestamp, TxnId, SimTime)> = None;
    for (start, at, txn) in starts {
        while let Some((ack, ts, a)) = acked.next_if(|c| c.0 <= start) {
            if newest.is_none_or(|n| ts > n.0) {
                newest = Some((ts, a, ack));
            }
        }
        if let Some((ts, a, ack)) = newest.filter(|n| n.0 > at) {
            out.push(format!(
                "external consistency: {a} committed at {ts} was acked at {ack}, before {txn} \
                 started at {start}, yet {txn} sits at {at}"
            ));
        }
    }
}

/// Check a recorded history; reads from event `read_back_from` on are
/// the post-run read-back, reported as durability violations.
pub fn check(
    history: &History,
    read_back_from: usize,
    losses: &LossWindows,
) -> (Coverage, Vec<String>) {
    let mut out = Vec::new();
    if history.overflow > 0 {
        let n = history.overflow;
        out.push(format!(
            "history overflow: {n} events past the {HISTORY_CAPACITY}-event log"
        ));
    }
    let writes = key_writes(history);
    let floor = writes.values().flatten().map(|w| w.ts).min();
    let floor = floor.unwrap_or(Timestamp(u64::MAX));
    let committed = writes.values().flatten().filter(|w| w.ack.is_some());
    let mut cov = Coverage {
        writes: committed.count() as u64,
        ..Coverage::default()
    };
    let mut snapshots = HashMap::new();
    let (mut commits, mut starts) = (Vec::new(), Vec::new());
    for (i, e) in history.events.iter().enumerate() {
        let in_run = u64::from(i < read_back_from);
        match e {
            &Event::Begin {
                txn,
                cn,
                start,
                snapshot,
                ror,
                cn_rcp,
            } => {
                snapshots.insert(txn, (start, snapshot));
                if !ror {
                    starts.push((start, snapshot, txn));
                } else if snapshot != cn_rcp {
                    let rcp = format!("CN {cn}'s RCP is {cn_rcp}");
                    out.push(format!(
                        "replica read: {txn} read at snapshot {snapshot}, {rcp}"
                    ));
                }
            }
            Event::Read {
                txn,
                table,
                key,
                seen,
                locked,
            } => {
                cov.reads += in_run;
                let ws = writes.get(&(*table, key.clone())).map_or(&[][..], |w| w);
                let snapshot = snapshots.get(txn).map_or(Timestamp::ZERO, |s| s.1);
                // A locked read holds the row until its transaction's write
                // of it commits, so it sits just below that commit; with no
                // such write it saw the newest version.
                let (at, what) = match (*locked, i >= read_back_from) {
                    (true, _) => match ws.iter().find(|w| w.txn == *txn && w.ack.is_some()) {
                        Some(own) => (own.ts.prev(), "lost update"),
                        None => (seen.map_or(Timestamp::ZERO, |v| v.ts), "locked read"),
                    },
                    (false, true) => (snapshot, "durability: read-back"),
                    (false, false) => (snapshot, "read correctness"),
                };
                if let Some(fault) = read_fault((*txn, at, floor), ws, *seen, losses) {
                    out.push(format!("{what}: {txn} read {table} {key} at {at}: {fault}"));
                }
            }
            Event::Write { .. } => {}
            &Event::End { txn, ts, ack } => {
                cov.txns += in_run;
                if let (Some(ts), Some(ack)) = (ts, ack) {
                    let start = snapshots.get(&txn).map_or(SimTime::ZERO, |s| s.0);
                    commits.push((ack, ts, txn));
                    starts.push((start, ts.prev(), txn));
                }
            }
        }
    }
    external_consistency(commits, starts, &mut out);
    (cov, out)
}

/// RCP state the periodic check compares against.
struct RcpWatch {
    /// Per-CN last observed RCP (monotonicity witness).
    last: Vec<Timestamp>,
    violations: Vec<String>,
}

impl RcpWatch {
    fn check(&mut self, db: &GlobalDb, now: SimTime, trace: &TraceHandle) {
        let mut found = Vec::new();
        for (i, cn) in db.cns().iter().enumerate() {
            if cn.rcp < self.last[i] {
                let last = self.last[i];
                found.push(format!(
                    "RCP moved backwards on CN {i}: {last:?} -> {:?}",
                    cn.rcp
                ));
            }
            self.last[i] = cn.rcp;
        }
        for (r, &region) in db.regions().iter().enumerate() {
            let computed = db.rcp_calculators()[r].current();
            if computed == Timestamp::ZERO {
                continue; // group freshly rebuilt; nothing reported yet
            }
            let replicas = db.shards().iter().flat_map(|s| s.replicas.iter());
            let in_region = replicas.filter(|rep| rep.region == region);
            let applied_max = in_region.map(|rep| rep.applier.max_commit_ts()).max();
            if let Some(m) = applied_max.filter(|&m| computed > m) {
                found.push(format!(
                    "region {r} RCP {computed:?} exceeds its replicas' max applied commit ts {m:?}"
                ));
            }
        }
        for msg in found {
            trace.borrow_mut().record(now, format!("VIOLATION {msg}"));
            self.violations.push(msg);
        }
    }
}

/// What a run's history showed.
#[derive(Debug)]
pub struct Verdict {
    pub coverage: Coverage,
    pub violations: Vec<String>,
    pub history: History,
}

/// The oracle of one run: the history recorder plus the RCP check.
pub struct Oracle {
    rcp: Rc<RefCell<RcpWatch>>,
}

impl Oracle {
    /// Start recording the cluster's history and schedule the RCP check
    /// over `[start, end)`. The check sends no message and draws no RNG.
    pub fn arm(cluster: &mut Cluster, start: SimTime, end: SimTime, trace: &TraceHandle) -> Oracle {
        cluster.db.record_history();
        let last = vec![Timestamp::ZERO; cluster.db.cns().len()];
        let rcp = Rc::new(RefCell::new(RcpWatch {
            last,
            violations: Vec::new(),
        }));
        let mut t = start;
        while t < end {
            let (watch, trace) = (Rc::clone(&rcp), Rc::clone(trace));
            cluster.sim.schedule_at(t, move |db, sim| {
                watch.borrow_mut().check(db, sim.now(), &trace);
            });
            t += RCP_CHECK_EVERY;
        }
        Oracle { rcp }
    }

    /// Read every written key back, each in its own read-write
    /// transaction at the primary; then stop recording and check the
    /// history.
    pub fn verdict(self, cluster: &mut Cluster, losses: &LossWindows) -> Verdict {
        let history = cluster.db.history();
        let keys = history.map(key_writes).unwrap_or_default().into_keys();
        let read_back_from = history.map_or(0, |h| h.events.len());
        let mut violations = std::mem::take(&mut self.rcp.borrow_mut().violations);
        for (table, key) in keys {
            let at = cluster.now();
            let read = cluster.run_transaction(0, at, false, true, |t| {
                t.point_read(table, &key, &mut |_| Ok(()))
            });
            if let Err(e) = read {
                violations.push(format!(
                    "durability: read-back of {table} {key} failed: {e}"
                ));
            }
        }
        let history = cluster.db.take_history().unwrap_or_default();
        let (coverage, found) = check(&history, read_back_from, losses);
        violations.extend(found);
        Verdict {
            coverage,
            violations,
            history,
        }
    }
}

#[cfg(test)]
mod tests;

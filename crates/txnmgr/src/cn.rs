//! The per-computing-node transaction manager.
//!
//! A CN plans how each transaction obtains its begin and commit timestamps
//! based on its current mode. The plans tell the cluster layer which
//! network interactions to charge (a GTM round trip vs. a purely local
//! clock read plus wait).

use crate::mode::TmMode;
use gdb_model::Timestamp;
use gdb_simclock::GClock;
use gdb_simnet::{SimDuration, SimTime};

/// How a transaction obtains its begin snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginPlan {
    /// GClock mode: purely local. `snapshot` is the assigned timestamp and
    /// `invocation_wait` the wait until it has passed on every clock (zero
    /// for single-shard transactions, which bypass it — paper §III).
    Local {
        snapshot: Timestamp,
        invocation_wait: SimDuration,
    },
    /// GTM or DUAL mode: one round trip to the GTM server, whose
    /// [`crate::GtmServer::begin_snapshot`] provides the snapshot.
    ViaGtm,
}

/// How a transaction obtains its commit timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitPlan {
    /// GClock mode: local assignment plus commit wait; the commit
    /// timestamp is piggybacked to the GTM server asynchronously
    /// (no latency charged) via `observe_commit`.
    GClockLocal {
        ts: Timestamp,
        commit_wait: SimDuration,
    },
    /// GTM mode: round trip to the GTM server
    /// ([`crate::GtmServer::commit_gtm`], which may also impose the DUAL
    /// 2×err wait or abort the transaction).
    ViaGtmCounter,
    /// DUAL mode: obtain a GClock timestamp locally, then a round trip to
    /// the GTM server ([`crate::GtmServer::commit_dual`]); afterwards the
    /// CN performs a clock wait until its clock passes the issued
    /// timestamp so later GClock transactions order correctly.
    ViaGtmDual { gclock_ts: Timestamp },
}

/// Per-CN transaction-management state.
#[derive(Debug, Clone)]
pub struct CnTm {
    pub mode: TmMode,
    pub gclock: GClock,
}

impl CnTm {
    pub fn new(mode: TmMode, gclock: GClock) -> Self {
        CnTm { mode, gclock }
    }

    /// Plan the begin of a transaction at virtual time `now`.
    pub fn plan_begin(&self, now: SimTime, single_shard: bool) -> BeginPlan {
        match self.mode {
            TmMode::Gtm | TmMode::Dual => BeginPlan::ViaGtm,
            TmMode::GClock => {
                let ts = self.gclock.assign_timestamp(now);
                let invocation_wait = match single_shard {
                    true => SimDuration::ZERO,
                    false => self.gclock.wait_for(now, ts),
                };
                BeginPlan::Local {
                    snapshot: ts,
                    invocation_wait,
                }
            }
        }
    }

    /// Plan the commit of a transaction reaching its commit point at `now`.
    pub fn plan_commit(&self, now: SimTime) -> CommitPlan {
        match self.mode {
            TmMode::Gtm => CommitPlan::ViaGtmCounter,
            TmMode::Dual => CommitPlan::ViaGtmDual {
                gclock_ts: self.gclock.assign_timestamp(now),
            },
            TmMode::GClock => {
                let (ts, commit_wait) = self.gclock.commit_timestamp(now);
                CommitPlan::GClockLocal { ts, commit_wait }
            }
        }
    }

    /// The clock wait a DUAL transaction performs after the GTM issues its
    /// timestamp, until it has passed on every clock (so subsequent GClock
    /// transactions see it ordered).
    pub fn dual_post_wait(&self, now: SimTime, issued: Timestamp) -> SimDuration {
        self.gclock.wait_for(now, issued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdb_simclock::GClockConfig;

    fn cn(mode: TmMode) -> CnTm {
        let mut g = GClock::new(7, 100.0, GClockConfig::default());
        g.sync(SimTime::from_secs(1));
        CnTm::new(mode, g)
    }

    #[test]
    fn gtm_mode_plans_round_trips() {
        let c = cn(TmMode::Gtm);
        assert_eq!(
            c.plan_begin(SimTime::from_secs(1), false),
            BeginPlan::ViaGtm
        );
        assert_eq!(
            c.plan_commit(SimTime::from_secs(1)),
            CommitPlan::ViaGtmCounter
        );
    }

    #[test]
    fn gclock_mode_is_local_with_waits() {
        let c = cn(TmMode::GClock);
        let now = SimTime::from_secs(1) + SimDuration::from_micros(500);
        match c.plan_begin(now, false) {
            BeginPlan::Local {
                snapshot,
                invocation_wait,
            } => {
                assert!(snapshot > Timestamp::ZERO);
                assert!(!invocation_wait.is_zero(), "multi-shard begin waits");
            }
            other => panic!("{other:?}"),
        }
        match c.plan_commit(now) {
            CommitPlan::GClockLocal { ts, commit_wait } => {
                assert!(ts > Timestamp::ZERO);
                assert!(!commit_wait.is_zero());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn single_shard_begin_bypasses_wait() {
        // The bypass takes the same snapshot as a multi-shard begin,
        // `T_clock + T_err`, and skips only its wait.
        let c = cn(TmMode::GClock);
        let now = SimTime::from_secs(1) + SimDuration::from_micros(10);
        match c.plan_begin(now, true) {
            BeginPlan::Local {
                snapshot,
                invocation_wait,
            } => {
                assert_eq!(snapshot, c.gclock.now_bound(now).latest);
                assert!(invocation_wait.is_zero());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn single_shard_snapshot_not_stale_on_idle_node() {
        // The bypass reads at the clock, not at some older timestamp.
        let c = cn(TmMode::GClock);
        let now = SimTime::from_secs(2);
        match c.plan_begin(now, true) {
            BeginPlan::Local { snapshot, .. } => {
                assert!(snapshot >= Timestamp::from_micros(1_900_000));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dual_mode_combines_clock_and_gtm() {
        let c = cn(TmMode::Dual);
        assert_eq!(
            c.plan_begin(SimTime::from_secs(1), false),
            BeginPlan::ViaGtm
        );
        match c.plan_commit(SimTime::from_secs(1) + SimDuration::from_micros(100)) {
            CommitPlan::ViaGtmDual { gclock_ts } => assert!(gclock_ts > Timestamp::ZERO),
            other => panic!("{other:?}"),
        }
    }
}

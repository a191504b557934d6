//! The Global Transaction Manager server.

use crate::mode::TmMode;
use gdb_model::{GdbError, GdbResult, Timestamp};
use gdb_simnet::SimDuration;

/// The centralized timestamp authority (one logical instance per cluster;
/// GaussDB scales it to ~1000 servers, which we model as a single
/// serialization point with network cost).
#[derive(Debug, Clone)]
pub struct GtmServer {
    mode: TmMode,
    /// The last issued timestamp. Begins read it; GTM commits increment
    /// it; DUAL commits raise it past the supplied GClock timestamp;
    /// observed GClock commits raise it too (Fig. 3's "largest GClock
    /// timestamp issued so far").
    counter: u64,
    /// Largest clock error bound reported during the current/most recent
    /// transition (sizes DUAL-mode waits; Fig. 2).
    max_err_seen: SimDuration,
}

impl GtmServer {
    pub fn new() -> Self {
        GtmServer {
            mode: TmMode::Gtm,
            counter: 0,
            max_err_seen: SimDuration::ZERO,
        }
    }

    pub fn mode(&self) -> TmMode {
        self.mode
    }

    pub fn set_mode(&mut self, mode: TmMode) {
        self.mode = mode;
    }

    /// The last issued timestamp (every commit at or below it is durable
    /// from the GTM's perspective).
    pub fn current(&self) -> Timestamp {
        Timestamp(self.counter)
    }

    /// Largest error bound reported during the transition window.
    pub fn max_err_seen(&self) -> SimDuration {
        self.max_err_seen
    }

    /// Record a clock error bound reported by a CN during transition.
    pub fn record_err_bound(&mut self, err: SimDuration) {
        self.max_err_seen = self.max_err_seen.max(err);
    }

    /// Reset the transition error tracking (at transition start).
    pub fn reset_err_tracking(&mut self) {
        self.max_err_seen = SimDuration::ZERO;
    }

    /// Serve a begin-snapshot request (GTM or DUAL mode CNs).
    pub fn begin_snapshot(&self) -> Timestamp {
        Timestamp(self.counter)
    }

    /// Serve a GTM-mode commit. While the server is in DUAL mode the
    /// transaction must additionally wait `2 × max_err_seen` before
    /// acknowledging (paper Fig. 2 / Listing 1). After the cluster has
    /// moved to GClock mode, straggler GTM transactions abort.
    pub fn commit_gtm(&mut self) -> GdbResult<(Timestamp, SimDuration)> {
        match self.mode {
            TmMode::Gtm => {
                self.counter += 1;
                Ok((Timestamp(self.counter), SimDuration::ZERO))
            }
            TmMode::Dual => {
                self.counter += 1;
                Ok((Timestamp(self.counter), self.max_err_seen * 2))
            }
            TmMode::GClock => Err(GdbError::TxnAborted(
                "GTM-mode transaction committed after cluster switched to GClock".into(),
            )),
        }
    }

    /// Serve a DUAL-mode commit: `TS = max(TS_GTM, TS_GClock) + 1`
    /// (paper Eq. 3). The counter advances to the issued value so later
    /// GTM/DUAL timestamps stay above it.
    pub fn commit_dual(&mut self, gclock_ts: Timestamp) -> Timestamp {
        let ts = self.counter.max(gclock_ts.0) + 1;
        self.counter = ts;
        Timestamp(ts)
    }

    /// Observe a GClock-mode commit (CNs piggyback these asynchronously).
    /// Keeps the counter above every issued GClock timestamp so a later
    /// GClock→GTM transition needs no waiting (Fig. 3) and so DUAL
    /// timestamps bridge correctly (Listing 1's "raise internal timestamp").
    pub fn observe_commit(&mut self, ts: Timestamp) {
        self.counter = self.counter.max(ts.0);
    }
}

impl Default for GtmServer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtm_timestamps_start_at_zero_and_increment() {
        let mut g = GtmServer::new();
        assert_eq!(g.begin_snapshot(), Timestamp(0));
        let (t1, w1) = g.commit_gtm().unwrap();
        assert_eq!(t1, Timestamp(1));
        assert_eq!(w1, SimDuration::ZERO);
        let (t2, _) = g.commit_gtm().unwrap();
        assert_eq!(t2, Timestamp(2));
        // Begin after commits sees the latest.
        assert_eq!(g.begin_snapshot(), Timestamp(2));
    }

    #[test]
    fn dual_commit_bridges_domains() {
        let mut g = GtmServer::new();
        g.commit_gtm().unwrap(); // counter = 1
                                 // A huge GClock timestamp arrives: DUAL must exceed it.
        let ts = g.commit_dual(Timestamp(1_000_000));
        assert_eq!(ts, Timestamp(1_000_001));
        // And a subsequent GTM commit continues above it.
        g.set_mode(TmMode::Dual);
        let (t, _) = g.commit_gtm().unwrap();
        assert_eq!(t, Timestamp(1_000_002));
        // Symmetric: counter larger than the GClock ts.
        let ts2 = g.commit_dual(Timestamp(5));
        assert_eq!(ts2, Timestamp(1_000_003));
    }

    #[test]
    fn gtm_commits_wait_while_server_in_dual() {
        let mut g = GtmServer::new();
        g.set_mode(TmMode::Dual);
        g.record_err_bound(SimDuration::from_micros(80));
        g.record_err_bound(SimDuration::from_micros(60)); // smaller, ignored
        let (_, wait) = g.commit_gtm().unwrap();
        assert_eq!(wait, SimDuration::from_micros(160));
    }

    #[test]
    fn straggler_gtm_commit_aborts_in_gclock_mode() {
        let mut g = GtmServer::new();
        g.set_mode(TmMode::GClock);
        let err = g.commit_gtm().unwrap_err();
        assert!(err.is_retryable());
    }

    #[test]
    fn observed_gclock_commits_raise_counter() {
        let mut g = GtmServer::new();
        g.observe_commit(Timestamp(42));
        assert_eq!(g.current(), Timestamp(42));
        g.observe_commit(Timestamp(10)); // lower, ignored
        assert_eq!(g.current(), Timestamp(42));
        // Next begin sees everything committed under GClock.
        assert_eq!(g.begin_snapshot(), Timestamp(42));
    }

    #[test]
    fn err_tracking_resets() {
        let mut g = GtmServer::new();
        g.record_err_bound(SimDuration::from_micros(100));
        g.reset_err_tracking();
        assert_eq!(g.max_err_seen(), SimDuration::ZERO);
    }
}

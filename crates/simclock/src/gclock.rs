//! The GClock time source and its timestamp protocol (paper §III).
//!
//! A transaction gets its GClock timestamp from its computing node's clock:
//! `TS_GClock = T_clock + T_err`. The protocol then requires:
//!
//! * **Invocation**: wait until `TS_GClock` has passed, then begin.
//!   (Single-shard queries bypass this wait.)
//! * **Commit**: wait until `TS_GClock` has passed, then commit.
//!
//! A timestamp has passed when it is in the past on every correct clock:
//! when this node's lower bound `T_clock − T_err` exceeds it, about
//! `2·T_err` after `T_clock + T_err` was assigned (Spanner's 2ε). Following
//! this protocol satisfies the paper's visibility requirements R.1 / R.2
//! and yields external serializability.

use crate::drift::DriftClock;
use gdb_model::{Timestamp, TimestampBound};
use gdb_simnet::{SimDuration, SimTime};

/// Configuration of the per-node GClock (paper §III defaults).
#[derive(Debug, Clone, Copy)]
pub struct GClockConfig {
    /// How often nodes synchronize with the regional time device (1 ms).
    pub sync_interval: SimDuration,
    /// Observed sync round trip (≤ 60 µs as a TCP round trip).
    pub sync_rtt: SimDuration,
    /// Assumed drift bound (200 PPM).
    pub max_drift_ppm: f64,
}

impl Default for GClockConfig {
    fn default() -> Self {
        GClockConfig {
            sync_interval: SimDuration::from_millis(1),
            sync_rtt: SimDuration::from_micros(60),
            max_drift_ppm: 200.0,
        }
    }
}

/// The per-node GClock time source.
#[derive(Debug, Clone)]
pub struct GClock {
    clock: DriftClock,
    config: GClockConfig,
    /// Health flag: a clock-synchronization failure makes the source
    /// unusable and triggers the fallback transition to GTM mode.
    healthy: bool,
}

impl GClock {
    pub fn new(seed: u64, actual_drift_ppm: f64, config: GClockConfig) -> Self {
        GClock {
            clock: DriftClock::new(seed, actual_drift_ppm, config.max_drift_ppm),
            config,
            healthy: true,
        }
    }

    /// A perfect GClock (zero drift, zero sync error) for tests.
    pub fn ideal() -> Self {
        GClock {
            clock: DriftClock::ideal(),
            config: GClockConfig {
                sync_interval: SimDuration::from_millis(1),
                sync_rtt: SimDuration::ZERO,
                max_drift_ppm: 0.0,
            },
            healthy: true,
        }
    }

    /// Synchronize with the regional time device (call on the sync period).
    pub fn sync(&mut self, true_now: SimTime) {
        self.clock.sync(true_now, self.config.sync_rtt);
    }

    /// Current error bound `T_err`.
    pub fn t_err(&self, true_now: SimTime) -> SimDuration {
        self.clock.error_bound(true_now)
    }

    /// The TrueTime-style uncertainty interval `[T_clock − T_err, T_clock + T_err]`.
    pub fn now_bound(&self, true_now: SimTime) -> TimestampBound {
        let read_ns = self.clock.reading_ns(true_now);
        let err_ns = self.clock.error_bound(true_now).as_nanos() as i128;
        // Round the upper bound up and the lower bound down to be safe
        // across the ns→µs truncation; neither lies before the epoch.
        let latest = Timestamp::from_micros(((read_ns + err_ns).max(0) as u64).div_ceil(1_000));
        let earliest = Timestamp::from_micros((read_ns - err_ns).max(0) as u64 / 1_000);
        TimestampBound { earliest, latest }
    }

    /// Assign a GClock timestamp: `TS = T_clock + T_err` (upper bound).
    pub fn assign_timestamp(&self, true_now: SimTime) -> Timestamp {
        self.now_bound(true_now).latest
    }

    /// How long the node must wait until `ts` has passed on every correct
    /// clock: until its own `earliest` exceeds `ts` (the invocation /
    /// commit wait). True time is then past `ts`, so any transaction that
    /// starts later, on any node, is assigned a larger timestamp — which
    /// is what makes commits externally visible in timestamp order.
    pub fn wait_for(&self, true_now: SimTime, ts: Timestamp) -> SimDuration {
        let mut wait = SimDuration::ZERO;
        // Each step waits out the bound as it stood when the step began;
        // the bound grows by the drift allowance meanwhile, so repeat
        // (each step is `max_drift` times shorter than the last).
        while self.now_bound(true_now + wait).earliest <= ts {
            let at = true_now + wait;
            let bound_ns = (ts.as_micros() + 1) * 1_000 + self.t_err(at).as_nanos();
            wait += self.clock.wait_until_after(at, bound_ns - 1);
        }
        wait
    }

    /// Combined helper: assign a commit timestamp and the commit-wait
    /// duration that must elapse before acknowledging the commit.
    pub fn commit_timestamp(&self, true_now: SimTime) -> (Timestamp, SimDuration) {
        let ts = self.assign_timestamp(true_now);
        (ts, self.wait_for(true_now, ts))
    }

    pub fn is_healthy(&self) -> bool {
        self.healthy
    }

    /// Simulate a clock-synchronization failure (paper: the system then
    /// transitions to GTM mode until the issue is resolved).
    pub fn set_healthy(&mut self, healthy: bool) {
        self.healthy = healthy;
    }

    /// Direct access to the underlying clock model (testing hook).
    pub fn clock(&self) -> &DriftClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synced_gclock(seed: u64, drift: f64, at: SimTime) -> GClock {
        let mut g = GClock::new(seed, drift, GClockConfig::default());
        g.sync(at);
        g
    }

    #[test]
    fn bound_contains_true_time() {
        let t0 = SimTime::from_secs(100);
        let g = synced_gclock(1, 150.0, t0);
        for ms in 0..5 {
            let now = t0 + SimDuration::from_millis(ms);
            let b = g.now_bound(now);
            let true_us = Timestamp::from_micros(now.as_micros());
            assert!(
                b.earliest <= true_us && true_us <= b.latest,
                "true time {true_us} outside [{}, {}]",
                b.earliest,
                b.latest
            );
        }
    }

    #[test]
    fn commit_wait_establishes_external_order() {
        // Node A (fast clock) commits; after its commit wait, node B (slow
        // clock) starts a transaction. B's snapshot must exceed A's commit
        // timestamp — this is R.1.
        let t0 = SimTime::from_secs(50);
        let a = synced_gclock(10, 200.0, t0);
        let b = synced_gclock(20, -200.0, t0);

        let commit_at = t0 + SimDuration::from_micros(300);
        let (commit_ts, wait) = a.commit_timestamp(commit_at);
        let ack_at = commit_at + wait; // client learns of the commit here

        // Any transaction starting (in true time) after the ack:
        let start_at = ack_at + SimDuration::from_nanos(1);
        let snapshot = b.assign_timestamp(start_at);
        assert!(
            snapshot > commit_ts,
            "snapshot {snapshot} must exceed committed {commit_ts}"
        );
    }

    #[test]
    fn commit_wait_is_roughly_two_t_err() {
        let t0 = SimTime::from_secs(10);
        let g = synced_gclock(3, 0.0, t0);
        let now = t0 + SimDuration::from_micros(500);
        let (_, wait) = g.commit_timestamp(now);
        // The lower bound T_clock − T_err must pass T_clock + T_err: 2·T_err
        // (T_err as it stands at the start and at the end of the wait),
        // plus under 1 µs rounding the ts up to a µs and 1 µs because
        // `earliest` must exceed it.
        let (start_err, end_err) = (g.t_err(now), g.t_err(now + wait));
        let rounding = SimDuration::from_micros(2);
        assert!(wait >= start_err + start_err, "{wait} vs T_err {start_err}");
        assert!(
            wait <= end_err + end_err + rounding,
            "{wait} vs T_err {end_err}"
        );
    }

    #[test]
    fn ideal_clock_has_zero_wait() {
        let g = GClock::ideal();
        let (ts, wait) = g.commit_timestamp(SimTime::from_secs(1));
        assert_eq!(ts, Timestamp::from_micros(1_000_000));
        // Ideal: err 0, but still must tick past its own assigned ts.
        assert!(wait.as_micros() <= 1);
    }

    #[test]
    fn timestamps_use_epoch_micros() {
        let g = GClock::ideal();
        let ts = g.assign_timestamp(SimTime::from_secs(1_700_000_000));
        // A "10 digit number" domain as the paper notes (seconds-scale
        // epoch), here in µs: monotone with true time.
        assert!(ts > Timestamp::from_micros(1_000_000));
    }

    #[test]
    fn health_flag_roundtrip() {
        let mut g = GClock::ideal();
        assert!(g.is_healthy());
        g.set_healthy(false);
        assert!(!g.is_healthy());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// R.1 as a property: for arbitrary drifts within the bound and
        /// arbitrary commit times, a transaction that starts (in true time)
        /// after another's commit-wait completes always gets a larger
        /// timestamp — a multi-shard begin, and a single-shard begin on
        /// a second CN, which takes `T_clock + T_err` without waiting.
        #[test]
        fn external_consistency_holds(
            drift_a in -200.0f64..200.0,
            drift_b in -200.0f64..200.0,
            drift_c in -200.0f64..200.0,
            seed_a in 0u64..1000,
            seed_b in 0u64..1000,
            commit_offset_us in 0u64..900,
            gap_ns in 1u64..1_000_000,
        ) {
            let t0 = SimTime::from_secs(1);
            let mut a = GClock::new(seed_a, drift_a, GClockConfig::default());
            let mut b = GClock::new(seed_b.wrapping_add(7777), drift_b, GClockConfig::default());
            let mut c = GClock::new(seed_b.wrapping_add(9999), drift_c, GClockConfig::default());
            a.sync(t0);
            b.sync(t0);
            c.sync(t0);

            let commit_at = t0 + SimDuration::from_micros(commit_offset_us);
            let (commit_ts, wait) = a.commit_timestamp(commit_at);
            let start_at = commit_at + wait + SimDuration::from_nanos(gap_ns);
            let snapshot = b.assign_timestamp(start_at);
            prop_assert!(snapshot > commit_ts,
                "snapshot {} <= commit {}", snapshot.0, commit_ts.0);
            let single_shard = c.assign_timestamp(start_at);
            prop_assert!(single_shard > commit_ts,
                "single-shard snapshot {} <= commit {}", single_shard.0, commit_ts.0);
        }

        /// The advertised uncertainty interval always contains true time,
        /// across sync cadences.
        #[test]
        fn bound_always_contains_true_time(
            drift in -200.0f64..200.0,
            seed in 0u64..1000,
            probe_ms in 0u64..10,
        ) {
            let t0 = SimTime::from_secs(3);
            let mut g = GClock::new(seed, drift, GClockConfig::default());
            g.sync(t0);
            let now = t0 + SimDuration::from_millis(probe_ms);
            let b = g.now_bound(now);
            let true_ts = Timestamp::from_micros(now.as_micros());
            prop_assert!(b.earliest <= true_ts);
            prop_assert!(true_ts <= b.latest);
        }
    }
}

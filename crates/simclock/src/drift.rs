//! A drifting hardware clock model.
//!
//! The clock runs at a constant rate `1 + drift_ppm · 10⁻⁶` relative to true
//! virtual time. Synchronizing against the regional time device resets the
//! clock to true time plus a residual error bounded by half the sync round
//! trip (the device's own GPS/atomic error is nanoseconds — negligible).

use gdb_simnet::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A simulated hardware clock with bounded drift.
#[derive(Debug, Clone)]
pub struct DriftClock {
    /// Actual drift of this crystal in parts per million (signed). The
    /// *bound* the system assumes is [`DriftClock::max_drift_ppm`]; the
    /// actual value must stay within it for correctness to hold.
    drift_ppm: f64,
    /// Assumed drift bound (paper: 200 PPM).
    max_drift_ppm: f64,
    /// True time of the last synchronization.
    last_sync_true: SimTime,
    /// This clock's reading at `last_sync_true`, in nanoseconds.
    reading_at_sync_ns: i128,
    /// Error bound contributed by the last sync (T_sync), nanoseconds.
    sync_err_ns: u64,
    rng: SmallRng,
}

impl DriftClock {
    /// A clock with the given actual drift and assumed bound. Panics if the
    /// actual drift exceeds the bound (that would be a broken deployment —
    /// modelled separately via [`DriftClock::force_offset`]).
    pub fn new(seed: u64, drift_ppm: f64, max_drift_ppm: f64) -> Self {
        assert!(
            drift_ppm.abs() <= max_drift_ppm,
            "actual drift must be within the assumed bound"
        );
        DriftClock {
            drift_ppm,
            max_drift_ppm,
            last_sync_true: SimTime::ZERO,
            reading_at_sync_ns: 0,
            sync_err_ns: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A perfectly synchronized, drift-free clock (tests / the time device).
    pub fn ideal() -> Self {
        DriftClock::new(0, 0.0, 0.0)
    }

    /// The clock's reading at true time `true_now`, in nanoseconds.
    ///
    /// The clock is a linear function of true time anchored at the last
    /// sync, valid in both directions: the simulation sometimes evaluates
    /// the clock at instants *before* the anchor (a transaction's commit
    /// may fast-forward the sync to its future cursor time while later
    /// events run at earlier virtual times), and extrapolating backwards
    /// keeps all readings consistent. Near the start of virtual time a
    /// sync residual can put the reading before the epoch: it is then
    /// negative, still advancing at the clock's rate.
    pub fn reading_ns(&self, true_now: SimTime) -> i128 {
        let elapsed = true_now.as_nanos() as i128 - self.last_sync_true.as_nanos() as i128;
        let advanced = elapsed as f64 * (1.0 + self.drift_ppm * 1e-6);
        self.reading_at_sync_ns + advanced as i128
    }

    /// [`DriftClock::reading_ns`], read as an instant since the epoch (0
    /// before it).
    pub fn read_ns(&self, true_now: SimTime) -> u64 {
        self.reading_ns(true_now).max(0) as u64
    }

    /// The clock's reading as a `SimTime` (what the node believes now is).
    pub fn read(&self, true_now: SimTime) -> SimTime {
        SimTime::from_nanos(self.read_ns(true_now))
    }

    /// Error bound at `true_now`: `T_err = T_sync + T_drift` (paper Eq. 1),
    /// where `T_drift = max_drift_ppm · elapsed_since_sync`.
    pub fn error_bound(&self, true_now: SimTime) -> SimDuration {
        let elapsed = true_now.since(self.last_sync_true).as_nanos() as f64;
        let t_drift = elapsed * self.max_drift_ppm * 1e-6;
        SimDuration::from_nanos(self.sync_err_ns + t_drift.ceil() as u64)
    }

    /// Synchronize against the regional time device. `sync_rtt` is the
    /// observed TCP round trip; the residual offset after sync is uniform in
    /// `±rtt/2` and the error bound charged is the full round trip
    /// (conservative, as in the paper's 60 µs figure).
    pub fn sync(&mut self, true_now: SimTime, sync_rtt: SimDuration) {
        let half = (sync_rtt.as_nanos() / 2) as i128;
        let residual: i128 = if half == 0 {
            0
        } else {
            self.rng.gen_range(-half..=half)
        };
        self.last_sync_true = true_now;
        self.reading_at_sync_ns = true_now.as_nanos() as i128 + residual;
        self.sync_err_ns = sync_rtt.as_nanos();
    }

    /// Inject a gross offset fault (e.g. a mis-stepped clock) — used to test
    /// the GClock→GTM fallback path. After this the clock's *actual* error
    /// may exceed its advertised bound.
    pub fn force_offset(&mut self, offset: i64) {
        self.reading_at_sync_ns += offset as i128;
    }

    /// True error (reading − true time) at `true_now`, in nanoseconds.
    /// Testing hook: verifies the advertised bound actually covers reality.
    pub fn true_error_ns(&self, true_now: SimTime) -> i128 {
        self.read_ns(true_now) as i128 - true_now.as_nanos() as i128
    }

    /// How long (in true time) until this clock's reading exceeds
    /// `target_ns`. Used for invocation / commit waits: the caller sleeps
    /// this long, after which `read_ns > target_ns` is guaranteed.
    pub fn wait_until_after(&self, true_now: SimTime, target_ns: u64) -> SimDuration {
        let current = self.reading_ns(true_now);
        if current > target_ns as i128 {
            return SimDuration::ZERO;
        }
        let deficit = (target_ns as i128 - current + 1) as f64;
        let rate = 1.0 + self.drift_ppm * 1e-6;
        SimDuration::from_nanos((deficit / rate).ceil() as u64)
    }

    pub fn max_drift_ppm(&self) -> f64 {
        self.max_drift_ppm
    }

    pub fn last_sync(&self) -> SimTime {
        self.last_sync_true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_clock_tracks_true_time() {
        let c = DriftClock::ideal();
        let t = SimTime::from_secs(10);
        assert_eq!(c.read(t), t);
        assert_eq!(c.error_bound(t), SimDuration::ZERO);
    }

    #[test]
    fn fast_clock_runs_ahead() {
        let c = DriftClock::new(1, 200.0, 200.0);
        let t = SimTime::from_secs(1);
        // +200 PPM over 1 s = +200 µs.
        let err = c.true_error_ns(t);
        assert!((err - 200_000).abs() < 1_000, "err={err}");
    }

    #[test]
    fn error_bound_grows_with_time_since_sync() {
        let mut c = DriftClock::new(2, -150.0, 200.0);
        c.sync(SimTime::from_secs(1), SimDuration::from_micros(60));
        let b1 = c.error_bound(SimTime::from_secs(1));
        let b2 = c.error_bound(SimTime::from_secs(2));
        assert_eq!(b1, SimDuration::from_micros(60));
        // +200 PPM * 1 s = 200 µs drift allowance.
        assert_eq!(b2, SimDuration::from_micros(260));
    }

    #[test]
    fn advertised_bound_covers_true_error() {
        let mut c = DriftClock::new(3, 180.0, 200.0);
        for i in 0..1000 {
            let now = SimTime::from_millis(i);
            if i % 10 == 0 {
                c.sync(now, SimDuration::from_micros(60));
            }
            let bound = c.error_bound(now).as_nanos() as i128;
            let err = c.true_error_ns(now).abs();
            assert!(err <= bound, "at {now}: |err|={err} > bound={bound}");
        }
    }

    #[test]
    fn wait_until_after_is_sufficient() {
        let mut c = DriftClock::new(4, -120.0, 200.0);
        c.sync(SimTime::from_secs(5), SimDuration::from_micros(60));
        let now = SimTime::from_secs(6);
        let target = c.read_ns(now) + 40_000; // 40 µs ahead of the reading
        let wait = c.wait_until_after(now, target);
        assert!(c.read_ns(now + wait) > target);
        // And the wait is not wildly longer than needed (≤ 2× deficit).
        assert!(wait.as_nanos() < 90_000);
    }

    /// Before the epoch the reading is negative but still advances, so a
    /// wait to pass an instant counts from it: counted from the clamped
    /// reading 0 it would end while the clock still reads 0.
    #[test]
    fn wait_until_after_counts_from_before_the_epoch() {
        let mut c = DriftClock::new(6, 0.0, 200.0);
        c.sync(SimTime::ZERO, SimDuration::ZERO);
        c.force_offset(-5_000_000);
        let now = SimTime::from_millis(1);
        assert_eq!(c.reading_ns(now), -4_000_000);
        assert_eq!(c.read_ns(now), 0);
        let wait = c.wait_until_after(now, 0);
        assert_eq!(wait, SimDuration::from_nanos(4_000_001));
        assert!(c.read_ns(now + wait) > 0);
    }

    #[test]
    fn wait_is_zero_when_already_past() {
        let c = DriftClock::ideal();
        assert_eq!(
            c.wait_until_after(SimTime::from_secs(1), 500),
            SimDuration::ZERO
        );
    }

    #[test]
    fn forced_offset_breaks_the_bound() {
        let mut c = DriftClock::new(5, 0.0, 200.0);
        c.sync(SimTime::from_secs(1), SimDuration::from_micros(60));
        c.force_offset(5_000_000); // +5 ms step fault
        let now = SimTime::from_secs(1) + SimDuration::from_millis(1);
        assert!(c.true_error_ns(now) > c.error_bound(now).as_nanos() as i128);
    }

    #[test]
    #[should_panic(expected = "within the assumed bound")]
    fn constructor_rejects_out_of_bound_drift() {
        let _ = DriftClock::new(0, 300.0, 200.0);
    }
}

//! Real (wall-clock) time behind the virtual-time interface.
//!
//! Everything in this workspace tells time in [`SimTime`] nanoseconds.
//! The simulated engine *assigns* those instants; a real-cluster backend
//! (`gdb-realnet`) must instead *measure* them. [`WallClock`] does: a
//! monotonic clock anchored at an origin, reporting
//! elapsed real nanoseconds as `SimTime` so measured delays slot into
//! the same histograms, RCP math, and bench artifacts as simulated ones.
//!
//! Deliberately *not* used anywhere in `crates/core` — transport-generic
//! core code stays on virtual time (a grep test enforces it), and only
//! transport implementations and their silo threads read a `WallClock`.

use gdb_simnet::{SimDuration, SimTime};
use std::time::Instant;

/// Monotonic real time, anchored when constructed; copies share the
/// anchor, so their readings are comparable.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// The current instant, in nanoseconds since this clock's origin.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.origin.elapsed().as_nanos() as u64)
    }

    /// Real time elapsed since `earlier` (saturating at zero).
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        self.now().since(earlier)
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_and_advances() {
        let clock = WallClock::new();
        let a = clock.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = clock.now();
        assert!(b > a, "wall clock went backwards: {a} -> {b}");
        assert!(
            b.since(a) >= SimDuration::from_millis(1),
            "2ms sleep measured as {}",
            b.since(a)
        );
    }
}

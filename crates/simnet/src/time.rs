//! Virtual time.
//!
//! All waiting in the reproduction — commit waits, WAN round trips, clock
//! sync periods, think times — happens in virtual time, so a 100 ms commit
//! wait costs nothing real and every run is reproducible.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant of virtual time, in nanoseconds since the simulation epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    pub const MAX: SimTime = SimTime(u64::MAX);

    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }
    /// Duration from a floating-point number of seconds (rounding down).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9) as u64)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_millis(), 500);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!((t - SimTime::from_millis(10)).as_millis(), 5);
        // Saturating: earlier - later = 0.
        assert_eq!(
            SimTime::from_millis(1) - SimTime::from_millis(5),
            SimDuration::ZERO
        );
        assert_eq!((SimDuration::from_millis(4) * 3).as_millis(), 12);
        assert_eq!((SimDuration::from_millis(9) / 3).as_millis(), 3);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.since(a).as_secs_f64(), 1.0);
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_millis(25).to_string(), "25.000ms");
        assert_eq!(SimDuration::from_micros(60).to_string(), "60.0us");
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
    }
}

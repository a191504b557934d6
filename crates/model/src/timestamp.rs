//! The global timestamp ordering domain.
//!
//! All three transaction-management modes of the paper produce values in this
//! single domain:
//!
//! * **GTM** timestamps start at zero and increment by one per transaction
//!   (paper Eq. 2), so they are small integers.
//! * **GClock** timestamps are the node's synchronized clock reading in
//!   microseconds of (virtual) epoch time plus the error bound (paper Eq. 1),
//!   so they are large and grow even when the system is idle.
//! * **DUAL** timestamps are `max(TS_GTM, TS_GClock) + 1` (paper Eq. 3) and
//!   bridge the two during online transitions.
//!
//! The incompatibility between the first two (GTM grows much slower than wall
//! clock) is precisely what makes the paper's DUAL-mode migration necessary.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A commit / snapshot timestamp. One unit is one microsecond when produced
/// by GClock; GTM units are abstract counter ticks.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp: nothing is visible at this snapshot.
    pub const ZERO: Timestamp = Timestamp(0);

    /// The maximum representable timestamp.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// The successor timestamp (saturating).
    pub fn next(self) -> Timestamp {
        Timestamp(self.0.saturating_add(1))
    }

    /// The predecessor timestamp (saturating).
    pub fn prev(self) -> Timestamp {
        Timestamp(self.0.saturating_sub(1))
    }

    /// Construct from microseconds of epoch time (the GClock convention).
    pub fn from_micros(us: u64) -> Timestamp {
        Timestamp(us)
    }

    /// Interpret as microseconds of epoch time (the GClock convention).
    pub fn as_micros(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

/// An uncertainty interval around a clock reading, as returned by the GClock
/// time source: the true global time is guaranteed to lie within
/// `[earliest, latest]`.
///
/// This mirrors Spanner's TrueTime API; `latest - earliest == 2 * T_err`
/// where `T_err = T_sync + T_drift` (paper Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimestampBound {
    /// Lower bound on true time.
    pub earliest: Timestamp,
    /// Upper bound on true time. Commit timestamps are taken from here and
    /// the committer performs a commit wait until its clock passes it.
    pub latest: Timestamp,
}

impl TimestampBound {
    /// An exact bound with zero uncertainty (useful for tests and for the
    /// centralized GTM, whose counter has no uncertainty).
    pub fn exact(ts: Timestamp) -> Self {
        TimestampBound {
            earliest: ts,
            latest: ts,
        }
    }

    /// Width of the uncertainty interval (`2 * T_err` in paper terms).
    pub fn uncertainty(&self) -> u64 {
        self.latest.0 - self.earliest.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_numeric() {
        assert!(Timestamp(1) < Timestamp(2));
        assert_eq!(Timestamp(5).next(), Timestamp(6));
        assert_eq!(Timestamp(5).prev(), Timestamp(4));
        assert_eq!(Timestamp::ZERO.prev(), Timestamp::ZERO);
        assert_eq!(Timestamp::MAX.next(), Timestamp::MAX);
    }

    #[test]
    fn bound_uncertainty() {
        let b = TimestampBound {
            earliest: Timestamp(100),
            latest: Timestamp(140),
        };
        assert_eq!(b.uncertainty(), 40);
    }

    #[test]
    fn exact_bound_has_zero_uncertainty() {
        let b = TimestampBound::exact(Timestamp(7));
        assert_eq!(b.uncertainty(), 0);
        assert_eq!(b.earliest, b.latest);
    }
}

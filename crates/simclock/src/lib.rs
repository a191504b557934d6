//! Global clock infrastructure (paper §III).
//!
//! GaussDB-Global deploys a GPS + atomic-clock time device in each regional
//! cluster; machines synchronize against it every millisecond over TCP
//! (≤ 60 µs round trip) and their crystal drift is bounded at 200 PPM.
//! A GClock timestamp is `TS = T_clock + T_err` with
//! `T_err = T_sync + T_drift` (paper Eq. 1).
//!
//! This crate models exactly that on virtual time:
//!
//! * [`DriftClock`] — a hardware clock running at `1 ± drift` relative to
//!   true (virtual) time, resynchronized periodically with a residual error
//!   bounded by the sync round trip.
//! * [`GClock`] — the per-node time source returning
//!   [`gdb_model::TimestampBound`] uncertainty intervals, plus the commit /
//!   invocation wait rules.

pub mod drift;
pub mod gclock;
pub mod wall;

pub use drift::DriftClock;
pub use gclock::{GClock, GClockConfig};
pub use wall::{TimeSource, WallClock};

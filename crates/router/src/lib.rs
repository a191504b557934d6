//! Dynamic Read-On-Replica node selection (paper §IV-B, Fig. 5).
//!
//! The same data is available from multiple nodes with different
//! freshness, latency, load, and health. Each CN tracks per-node metrics
//! and periodically computes a **skyline** (Pareto front) over
//! (staleness, latency-and-load cost). A query with a bounded-staleness
//! requirement picks the minimum-cost skyline candidate that satisfies its
//! bound; crashed or overloaded nodes fall off the skyline automatically,
//! which is how GlobalDB load-balances and fails over reads.

pub mod metrics;
pub mod skyline;
pub mod staleness;
pub mod table;

pub use skyline::{NodeMetrics, Skyline};
pub use staleness::{estimate_staleness_gclock, estimate_staleness_gtm};
pub use table::{RouteEntry, RouteTable};

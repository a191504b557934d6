//! Virtual-time observability for the GaussDB-Global reproduction.
//!
//! The paper argues with curves — commit-wait cost under GClock vs. GTM
//! (Fig. 6a), RTT sweeps (Fig. 6b), ROR freshness (Fig. 6c), redo-shipping
//! bandwidth (Fig. 6d) — which requires per-phase instrumentation, not
//! end-of-run aggregates. This crate provides the three pieces the bench
//! harness builds on:
//!
//! * [`Tracer`] — trace spans keyed to virtual time ([`SimTime`]). Every
//!   transaction records begin → snapshot-acquire → execute → prepare →
//!   commit-wait → replication-ack; RCP rounds, log-shipping batches and
//!   skyline re-selections are spanned too. Because all timestamps are
//!   virtual, the same seed yields a bit-identical trace.
//! * [`MetricsRegistry`] — cheap counters, gauges, and bounded-quantile
//!   histograms keyed by static names, snapshotted into a serializable,
//!   comparable [`MetricsReport`].
//! * [`BenchArtifact`] — the stable `gdb-bench/v1` JSON schema every
//!   figure binary emits via `--json`.
//!
//! The vendored `serde` is a no-op facade, so JSON encoding is
//! hand-rolled in [`json`] (compact writer + recursive-descent parser)
//! with deterministic key order throughout.

pub mod config;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use config::{cli_path, flag_value, parse_duration, ConfDoc, ConfTable, ConfValue};
pub use json::Json;
pub use metrics::{
    CounterId, HistId, HistSummary, Metric, MetricName, MetricsRegistry, MetricsReport,
};
pub use report::{to_chrome_trace, BenchArtifact, BenchSeries, NetStats};
pub use span::{Span, SpanId, SpanKind, Tracer};

use serde::{Deserialize, Serialize};

/// The observability bundle a cluster owns: one tracer + one registry.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Obs {
    pub tracer: Tracer,
    pub metrics: MetricsRegistry,
}

impl Obs {
    pub fn new() -> Self {
        Self::default()
    }
}

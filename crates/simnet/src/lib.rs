//! Deterministic discrete-event simulator for the GaussDB-Global
//! reproduction.
//!
//! The paper's evaluation runs on physical clusters — a single-rack
//! "One-Region" cluster with `tc`-injected delays, and a "Three-City" WAN
//! deployment (Xi'an / Langzhong / Dongguan, 25/35/55 ms RTT triangle).
//! This crate substitutes that hardware with a virtual-time event engine:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`Sim`] — the event queue: schedule closures at virtual times, run them
//!   in deterministic order.
//! * [`Topology`] — regions, nodes, and links with latency / bandwidth /
//!   jitter, a `tc`-style injected extra delay, partitions, and node
//!   failures. Message cost accounts for Nagle's algorithm and a
//!   Reno-vs-BBR congestion model, the two network knobs the paper tunes
//!   (§V-A).
//! * [`stats`] — small statistics helpers (histograms, percentiles) used by
//!   the workload drivers and benches.

pub mod event;
pub mod metrics;
#[cfg(test)]
mod reference;
pub mod stats;
pub mod time;
pub mod topology;

pub use event::{NoEvent, Sim, TypedEvent};
pub use time::{SimDuration, SimTime};
pub use topology::{
    CongestionModel, LinkParams, NetNodeId, NodeKind, RegionId, Topology, TopologyBuilder,
};

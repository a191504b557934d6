//! Benchmark workloads for the GaussDB-Global reproduction (paper §V).
//!
//! * [`tpcc`] — a complete TPC-C implementation: the nine-table schema
//!   (hash-distributed by warehouse, `ITEM` replicated), a deterministic
//!   loader, and all five transaction types with the spec's input
//!   distributions (NURand, 1% invalid-item rollbacks, 15% remote Payment
//!   customers, ~1% remote New-Order supply warehouses). A read-only
//!   variant (Order-Status + Stock-Level, 50% multi-shard) reproduces the
//!   Fig. 6c configuration.
//! * [`sysbench`] — Sysbench OLTP: N tables of M rows; the Point-Select
//!   workload of Fig. 6d (uniform keys ⇒ ~2/3 of fetches remote on the
//!   Three-City cluster), with optional Zipfian / hot-spot key skew
//!   ([`driver::KeyDistribution`]) for the rebalancing experiments.
//! * [`driver`] — a closed-loop multi-terminal driver over virtual time
//!   with a controllable remote-transaction fraction (§V-A) and think
//!   times, producing throughput / latency reports.

pub mod driver;
pub mod report;
pub mod sysbench;
pub mod tpcc;

pub use driver::{run_workload, KeyDistribution, KeySampler, RunConfig, Workload};
pub use report::WorkloadReport;

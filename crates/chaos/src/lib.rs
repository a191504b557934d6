//! Chaos testing for GaussDB-Global: declarative fault plans, a seeded
//! nemesis schedule generator, and an invariant oracle.
//!
//! The subsystem has two halves:
//!
//! * a **fault plan engine** ([`plan::FaultPlan`]) that schedules
//!   [`fault::Fault`]s as first-class simulation events — node crashes and
//!   restarts with WAL catch-up, replica promotion, GTM failover,
//!   collector-CN crashes mid-RCP-round, region partitions, `tc`-style
//!   delay spikes, and clock-sync outages — either hand-written (canned
//!   plans) or generated from a seed by the [`nemesis`] module, so any run
//!   replays bit-for-bit from `--seed N`;
//! * an **invariant oracle** ([`oracle`]) that records the workload's
//!   own transactions while the plan executes and checks that history —
//!   external consistency, read correctness, lost updates, durability of
//!   acknowledged writes, replica-read containment — plus RCP
//!   monotonicity and bounds, and (via
//!   [`gdb_workloads::tpcc::consistency`]) the TPC-C consistency
//!   conditions once the dust settles.
//!
//! [`runner::run_plan`] / [`runner::run_nemesis`] tie the two together
//! with a TPC-C workload running in the foreground.

pub mod fault;
pub mod nemesis;
pub mod oracle;
pub mod plan;
pub mod runner;
pub mod scenario;
pub mod trace;

pub use fault::Fault;
pub use nemesis::NemesisConfig;
pub use oracle::{Coverage, FailoverWindow, LossWindows, Oracle, Verdict};
pub use plan::{FaultEvent, FaultPlan};
pub use runner::{run_nemesis, run_plan, run_plan_prepped, ChaosConfig, ChaosReport};
pub use scenario::{PlanSource, Scenario};
pub use trace::{Trace, TraceHandle};

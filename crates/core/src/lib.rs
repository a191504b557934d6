//! GaussDB-Global ("GlobalDB") — the assembled geo-distributed database
//! cluster, reproducing the system of the ICDE 2024 paper.
//!
//! A [`Cluster`] wires together every substrate in this workspace on a
//! deterministic virtual-time engine:
//!
//! * stateless **computing nodes** (CNs) that parse/plan/execute SQL and
//!   carry per-node transaction-management state ([`gdb_txnmgr::CnTm`]);
//! * hash/range-sharded **data nodes** with MVCC storage and redo logs,
//!   each with replica DNs in other regions;
//! * a **GTM server** for centralized mode, **GClock** for decentralized
//!   mode, and the online **DUAL-mode transition** between them (§III);
//! * **asynchronous (or quorum-synchronous) redo shipping** with optional
//!   LZ4 compression, parallel replay, per-replica freshness tracking,
//!   the **RCP** service with heartbeats, and **skyline-based
//!   Read-On-Replica** routing (§IV).
//!
//! ## Simulation semantics
//!
//! Transactions execute their logic at their start event against real MVCC
//! state while their *latency* accumulates from the message sequence they
//! would incur (GTM round trips, shard RTTs, 2PC rounds, commit waits,
//! lock waits, quorum waits). Transactions therefore serialize in start
//! order; a reader that encounters a version whose commit is still in
//! flight at its own virtual time waits until that commit's completion
//! instant — the same blocking a real in-doubt transaction causes.
//! Redo records are staged with the virtual time of the operation that
//! produced them and sealed into the shipping log in virtual-time order,
//! so the log interleaving (including the out-of-timestamp-order commit
//! records that motivate the paper's PENDING_COMMIT safeguard) matches
//! what a real primary would emit.

pub mod cluster;
pub mod config;
pub mod event;
pub mod frontend;
pub(crate) mod hot;
pub mod lifecycle;
pub mod migrate;
pub mod net;
pub mod rcp_driver;
pub mod repl_driver;
pub mod ror;
pub mod shardlog;
pub mod stats;
pub mod transition;
pub mod txn;

pub use cluster::{Cluster, Cn, GlobalDb};
pub use config::{ClusterConfig, Geometry, RoutingPolicy};
pub use event::{CoreEvent, CoreSim};
pub use migrate::{Migration, MigrationKind, MigrationPhase, MigrationSpec, ShardLoad};
pub use net::{Envelope, MessagePlane, RpcKind, SimTransport, Transport, ALL_RPC_KINDS};
pub use repl_driver::{Replica, Shard};
pub use stats::{bench_series, ClusterStats, TxnOutcome};

// Re-export the pieces callers commonly need.
pub use gdb_compress::Codec;
pub use gdb_model::{Datum, GdbError, GdbResult, Row, Timestamp};
pub use gdb_obs::{
    BenchArtifact, BenchSeries, HistSummary, Json, Metric, MetricsReport, Obs, Span, SpanKind,
    Tracer,
};
pub use gdb_replication::ReplicationMode;
pub use gdb_simnet::{SimDuration, SimTime};
pub use gdb_sqlengine::{DataAccess, ExecOutput, Prepared};
pub use gdb_txnmgr::{TmMode, TransitionDirection};

//! Redo-log replication (paper §II-B, §IV-A, §V-A).
//!
//! Primary data nodes continuously transmit redo records to replica data
//! nodes. This crate implements:
//!
//! * [`ReplicationMode`] — asynchronous (GlobalDB's geo configuration),
//!   synchronous same-city quorum, or synchronous remote quorum (the
//!   baseline that protects against regional disasters at heavy latency
//!   cost — Fig. 6a's baseline).
//! * [`ShippingChannel`] — the per-(primary → replica) sender: batches
//!   pending records, optionally LZ4-compresses them (paper §V-A), and
//!   reports wire sizes for the network cost model.
//! * [`ReplicaApplier`] — the replica-side applier: buffers each
//!   transaction's writes until its COMMIT/ABORT record replays, keeps
//!   `PENDING_COMMIT` tuple locks (a reader of a locked tuple must not
//!   read it here until the outcome replays — the paper's §IV-A safeguard
//!   against out-of-timestamp-order commit records), handles 2PC prepared
//!   transactions, applies DDL, and tracks the max applied commit
//!   timestamp that feeds the RCP calculation.
//! * [`ReplayCostModel`] — parallel-replay timing (the paper replays redo
//!   in parallel to keep replicas fresh).

pub mod channel;
pub mod metrics;
pub mod mode;
pub mod replay;
pub mod replica;

pub use channel::{SealedWindow, ShippingChannel, MAX_BATCH_RECORDS};
pub use mode::{quorum_wait, ReplicationMode};
pub use replay::ReplayCostModel;
pub use replica::ReplicaApplier;

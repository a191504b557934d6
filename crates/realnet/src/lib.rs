//! Real-cluster execution mode: run the GlobalDB reproduction over real
//! threads and loopback TCP instead of purely simulated delivery.
//!
//! The paper's system is an actual geo-distributed deployment; this
//! workspace reproduces it on `simnet` virtual time. Every wire
//! interaction already funnels through one seam — the
//! [`globaldb::MessagePlane`] hands one-way messages to
//! [`globaldb::Transport::deliver`] and a scatter's round trips to
//! [`globaldb::Transport::deliver_pairs`] — so this crate swaps what
//! "deliver" means without touching transaction, replication, or
//! consistency logic:
//!
//! * [`transport::ThreadTransport`] — each silo (host) is a real OS
//!   thread; envelopes travel over in-process channels. The stepping
//!   stone: real scheduling and real measured delays, no sockets.
//! * [`transport::TcpTransport`] — each silo additionally runs a
//!   loopback-TCP accept loop and envelopes travel as length-prefixed
//!   frames ([`wire`]) over real sockets, Nagle disabled; a scatter's
//!   legs are in flight at once, one write per silo each way.
//!
//! The split follows the silo / membership layout of actor-style
//! cluster runtimes. A silo hosts every node of one host; it sleeps a
//! frame's injected delay, tallies it and acks it. The transaction,
//! replication and consistency state stays in the driver's `GlobalDb`:
//!
//! ```text
//!              Cluster (driver thread, virtual time)
//!                 │  MessagePlane::charge(env) / scatter(..)
//!                 ▼
//!   Transport::deliver(_pairs) ── topo.deliverable()? ── faults?
//!                 │ frame                        ▲
//!                 ▼                              │ measured delay
//!   ┌─────────┐  ┌─────────┐  ┌─────────┐       │
//!   │ silo 0  │  │ silo 1  │  │ silo 2  │  (thread per host:
//!   └─────────┘  └─────────┘  └─────────┘   tally + ack)
//! ```
//!
//! Virtual time still orders the run — the driver charges each message
//! the *measured* wall-clock delay of its physical round trip, so the
//! whole deterministic machinery (event wheel, MVCC timestamps, RCP
//! rounds) operates unchanged on real latencies. Fault state lives in
//! the shared [`gdb_simnet::Topology`]: a chaos nemesis that partitions
//! regions or injects `tc`-style delay is consulted by the real
//! transports per message, so the same fault plans run physically.

pub mod fault;
pub mod harness;
pub mod membership;
pub mod silo;
pub mod transport;
pub mod wire;

pub use fault::FaultController;
pub use harness::{Backend, RealCluster, RealnetReport, SiloReport};
pub use membership::{SiloSpec, StaticMembership};
pub use silo::{SiloState, SiloStats, NKINDS};
pub use transport::{TcpTransport, ThreadTransport};

//! Redo (write-ahead) log for the GaussDB-Global reproduction.
//!
//! Primary data nodes describe every change as physical redo records, which
//! are shipped (asynchronously or synchronously) to replica data nodes and
//! replayed there (paper §II-A, §IV-A). This crate defines:
//!
//! * [`RedoRecord`] / [`RedoPayload`] — the record vocabulary, including the
//!   consistency-critical control records the paper calls out:
//!   `PENDING_COMMIT` (written *before* a transaction obtains its
//!   invocation timestamp, locking its tuples on replicas), `COMMIT` with
//!   the commit timestamp, and the 2PC records `PREPARE` /
//!   `COMMIT_PREPARED` / `ABORT_PREPARED` whose replay gates visibility of
//!   prepared transactions on replicas.
//! * A compact binary encoding with varints and a CRC32 per record —
//!   [`record::encode_record`] / [`record::decode_record`].
//! * [`segment::RedoBuffer`] — the per-primary append buffer from which the
//!   replication sender drains framed batches.

pub mod codec;
pub mod crc;
pub mod record;
pub mod segment;

pub use record::{EncodeScratch, Lsn, RedoPayload, RedoRecord, WalError};
pub use segment::{GroupCommitWal, LogBatch, RedoBuffer, SYNC_PAGE};

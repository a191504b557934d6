//! The transaction history recorder: one append-only event log on
//! [`GlobalDb`], off by default, so a checker can state consistency over
//! the workload's own transactions. Events carry the [`TxnId`] and are
//! appended in execution order.
//!
//! Not recorded: reads served by the transaction's own uncommitted
//! writes, and index reads (an index lookup returns no version
//! timestamp).

use crate::cluster::GlobalDb;
use gdb_model::{Datum, Row, RowKey, TableId, Timestamp, TxnId};
use gdb_simnet::SimTime;
use gdb_storage::VisibleRow;

/// The most events one log holds; later events are counted as overflow.
pub const HISTORY_CAPACITY: usize = 1 << 20;

/// A committed version as a read observed it: its commit timestamp and
/// the CRC-32 of its row's WAL encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    pub ts: Timestamp,
    pub digest: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A snapshot was taken: at begin, and again when a replica reader
    /// falls back to the primary. `cn_rcp` is the CN's adopted RCP then.
    Begin {
        txn: TxnId,
        cn: usize,
        start: SimTime,
        snapshot: Timestamp,
        ror: bool,
        cn_rcp: Timestamp,
    },
    /// The version a read saw at the snapshot (`None`: none visible) or,
    /// `locked`, the newest one, under the row lock.
    Read {
        txn: TxnId,
        table: TableId,
        key: RowKey,
        seen: Option<Version>,
        locked: bool,
    },
    /// A staged image's digest; `None` for a delete.
    Write {
        txn: TxnId,
        table: TableId,
        key: RowKey,
        digest: Option<u32>,
    },
    /// How it ended: acknowledged at `ack` with commit timestamp `ts`
    /// (`None` if it wrote nothing), or never acknowledged — rolled back,
    /// or in doubt when a commit record at `ts` was already appended.
    End {
        txn: TxnId,
        ts: Option<Timestamp>,
        ack: Option<SimTime>,
    },
}

/// The recorded history of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    pub events: Vec<Event>,
    /// Events refused because the log was full.
    pub overflow: u64,
}

impl History {
    pub fn push(&mut self, event: Event) {
        if self.events.len() < HISTORY_CAPACITY {
            self.events.push(event);
        } else {
            self.overflow += 1;
        }
    }
}

/// Record, if recording, that a read of `key` saw `vis`. The event
/// holds a copy of the key: a read borrows it, so only a recorded read
/// allocates one.
pub(crate) fn note_read(
    history: &mut Option<History>,
    (txn, table, key): (TxnId, TableId, &[Datum]),
    vis: Option<&VisibleRow>,
    locked: bool,
) {
    if let Some(h) = history {
        let seen = vis.map(|v| Version {
            ts: v.commit_ts,
            digest: digest(v.row),
        });
        let key = RowKey::from(key);
        h.push(Event::Read {
            txn,
            table,
            key,
            seen,
            locked,
        });
    }
}

/// CRC-32 of the row's WAL encoding.
pub(crate) fn digest(row: &Row) -> u32 {
    let mut buf = Vec::new();
    gdb_wal::codec::put_row(&mut buf, row);
    gdb_wal::crc::crc32(&buf)
}

impl GlobalDb {
    /// Start recording every transaction into the history (at most
    /// [`HISTORY_CAPACITY`] events). Recording is off by default.
    pub fn record_history(&mut self) {
        self.history.get_or_insert_with(History::default);
    }

    /// The history recorded so far, while recording is on.
    pub fn history(&self) -> Option<&History> {
        self.history.as_ref()
    }

    /// Stop recording and hand over what was recorded.
    pub fn take_history(&mut self) -> Option<History> {
        self.history.take()
    }
}

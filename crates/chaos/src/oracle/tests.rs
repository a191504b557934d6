//! The checker's own spec: hand-built histories, each either clean or
//! breaking exactly one invariant, and the message that must name it.

use super::*;
use gdb_model::Datum;

const T: TableId = TableId(7);
const A: u32 = 0xA;
const B: u32 = 0xB;

fn txn(n: u64) -> TxnId {
    TxnId::compose(0, n)
}

fn key(k: i64) -> RowKey {
    RowKey::single(Datum::Int(k))
}

fn ms(n: u64) -> SimTime {
    SimTime::from_micros(n * 1_000)
}

fn seen(ts: u64, digest: u32) -> Option<Version> {
    Some(Version {
        ts: Timestamp(ts),
        digest,
    })
}

/// A history built one transaction step at a time.
#[derive(Default)]
struct H(History);

impl H {
    fn begin(mut self, t: u64, start: SimTime, snapshot: u64) -> Self {
        self.0.push(Event::Begin {
            txn: txn(t),
            cn: 0,
            start,
            snapshot: Timestamp(snapshot),
            ror: false,
            cn_rcp: Timestamp::ZERO,
        });
        self
    }

    fn ror_begin(mut self, t: u64, start: SimTime, snapshot: u64, rcp: u64) -> Self {
        self.0.push(Event::Begin {
            txn: txn(t),
            cn: 3,
            start,
            snapshot: Timestamp(snapshot),
            ror: true,
            cn_rcp: Timestamp(rcp),
        });
        self
    }

    fn read(mut self, t: u64, k: i64, seen: Option<Version>, locked: bool) -> Self {
        self.0.push(Event::Read {
            txn: txn(t),
            table: T,
            key: key(k),
            seen,
            locked,
        });
        self
    }

    fn write(mut self, t: u64, k: i64, digest: Option<u32>) -> Self {
        self.0.push(Event::Write {
            txn: txn(t),
            table: T,
            key: key(k),
            digest,
        });
        self
    }

    fn commit(mut self, t: u64, ts: Option<u64>, ack: SimTime) -> Self {
        self.0.push(Event::End {
            txn: txn(t),
            ts: ts.map(Timestamp),
            ack: Some(ack),
        });
        self
    }

    /// Never acknowledged: rolled back, or in doubt with a commit record
    /// at `ts`.
    fn unacked(mut self, t: u64, ts: Option<u64>) -> Self {
        self.0.push(Event::End {
            txn: txn(t),
            ts: ts.map(Timestamp),
            ack: None,
        });
        self
    }

    /// A blind writer of `k`: begin at `start` with a snapshot just
    /// below `ts`, commit at `ts`.
    fn writer(self, t: u64, k: i64, digest: u32, start: SimTime, ts: u64, ack: SimTime) -> Self {
        self.begin(t, start, ts - 1)
            .write(t, k, Some(digest))
            .commit(t, Some(ts), ack)
    }

    /// Where the read-back starts: after everything built so far.
    fn mark(&self) -> usize {
        self.0.events.len()
    }
}

/// Txn 1 writes key 1 at ts 10; txn 2 reads it at snapshot 12; txn 3
/// updates it under its lock at ts 20.
fn clean() -> H {
    H::default()
        .writer(1, 1, A, ms(0), 10, ms(5))
        .begin(2, ms(6), 12)
        .read(2, 1, seen(10, A), false)
        .commit(2, None, ms(8))
        .begin(3, ms(6), 12)
        .read(3, 1, seen(10, A), true)
        .write(3, 1, Some(B))
        .commit(3, Some(20), ms(9))
}

/// `h` plus a read-back of key 1 that saw `version`.
fn read_back(h: H, version: Option<Version>) -> (History, usize) {
    let from = h.mark();
    let h = h
        .begin(99, ms(50), 100)
        .read(99, 1, version, false)
        .commit(99, None, ms(51));
    (h.0, from)
}

fn violations(history: &History, from: usize, losses: &LossWindows) -> Vec<String> {
    check(history, from, losses).1
}

fn strict(history: &History, from: usize) -> Vec<String> {
    violations(history, from, &LossWindows::default())
}

/// Exactly one violation, starting with `what` and naming `names`.
fn assert_flags(found: &[String], what: &str, names: &[u64]) {
    assert_eq!(found.len(), 1, "expected one {what} violation: {found:?}");
    assert!(found[0].starts_with(what), "{found:?}");
    for &n in names {
        assert!(
            found[0].contains(&txn(n).to_string()),
            "{found:?} names no txn {n}"
        );
    }
}

#[test]
fn a_clean_history_passes() {
    let (h, from) = read_back(clean(), seen(20, B));
    assert_eq!(strict(&h, from), Vec::<String>::new());
    let (cov, _) = check(&h, from, &LossWindows::default());
    assert_eq!(
        cov,
        Coverage {
            txns: 3,
            reads: 2,
            writes: 2
        }
    );
}

#[test]
fn a_stale_read_is_flagged() {
    // Txn 4 reads at snapshot 15, above txn 1's commit, but sees the
    // version from before the recording.
    let h = clean()
        .begin(4, ms(7), 15)
        .read(4, 1, seen(3, B), false)
        .commit(4, None, ms(11));
    let from = h.mark();
    assert_flags(&strict(&h.0, from), "read correctness", &[4, 1]);
}

#[test]
fn a_write_below_a_snapshot_after_its_read_is_flagged() {
    // Txn 5 commits at ts 11, below txn 2's snapshot, only after txn 2's
    // read ran. A read is held to every write at or below its snapshot,
    // so txn 2 missed it.
    let h = H::default()
        .writer(1, 1, A, ms(0), 10, ms(5))
        .begin(2, ms(6), 12)
        .read(2, 1, seen(10, A), false)
        .commit(2, None, ms(8))
        .writer(5, 1, B, ms(7), 11, ms(9));
    let from = h.mark();
    assert_flags(&strict(&h.0, from), "read correctness", &[2, 5]);
}

#[test]
fn an_invented_version_is_flagged() {
    let h = clean()
        .begin(4, ms(10), 30)
        .read(4, 1, seen(15, A), false)
        .commit(4, None, ms(11));
    let from = h.mark();
    let found = strict(&h.0, from);
    assert_flags(&found, "read correctness", &[4]);
    assert!(found[0].contains("written by nobody"), "{found:?}");

    // Right timestamp, wrong content.
    let h = clean()
        .begin(4, ms(10), 30)
        .read(4, 1, seen(20, A), false)
        .commit(4, None, ms(11));
    assert_flags(&strict(&h.0, from), "read correctness", &[4, 3]);

    // The version of a writer that rolled back.
    let h = clean()
        .begin(8, ms(10), 24)
        .write(8, 1, Some(A))
        .unacked(8, None)
        .begin(4, ms(12), 30)
        .read(4, 1, seen(25, A), false)
        .commit(4, None, ms(13));
    let found = strict(&h.0, h.mark());
    assert_flags(&found, "read correctness", &[4]);
    assert!(found[0].contains("written by nobody"), "{found:?}");
}

#[test]
fn a_lost_update_is_flagged() {
    // Txn 5 commits key 1 at ts 15, between the version txn 3 read under
    // its lock (10) and txn 3's own commit (20).
    let h = H::default()
        .writer(1, 1, A, ms(0), 10, ms(5))
        .begin(3, ms(6), 12)
        .read(3, 1, seen(10, A), true)
        .write(3, 1, Some(B))
        .commit(3, Some(20), ms(9))
        .writer(5, 1, A, ms(7), 15, ms(10));
    let from = h.mark();
    assert_flags(&strict(&h.0, from), "lost update", &[3, 5]);

    // Txn 3 commits its update at or below the version it read.
    let h = H::default()
        .writer(1, 1, A, ms(0), 10, ms(5))
        .begin(3, ms(4), 9)
        .read(3, 1, seen(10, A), true)
        .write(3, 1, Some(B))
        .commit(3, Some(10), ms(9));
    assert_flags(&strict(&h.0, from), "lost update", &[3]);

    // Txn 3 saw no row of key 2 under its lock, then inserted it: txn 5's
    // acknowledged insert at ts 15 came in between.
    let h = H::default()
        .writer(1, 1, A, ms(0), 10, ms(5))
        .begin(3, ms(6), 12)
        .read(3, 2, None, true)
        .write(3, 2, Some(B))
        .commit(3, Some(20), ms(9))
        .writer(5, 2, A, ms(7), 15, ms(10));
    assert_flags(&strict(&h.0, h.mark()), "lost update", &[3, 5]);

    // Txn 3 read under its lock, wrote, then rolled back (or ended in
    // doubt): it committed nothing to lose, so txn 5's write is no fault.
    for end in [None, Some(20)] {
        let h = H::default()
            .writer(1, 1, A, ms(0), 10, ms(5))
            .begin(3, ms(6), 12)
            .read(3, 1, seen(10, A), true)
            .write(3, 1, Some(B))
            .unacked(3, end)
            .writer(5, 1, A, ms(7), 15, ms(10));
        assert_eq!(strict(&h.0, h.mark()), Vec::<String>::new(), "{end:?}");
    }
}

#[test]
fn an_external_consistency_inversion_is_flagged() {
    // Txn 6 starts after txn 1 was acked, yet commits below it.
    let h = clean()
        .begin(6, ms(6), 10)
        .write(6, 2, Some(A))
        .commit(6, Some(8), ms(12));
    let from = h.mark();
    assert_flags(&strict(&h.0, from), "external consistency", &[1, 6]);

    // Txn 7's primary snapshot misses txn 3, acked before it started.
    let h = clean()
        .begin(7, ms(10), 19)
        .read(7, 2, None, false)
        .commit(7, None, ms(11));
    assert_flags(&strict(&h.0, from), "external consistency", &[3, 7]);

    // A writer sits just below its commit: one that starts after txn 3's
    // ack and commits at exactly txn 3's ts is out of order...
    let h = clean()
        .begin(6, ms(10), 20)
        .write(6, 2, Some(A))
        .commit(6, Some(20), ms(12));
    assert_flags(&strict(&h.0, from), "external consistency", &[3, 6]);

    // ...but a snapshot sits at itself: one at exactly txn 3's ts sees it.
    let h = clean()
        .begin(7, ms(10), 20)
        .read(7, 2, None, false)
        .commit(7, None, ms(11));
    assert_eq!(strict(&h.0, from), Vec::<String>::new());
}

#[test]
fn a_replica_read_above_the_rcp_is_flagged() {
    let h = clean()
        .ror_begin(8, ms(10), 15, 12)
        .read(8, 1, seen(10, A), false)
        .commit(8, None, ms(11));
    let from = h.mark();
    assert_flags(&strict(&h.0, from), "replica read", &[8]);

    // At the RCP exactly, reading what the RCP covers, it passes.
    let h = clean()
        .ror_begin(8, ms(10), 12, 12)
        .read(8, 1, seen(10, A), false)
        .commit(8, None, ms(11));
    assert_eq!(strict(&h.0, from), Vec::<String>::new());
}

#[test]
fn a_lost_final_write_is_flagged() {
    let (h, from) = read_back(clean(), seen(10, A));
    assert_flags(&strict(&h, from), "durability", &[99, 3]);
    let (h, from) = read_back(clean(), None);
    assert_flags(&strict(&h, from), "durability", &[99, 3]);
}

#[test]
fn a_full_log_is_a_violation() {
    let (mut h, from) = read_back(clean(), seen(20, B));
    h.overflow = 1;
    assert_eq!(strict(&h, from).len(), 1);
}

#[test]
fn in_doubt_writes_may_be_seen_or_missed() {
    // Txn 9's commit record at ts 30 was appended, then it failed.
    for version in [seen(20, B), seen(30, A)] {
        let mut h = clean().begin(9, ms(10), 25).write(9, 1, Some(A));
        h.0.push(Event::End {
            txn: txn(9),
            ts: Some(Timestamp(30)),
            ack: None,
        });
        let (h, from) = read_back(h, version);
        assert_eq!(strict(&h, from), Vec::<String>::new(), "{version:?}");
    }
}

/// Loss windows: one failover crashing at 20 ms, promoted at 30 ms, with
/// a 2 ms shipping tail — a write may be lost if it was acked after
/// 18 ms by a transaction that started (ran on the old primary) before
/// 30 ms.
fn lossy() -> LossWindows {
    LossWindows {
        failovers: vec![FailoverWindow {
            crash_at: ms(20),
            promote_at: ms(30),
        }],
        tail: SimDuration::from_millis(2),
    }
}

/// Txn 1 writes key 1 (ts 10, acked at 5 ms), then txn 3 overwrites it
/// (ts 20), started at `start` and acked at `ack`.
fn overwritten((start, ack): (SimTime, SimTime)) -> H {
    H::default()
        .writer(1, 1, A, ms(0), 10, ms(5))
        .writer(3, 1, B, start, 20, ack)
}

#[test]
fn loss_windows_excuse_exactly_the_writes_inside_them() {
    let ns = SimTime::from_nanos;
    let inside = [
        (ms(6), ns(18_000_001)),
        (ms(6), ms(25)),
        (ms(6), ms(40)), // ran on the old primary, acked late
        (ns(29_999_999), ms(31)),
    ];
    let outside = [(ms(6), ms(18)), (ms(30), ms(31)), (ms(40), ms(41))];
    for (run, lost_ok) in inside
        .map(|r| (r, true))
        .into_iter()
        .chain(outside.map(|r| (r, false)))
    {
        // The read-back rolled back past txn 3's write.
        let (h, from) = read_back(overwritten(run), seen(10, A));
        let found = violations(&h, from, &lossy());
        assert_eq!(found.is_empty(), lost_ok, "read-back, {run:?}: {found:?}");
        // So did a mid-run read, at a snapshot above it.
        let h = overwritten(run)
            .begin(4, ms(45), 25)
            .read(4, 1, seen(10, A), false)
            .commit(4, None, ms(46));
        let found = violations(&h.0, h.mark(), &lossy());
        assert_eq!(found.is_empty(), lost_ok, "read, {run:?}: {found:?}");
        // And a locked writer that read txn 1's version and wrote over it.
        let h = overwritten(run)
            .begin(5, ms(45), 25)
            .read(5, 1, seen(10, A), true)
            .write(5, 1, Some(A))
            .commit(5, Some(50), ms(46));
        let found = violations(&h.0, h.mark(), &lossy());
        assert_eq!(found.is_empty(), lost_ok, "lost update, {run:?}: {found:?}");
    }
    // Strict replication excuses none of them.
    let (h, from) = read_back(overwritten((ms(6), ms(25))), seen(10, A));
    assert_flags(&strict(&h, from), "durability", &[99, 3]);
}

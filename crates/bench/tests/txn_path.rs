//! `run_fast` against its spec: what the script alone says the pipeline
//! must have produced. Transaction `i` commits at timestamp `i + 1`; the
//! last write to a `(table, key)` wins, on the primary and on the replica;
//! the durable segment is the `encode_record` frames of one insert per
//! write and one commit per transaction, each byte shipped exactly once.

use gdb_bench::txnpath::{generate_script, run_fast, Script, TABLES};
use gdb_model::{Datum, Row, RowKey, Timestamp, TxnId};
use gdb_wal::record::encode_record;
use gdb_wal::{Lsn, RedoPayload, RedoRecord};
use std::collections::BTreeMap;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let step = |h: u64, b: &u8| (h ^ *b as u64).wrapping_mul(0x100000001b3);
    bytes.iter().fold(h, step)
}

fn fnv_datum(h: u64, d: &Datum) -> u64 {
    match d {
        Datum::Int(v) => fnv(fnv(h, &[1]), &v.to_le_bytes()),
        Datum::Text(s) => fnv(fnv(h, &[3]), s.as_bytes()),
        other => panic!("the script writes ints and texts, not {other:?}"),
    }
}

/// The durable segment and the `TxnPathResult::digest` the script implies.
fn expected(script: &Script) -> (Vec<u8>, u64) {
    let mut segment = Vec::new();
    let mut next_lsn = 0;
    let mut frame = |txn, payload| {
        let lsn = Lsn(next_lsn);
        next_lsn += 1;
        encode_record(&mut segment, &RedoRecord { lsn, txn, payload });
    };
    let mut state = [BTreeMap::new(), BTreeMap::new()];
    for (i, writes) in script.0.iter().enumerate() {
        let (txn, commit_ts) = (TxnId(i as u64), Timestamp(i as u64 + 1));
        for w in writes {
            let mut row = Row::default();
            w.fill_row(&mut row);
            state[w.table as usize].insert(w.key, (row.clone(), commit_ts));
            let (table, key) = (TABLES[w.table as usize], RowKey::single(w.key as i64));
            frame(txn, RedoPayload::Insert { table, key, row });
        }
        frame(txn, RedoPayload::Commit { commit_ts });
    }
    // Primary and replica hold the same two tables, in key order.
    let mut digest = FNV_OFFSET;
    for (key, (row, commit_ts)) in state.iter().chain(&state).flatten() {
        digest = fnv_datum(digest, &Datum::Int(*key as i64));
        digest = row.0.iter().fold(digest, fnv_datum);
        digest = fnv(digest, &commit_ts.0.to_le_bytes());
    }
    (segment, digest)
}

#[test]
fn run_fast_produces_what_the_script_implies() {
    const TXNS: usize = 3_000;
    for seed in [1u64, 7, 42, 1337, 0xDEADBEEF] {
        let script = generate_script(seed, TXNS);
        let (segment, digest) = expected(&script);
        // The ship window moves syncs, never bytes or state.
        for window in [1usize, 13, 64, 256, usize::MAX] {
            let run = run_fast(&script, window);
            let at = format!("seed {seed} window {window}");
            assert_eq!(run.segment_len, segment.len(), "{at}: durable length");
            assert_eq!(
                run.segment_digest,
                fnv(FNV_OFFSET, &segment),
                "{at}: durable bytes"
            );
            assert_eq!(run.digest, digest, "{at}: committed state");
            assert_eq!(run.committed, TXNS as u64, "{at}");
            assert_eq!(run.records, (script.writes() + TXNS) as u64, "{at}");
            assert_eq!(run.raw_bytes, segment.len() as u64, "{at}: shipped bytes");
            assert_eq!(run.synced_txns, TXNS as u64, "{at}: every commit durable");
            assert!(
                run.fsyncs <= (TXNS / window + 1) as u64,
                "{at}: {} fsyncs",
                run.fsyncs
            );
        }
    }
}

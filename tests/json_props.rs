//! Fuzz of the JSON surface: `Json::parse` returns `Ok` or `Err` for any
//! text and never panics or overflows the stack. Inputs are byte and
//! range mutations of the documents the crates emit (a `gdb-bench/v1`
//! artifact and a metrics snapshot), deep nesting, and random text.

use gdb_obs::{BenchArtifact, BenchSeries, HistSummary, Json, MetricsRegistry, NetStats};
use gdb_simnet::stats::LatencyHistogram;
use gdb_simnet::SimDuration;
use proptest::collection::vec;
use proptest::prelude::*;

/// A metrics snapshot with every instrument kind, labelled names and a
/// histogram spread over several octaves.
fn registry() -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    r.count("txnmgr.committed", 1234);
    r.set_counter("rpc.dn_read.msgs.xian-dongguan", 99);
    r.gauge("consistency.rcp_lag_ms", 12.5);
    r.gauge("replication.backlog", 3.0);
    for us in [7, 63, 64, 900, 25_000, 1_000_000] {
        r.observe("txnmgr.latency_us", SimDuration::from_micros(us));
    }
    r
}

fn artifact() -> String {
    let mut lat = LatencyHistogram::new();
    lat.record(SimDuration::from_micros(4_200));
    let mut a = BenchArtifact::new("fig6a");
    a.config_kv("scale", "tiny");
    a.config_kv("label", "西安 \"quoted\" \\ tab\t");
    a.series.push(BenchSeries {
        label: "gclock".into(),
        throughput_txn_s: 123.25,
        tpmc: -0.5,
        commits: 1000,
        aborts: 3,
        latency: HistSummary::of(&lat),
        phases: [("commit_wait".to_string(), HistSummary::of(&lat))]
            .into_iter()
            .collect(),
        net: NetStats::default(),
        metrics: registry().snapshot(),
    });
    a.to_pretty()
}

fn documents() -> [String; 2] {
    [artifact(), registry().snapshot().to_json().to_compact()]
}

/// Text a mutation splices in: structure openers and closers, deep
/// prefixes, broken literals, escapes and numbers.
const FRAGMENTS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    "\\u00e9",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
    "{\"a\":{\"a\":{\"a\":{\"a\":{\"a\":",
    "null",
    "nul",
    "tru",
    "-",
    "1e999",
    "-0.0e-",
    "18446744073709551616",
    "é",
];

#[derive(Debug, Clone)]
enum Edit {
    SetByte(usize, u8),
    Insert(usize, usize),
    Delete(usize, usize),
    Duplicate(usize, usize),
    Truncate(usize),
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0..8192usize, any::<u8>()).prop_map(|(at, b)| Edit::SetByte(at, b)),
        (0..8192usize, 0..FRAGMENTS.len()).prop_map(|(at, f)| Edit::Insert(at, f)),
        (0..8192usize, 0..64usize).prop_map(|(at, n)| Edit::Delete(at, n)),
        (0..8192usize, 0..256usize).prop_map(|(at, n)| Edit::Duplicate(at, n)),
        (0..8192usize).prop_map(Edit::Truncate),
    ]
}

/// Apply `edits` in order on bytes; positions wrap to the current size
/// and the result is made valid UTF-8 again after each edit.
fn mutate(text: &str, edits: &[Edit]) -> String {
    let mut text = text.to_string();
    for e in edits {
        let mut bytes = text.into_bytes();
        let at = |i: usize| i % (bytes.len() + 1);
        match *e {
            Edit::SetByte(i, b) if !bytes.is_empty() => {
                let i = i % bytes.len();
                bytes[i] = b;
            }
            Edit::Insert(i, f) => {
                let i = at(i);
                bytes.splice(i..i, FRAGMENTS[f].bytes());
            }
            Edit::Delete(i, n) => {
                let i = at(i);
                bytes.drain(i..(i + n).min(bytes.len()));
            }
            Edit::Duplicate(i, n) => {
                let i = at(i);
                let copy = bytes[i..(i + n).min(bytes.len())].to_vec();
                bytes.splice(i..i, copy);
            }
            Edit::Truncate(i) => {
                let i = at(i);
                bytes.truncate(i);
            }
            _ => {}
        }
        text = String::from_utf8_lossy(&bytes).into_owned();
    }
    text
}

/// The characters random text is drawn from: JSON's syntax, digits,
/// number and literal letters, and one multi-byte character.
const ALPHABET: &[char] = &[
    '[', ']', '{', '}', ':', ',', '"', '\\', ' ', '\n', '-', '+', '.', '0', '1', '9', 'e', 'E',
    'n', 'u', 'l', 't', 'r', 'f', 'a', 's', 'é',
];

fn parses_without_panicking(text: &str) -> TestCaseResult {
    let outcome = std::panic::catch_unwind(|| {
        let _ = Json::parse(text);
    });
    prop_assert!(outcome.is_ok(), "Json::parse panicked on:\n{text}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_artifacts_parse_or_err(
        doc in 0..2usize,
        edits in vec(edit(), 1..12),
    ) {
        parses_without_panicking(&mutate(&documents()[doc], &edits))?;
    }

    #[test]
    fn deep_nesting_parses_or_errs(
        opens in vec(0..FRAGMENTS.len(), 0..400),
        depth in 0..100_000usize,
        edits in vec(edit(), 0..4),
    ) {
        let mut text = "[".repeat(depth);
        for &f in &opens {
            text += FRAGMENTS[f];
        }
        text += &"]".repeat(depth);
        parses_without_panicking(&mutate(&text, &edits))?;
    }

    #[test]
    fn random_text_parses_or_errs(
        picks in vec(0..ALPHABET.len(), 0..96),
        bytes in vec(any::<u8>(), 0..64),
    ) {
        parses_without_panicking(&picks.iter().map(|&i| ALPHABET[i]).collect::<String>())?;
        parses_without_panicking(&String::from_utf8_lossy(&bytes))?;
    }
}

/// The unmutated documents parse, and back to the tree they were
/// written from.
#[test]
fn emitted_documents_parse_back() {
    let snapshot = registry().snapshot().to_json();
    assert_eq!(Json::parse(&snapshot.to_compact()).unwrap(), snapshot);
    let doc = Json::parse(&artifact()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("gdb-bench/v1")
    );
}

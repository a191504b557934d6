//! Fuzz of the scenario-file surface: `scenario::load` returns `Ok` or
//! `Err` for any text and never panics. Inputs are byte and line
//! mutations of the committed `scenarios/*.toml`, documents generated
//! from the DSL's own tables and keys with values at and past their
//! bounds (a parse error on line one would hide every check after it),
//! and random text.

use gdb_chaos::scenario::{self, FAULT_KINDS};
use proptest::collection::vec;
use proptest::prelude::*;

const COMMITTED: [&str; 2] = [
    include_str!("../scenarios/migrate-under-fire.toml"),
    include_str!("../scenarios/elastic-under-fire.toml"),
];

/// Every table of the DSL and its keys, in `scenario::load`'s order.
const TABLES: &[(&str, &[&str])] = &[
    ("[scenario]", &["name", "seed"]),
    (
        "[topology]",
        &[
            "geometry",
            "cns",
            "shards",
            "replicas",
            "replication",
            "quorum",
        ],
    ),
    ("[workload]", &["terminals", "warmup", "duration", "grace"]),
    ("[nemesis]", &["plan", "overlap", "migrations", "elastic"]),
    ("[rebalancer]", &["auto", "interval"]),
];

/// Values at and past every bound a key has, plus each string the DSL
/// names.
const VALUES: &[&str] = &[
    "0",
    "1",
    "-1",
    "256",
    "257",
    "65535",
    "65536",
    "4294967296",
    "9223372036854775807",
    "-9223372036854775808",
    "true",
    "\"x\"",
    "\"\"",
    "\"0ms\"",
    "\"100ms\"",
    "\"18446744073709551615ms\"",
    "\"18446744073709551616s\"",
    "\"three-city\"",
    "\"one-region\"",
    "\"async\"",
    "\"sync-local-quorum\"",
    "\"sync-remote-quorum\"",
    "\"generated\"",
    "\"migrate-under-fire\"",
];

/// Lines a mutation splices in: headers, malformed lines, and argument
/// lines at their bounds.
const FRAGMENTS: &[&str] = &[
    "[[fault]]",
    "[fault]",
    "[[scenario]]",
    "[topology]",
    "at = \"1s\"",
    "kind = \"delay-spike\"",
    "extra = 9223372036854775807",
    "host = 65536",
    "= 1",
    "key =",
    "\"unterminated",
    "é = \"ü\"",
];

#[derive(Debug, Clone)]
enum Edit {
    DeleteLine(usize),
    DuplicateLine(usize),
    SwapLines(usize, usize),
    InsertFragment(usize, usize),
    SetByte(usize, u8),
    Truncate(usize),
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0..64usize).prop_map(Edit::DeleteLine),
        (0..64usize).prop_map(Edit::DuplicateLine),
        (0..64usize, 0..64usize).prop_map(|(a, b)| Edit::SwapLines(a, b)),
        (0..64usize, 0..FRAGMENTS.len()).prop_map(|(at, f)| Edit::InsertFragment(at, f)),
        (0..2048usize, any::<u8>()).prop_map(|(at, b)| Edit::SetByte(at, b)),
        (0..2048usize).prop_map(Edit::Truncate),
    ]
}

/// Apply `edits` in order; positions wrap to the current text's size.
fn mutate(text: &str, edits: &[Edit]) -> String {
    let mut text = text.to_string();
    for e in edits {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let n = lines.len().max(1);
        match *e {
            Edit::DeleteLine(i) if !lines.is_empty() => {
                lines.remove(i % n);
            }
            Edit::DuplicateLine(i) if !lines.is_empty() => {
                let line = lines[i % n].clone();
                lines.insert(i % n, line);
            }
            Edit::SwapLines(a, b) if !lines.is_empty() => lines.swap(a % n, b % n),
            Edit::InsertFragment(i, f) => lines.insert(i % (lines.len() + 1), FRAGMENTS[f].into()),
            Edit::SetByte(i, b) => {
                let mut bytes = text.into_bytes();
                if !bytes.is_empty() {
                    let at = i % bytes.len();
                    bytes[at] = b;
                }
                text = String::from_utf8_lossy(&bytes).into_owned();
                continue;
            }
            Edit::Truncate(i) => {
                let bytes = &text.as_bytes()[..i.min(text.len())];
                text = String::from_utf8_lossy(bytes).into_owned();
                continue;
            }
            _ => {}
        }
        text = lines.join("\n");
    }
    text
}

/// A document of every table with each key present or not (a pick past
/// `VALUES` leaves its key out), then `faults` as `[[fault]]` tables:
/// (kind, `at` value, one value per argument).
fn generated(picks: &[usize], faults: &[(usize, usize, Vec<usize>)]) -> String {
    let mut out = String::new();
    let mut pick = picks.iter().cycle();
    for (header, keys) in TABLES {
        out += &format!("{header}\n");
        for key in *keys {
            if let Some(v) = VALUES.get(*pick.next().unwrap()) {
                out += &format!("{key} = {v}\n");
            }
        }
    }
    for (kind, at, args) in faults {
        let (kind, keys) = FAULT_KINDS[*kind];
        out += &format!("[[fault]]\nat = {}\nkind = \"{kind}\"\n", VALUES[*at]);
        for (key, v) in keys.iter().zip(args) {
            out += &format!("{key} = {}\n", VALUES[*v]);
        }
    }
    out
}

/// The characters random text is drawn from: the DSL's syntax, digits,
/// a sign, a few letters and one multi-byte character.
const ALPHABET: &[char] = &[
    '[', ']', '=', '"', '#', '\n', ' ', '-', '.', '0', '1', '9', 'a', 'e', 'k', 'm', 's', 't', 'é',
];

fn loads_without_panicking(text: &str) -> TestCaseResult {
    let outcome = std::panic::catch_unwind(|| {
        let _ = scenario::load(text);
    });
    prop_assert!(outcome.is_ok(), "scenario::load panicked on:\n{text}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_committed_scenarios_load_or_err(
        base in 0..COMMITTED.len(),
        edits in vec(edit(), 1..12),
    ) {
        loads_without_panicking(&mutate(COMMITTED[base], &edits))?;
    }

    #[test]
    fn generated_scenarios_load_or_err(
        picks in vec(0..2 * VALUES.len(), 19),
        faults in vec(
            (0..FAULT_KINDS.len(), 0..VALUES.len(), vec(0..VALUES.len(), 3)),
            0..4,
        ),
        edits in vec(edit(), 0..3),
    ) {
        loads_without_panicking(&mutate(&generated(&picks, &faults), &edits))?;
    }

    #[test]
    fn random_text_loads_or_errs(chars in vec(0..ALPHABET.len(), 0..256)) {
        let text: String = chars.iter().map(|&c| ALPHABET[c]).collect();
        loads_without_panicking(&text)?;
    }
}

//! Fuzz of the shell's command lines: every verb `help` lists, with
//! arguments drawn from valid, out-of-range and malformed values, then
//! byte-mutated, plus random text. On a sim shell each line must come
//! back from `exec` with output, never a panic.
//!
//! Two limits keep a case cheap and contained: a line that would run the
//! session cluster on for long (a `run` past 50 ms of virtual time, a
//! canned `plan`) is skipped, and every path a line can write to (`trace
//! export`, `bench --json`) lies in `shell-fuzz/` under the test's
//! scratch directory in `target/`.

use gdb_chaos::plan::canned;
use gdb_chaos::scenario::FAULT_KINDS;
use gdb_obs::parse_duration;
use gdb_realnet::Backend;
use gdb_shell::Shell;
use gdb_simnet::SimDuration;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The most virtual time a `run` line may advance the session cluster.
const MAX_ADVANCE: SimDuration = SimDuration::from_millis(50);

/// The table every shell starts with, so `sql` lines reach it.
const TABLE: &str =
    "CREATE TABLE t (id INT NOT NULL, v INT, PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)";

/// Every verb of `help`, each with argument words the generator draws
/// from (besides the shared pools below).
const VERBS: &[(&str, &[&str])] = &[
    ("status", &[]),
    ("nodes", &[]),
    ("shards", &[]),
    ("lag", &[]),
    (
        "sql",
        &[
            TABLE,
            "INSERT INTO t VALUES (1, 10), (2, 20)",
            "SELECT v FROM t WHERE id = 1",
            "UPDATE t SET v = v + 1 WHERE id = 2",
            "DELETE FROM t WHERE id = 1",
            "SELECT COUNT(*) FROM t",
            "DROP TABLE t",
            "?",
        ],
    ),
    ("use", &["cn", "cn 0", "cn 1", "cn 5", "cn 6"]),
    ("run", &["0ms", "1ms", "10ms", "50ms", "49999us", "1", "0"]),
    ("heal", &[]),
    ("fault", &[]),
    // The operator actions' shapes, beside the kinds `fault_args` draws.
    (
        "fault",
        &[
            "start-migration shard=0 to-region=1 to-host=1",
            "start-migration shard=0 to-region=2 to-host=0",
            "start-migration shard=5 to-region=0 to-host=0",
            "start-migration shard=0 to-region=9 to-host=0",
            "start-migration shard=0 to-region=1 to-host=65535",
            "remove-node region=0 host=0",
            "remove-node region=1 host=1",
            "remove-node region=2 host=0",
            "remove-node region=9 host=9",
            "add-node region=0 host=0",
            "add-node region=1 host=7",
            "add-node region=2 host=3",
            "add-node region=9 host=0",
        ],
    ),
    ("plan", &["run", "run nope", "list"]),
    ("metrics", &["", "replication", "txnmgr.", "zzz"]),
    (
        "trace",
        &["on", "on 0", "on 16", "export", "export PATH", "off"],
    ),
    (
        "bench",
        &[
            "",
            "tpcc",
            "--json PATH",
            "tpcc --json",
            "tpcc --json PATH",
            "tpcc --json PATH --json PATH",
            "tpcc extra",
        ],
    ),
    (
        "scenario",
        &["run PATH.toml", "check PATH", "lint PATH", "run"],
    ),
    ("help", &[]),
];

/// Numbers and durations at and past the edges of what the verbs accept.
const WORDS: &[&str] = &[
    "0",
    "1",
    "2",
    "-1",
    "65535",
    "65536",
    "4294967296",
    "18446744073709551615",
    "99999999999999999999",
    "1ms",
    "-5ms",
    "ms",
    "1.5s",
    "99999999999s",
    "x",
    "=",
    "--seed",
    "cn",
    "",
];

/// `fault` arguments: the kind's keys in order, each given a value —
/// small, out of range or not an integer — while `values` lasts, and a
/// key no kind takes for each value left over.
fn fault_args(kind: usize, values: &[usize]) -> String {
    const VALUES: &[&str] = &["0", "1", "2", "0", "1", "9", "-1", "65536", "1ms", "x", ""];
    let (name, keys) = FAULT_KINDS[kind % FAULT_KINDS.len()];
    let mut words = vec![name.to_string()];
    for (i, &v) in values.iter().enumerate() {
        let key = keys.get(i).copied().unwrap_or("bogus");
        words.push(format!("{key}={}", VALUES[v % VALUES.len()]));
    }
    words.join(" ")
}

/// Apply `edits` — `(position, kind, byte)` — to `line`'s bytes: delete,
/// insert, overwrite, or truncate there, or (kinds past 3) nothing.
fn mutate(line: &str, edits: &[(usize, u8, u8)]) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for &(pos, kind, byte) in edits {
        let at = pos % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => bytes[at] = byte,
            3 => bytes.truncate(at),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One generated line: `(verb, verb argument, pool words, fault kind,
/// fault values, byte edits, file name)`.
type Recipe = (
    usize,
    usize,
    Vec<usize>,
    usize,
    Vec<usize>,
    Vec<(usize, u8, u8)>,
    String,
);

/// Build a line from a recipe; `PATH` in a verb argument becomes a file
/// in `dir`. Lines that can write a file are not byte-mutated, so their
/// path stays inside `dir`.
fn line(dir: &str, (verb, arg, extra, kind, values, edits, file): &Recipe) -> String {
    let (name, args) = VERBS[verb % VERBS.len()];
    let arg = args.get(arg % args.len().max(1)).copied().unwrap_or("");
    let arg = arg.replace("PATH", &format!("{dir}/{file}"));
    if name == "trace" || name == "bench" {
        return format!("{name} {arg}");
    }
    let generated = name == "fault" && arg.is_empty();
    let mut words = vec![name.to_string(), arg];
    if generated {
        words.push(fault_args(*kind, values));
    }
    words.extend(extra.iter().map(|&w| WORDS[w % WORDS.len()].to_string()));
    mutate(&words.join(" "), edits)
}

/// True for a line the fuzz cannot afford: one that runs the session
/// cluster on past [`MAX_ADVANCE`] or through a canned plan, or a random
/// line that names a command writing a file (its path would lie
/// anywhere).
fn skipped(line: &str, random: bool) -> bool {
    let line = line.trim();
    let (cmd, rest) = line
        .split_once(char::is_whitespace)
        .map_or((line, ""), |(c, r)| (c, r.trim()));
    match cmd {
        "run" => parse_duration(rest).is_some_and(|d| d > MAX_ADVANCE),
        "plan" => rest
            .strip_prefix("run")
            .is_some_and(|name| canned::by_name(name.trim()).is_some()),
        "trace" | "bench" => random,
        _ => false,
    }
}

/// Run `lines` on one fresh sim shell that has the table the `sql`
/// arguments name; `Err` names the line that panicked.
fn feed(lines: &[(String, bool)]) -> Result<(), String> {
    let mut shell = Shell::launch(7, Backend::Sim);
    shell.exec(&format!("sql {TABLE}"));
    for (line, random) in lines {
        if skipped(line, *random) {
            continue;
        }
        if catch_unwind(AssertUnwindSafe(|| shell.exec(line))).is_err() {
            return Err(format!("exec panicked on {line:?}"));
        }
    }
    Ok(())
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        0usize..VERBS.len(),
        0usize..16,
        proptest::collection::vec(0usize..WORDS.len(), 0..2),
        0usize..FAULT_KINDS.len(),
        proptest::collection::vec(0usize..16, 0..5),
        proptest::collection::vec((0usize..200, 0u8..8, any::<u8>()), 0..2),
        "[a-z.]{0,6}",
    )
}

#[test]
fn every_help_verb_is_generated() {
    let help = Shell::launch(7, Backend::Sim).exec("help");
    for verb in help.lines().skip(1).filter_map(|l| {
        l.strip_prefix("  ")
            .filter(|l| !l.starts_with(' '))
            .and_then(|l| l.split_whitespace().next())
    }) {
        assert!(
            VERBS.iter().any(|(v, _)| *v == verb),
            "help lists {verb:?}, which the fuzz never generates"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn command_lines_never_panic(
        recipes in proptest::collection::vec(recipe(), 1..10),
        texts in proptest::collection::vec("[-a-z0-9 =.,()*']{0,40}", 0..3),
    ) {
        let dir = format!("{}/shell-fuzz", env!("CARGO_TARGET_TMPDIR"));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        let mut lines: Vec<(String, bool)> =
            recipes.iter().map(|r| (line(&dir, r), false)).collect();
        lines.extend(texts.into_iter().map(|t| (t, true)));
        prop_assert_eq!(feed(&lines), Ok(()));
    }
}

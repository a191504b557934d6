//! Determinism and backend-agreement gates for the operator console.
//!
//! * The golden test runs the same script on two fresh sim-backed
//!   shells and requires byte-identical transcripts — any wall-clock,
//!   address, or hash-order leak into the output fails here.
//! * The thread-backend test replays the SQL portion on a real-threads
//!   cluster and requires the same statement results as sim, plus a
//!   clean plane/silo accounting cross-check at teardown.

use gdb_realnet::Backend;
use gdb_shell::Shell;

const SCRIPT: &str = "
# operator smoke: observe, write, break, heal, migrate
status
nodes
shards
sql CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)
sql INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)
run 200ms
sql SELECT v FROM kv WHERE k = 2
lag
fault crash-primary shard=0
run 100ms
fault restart-primary shard=0
run 500ms
sql SELECT v FROM kv WHERE k = 1
metrics replication.ship
use cn 1
sql UPDATE kv SET v = 21 WHERE k = 2
migrate 0 1 1
shards
run 2s
shards
sql SELECT v FROM kv WHERE k = 2
fault crash-primary shard=1
fault rejoin-old-primary shard=1
shards
fault restart-primary shard=1
nodes
";

const SQL_SCRIPT: &str = "
sql CREATE TABLE kv (k INT NOT NULL, v INT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)
sql INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)
run 200ms
sql UPDATE kv SET v = 11 WHERE k = 1
run 200ms
sql SELECT v FROM kv WHERE k = 1
sql SELECT COUNT(*) FROM kv
";

#[test]
fn golden_transcript_is_byte_identical() {
    let run = || {
        let mut shell = Shell::launch(7, Backend::Sim);
        let transcript = shell.run_script(SCRIPT);
        assert!(!shell.failed(), "script failed:\n{transcript}");
        transcript
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "transcript must replay byte-identically");
    // Sanity: the transcript actually exercised the surfaces it claims.
    for needle in ["-- via ", "lag_ms", "MIGRATING", "replication.ship.batches"] {
        assert!(first.contains(needle), "missing {needle:?}:\n{first}");
    }
    // An unreplaced primary is not admitted as its own replica, and the
    // primary the migration replaced has left the cluster.
    assert!(first.contains("skip rejoin shard=1: "), "{first}");
    assert!(!first.contains("recover rejoin"), "{first}");
    assert!(first.contains("n7   dn-primary  r0 h0 retired"), "{first}");
}

/// The statement-visible results (rows, counts) of every SQL command,
/// excluding the `--` footer whose latency depends on physical timing.
fn sql_results(transcript: &str) -> Vec<String> {
    transcript
        .lines()
        .filter(|l| l.starts_with('(') || l.ends_with("row(s)") || l.ends_with("affected"))
        .map(str::to_string)
        .collect()
}

/// Real threads: run in the `scripts/ci.sh shell` stage, which passes
/// `--include-ignored`, not in the workspace's default `cargo test`.
#[test]
#[ignore = "joins real threads; scripts/ci.sh shell runs it"]
fn thread_backend_agrees_with_sim() {
    let run = |backend: Backend| {
        let mut shell = Shell::launch(7, backend);
        let transcript = shell.run_script(SQL_SCRIPT);
        let teardown = shell.shutdown();
        assert!(
            teardown.contains("plane verified"),
            "{backend:?}: {teardown}"
        );
        assert!(!shell.failed(), "{backend:?} failed:\n{transcript}");
        sql_results(&transcript)
    };
    let sim = run(Backend::Sim);
    let thread = run(Backend::Thread);
    assert!(!sim.is_empty(), "script produced no SQL results");
    assert_eq!(sim, thread, "committed results must agree across backends");
}

/// A fault naming a shard, CN or region the cluster does not have is
/// skipped with a trace line; each of these used to index out of bounds.
#[test]
fn out_of_range_fault_targets_are_skipped() {
    let mut shell = Shell::launch(7, Backend::Sim);
    for (command, skipped) in [
        ("fault crash-primary shard=99", "crash-primary: no shard 99"),
        (
            "fault restart-primary shard=99",
            "restart-primary: no shard 99",
        ),
        (
            "fault promote-replica shard=99 replica=0",
            "promote-replica: no shard 99",
        ),
        (
            "fault rejoin-old-primary shard=99",
            "rejoin-old-primary: no shard 99",
        ),
        (
            "fault crash-replica shard=99 replica=0",
            "crash-replica: no shard 99",
        ),
        (
            "fault restart-replica shard=99 replica=0",
            "restart-replica: no shard 99",
        ),
        ("fault crash-cn cn=99", "crash-cn: no cn 99"),
        ("fault restart-cn cn=99", "restart-cn: no cn 99"),
        (
            "fault clock-sync-outage cn=99",
            "clock-sync-outage: no cn 99",
        ),
        (
            "fault clock-sync-resume cn=99",
            "clock-sync-resume: no cn 99",
        ),
        (
            "fault partition-regions a=0 b=9",
            "partition-regions: no region 9",
        ),
        ("fault heal-regions a=9 b=0", "heal-regions: no region 9"),
    ] {
        let out = shell.exec(command);
        assert_eq!(out, format!("skip {skipped}"), "{command}");
    }
    // The cluster is untouched: in-range faults and SQL still work.
    assert!(shell
        .exec("fault crash-cn cn=2")
        .starts_with("fault crash-cn"));
    assert!(shell.exec("status").contains("cn"));
}

/// `migrate` to a region the cluster does not have is an error line; it
/// used to panic in `Topology::add_node`.
#[test]
fn migrate_to_an_unknown_region_is_an_error() {
    let mut shell = Shell::launch(7, Backend::Sim);
    let out = shell.exec("migrate 0 9 1");
    assert!(out.starts_with("error: migrate:"), "{out}");
    assert!(out.contains("no region 9"), "{out}");
    // Nothing was started: the same shard can still move.
    assert!(shell.exec("migrate 0 0 1").contains("started"));
}

#[test]
fn committed_scenarios_lint_clean() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut linted = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "toml") {
            let text = std::fs::read_to_string(&path).unwrap();
            let errors = gdb_chaos::scenario::lint(&text);
            assert!(errors.is_empty(), "{}: {errors:?}", path.display());
            linted += 1;
        }
    }
    assert!(linted > 0, "no scenario files in {}", dir.display());
}

/// A topology the cluster cannot deploy is a load error: `scenario run`
/// prints it with the key's line and exits 1 (it used to panic inside
/// the run, or be killed for memory).
#[test]
fn scenario_run_rejects_an_undeployable_topology() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("zero-cns.toml");
    std::fs::write(
        &path,
        "[scenario]\nname = \"x\"\n[topology]\ncns = 0\n[nemesis]\nplan = \"generated\"\n",
    )
    .unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gdb-shell"))
        .args(["scenario", "run"])
        .arg(&path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("line 4: [topology] cns = 0 must be at least 1"),
        "{stdout}"
    );
}

//! Replayable chaos runs from the command line:
//!
//! ```text
//! cargo run -p gdb-chaos --bin nemesis -- --seed 7 --duration 10s
//! cargo run -p gdb-chaos --bin nemesis -- --plan primary-failover
//! ```
//!
//! The same `--seed` always produces the identical fault schedule, event
//! interleaving, and trace. Exits non-zero if any invariant was violated.

use gdb_chaos::plan::canned;
use gdb_chaos::{run, ChaosReport, PlanSource, Scenario};
use gdb_obs::{parse_duration, Args, BenchArtifact};
use std::process::ExitCode;

/// The switches that pick the seeded schedule's extra fault families.
const FAMILY_FLAGS: [&str; 3] = ["--overlap", "--migrations", "--elastic"];

/// Encode one run as a `gdb-bench/v1` artifact (figure `nemesis`).
fn to_artifact(report: &ChaosReport, seed: u64) -> BenchArtifact {
    let mut art = BenchArtifact::new("nemesis");
    art.config_kv("seed", seed);
    art.config_kv("plan", &report.plan_name);
    art.config_kv("duration_s", report.duration.as_secs_f64());
    art.config_kv("violations", report.violations.len());
    art.config_kv("checked_txns", report.checked.txns);
    art.config_kv("checked_reads", report.checked.reads);
    art.config_kv("checked_writes", report.checked.writes);
    let secs = report.duration.as_secs_f64().max(1e-9);
    art.series.push(globaldb::bench_series(
        report.plan_name.clone(),
        report.txns_committed as f64 / secs,
        0.0,
        report.txns_committed,
        report.txns_aborted,
        report.latency.clone(),
        report.metrics.clone(),
    ));
    art
}

fn usage(err: &str) -> ! {
    eprintln!(
        "nemesis: {err}\n\
         usage: nemesis [--seed N] [--duration 60s|500ms] [--plan NAME] [--json PATH] \
         [--overlap] [--migrations] [--elastic]\n\
         plans: {}",
        canned::all()
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

/// What one invocation asks for.
struct Options {
    scenario: Scenario,
    json: Option<String>,
}

fn options(args: &[String]) -> Result<Options, String> {
    let args = Args::parse(
        args,
        &["--seed", "--duration", "--plan", "--json"],
        &FAMILY_FLAGS,
    )?;
    if let Some(word) = args.rest.first() {
        return Err(format!("unexpected argument {word:?}"));
    }
    let seed = args.read("--seed", |v| v.parse().ok())?.unwrap_or(1);
    let mut scn = Scenario::quick(seed);
    if let Some(d) = args.read("--duration", parse_duration)? {
        scn.duration = d;
    }
    let [overlap, migrations, elastic] = FAMILY_FLAGS.map(|f| args.switch(f));
    match args.read("--plan", canned::by_name)? {
        Some(plan) => {
            if let Some(flag) = FAMILY_FLAGS.iter().find(|f| args.switch(f)) {
                return Err(format!(
                    "{flag} applies only to the seeded schedule, not --plan"
                ));
            }
            scn.name = plan.name.clone();
            scn.plan = PlanSource::Canned(plan.name);
        }
        None => {
            scn.name = format!("nemesis-{seed}");
            scn.plan = PlanSource::Generated {
                overlap,
                migrations,
                elastic,
            };
        }
    }
    Ok(Options {
        scenario: scn,
        json: args.value("--json").map(str::to_string),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = options(&args).unwrap_or_else(|e| usage(&e));
    let report = run(&opts.scenario);

    print!("{}", report.render());
    if let Some(path) = opts.json {
        let art = to_artifact(&report, opts.scenario.seed);
        std::fs::write(&path, art.to_pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        options(&args)
    }

    /// `--json` with its path missing used to take the next flag as the
    /// path: `--json --overlap` wrote a file named `--overlap` and also
    /// turned overlap on.
    #[test]
    fn json_without_a_path_is_a_usage_error() {
        assert_eq!(
            parse("--json --overlap").err().unwrap(),
            "--json needs a value"
        );
        let ok = parse("--seed 3 --duration 500ms --overlap --json out.json").unwrap();
        let scn = &ok.scenario;
        assert_eq!((scn.seed, ok.json.as_deref()), (3, Some("out.json")));
        assert!(matches!(
            scn.plan,
            PlanSource::Generated {
                overlap: true,
                elastic: false,
                ..
            }
        ));
        assert_eq!(scn.duration, gdb_simnet::SimDuration::from_millis(500));
    }

    #[test]
    fn bad_values_and_stray_words_are_usage_errors() {
        for (line, err) in [
            ("--seed x", "bad value \"x\" for --seed"),
            ("--duration fast", "bad value \"fast\" for --duration"),
            ("--plan nope", "bad value \"nope\" for --plan"),
            ("--overlap 7", "unexpected argument \"7\""),
        ] {
            assert_eq!(parse(line).err().unwrap(), err, "{line}");
        }
    }

    /// The family switches steer only the seeded schedule; beside a canned
    /// plan they used to be dropped without a word.
    #[test]
    fn family_flags_with_a_canned_plan_are_usage_errors() {
        for flag in FAMILY_FLAGS {
            assert_eq!(
                parse(&format!("--plan primary-failover {flag}"))
                    .err()
                    .unwrap(),
                format!("{flag} applies only to the seeded schedule, not --plan")
            );
        }
    }

    /// The flags and the equivalent scenario file describe one run: the
    /// same `Scenario`, and running it gives the same trace, history and
    /// metrics.
    #[test]
    fn flags_and_the_equivalent_scenario_file_are_one_run() {
        for (line, file) in [
            (
                "--seed 3 --duration 1s --overlap --migrations",
                "[scenario]\nname = \"nemesis-3\"\nseed = 3\n[workload]\nduration = \"1s\"\n\
                 [nemesis]\nplan = \"generated\"\noverlap = true\nmigrations = true\n",
            ),
            (
                "--plan primary-failover",
                "[scenario]\nname = \"primary-failover\"\n[nemesis]\nplan = \"primary-failover\"\n",
            ),
        ] {
            let flags = parse(line).unwrap().scenario;
            let loaded = gdb_chaos::scenario::load(file).unwrap();
            assert_eq!(format!("{flags:?}"), format!("{loaded:?}"), "{line}");
            let (a, b) = (run(&flags), run(&loaded));
            assert!(a.ok(), "{line}: {}", a.render());
            assert_eq!(a.trace, b.trace, "{line}");
            assert!(a.history == b.history, "{line}: histories differ");
            assert_eq!(a.metrics, b.metrics, "{line}");
        }
    }
}

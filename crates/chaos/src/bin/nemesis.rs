//! Replayable chaos runs from the command line:
//!
//! ```text
//! cargo run -p gdb-chaos --bin nemesis -- --seed 7 --duration 10s
//! cargo run -p gdb-chaos --bin nemesis -- --plan primary-failover
//! ```
//!
//! The same `--seed` always produces the identical fault schedule, event
//! interleaving, and trace. Exits non-zero if any invariant was violated.

use gdb_chaos::plan::{canned, FaultPlan};
use gdb_chaos::{run_nemesis, run_plan, ChaosConfig, ChaosReport};
use gdb_obs::{parse_duration, Args, BenchArtifact};
use gdb_simnet::SimDuration;
use std::process::ExitCode;

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
    seed: u64,
    cfg: ChaosConfig,
    /// A canned plan, or `None` for the seeded nemesis schedule.
    plan: Option<FaultPlan>,
    json: Option<String>,
}

fn options(args: &[String]) -> Result<Options, String> {
    let args = Args::parse(
        args,
        &["--seed", "--duration", "--plan", "--json"],
        &["--overlap", "--migrations", "--elastic"],
    )?;
    if let Some(word) = args.rest.first() {
        return Err(format!("unexpected argument {word:?}"));
    }
    let seed = args.read("--seed", |v| v.parse().ok())?.unwrap_or(1);
    let mut cfg = ChaosConfig::quick(seed);
    cfg.duration = args
        .read("--duration", parse_duration)?
        .unwrap_or(SimDuration::from_secs(3));
    cfg.overlap = args.switch("--overlap");
    cfg.migrations = args.switch("--migrations");
    cfg.elastic = args.switch("--elastic");
    Ok(Options {
        seed,
        cfg,
        plan: args.read("--plan", canned::by_name)?,
        json: args.value("--json").map(str::to_string),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = options(&args).unwrap_or_else(|e| usage(&e));
    let report = match opts.plan {
        Some(plan) => run_plan(plan, &opts.cfg),
        None => run_nemesis(opts.seed, &opts.cfg),
    };

    print!("{}", report.render());
    if let Some(path) = opts.json {
        let art = to_artifact(&report, opts.seed);
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
        assert_eq!((ok.seed, ok.json.as_deref()), (3, Some("out.json")));
        assert!(ok.cfg.overlap && !ok.cfg.elastic);
        assert_eq!(ok.cfg.duration, SimDuration::from_millis(500));
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
}

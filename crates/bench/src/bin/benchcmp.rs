//! Bench-artifact tooling for the CI perf gate:
//!
//! ```text
//! benchcmp merge OUT.json IN1.json [IN2.json ...]
//! benchcmp check BASELINE.json CURRENT.json [--tolerance 0.20]
//! benchcmp validate FILE.json [FILE.json ...]
//! ```
//!
//! `merge` bundles several `gdb-bench/v1` artifacts into one
//! `gdb-bench/bundle/v1` document holding what `check` reads: of each
//! series' metrics snapshot only the artifact's `counter_gate_metric`
//! counter is kept (`scripts/vt_diff.sh` diffs the full registries of
//! the per-figure `--json` outputs). `check` compares current throughput
//! against a committed baseline and exits non-zero if any series
//! regressed beyond the tolerance (default 20%) or disappeared; either
//! document failing `validate` (e.g. a stale artifact of a retired
//! wall-clock bench) is an error, never compared.
//! `validate` parses every given artifact file and fails on schema
//! drift (bad gate config, broken quantile ordering, duplicate or
//! missing series) — the lint stage runs it over all committed
//! `BENCH_*.json` baselines so drift is caught before a bench run.
//! `.toml` arguments are linted as scenario files instead (unknown
//! tables/keys, dangling plan or fault names), so the same stage covers
//! the committed `scenarios/*.toml`.

use gdb_obs::{
    bundle, compare_artifacts, load_artifacts, validate_artifacts, BenchArtifact, Json,
    COUNTER_GATE_METRIC_KEY,
};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: benchcmp merge OUT.json IN.json [IN.json ...]\n\
         \x20      benchcmp check BASELINE.json CURRENT.json [--tolerance 0.20]\n\
         \x20      benchcmp validate FILE.json|SCENARIO.toml [...]"
    );
    std::process::exit(2);
}

fn read_artifacts(path: &str) -> Vec<BenchArtifact> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("benchcmp: read {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("benchcmp: parse {path}: {e}");
        std::process::exit(2);
    });
    load_artifacts(&doc).unwrap_or_else(|e| {
        eprintln!("benchcmp: {path}: {e}");
        std::process::exit(2);
    })
}

fn merge(out: &str, inputs: &[String]) -> ExitCode {
    let mut all = Vec::new();
    for path in inputs {
        all.extend(read_artifacts(path));
    }
    for art in &mut all {
        let gated = art
            .config_value(COUNTER_GATE_METRIC_KEY)
            .map(str::to_string);
        for series in &mut art.series {
            let metrics = &mut series.metrics.metrics;
            metrics.retain(|name, _| Some(name) == gated.as_ref());
        }
    }
    let doc = bundle(&all).to_pretty();
    if let Err(e) = std::fs::write(out, doc) {
        eprintln!("benchcmp: write {out}: {e}");
        return ExitCode::from(2);
    }
    println!("merged {} artifacts into {out}", all.len());
    ExitCode::SUCCESS
}

fn check(baseline: &str, current: &str, tolerance: f64) -> ExitCode {
    let base = read_artifacts(baseline);
    let cur = read_artifacts(current);
    let mut invalid = 0;
    for (path, arts) in [(baseline, &base), (current, &cur)] {
        for msg in validate_artifacts(arts) {
            eprintln!("benchcmp: {path}: {msg}");
            invalid += 1;
        }
    }
    if invalid > 0 {
        eprintln!("benchcmp: refusing to compare invalid artifacts");
        return ExitCode::from(2);
    }
    let comparisons = compare_artifacts(&base, &cur, tolerance);
    if comparisons.is_empty() {
        eprintln!("benchcmp: baseline {baseline} has no series to compare");
        return ExitCode::from(2);
    }
    let mut failed = 0;
    for c in &comparisons {
        println!("{}", c.render());
        if !c.ok {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!(
            "benchcmp: {failed}/{} comparisons regressed more than {:.0}% vs {baseline}",
            comparisons.len(),
            tolerance * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "all {} comparisons within {:.0}% of {baseline}",
            comparisons.len(),
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    }
}

fn validate(paths: &[String]) -> ExitCode {
    let mut problems = 0;
    let mut artifacts = 0;
    let mut scenarios = 0;
    for path in paths {
        if path.ends_with(".toml") {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("benchcmp: read {path}: {e}");
                std::process::exit(2);
            });
            scenarios += 1;
            for msg in gdb_chaos::scenario::lint(&text) {
                eprintln!("benchcmp: {path}: {msg}");
                problems += 1;
            }
            continue;
        }
        let arts = read_artifacts(path);
        artifacts += arts.len();
        for msg in validate_artifacts(&arts) {
            eprintln!("benchcmp: {path}: {msg}");
            problems += 1;
        }
    }
    if problems > 0 {
        eprintln!(
            "benchcmp: {problems} problem(s) across {} file(s)",
            paths.len()
        );
        ExitCode::FAILURE
    } else {
        println!(
            "validated {artifacts} artifacts and {scenarios} scenario(s) across {} file(s)",
            paths.len()
        );
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("merge") if args.len() >= 3 => merge(&args[1], &args[2..]),
        Some("validate") if args.len() >= 2 => validate(&args[1..]),
        Some("check") if args.len() >= 3 => {
            let mut tolerance = 0.20;
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--tolerance" => {
                        i += 1;
                        tolerance = args
                            .get(i)
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage());
                    }
                    _ => usage(),
                }
                i += 1;
            }
            check(&args[1], &args[2], tolerance)
        }
        _ => usage(),
    }
}

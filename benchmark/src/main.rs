//! Full-stack wall-clock benchmark of the GaussDB-Global reproduction.
//! See `benchmark/README.md`; the contract it is run under is
//! `BENCHMARK.json` at the root of the repository.

mod alloc;
mod driver;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use gdb_obs::Json;
use stats::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::WorkloadId;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The benchmark's contract, compiled in so that the names and bounds
/// the program uses cannot drift from the ones the driver reads.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

const USAGE: &str = "usage: gdb-benchmark [<workload>|all|selfcheck|probes] \
[--workload <name>] [--seed N] [--seconds S] [--trace 0|1] [--quick]
workloads: tpcc_sim point_select_sim update_zipf_sim tpcc_tcp";

/// How much one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Wall seconds of timed windows per run, all repetitions together.
    pub seconds: f64,
    /// Smoke mode: one repetition, a tenth of the count phase and of the
    /// probe loops.
    pub quick: bool,
}

struct Args {
    command: String,
    trace: Option<bool>,
    plan: Plan,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut command = None;
    let mut trace = None;
    let mut seconds = None;
    let mut plan = Plan {
        seed: 42,
        seconds: 0.0,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => command = Some(value("a workload name")?.to_string()),
            "--seed" => {
                plan.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} is outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            "--quick" => plan.quick = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            word if command.is_none() => command = Some(word.to_string()),
            word => return Err(format!("unexpected argument {word}")),
        }
    }
    plan.seconds = seconds.unwrap_or(if plan.quick {
        1.0
    } else {
        contract_f64("run_seconds")?
    });
    Ok(Args {
        command: command.ok_or("no workload or command given")?,
        trace,
        plan,
    })
}

fn contract() -> Result<Json, String> {
    Json::parse(CONTRACT).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn contract_f64(key: &str) -> Result<f64, String> {
    contract()?
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("BENCHMARK.json: no number {key}"))
}

/// The `name`s under `section` (`end_to_end` or `per_layer`), each with
/// its `bound` where it has one.
fn contract_metrics(section: &str) -> Result<Vec<(String, Option<f64>)>, String> {
    let doc = contract()?;
    let list = doc
        .get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no list {section}"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let name = name.ok_or_else(|| format!("BENCHMARK.json: unnamed {section} metric"))?;
            Ok((name.to_string(), m.get("bound").and_then(Json::as_f64)))
        })
        .collect()
}

fn names(section: &str) -> Result<Vec<String>, String> {
    Ok(contract_metrics(section)?
        .into_iter()
        .map(|(n, _)| n)
        .collect())
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// One contract run: measure, print every metric as `name value unit`,
/// write `out/<workload>[.layers].json`, and return the result object
/// whose compact form is the last line the driver reads.
fn run(id: WorkloadId, traced: bool, plan: Plan) -> Result<(Json, Metrics), String> {
    let (outcome, metrics, section) = if traced {
        let (outcome, metrics) = report::per_layer(id, plan)?;
        (outcome, metrics, "per_layer")
    } else {
        let (outcome, metrics) = report::end_to_end(id, plan)?;
        (outcome, metrics, "end_to_end")
    };
    println!(
        "# {} seed {} seconds {} trace {}",
        id.name(),
        plan.seed,
        plan.seconds,
        traced as u8
    );
    print!("{}", metrics.to_lines());
    let result = stats::result_json(
        outcome.attempted,
        outcome.failed,
        metrics.to_json(&names(section)?)?,
    );
    let file = out_dir().join(format!(
        "{}{}.json",
        id.name(),
        if traced { ".layers" } else { "" }
    ));
    let every: Vec<String> = metrics.0.iter().map(|m| m.name.clone()).collect();
    let doc = Json::obj(vec![
        ("workload", Json::str(id.name())),
        ("seed", Json::u64(plan.seed)),
        ("seconds", Json::Num(plan.seconds)),
        ("attempted", Json::u64(outcome.attempted)),
        ("failed", Json::u64(outcome.failed)),
        ("metrics", metrics.to_json(&every)?),
    ]);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&file, doc.to_pretty()))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    Ok((result, metrics))
}

/// Run the full set twice and fail unless every end-to-end metric of
/// every workload agrees within its bound. On sim the counts must agree
/// to 0.1 %: the same seed does the same work (see
/// `report::check_count_phase_repeats` for why not exactly).
fn selfcheck(plan: Plan) -> Result<(), String> {
    let bounds = contract_metrics("end_to_end")?;
    let mut sets: Vec<Vec<Metrics>> = Vec::new();
    for pass in 0..2 {
        println!("# selfcheck pass {}", pass + 1);
        let mut set = Vec::new();
        for id in workloads::ALL {
            set.push(run(id, false, plan)?.1);
        }
        sets.push(set);
    }
    let mut failures = Vec::new();
    for (w, id) in workloads::ALL.into_iter().enumerate() {
        for (name, bound) in &bounds {
            let bound = bound.ok_or_else(|| format!("BENCHMARK.json: {name} has no bound"))?;
            let value = |pass: usize| sets[pass][w].get(name).map(|m| m.value);
            let (Some(a), Some(b)) = (value(0), value(1)) else {
                return Err(format!("{name} was not measured"));
            };
            let same_work = id.backend() == gdb_realnet::Backend::Sim && report::is_count(name);
            let allowed = if same_work { 1e-3 } else { bound };
            let ok = (b - a).abs() / a.abs() <= allowed;
            println!(
                "{} {name}: {a} vs {b} ({:+.2} %, allowed {} %) {}",
                id.name(),
                100.0 * (b - a) / a,
                100.0 * allowed,
                if ok { "ok" } else { "DISAGREES" }
            );
            if !ok {
                failures.push(format!("{} {name}", id.name()));
            }
        }
    }
    if failures.is_empty() {
        println!("selfcheck: both sets agree within the bounds");
        Ok(())
    } else {
        Err(format!("selfcheck: {} disagree", failures.join(", ")))
    }
}

fn dispatch(args: Args) -> Result<(), String> {
    match args.command.as_str() {
        "selfcheck" => selfcheck(args.plan),
        "probes" => {
            print!("{}", probes::run(args.plan.quick).to_lines());
            Ok(())
        }
        "all" => {
            for id in workloads::ALL {
                for traced in [false, true] {
                    run(id, traced, args.plan)?;
                }
            }
            Ok(())
        }
        name => {
            let id = WorkloadId::from_name(name)
                .ok_or_else(|| format!("unknown workload or command {name}\n{USAGE}"))?;
            match args.trace {
                // The driver's form: one mode, and the result object as
                // the last line of standard output.
                Some(traced) => {
                    let (result, _) = run(id, traced, args.plan)?;
                    println!("{}", result.to_compact());
                }
                None => {
                    for traced in [false, true] {
                        run(id, traced, args.plan)?;
                    }
                }
            }
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before anything else runs or any thread starts: see `alloc`.
    match alloc::pin_to_current_cpu() {
        Ok(cpu) => println!("# pinned to cpu {cpu}"),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    match dispatch(parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload tpcc_tcp --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.command, "tpcc_tcp");
        assert_eq!(a.trace, Some(true));
        assert_eq!(a.plan.seed, 7);
        assert_eq!(a.plan.seconds, 10.0);
        assert!(!a.plan.quick);
    }

    #[test]
    fn defaults_and_errors() {
        let a = args("all --quick").unwrap();
        assert_eq!(
            (a.command.as_str(), a.trace, a.plan.seed),
            ("all", None, 42)
        );
        assert_eq!(a.plan.seconds, 1.0);
        assert_eq!(
            args("tpcc_sim").unwrap().plan.seconds,
            contract_f64("run_seconds").unwrap()
        );
        assert!(args("").is_err());
        assert!(args("all --seconds 0").is_err());
        assert!(args("all --trace 2").is_err());
        assert!(args("all --seed").is_err());
        assert!(args("all extra").is_err());
        assert!(args("all --frobnicate").is_err());
    }

    /// The program measures what `BENCHMARK.json` declares: same workload
    /// names, and every declared metric has a bound in the allowed range
    /// or none at all.
    #[test]
    fn contract_matches_the_program() {
        let doc = contract().unwrap();
        let declared: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let built: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(declared, built);
        let e2e = contract_metrics("end_to_end").unwrap();
        assert!(e2e.iter().any(|(n, _)| n == "setup_s"));
        for (name, bound) in &e2e {
            let b = bound.unwrap_or_else(|| panic!("{name} has no bound"));
            assert!(b > 0.0 && b <= 0.25, "{name} bound {b}");
        }
        assert!(contract_metrics("per_layer")
            .unwrap()
            .iter()
            .all(|(_, b)| b.is_none()));
    }
}

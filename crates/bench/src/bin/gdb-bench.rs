//! Run one experiment of the paper's evaluation and print its table:
//!
//! ```text
//! cargo run -p gdb-bench --release -- fig6a --scale tiny --json fig6a.json
//! ```
//!
//! An unknown or missing experiment, an unknown flag or a bad value
//! prints the usage and exits 2.

use gdb_bench::experiments::{runner, Runner, EXPERIMENTS};
use gdb_bench::BenchParams;
use gdb_obs::Args;
use std::path::Path;

fn usage(err: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "gdb-bench: {err}\n\
         usage: gdb-bench <experiment> [--scale tiny|small|medium] [--secs N] \
         [--terminals N] [--json PATH] [--trace PATH]\n\
         experiments: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

/// The experiment asked for, its run's parameters and its output flags.
fn invocation(args: &[String]) -> Result<(Runner, BenchParams, Args), String> {
    let (name, rest) = args.split_first().ok_or("no experiment given")?;
    let runner = runner(name).ok_or_else(|| format!("unknown experiment {name:?}"))?;
    let flags = ["--scale", "--secs", "--terminals", "--json", "--trace"];
    let args = Args::parse(rest, &flags, &[])?;
    if let Some(word) = args.rest.first() {
        return Err(format!("unexpected argument {word:?}"));
    }
    if args.value("--json").is_some() && matches!(runner, Runner::Table(_)) {
        return Err(format!("{name} records no --json artifact"));
    }
    if args.value("--trace").is_some() && !matches!(runner, Runner::Traced(_)) {
        return Err(format!("{name} has no --trace run"));
    }
    Ok((runner, BenchParams::from_args(&args)?, args))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (runner, params, args) = invocation(&args).unwrap_or_else(|e| usage(&e));
    let artifact = match runner {
        Runner::Table(run) => {
            run(&params);
            None
        }
        Runner::Artifact(run) => Some(run(&params)),
        Runner::Traced(run) => Some(run(&params, args.value("--trace").map(Path::new))),
    };
    if let (Some(art), Some(path)) = (artifact, args.value("--json")) {
        std::fs::write(path, art.to_pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<BenchParams, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        invocation(&args).map(|(_, params, _)| params)
    }

    /// The run's shape used to come from environment variables that fell
    /// back to their defaults on a typo: a scale of `tiyn` ran at small
    /// scale and 2s ran 10 virtual seconds.
    #[test]
    fn a_misspelt_scale_or_duration_is_a_usage_error() {
        for (line, err) in [
            ("fig6a --scale tiyn", "bad value \"tiyn\" for --scale"),
            ("fig6a --secs 2s", "bad value \"2s\" for --secs"),
            ("fig6a --terminals 0", "bad value \"0\" for --terminals"),
            ("", "no experiment given"),
            ("fig7", "unknown experiment \"fig7\""),
            ("fig6a --seed 1", "unknown flag --seed"),
            ("fig6a --json", "--json needs a value"),
            ("fig6a tiny", "unexpected argument \"tiny\""),
            (
                "ablation_rcp --json x",
                "ablation_rcp records no --json artifact",
            ),
            ("fig1a --trace x", "fig1a has no --trace run"),
        ] {
            assert_eq!(parse(line).err().unwrap(), err, "{line:?}");
        }
        let p = parse("fig6a --scale tiny --secs 2 --terminals 8 --json a --trace b").unwrap();
        assert_eq!(
            (p.scale_name, p.run.duration.as_secs_f64(), p.run.terminals),
            ("tiny", 2.0, 8)
        );
        let p = parse("fig1a").unwrap();
        assert_eq!((p.scale_name, p.run.terminals), ("small", 24));
    }
}

//! The operator console binary.
//!
//! ```text
//! gdb-shell                                   # REPL on the sim backend
//! gdb-shell --backend thread                  # real threads (PR-6 seam)
//! gdb-shell --seed 7 --script ops.gdb         # batch transcript
//! gdb-shell scenario run scenarios/x.toml     # one-shot command
//! ```
//!
//! Exits non-zero if any command failed (unknown command, bad arguments,
//! scenario violations) or the backend teardown failed verification.

use gdb_obs::Args;
use gdb_realnet::Backend;
use gdb_shell::Shell;
use std::io::{BufRead, Write};
use std::process::ExitCode;

fn usage(err: &str) -> ! {
    eprintln!(
        "gdb-shell: {err}\n\
         usage: gdb-shell [--backend sim|thread|tcp] [--seed N] [--script FILE] [COMMAND...]"
    );
    std::process::exit(2);
}

/// What one invocation asks for.
#[derive(Debug)]
struct Options {
    backend: Backend,
    seed: u64,
    script: Option<String>,
    /// Everything after the flags: one inline command.
    command: Vec<String>,
}

fn options(args: &[String]) -> Result<Options, String> {
    let args = Args::parse(args, &["--backend", "--seed", "--script"], &[])?;
    let backend = args.read("--backend", |v| match v {
        "sim" => Some(Backend::Sim),
        "thread" => Some(Backend::Thread),
        "tcp" => Some(Backend::Tcp),
        _ => None,
    })?;
    Ok(Options {
        backend: backend.unwrap_or(Backend::Sim),
        seed: args.read("--seed", |v| v.parse().ok())?.unwrap_or(1),
        script: args.value("--script").map(str::to_string),
        command: args.rest,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        backend,
        seed,
        script,
        command,
    } = options(&args).unwrap_or_else(|e| usage(&e));

    let mut shell = Shell::launch(seed, backend);
    if let Some(path) = script {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("gdb-shell: read {path}: {e}");
            std::process::exit(2);
        });
        print!("{}", shell.run_script(&text));
    } else if !command.is_empty() {
        let out = shell.exec(&command.join(" "));
        if !out.is_empty() {
            println!("{out}");
        }
    } else {
        repl(&mut shell);
    }
    println!("{}", shell.shutdown());
    if shell.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn repl(shell: &mut Shell) {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("gdb> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        let out = shell.exec(line);
        if !out.is_empty() {
            println!("{out}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        options(&args)
    }

    /// A value flag with its value missing used to fall back to its
    /// default: `gdb-shell --seed` ran seed 1, `--backend` ran sim.
    #[test]
    fn a_value_flag_without_its_value_is_a_usage_error() {
        assert_eq!(parse("--seed").unwrap_err(), "--seed needs a value");
        assert_eq!(parse("--backend").unwrap_err(), "--backend needs a value");
        assert_eq!(
            parse("--backend --seed 3").unwrap_err(),
            "--backend needs a value"
        );
        assert_eq!(
            parse("--backend udp").unwrap_err(),
            "bad value \"udp\" for --backend"
        );
        assert_eq!(parse("--bogus").unwrap_err(), "unknown flag --bogus");
    }

    #[test]
    fn flags_then_one_inline_command() {
        let o = parse("--seed 7 --backend tcp bench tpcc --json out.json").unwrap();
        assert_eq!((o.seed, o.backend, o.script), (7, Backend::Tcp, None));
        assert_eq!(o.command.join(" "), "bench tpcc --json out.json");
        let o = parse("").unwrap();
        assert_eq!((o.seed, o.backend), (1, Backend::Sim));
    }
}

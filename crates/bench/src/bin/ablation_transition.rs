//! Ablation — zero-downtime online transition (paper §III-A, Figs. 2–3).
//!
//! Runs TPC-C in GTM mode, switches the cluster to GClock mid-run (and
//! later back to GTM), and reports throughput in 500 ms windows. The
//! paper's claim: the cluster keeps accepting transactions throughout —
//! no window drops to zero, versus the strawman of blocking the system
//! until all GTM transactions drain.
//!
//! Regenerate with: `cargo run -p gdb-bench --release --bin ablation_transition`

use gdb_bench::windowed::{transition_run, TO_GCLOCK_AT, TO_GTM_AT};
use gdb_bench::{print_table, BenchParams};

fn main() {
    let params = BenchParams::from_env();
    let run = transition_run(params.seed);

    let rows: Vec<Vec<String>> = run
        .commits
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let note = match i {
                TO_GCLOCK_AT => "→ transition to GClock starts",
                TO_GTM_AT => "→ transition back to GTM starts",
                _ => "",
            };
            vec![
                format!("{}..{} ms", 10 + i * 500, 10 + (i + 1) * 500),
                format!("{c}"),
                run.modes[i].clone(),
                note.to_string(),
            ]
        })
        .collect();
    print_table(
        "Ablation — throughput through online GTM↔GClock transitions",
        &["window", "NewOrder commits", "CN mode at end", "event"],
        &rows,
    );
    let min = run.commits.iter().min().unwrap();
    println!(
        "Minimum window: {min} commits — zero-downtime requires every window > 0. \
         Last transition completed: {:?}",
        run.cluster.db.last_transition_completed()
    );
    assert!(*min > 0, "a window starved during the transition!");
}

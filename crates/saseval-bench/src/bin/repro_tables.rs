//! Regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run -p saseval-bench --bin repro_tables                  # everything
//! cargo run -p saseval-bench --bin repro_tables table6           # one experiment
//! cargo run -p saseval-bench --bin repro_tables --timings        # + wall-time table
//! cargo run -p saseval-bench --bin repro_tables --fuzz-shards 4  # sharded fuzzing
//! cargo run -p saseval-bench --bin repro_tables --replay-corpus tests/fixtures/corpus
//! cargo run -p saseval-bench --bin repro_tables --server-floor BENCH_server.json
//! cargo run -p saseval-bench --bin repro_tables --scenario-search 96
//! cargo run -p saseval-bench --bin repro_tables --list
//! ```
//!
//! `--replay-corpus DIR` is a standalone mode: it replays every entry of
//! the regression corpus at `DIR` against the current built-in model
//! oracles and exits non-zero on any regression (or corpus corruption),
//! without running the experiments.
//!
//! `--server-floor FILE` is a standalone regression guard: it reads the
//! committed `BENCH_server.json`, measures the campaign server's current
//! cached-memory round-trip latency (best of 32 repeats at the committed
//! job size), and exits non-zero when the fresh measurement is more than
//! 3x slower than the committed row — catching cached-fast-path
//! regressions without re-running the whole bench grid.
//!
//! `--scenario-search BUDGET` is a standalone determinism and efficacy
//! smoke: it runs the coverage-guided scenario search (two shards) and
//! the pure-random baseline over the built-in keyless space at a fixed
//! seed and the given budget, prints the coverage each reached plus the
//! guided corpus hash (a stable fingerprint CI can pin), and exits
//! non-zero unless the guided search discovered strictly more coverage
//! points than random sampling.

use std::path::PathBuf;

use saseval_bench::server_bench::{current_cached_memory_latency, ServerBenchExport};
use saseval_bench::triage_bench::replay_corpus_table;
use saseval_bench::{all_experiments, run_experiments_timed, set_fuzz_shards, timing_table};

/// Removes `flag N` (or `flag=N`) from `args` and returns the requested
/// positive count.
fn take_count_flag(args: &mut Vec<String>, flag: &str) -> Option<usize> {
    let prefix = format!("{flag}=");
    let index = args.iter().position(|a| a == flag || a.starts_with(&prefix))?;
    let matched = args.remove(index);
    let value = match matched.split_once('=') {
        Some((_, value)) => value.to_owned(),
        None if index < args.len() => args.remove(index),
        None => {
            eprintln!("{flag} requires a count");
            std::process::exit(2);
        }
    };
    match value.parse::<usize>() {
        Ok(count) if count >= 1 => Some(count),
        _ => {
            eprintln!("{flag} expects a positive integer, got {value:?}");
            std::process::exit(2);
        }
    }
}

/// Removes `flag PATH` (or `flag=PATH`) from `args` and returns the
/// path.
fn take_path_flag(args: &mut Vec<String>, flag: &str, what: &str) -> Option<PathBuf> {
    let prefix = format!("{flag}=");
    let index = args.iter().position(|a| a == flag || a.starts_with(&prefix))?;
    let matched = args.remove(index);
    match matched.split_once('=') {
        Some((_, value)) => Some(PathBuf::from(value)),
        None if index < args.len() => Some(PathBuf::from(args.remove(index))),
        None => {
            eprintln!("{flag} requires {what}");
            std::process::exit(2);
        }
    }
}

/// The `--server-floor` guard: compare a fresh cached-memory latency
/// measurement against the committed export, with a 3x allowance for
/// hardware and load differences.
fn run_server_floor(file: &PathBuf) -> ! {
    let text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {}: {err}", file.display());
            std::process::exit(1);
        }
    };
    let committed: ServerBenchExport = match serde_json::from_str(&text) {
        Ok(committed) => committed,
        Err(err) => {
            eprintln!("cannot parse {}: {err}", file.display());
            std::process::exit(1);
        }
    };
    let Some(floor) = committed.cached_memory_seconds() else {
        eprintln!("{} has no cached-memory latency row", file.display());
        std::process::exit(1);
    };
    let current = current_cached_memory_latency(committed.job_iterations, 32);
    let allowed = floor * 3.0;
    println!(
        "server floor: committed cached-memory {:.6}s, current best-of-32 {:.6}s (allowed <= {:.6}s)",
        floor, current, allowed,
    );
    if current > allowed {
        eprintln!("cached-memory latency regressed: {:.6}s > 3x committed {:.6}s", current, floor,);
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// The `--scenario-search` smoke: a fixed-seed guided-vs-random duel
/// over the built-in keyless scenario space. Prints machine-pinnable
/// coverage numbers and corpus hashes, then gates on guided > random.
fn run_scenario_search(budget: usize) -> ! {
    use saseval_fuzz::scenario::{ScenarioSearch, ScenarioSpace};
    const SEED: u64 = 0xC0FFEE;
    const SHARDS: usize = 2;
    let search = ScenarioSearch::new(ScenarioSpace::keyless_default(), SEED);
    let guided = search.run_parallel(budget, SHARDS);
    let random = search.run_random(budget);
    println!(
        "scenario search (seed {SEED:#x}, budget {budget}, {SHARDS} shards): \
         guided cells={} paths={} corpus={} hash={:#018x}",
        guided.cells,
        guided.paths,
        guided.corpus.len(),
        guided.corpus_hash(),
    );
    println!(
        "scenario random (seed {SEED:#x}, budget {budget}): \
         cells={} paths={} corpus={} hash={:#018x}",
        random.cells,
        random.paths,
        random.corpus.len(),
        random.corpus_hash(),
    );
    if guided.coverage_points() <= random.coverage_points() {
        eprintln!(
            "guided search did not beat random sampling: {} <= {} coverage points",
            guided.coverage_points(),
            random.coverage_points(),
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(file) = take_path_flag(&mut args, "--server-floor", "a BENCH_server.json path") {
        run_server_floor(&file);
    }
    if let Some(budget) = take_count_flag(&mut args, "--scenario-search") {
        run_scenario_search(budget);
    }
    if let Some(dir) = take_path_flag(&mut args, "--replay-corpus", "a corpus directory") {
        match replay_corpus_table(&dir) {
            Ok((table, clean)) => {
                print!("{table}");
                if !clean {
                    std::process::exit(1);
                }
            }
            Err(err) => {
                eprintln!("corpus replay failed: {err}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Some(shards) = take_count_flag(&mut args, "--fuzz-shards") {
        set_fuzz_shards(shards);
    }
    let experiments = all_experiments();

    if args.iter().any(|a| a == "--list") {
        for (name, _) in &experiments {
            println!("{name}");
        }
        return;
    }
    let timings = args.iter().any(|a| a == "--timings");

    let selected: Vec<&str> =
        args.iter().map(String::as_str).filter(|a| !a.starts_with("--")).collect();
    let chosen: Vec<_> = experiments
        .into_iter()
        .filter(|(name, _)| selected.is_empty() || selected.contains(name))
        .collect();
    if chosen.is_empty() {
        eprintln!("no experiment matched {selected:?}; use --list");
        std::process::exit(2);
    }

    let (outputs, snapshot) = run_experiments_timed(&chosen);
    let mut mismatches = 0;
    for (name, output) in &outputs {
        println!("==== {name} ====");
        print!("{output}");
        println!();
        mismatches += output.matches("MISMATCH").count();
    }
    if timings {
        let names: Vec<&str> = chosen.iter().map(|(name, _)| *name).collect();
        println!("==== timings ====");
        print!("{}", timing_table(&names, &snapshot));
        println!();
    }
    println!("{} experiment(s), {mismatches} paper-vs-measured mismatch(es).", outputs.len());
    if mismatches > 0 {
        std::process::exit(1);
    }
}

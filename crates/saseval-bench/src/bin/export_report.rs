//! Exports the full SaSeVAL validation reports (Markdown), the raw
//! campaign results (JSON, with the run's metrics snapshot embedded) for
//! both use cases, the fuzzing throughput grid (`BENCH_fuzz.json`:
//! serial vs 2/4-shard inputs-per-second on both protocol models), the
//! crash-triage minimization statistics (`BENCH_triage.json`), and the
//! campaign-server latency/throughput grid (`BENCH_server.json`: cold vs
//! warm vs cached request latency plus jobs/sec under concurrent
//! clients).
//!
//! ```sh
//! cargo run -p saseval-bench --bin export_report [out-dir]
//! ```

use std::fs;
use std::path::PathBuf;

use attack_engine::builtin::full_campaign;
use attack_engine::campaign::run_campaign_with_obs;
use attack_engine::ExecutionResult;
use saseval_core::catalog::{use_case_1, use_case_2};
use saseval_core::export::render_validation_report;
use saseval_lint::{render_json, run_lint, LintConfig, LintContext};
use saseval_obs::{MetricsSnapshot, Obs};
use saseval_threat::builtin::automotive_library;
use serde::Serialize;

/// The JSON document written to `attack_campaign_results.json`: the
/// per-case verdicts plus the metrics collected while producing them.
#[derive(Serialize)]
struct CampaignExport {
    results: Vec<ExecutionResult>,
    metrics: MetricsSnapshot,
}

/// The JSON document written to `BENCH_fuzz.json`: the shard-count
/// throughput grid under `grid`, the warm-prefix strategy comparison
/// (replay-from-zero vs fork-from-snapshot) under `warm_prefix`.
#[derive(Serialize)]
struct FuzzBenchExport {
    grid: saseval_bench::fuzz_bench::FuzzThroughputExport,
    warm_prefix: saseval_bench::sim_bench::SimThroughputExport,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = PathBuf::from(
        std::env::args().nth(1).unwrap_or_else(|| "target/saseval-reports".to_owned()),
    );
    fs::create_dir_all(&out_dir)?;

    let library = automotive_library();
    for (catalog, file) in [
        (use_case_1(), "use_case_1_validation_report.md"),
        (use_case_2(), "use_case_2_validation_report.md"),
    ] {
        let report = render_validation_report(&catalog, &library)?;
        let path = out_dir.join(file);
        fs::write(&path, &report)?;
        println!("wrote {} ({} bytes)", path.display(), report.len());
    }

    // Lint both catalogs and embed the findings alongside the reports, so
    // a report bundle carries its own static-analysis verdict.
    let lint_obs = Obs::noop();
    let config = LintConfig::new();
    let reports: Vec<_> = [use_case_1(), use_case_2()]
        .iter()
        .map(|catalog| run_lint(&LintContext::for_catalog(&library, catalog), &config, &lint_obs))
        .collect();
    let report_refs: Vec<_> = reports.iter().collect();
    let lint_json = render_json(&report_refs);
    let path = out_dir.join("lint_report.sarif.json");
    fs::write(&path, &lint_json)?;
    let findings: usize = reports.iter().map(|r| r.diagnostics.len()).sum();
    println!("wrote {} ({findings} findings)", path.display());

    let (obs, recorder) = Obs::memory();
    let campaign = run_campaign_with_obs(&full_campaign(), &obs);
    let total = campaign.total();
    let successes = campaign.successes();
    let export = CampaignExport { results: campaign.results, metrics: recorder.snapshot() };
    let json = serde_json::to_string_pretty(&export)?;
    let path = out_dir.join("attack_campaign_results.json");
    fs::write(&path, &json)?;
    println!("wrote {} ({total} cases, {successes} safety impacts)", path.display());

    let metrics_md = saseval_obs::export::to_markdown(&export.metrics);
    let path = out_dir.join("campaign_metrics.md");
    fs::write(&path, &metrics_md)?;
    println!("wrote {} ({} bytes)", path.display(), metrics_md.len());

    // Fuzzing throughput: serial vs 2/4-shard inputs-per-second on the
    // keyless and V2X models, plus the warm-prefix strategy comparison
    // over the simulation oracle (the numbers EXPERIMENTS.md records).
    let export = FuzzBenchExport {
        grid: saseval_bench::fuzz_bench::fuzz_throughput_grid(200_000),
        warm_prefix: saseval_bench::sim_bench::warm_prefix_comparison(256),
    };
    let json = serde_json::to_string_pretty(&export)?;
    let path = out_dir.join("BENCH_fuzz.json");
    fs::write(&path, &json)?;
    println!(
        "wrote {} ({} grid rows, {} hardware threads, fork speedup {:.1}x)",
        path.display(),
        export.grid.rows.len(),
        export.grid.available_parallelism,
        export.warm_prefix.fork_speedup
    );

    // Crash triage: minimization statistics per model on the seeded-bug
    // oracles, with the fuzz.minimize metrics embedded.
    let triage = saseval_bench::triage_bench::minimize_stats(10_000, 4_096);
    let json = serde_json::to_string_pretty(&triage)?;
    let path = out_dir.join("BENCH_triage.json");
    fs::write(&path, &json)?;
    println!(
        "wrote {} ({} models, {} crashes minimized)",
        path.display(),
        triage.rows.len(),
        triage.rows.iter().map(|r| r.crashes).sum::<usize>()
    );

    // Campaign server: cold vs warm vs cached latency over the TCP
    // protocol, the 1/4/16/64-client serial-vs-pipelined cached sweep,
    // and the single-flight coalescing burst (the ISSUE 7 acceptance
    // export — cached repeats must be >= 100x faster than a cold run —
    // extended by ISSUE 9's concurrency grid).
    let server = saseval_bench::server_bench::measure_server(65_536);
    let json = serde_json::to_string_pretty(&server)?;
    let path = out_dir.join("BENCH_server.json");
    fs::write(&path, &json)?;
    println!(
        "wrote {} (cold {:.3}s, cached-memory speedup {:.0}x, burst {} exec / {} req)",
        path.display(),
        server.latency[0].seconds,
        server.cached_speedup_vs_cold,
        server.coalescing.executions,
        server.coalescing.requests
    );
    Ok(())
}

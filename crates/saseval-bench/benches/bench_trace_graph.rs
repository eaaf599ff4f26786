//! Benchmarks of the whole-campaign trace-graph analyzer: graph
//! construction + fingerprinting over the built-in catalogs, the full
//! rule registry (static-only vs. with executed verdicts), and the
//! assurance-case rendering that `--trace-report` performs per run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use saseval_core::catalog::{use_case_1, use_case_2};
use saseval_lint::graph::campaign_verdicts;
use saseval_lint::{
    run_lint_with_jobs, AssuranceCase, LintConfig, LintContext, TraceGraph, TraceInputs,
};
use saseval_obs::Obs;
use saseval_threat::builtin::automotive_library;

/// Executes the built-in campaign once and returns catalog-local
/// verdicts for the given use-case tag.
fn builtin_trace(tag: &str) -> TraceInputs {
    let cases = attack_engine::builtin::full_campaign();
    let results: Vec<_> = cases.iter().map(attack_engine::execute).collect();
    TraceInputs { verdicts: campaign_verdicts(&results, tag), evidence: Vec::new() }
}

fn bench_graph_build(c: &mut Criterion) {
    let library = automotive_library();
    let mut group = c.benchmark_group("trace_graph_build");
    for (tag, catalog) in [("UC1", use_case_1()), ("UC2", use_case_2())] {
        let trace = builtin_trace(tag);
        let ctx = LintContext::for_catalog(&library, &catalog).with_trace(&trace);
        group.bench_function(BenchmarkId::new("build_fingerprint", tag), |b| {
            b.iter(|| TraceGraph::build(black_box(&ctx)).fingerprint());
        });
    }
    group.finish();
}

fn bench_full_registry(c: &mut Criterion) {
    let library = automotive_library();
    let catalog = use_case_2();
    let trace = builtin_trace("UC2");
    let obs = Obs::noop();
    let config = LintConfig::new();
    let mut group = c.benchmark_group("trace_lint_registry");

    let static_ctx = LintContext::for_catalog(&library, &catalog);
    group.bench_function("static_only", |b| {
        b.iter(|| run_lint_with_jobs(black_box(&static_ctx), &config, &obs, 1));
    });

    let traced_ctx = static_ctx.with_trace(&trace);
    group.bench_function("with_verdicts", |b| {
        b.iter(|| run_lint_with_jobs(black_box(&traced_ctx), &config, &obs, 1));
    });
    group.bench_function("with_verdicts_jobs4", |b| {
        b.iter(|| run_lint_with_jobs(black_box(&traced_ctx), &config, &obs, 4));
    });
    group.finish();
}

fn bench_assurance_render(c: &mut Criterion) {
    let library = automotive_library();
    let catalog = use_case_2();
    let trace = builtin_trace("UC2");
    let ctx = LintContext::for_catalog(&library, &catalog).with_trace(&trace);
    let obs = Obs::noop();
    let report = run_lint_with_jobs(&ctx, &LintConfig::new(), &obs, 1);
    let mut group = c.benchmark_group("trace_assurance_case");
    group.bench_function("build", |b| {
        b.iter(|| AssuranceCase::build(black_box(&catalog.name), &ctx, &report));
    });
    let case = AssuranceCase::build(&catalog.name, &ctx, &report);
    group.bench_function("to_json", |b| b.iter(|| black_box(&case).to_json()));
    group.bench_function("to_html", |b| b.iter(|| black_box(&case).to_html()));
    group.finish();
}

criterion_group!(benches, bench_graph_build, bench_full_registry, bench_assurance_render);
criterion_main!(benches);

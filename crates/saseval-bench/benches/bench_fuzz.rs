//! Benchmarks of the attack-path-guided fuzzer (§II-B testing type 2):
//! input generation, end-to-end fuzzing throughput, coverage accounting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use saseval_fuzz::coverage::CoverageMap;
use saseval_fuzz::fuzzer::{Fuzzer, TargetResponse};
use saseval_fuzz::model::{keyless_command_model, v2x_warning_model};
use saseval_fuzz::mutate::Mutator;
use saseval_tara::tree::{AttackTree, TreeNode};
use vehicle_sim::keyless::Command;

fn paths() -> Vec<saseval_tara::AttackPath> {
    AttackTree::new(
        "open the vehicle",
        TreeNode::or(
            "ways",
            vec![TreeNode::leaf_on("replay", "BLE_PHONE"), TreeNode::leaf_on("forge", "ECU_GW")],
        ),
    )
    .expect("tree")
    .paths()
    .expect("paths")
}

fn decode_target(input: &[u8]) -> TargetResponse {
    if Command::decode(input).is_some() {
        TargetResponse::Accepted
    } else {
        TargetResponse::Rejected
    }
}

fn bench_mutation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fuzz_mutation");
    for (name, model) in [("v2x", v2x_warning_model()), ("keyless", keyless_command_model())] {
        let mut mutator = Mutator::new(model, 1);
        group.bench_function(BenchmarkId::new("generate", name), |b| {
            b.iter(|| black_box(mutator.generate()));
        });
    }
    group.finish();
}

fn bench_fuzz_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("fuzz_throughput");
    group.sample_size(10);
    let attack_paths = paths();
    for iterations in [1_000usize, 10_000] {
        group.bench_with_input(
            BenchmarkId::new("decode_target", iterations),
            &iterations,
            |b, &iterations| {
                b.iter(|| {
                    let fuzzer = Fuzzer::new(keyless_command_model(), 7);
                    black_box(fuzzer.run(&attack_paths, iterations, 1, |_| decode_target));
                });
            },
        );
    }
    group.finish();
}

/// Sharded fuzzing: the same 20k-input workload on the keyless model at
/// 1/2/4 shards. The `shards=1` row runs on the calling thread, so
/// `shards=4 / shards=1` is the parallel speedup (exported with absolute
/// numbers by `export_report` → `BENCH_fuzz.json`).
fn bench_parallel_fuzz(c: &mut Criterion) {
    let mut group = c.benchmark_group("fuzz_parallel");
    group.sample_size(10);
    let attack_paths = paths();
    for shards in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("keyless_20k", shards), &shards, |b, &shards| {
            b.iter(|| {
                let fuzzer = Fuzzer::new(keyless_command_model(), 7);
                black_box(fuzzer.run(&attack_paths, 20_000, shards, |_| decode_target));
            });
        });
    }
    group.finish();
}

/// The allocation-free generation path: `generate_into` with a reused
/// scratch input vs the allocating `generate`.
fn bench_generate_into(c: &mut Criterion) {
    use saseval_fuzz::mutate::GeneratedInput;
    let mut group = c.benchmark_group("fuzz_mutation");
    for (name, model) in [("v2x", v2x_warning_model()), ("keyless", keyless_command_model())] {
        let mut mutator = Mutator::new(model, 1);
        let mut scratch = GeneratedInput::empty();
        group.bench_function(BenchmarkId::new("generate_into", name), |b| {
            b.iter(|| {
                mutator.generate_into(&mut scratch);
                black_box(&scratch);
            });
        });
    }
    group.finish();
}

fn bench_coverage_accounting(c: &mut Criterion) {
    let model = keyless_command_model();
    let mut mutator = Mutator::new(model.clone(), 3);
    let inputs: Vec<_> = (0..1_000).map(|_| mutator.generate()).collect();
    c.bench_function("fuzz_coverage/record_1000", |b| {
        b.iter(|| {
            let mut map = CoverageMap::new(&model, 4);
            for (i, input) in inputs.iter().enumerate() {
                map.record(i % 4, input);
            }
            black_box(map.field_coverage_percent())
        });
    });
}

criterion_group!(
    benches,
    bench_mutation,
    bench_generate_into,
    bench_fuzz_throughput,
    bench_parallel_fuzz,
    bench_coverage_accounting
);
criterion_main!(benches);

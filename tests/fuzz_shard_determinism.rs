//! Properties of the sharded fuzzing engine:
//!
//! 1. reports at one, two and three shards hash to pinned values (the
//!    one-shard hashes were taken from the former serial loop, so the
//!    one-shard run still produces its bytes);
//! 2. for any fixed shard count the merged report is identical across
//!    repeated executions (thread scheduling never leaks into results);
//! 3. merged counts and coverage stay consistent for every small shard
//!    count, and triage never perturbs the merged report.

use proptest::prelude::*;

use saseval::fuzz::coverage::CoverageMap;
use saseval::fuzz::fuzzer::{Fuzzer, TargetResponse, TriageConfig};
use saseval::fuzz::model::{keyless_command_model, v2x_warning_model, ProtocolModel};
use saseval::fuzz::mutate::Mutator;
use saseval::tara::tree::{AttackTree, TreeNode};
use saseval::tara::AttackPath;
use saseval::types::hash::fnv1a64;

fn paths() -> Vec<AttackPath> {
    AttackTree::new(
        "open the vehicle",
        TreeNode::or(
            "ways",
            vec![
                TreeNode::leaf_on("replay recorded command", "BLE_PHONE"),
                TreeNode::leaf_on("forge command", "ECU_GW"),
                TreeNode::leaf_on("inject on CAN", "CAN_GW"),
            ],
        ),
    )
    .expect("tree")
    .paths()
    .expect("paths")
}

/// A target with a seeded boundary crash, so determinism is exercised on
/// the findings path too, not only on counts.
fn crashy_target(input: &[u8]) -> TargetResponse {
    match input {
        [] => TargetResponse::Crash,
        [2, 0, ..] => TargetResponse::Crash,
        [t, ..] if (1..=3).contains(t) => TargetResponse::Accepted,
        _ => TargetResponse::Rejected,
    }
}

fn model_for(selector: bool) -> ProtocolModel {
    if selector {
        keyless_command_model()
    } else {
        v2x_warning_model()
    }
}

proptest! {
    // Each case runs several full fuzzing campaigns; keep samples low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fixed_shard_count_is_reproducible(
        seed in 0u64..10_000,
        iterations in 0usize..2_000,
        shards in 1usize..=8,
        keyless in any::<bool>(),
    ) {
        let attack_paths = paths();
        let run = || {
            Fuzzer::new(model_for(keyless), seed)
                .run(&attack_paths, iterations, shards, |_| crashy_target)
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn merged_counts_and_coverage_are_consistent(
        seed in 0u64..10_000,
        iterations in 1usize..2_000,
        shards in 1usize..=8,
    ) {
        let attack_paths = paths();
        let report = Fuzzer::new(v2x_warning_model(), seed)
            .run(&attack_paths, iterations, shards, |_| crashy_target);
        prop_assert_eq!(report.iterations, iterations);
        // Accepted + rejected + unique crashes never exceeds the input
        // count (duplicate crash inputs fall into no bucket).
        prop_assert!(report.accepted + report.rejected + report.crashes.len() <= iterations);
        prop_assert!((0.0..=100.0).contains(&report.field_coverage_percent()));
        prop_assert!((0.0..=100.0).contains(&report.path_coverage_percent()));
        // Findings arrive in canonical order, deduplicated by input.
        let mut seen = std::collections::HashSet::new();
        for pair in report.crashes.windows(2) {
            prop_assert!(pair[0].iteration <= pair[1].iteration);
        }
        for finding in &report.crashes {
            prop_assert!(seen.insert(finding.input.clone()));
        }
    }

    /// Attaching triage minimizes/persists crashes strictly after the
    /// merge, so the returned report — coverage, counts, and crash
    /// ordering — is byte-identical with and without it.
    #[test]
    fn triage_does_not_perturb_the_merged_report(
        seed in 0u64..10_000,
        iterations in 1usize..1_500,
        shards in 1usize..=4,
        keyless in any::<bool>(),
    ) {
        let attack_paths = paths();
        let plain = Fuzzer::new(model_for(keyless), seed)
            .run(&attack_paths, iterations, shards, |_| crashy_target);
        let corpus_dir = unique_corpus_dir();
        let triaged = Fuzzer::new(model_for(keyless), seed)
            .with_triage(TriageConfig::new(&corpus_dir))
            .run(&attack_paths, iterations, shards, |_| crashy_target);
        let _ = std::fs::remove_dir_all(&corpus_dir);
        prop_assert_eq!(plain, triaged);
    }

    /// Shard-map union is a join: `CoverageMap::merge` is commutative and
    /// idempotent, so merge order (and re-merging a shard) can never
    /// change the merged report.
    #[test]
    fn coverage_merge_is_commutative_and_idempotent(
        seed_a in 0u64..10_000,
        seed_b in 0u64..10_000,
        inputs in 1usize..200,
        keyless in any::<bool>(),
    ) {
        let model = model_for(keyless);
        let total_paths = paths().len();
        let build = |seed: u64| {
            let mut mutator = Mutator::new(model.clone(), seed);
            let mut map = CoverageMap::new(&model, total_paths);
            for i in 0..inputs {
                let input = mutator.generate();
                map.record(i % total_paths, &input);
            }
            map
        };
        let (a, b) = (build(seed_a), build(seed_b));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        let mut aa = a.clone();
        aa.merge(&a);
        prop_assert_eq!(&aa, &a);
        // Merging is monotone in the exercised-cell count.
        prop_assert!(ab.cells() >= a.cells().max(b.cells()));
    }
}

/// A per-case unique corpus directory (proptest cases run in one
/// process; the counter keeps them from colliding).
fn unique_corpus_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("saseval-triage-determinism-{}-{unique}", std::process::id()))
}

/// Exhaustive small-case check (not proptest-sampled): every shard count
/// from 1 to 12 over a fixed workload fuzzes every global iteration
/// exactly once and round-robins every attack path.
#[test]
fn all_small_shard_counts_cover_the_full_iteration_space() {
    let attack_paths = paths();
    let iterations = 600;
    for shards in 1..=12usize {
        let report =
            Fuzzer::new(v2x_warning_model(), 3)
                .run(&attack_paths, iterations, shards, |_| crashy_target);
        assert_eq!(report.iterations, iterations, "{shards} shards");
        assert_eq!(
            report.path_coverage_percent(),
            100.0,
            "{shards} shards: all paths round-robined"
        );
        assert!(report.field_coverage_percent() >= 75.0, "{shards} shards");
    }
}

/// FNV-1a of the serialized report for every pinned
/// `(keyless model, seed, shards)` triple at [`GOLDEN_ITERATIONS`]
/// inputs against [`crashy_target`]. The one-shard rows were taken from
/// the former serial loop, so they pin that stream byte for byte.
const FUZZ_GOLDENS: [(bool, u64, usize, u64); 18] = [
    (true, 1, 1, 0x7e005644391c484b),
    (true, 1, 2, 0x2add63af560c2a73),
    (true, 1, 3, 0x4fc1c8dc6985ba84),
    (true, 7, 1, 0x1925b7026be09870),
    (true, 7, 2, 0x109101d360ea0aa9),
    (true, 7, 3, 0x94f0369e4bb88995),
    (true, 42, 1, 0xd21d6e293251a4a9),
    (true, 42, 2, 0xfd061f3c3fd41466),
    (true, 42, 3, 0x855e86e908c92cbc),
    (false, 1, 1, 0x6d5bb5647e197c7c),
    (false, 1, 2, 0x6b3a62610bef6f7a),
    (false, 1, 3, 0xc81230cdcc23973b),
    (false, 7, 1, 0x492c93b8d6204771),
    (false, 7, 2, 0x0d06b0968f0e3e72),
    (false, 7, 3, 0x299a8b718c47726f),
    (false, 42, 1, 0x62f00132d5e45067),
    (false, 42, 2, 0x90eeda2225e0681d),
    (false, 42, 3, 0x8c40b0852aad1a5d),
];

const GOLDEN_ITERATIONS: usize = 2_000;

fn golden_report_hash(keyless: bool, seed: u64, shards: usize) -> u64 {
    let report =
        Fuzzer::new(model_for(keyless), seed)
            .run(&paths(), GOLDEN_ITERATIONS, shards, |_| crashy_target);
    fnv1a64(serde_json::to_string(&report).expect("report serializes").as_bytes())
}

#[test]
fn reports_match_pinned_hashes() {
    let actual: Vec<(bool, u64, usize, u64)> = FUZZ_GOLDENS
        .iter()
        .map(|&(keyless, seed, shards, _)| {
            (keyless, seed, shards, golden_report_hash(keyless, seed, shards))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(keyless, seed, shards, hash)| {
            format!("    ({keyless}, {seed}, {shards}, {hash:#018x}),\n")
        })
        .collect();
    assert_eq!(actual, FUZZ_GOLDENS, "regenerated table:\n{table}");
}

//! Properties of the coverage-guided scenario search:
//!
//! 1. a fixed `(seed, shards)` pair reproduces a byte-identical report —
//!    serialized JSON and corpus hash — across repeated executions;
//! 2. reports at one and two shards on both default spaces hash to
//!    pinned values (the one-shard hashes were taken from the former
//!    serial loop), and every small shard count reproduces itself;
//! 3. sampled specs, spaces and scenario files survive a serde
//!    round-trip unchanged (same value, same canonical hash);
//! 4. the mutation operators never leave the declared search space.
//!
//! Budgets are tiny: every evaluation forks a full vehicle world per
//! fuzzed input, so the suite buys its confidence from many small
//! campaigns rather than a few large ones.

use proptest::prelude::*;

use saseval::fuzz::scenario::{
    NamedScenario, ScenarioFile, ScenarioSampler, ScenarioSearch, ScenarioSpace, ScenarioSpec,
    DIMENSIONS,
};
use saseval::types::hash::fnv1a64;

fn space_for(construction: bool) -> ScenarioSpace {
    if construction {
        ScenarioSpace::construction_default()
    } else {
        ScenarioSpace::keyless_default()
    }
}

fn search_for(construction: bool, seed: u64) -> ScenarioSearch {
    ScenarioSearch::new(space_for(construction), seed).with_eval_iterations(1)
}

proptest! {
    // Each case runs full scenario evaluations against the simulator;
    // keep the sample count low and the budgets small.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The headline determinism contract: fixed `(seed, shards)` means a
    /// byte-identical serialized report, hence a byte-identical corpus.
    #[test]
    fn fixed_seed_and_shards_reproduce_byte_identical_reports(
        seed in 0u64..1_000,
        budget in 1usize..=4,
        shards in 1usize..=3,
        construction in any::<bool>(),
    ) {
        let run = || {
            let report = search_for(construction, seed).run_parallel(budget, shards);
            let bytes = serde_json::to_string(&report).expect("report serializes");
            (bytes, report.corpus_hash())
        };
        prop_assert_eq!(run(), run());
    }

    /// Sampled specs and their enclosing space survive serialization:
    /// the round-tripped value is equal and hashes to the same canonical
    /// key, so cache keys never drift across the wire.
    #[test]
    fn sampler_output_round_trips_through_serde(
        seed in any::<u64>(),
        draws in 1usize..16,
        construction in any::<bool>(),
    ) {
        let space = space_for(construction);
        let json = serde_json::to_string(&space).expect("space serializes");
        let back: ScenarioSpace = serde_json::from_str(&json).expect("space parses");
        prop_assert_eq!(back, space);

        let mut sampler = ScenarioSampler::new(space, seed);
        for _ in 0..draws {
            let spec = sampler.sample();
            prop_assert!(space.validate_spec(&spec).is_ok(), "sampled spec in range");
            let json = serde_json::to_string(&spec).expect("spec serializes");
            let back: ScenarioSpec = serde_json::from_str(&json).expect("spec parses");
            prop_assert_eq!(back, spec);
            prop_assert_eq!(back.canonical_hash(), spec.canonical_hash());
        }
    }

    /// Mutation never escapes the declared space, no matter how many
    /// times it is applied in sequence.
    #[test]
    fn mutations_never_leave_the_search_space(
        seed in any::<u64>(),
        steps in 1usize..48,
        construction in any::<bool>(),
    ) {
        let space = space_for(construction);
        let mut sampler = ScenarioSampler::new(space, seed);
        let mut spec = sampler.sample();
        for step in 0..steps {
            spec = sampler.mutate(&spec);
            prop_assert!(
                space.validate_spec(&spec).is_ok(),
                "mutation step {step} left the space: {:?}",
                spec
            );
            for dim in 0..DIMENSIONS {
                prop_assert!(space.range(dim).contains(spec.value(dim)), "dim {dim} in range");
            }
        }
    }

    /// Scenario data files — the `.scn.json` format the linter checks —
    /// round-trip through serde without loss.
    #[test]
    fn scenario_files_round_trip_through_serde(
        seed in any::<u64>(),
        count in 1usize..5,
        construction in any::<bool>(),
    ) {
        let space = space_for(construction);
        let mut sampler = ScenarioSampler::new(space, seed);
        let scenarios = (0..count)
            .map(|i| NamedScenario { name: format!("case-{i}"), spec: sampler.sample() })
            .collect();
        let file = ScenarioFile { space, scenarios };
        let json = serde_json::to_string_pretty(&file).expect("file serializes");
        let back: ScenarioFile = serde_json::from_str(&json).expect("file parses");
        prop_assert_eq!(back, file);
    }
}

/// Exhaustive small-case check (not proptest-sampled): every shard count
/// from 1 to 4 over a fixed workload reproduces itself, and the merged
/// corpus is sorted by global iteration with unique parameter sets.
#[test]
fn all_small_shard_counts_are_reproducible_and_canonically_ordered() {
    for construction in [false, true] {
        for shards in 1..=4usize {
            let run = || search_for(construction, 11).run_parallel(6, shards);
            let report = run();
            assert_eq!(report, run(), "{shards} shards reproduce");
            assert_eq!(report.budget, 6);
            assert!(report.evaluated <= report.budget);
            let mut seen = std::collections::HashSet::new();
            for pair in report.corpus.windows(2) {
                assert!(pair[0].iteration < pair[1].iteration, "corpus sorted by iteration");
            }
            for record in &report.corpus {
                assert!(seen.insert(record.spec.canonical_hash()), "corpus specs unique");
            }
        }
    }
}

/// FNV-1a of the serialized report for every pinned
/// `(construction space, seed, shards)` triple at a budget of
/// [`GOLDEN_BUDGET`]. The one-shard rows were taken from the former
/// serial loop, so they pin that search byte for byte.
const SEARCH_GOLDENS: [(bool, u64, usize, u64); 8] = [
    (false, 3, 1, 0x11ee12bfefc273b1),
    (false, 3, 2, 0x15daaed52f783364),
    (false, 11, 1, 0xad66a1b4763cde97),
    (false, 11, 2, 0x02b33f1d68a4cd9a),
    (true, 3, 1, 0x91c25741be91b27b),
    (true, 3, 2, 0xa8ccf344f1b4aacd),
    (true, 11, 1, 0xbc34ecad37d177fe),
    (true, 11, 2, 0xf4b341894408b054),
];

const GOLDEN_BUDGET: usize = 6;

fn golden_report_hash(construction: bool, seed: u64, shards: usize) -> u64 {
    let report = search_for(construction, seed).run_parallel(GOLDEN_BUDGET, shards);
    fnv1a64(serde_json::to_string(&report).expect("report serializes").as_bytes())
}

#[test]
fn reports_match_pinned_hashes() {
    let actual: Vec<(bool, u64, usize, u64)> = SEARCH_GOLDENS
        .iter()
        .map(|&(construction, seed, shards, _)| {
            (construction, seed, shards, golden_report_hash(construction, seed, shards))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(construction, seed, shards, hash)| {
            format!("    ({construction}, {seed}, {shards}, {hash:#018x}),\n")
        })
        .collect();
    assert_eq!(actual, SEARCH_GOLDENS, "regenerated table:\n{table}");
}

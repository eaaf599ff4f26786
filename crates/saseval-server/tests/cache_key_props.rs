//! Property tests for cache-key canonicalization (ISSUE 7 satellite):
//! semantically equal specs hash identically no matter how the wire
//! JSON spells them, and every semantic difference — seed, config,
//! code version — produces a distinct key.

use proptest::prelude::*;
use saseval_server::job::{
    ControlsPreset, FuzzJob, JobSpec, KeylessScenario, ScenarioSpec, SuiteName,
};
use saseval_server::CampaignJob;
use serde_json::JsonValue;

fn controls_name(preset: ControlsPreset) -> &'static str {
    match preset {
        ControlsPreset::All => "All",
        ControlsPreset::None => "None",
        ControlsPreset::AuthOnly => "AuthOnly",
    }
}

/// One wire spelling of `job`: fields rotated by `rot`, defaulted
/// fields either spelled out or omitted, optionally an unknown field.
/// All spellings of the same job must canonicalize to the same key.
fn spell_fuzz_job(job: &FuzzJob, rot: usize, omit_defaults: bool, unknown: bool) -> String {
    let (variant, controls, horizon_ms, attack_at_ms) = match job.scenario {
        ScenarioSpec::Keyless(s) => ("Keyless", s.controls, s.horizon_ms, s.attack_at_ms),
        ScenarioSpec::Construction(s) => ("Construction", s.controls, s.horizon_ms, s.attack_at_ms),
    };
    let mut scenario_fields: Vec<(String, JsonValue)> = vec![
        ("controls".into(), JsonValue::Str(controls_name(controls).into())),
        ("horizon_ms".into(), JsonValue::U64(horizon_ms)),
        ("attack_at_ms".into(), JsonValue::U64(attack_at_ms)),
    ];
    let scenario_len = scenario_fields.len();
    scenario_fields.rotate_left(rot % scenario_len);
    if omit_defaults {
        scenario_fields.retain(|(name, value)| match (name.as_str(), value) {
            ("controls", JsonValue::Str(s)) => s != "All",
            (_, JsonValue::U64(0)) => false,
            _ => true,
        });
    }
    if unknown {
        scenario_fields.push(("note".into(), JsonValue::Str("ignored".into())));
    }
    let scenario = JsonValue::Map(vec![(variant.to_owned(), JsonValue::Map(scenario_fields))]);
    let mut job_fields: Vec<(String, JsonValue)> = vec![
        ("scenario".into(), scenario),
        ("iterations".into(), JsonValue::U64(job.iterations as u64)),
        ("seed".into(), JsonValue::U64(job.seed)),
        ("shards".into(), JsonValue::U64(job.shards as u64)),
    ];
    let job_len = job_fields.len();
    job_fields.rotate_left(rot % job_len);
    if omit_defaults {
        job_fields.retain(|(name, value)| {
            !matches!((name.as_str(), value), ("shards", JsonValue::U64(0)))
        });
    }
    if unknown {
        job_fields.push(("priority".into(), JsonValue::U64(9)));
    }
    let wire = JsonValue::Map(vec![("Fuzz".to_owned(), JsonValue::Map(job_fields))]);
    serde_json::to_string(&wire).expect("wire values always serialize")
}

fn scenario_strategy() -> impl Strategy<Value = ScenarioSpec> {
    let preset = prop_oneof![
        Just(ControlsPreset::All),
        Just(ControlsPreset::None),
        Just(ControlsPreset::AuthOnly),
    ];
    let horizon = prop_oneof![Just(0u64), Just(300), Just(2_000), Just(5_000)];
    let attack_at = prop_oneof![Just(0u64), Just(50), Just(100)];
    (preset, horizon, attack_at, any::<bool>()).prop_map(
        |(controls, horizon_ms, attack_at_ms, keyless)| {
            if keyless {
                ScenarioSpec::Keyless(KeylessScenario { controls, horizon_ms, attack_at_ms })
            } else {
                ScenarioSpec::Construction(saseval_server::job::ConstructionScenario {
                    controls,
                    horizon_ms,
                    attack_at_ms,
                })
            }
        },
    )
}

fn fuzz_job_strategy() -> impl Strategy<Value = FuzzJob> {
    (scenario_strategy(), 1usize..512, 0u64..u64::MAX / 2, 0usize..4).prop_map(
        |(scenario, iterations, seed, shards)| FuzzJob { scenario, iterations, seed, shards },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_spelling_of_a_spec_shares_one_key(
        job in fuzz_job_strategy(),
        rot in 0usize..5,
        omit_defaults in any::<bool>(),
        unknown in any::<bool>(),
    ) {
        let spec = JobSpec::Fuzz(job);
        let spelled = spell_fuzz_job(&job, rot, omit_defaults, unknown);
        let parsed: JobSpec = serde_json::from_str(&spelled)
            .expect("generated spelling parses");
        prop_assert_eq!(parsed.canonical_json(), spec.canonical_json());
        prop_assert_eq!(parsed.cache_key(), spec.cache_key());
    }

    #[test]
    fn zero_sentinels_and_defaults_are_one_key(job in fuzz_job_strategy()) {
        // Spelling the documented defaults explicitly is the same job as
        // leaving the zero sentinels in place.
        let mut explicit = job;
        explicit.shards = job.shards.max(1);
        match &mut explicit.scenario {
            ScenarioSpec::Keyless(s) => {
                if s.horizon_ms == 0 { s.horizon_ms = 2_000; }
                if s.attack_at_ms == 0 { s.attack_at_ms = 100; }
            }
            ScenarioSpec::Construction(s) => {
                if s.horizon_ms == 0 { s.horizon_ms = 2_000; }
                if s.attack_at_ms == 0 { s.attack_at_ms = 100; }
            }
        }
        prop_assert_eq!(
            JobSpec::Fuzz(explicit).cache_key(),
            JobSpec::Fuzz(job).cache_key()
        );
    }

    #[test]
    fn batch_on_the_wire_never_changes_the_key(
        job in fuzz_job_strategy(),
        batch in 0usize..256,
    ) {
        // Older clients send a `batch` knob; the server ignores it as an
        // unknown field.
        let spec = JobSpec::Fuzz(job);
        let compact = serde_json::to_string(&spec).expect("specs serialize");
        let open = compact.strip_suffix("}}").expect("a Fuzz object");
        let wire = format!("{open},\"batch\":{batch}}}}}");
        let parsed: JobSpec = serde_json::from_str(&wire).expect("old wire text parses");
        prop_assert_eq!(parsed.cache_key(), spec.cache_key());
    }

    #[test]
    fn semantic_changes_produce_distinct_keys(job in fuzz_job_strategy()) {
        let spec = JobSpec::Fuzz(job);
        let key = spec.cache_key();

        let mut reseeded = job;
        reseeded.seed = job.seed.wrapping_add(1);
        prop_assert_ne!(JobSpec::Fuzz(reseeded).cache_key(), key);

        let mut longer = job;
        longer.iterations += 1;
        prop_assert_ne!(JobSpec::Fuzz(longer).cache_key(), key);

        let mut resharded = job;
        resharded.shards = job.shards.max(1) + 1;
        prop_assert_ne!(JobSpec::Fuzz(resharded).cache_key(), key);

        let mut other_world = job;
        other_world.scenario = match job.scenario {
            ScenarioSpec::Keyless(s) => {
                ScenarioSpec::Construction(saseval_server::job::ConstructionScenario {
                    controls: s.controls,
                    horizon_ms: s.horizon_ms,
                    attack_at_ms: s.attack_at_ms,
                })
            }
            ScenarioSpec::Construction(s) => ScenarioSpec::Keyless(KeylessScenario {
                controls: s.controls,
                horizon_ms: s.horizon_ms,
                attack_at_ms: s.attack_at_ms,
            }),
        };
        prop_assert_ne!(JobSpec::Fuzz(other_world).cache_key(), key);
    }

    #[test]
    fn code_version_partitions_the_key_space(
        job in fuzz_job_strategy(),
        contract in 2u32..100,
    ) {
        let spec = JobSpec::Fuzz(job);
        let v1 = format!("0.1.0+contract{}", 1);
        let v2 = format!("0.1.0+contract{contract}");
        prop_assert_ne!(spec.cache_key_with_version(&v1), spec.cache_key_with_version(&v2));
    }

    #[test]
    fn campaign_keys_separate_suites_and_seeds(seed in 0u64..1000) {
        let suites = [
            SuiteName::Full,
            SuiteName::Ad20,
            SuiteName::Ad08,
            SuiteName::Replay,
            SuiteName::CanFlood,
            SuiteName::Delay,
            SuiteName::Jamming,
            SuiteName::Ablation,
        ];
        let mut keys: Vec<u64> = suites
            .iter()
            .map(|&suite| JobSpec::Campaign(CampaignJob { suite, seed }).cache_key())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), suites.len(), "suite collision");
        let base = JobSpec::Campaign(CampaignJob { suite: SuiteName::Jamming, seed });
        let reseeded = JobSpec::Campaign(CampaignJob {
            suite: SuiteName::Jamming,
            seed: seed + 1,
        });
        prop_assert_ne!(base.cache_key(), reseeded.cache_key());
    }
}

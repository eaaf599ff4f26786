//! Payload golden: pinned fnv1a64 hashes of `execute(spec).to_bytes()`
//! over a fixed job matrix.
//!
//! The cache's "a hit is never stale" contract assumes payload bytes
//! only change together with [`saseval_server::job::RESULT_CONTRACT`].
//! This golden makes that checkable: any change to the bytes of a fuzz,
//! scenario-search, campaign or lint payload fails here. A deliberate
//! payload change bumps the contract and regenerates the tables from
//! the failure message, which prints every row in source form.
//!
//! The matrix covers both demonstrator worlds under all three control
//! presets at three (horizon, attack) timings — including a keyless
//! tail long enough to cross a BLE supervision drop — at shard counts
//! 1–3, twenty small scenario searches, the
//! cheap `Jamming`/`Ad08` campaigns on the attacked path, the
//! flood-heavy `Full`/`Ad20`/`CanFlood`/`Ablation` campaigns, static
//! lint jobs over both catalogs, and one lint job fed by executed AD20
//! verdicts.
//!
//! Fuzz rows are submitted as wire text that still carries the `batch`
//! field (1/7/16) older clients send. The server ignores it as an
//! unknown field, and the wire text is the row label, so these rows
//! prove such clients keep getting identical payloads.
//!
//! Every row also serializes its payload a second way, through the
//! in-memory `Value` tree (`to_value`, then `to_string` of that tree),
//! and requires the same bytes: the streaming writer and the tree
//! builder agree on every payload shape.
//!
//! Finally, [`CONTRACT_FINGERPRINTS`] pins a hash of all three tables to
//! each [`RESULT_CONTRACT`] version, so regenerating a table without
//! bumping the contract fails too.

use saseval_fuzz::scenario::ScenarioSpace;
use saseval_obs::Obs;
use saseval_server::job::{ConstructionScenario, KeylessScenario, ScenarioJob, RESULT_CONTRACT};
use saseval_server::worker::execute;
use saseval_server::{
    CampaignJob, CatalogName, ControlsPreset, FuzzJob, JobSpec, LintJob, ScenarioSpec, SuiteName,
};
use saseval_types::hash::fnv1a64;

/// `(horizon_ms, attack_at_ms)` timings: the server default, a short
/// tail, and a long tail whose keyless run crosses a supervision drop.
const TIMINGS: [(u64, u64); 3] = [(2_000, 100), (300, 50), (5_000, 1_200)];
const PRESETS: [ControlsPreset; 3] =
    [ControlsPreset::All, ControlsPreset::None, ControlsPreset::AuthOnly];
const BATCHES: [usize; 3] = [1, 7, 16];

/// Labels each spec with its compact JSON.
fn labelled(jobs: Vec<JobSpec>) -> Vec<(String, JobSpec)> {
    jobs.into_iter()
        .map(|spec| (serde_json::to_string(&spec).expect("specs serialize"), spec))
        .collect()
}

fn fuzz_matrix() -> Vec<(String, JobSpec)> {
    let mut jobs = Vec::new();
    for keyless in [true, false] {
        for controls in PRESETS {
            for (horizon_ms, attack_at_ms) in TIMINGS {
                for shards in 1..=3usize {
                    let scenario = if keyless {
                        ScenarioSpec::Keyless(KeylessScenario {
                            controls,
                            horizon_ms,
                            attack_at_ms,
                        })
                    } else {
                        ScenarioSpec::Construction(ConstructionScenario {
                            controls,
                            horizon_ms,
                            attack_at_ms,
                        })
                    };
                    let i = jobs.len();
                    let spec = JobSpec::Fuzz(FuzzJob {
                        scenario,
                        iterations: 64,
                        seed: 1_000 + i as u64,
                        shards,
                    });
                    let compact = serde_json::to_string(&spec).expect("specs serialize");
                    let open = compact.strip_suffix("}}").expect("a Fuzz object");
                    let wire = format!("{open},\"batch\":{}}}}}", BATCHES[i % BATCHES.len()]);
                    let parsed = serde_json::from_str(&wire).expect("old wire text parses");
                    jobs.push((wire, parsed));
                }
            }
        }
    }
    jobs
}

fn scenario_matrix() -> Vec<JobSpec> {
    (0..20u64)
        .map(|i| {
            let space = if i % 2 == 0 {
                ScenarioSpace::keyless_default()
            } else {
                ScenarioSpace::construction_default()
            };
            JobSpec::Scenario(ScenarioJob {
                space,
                budget: 8,
                seed: 500 + i,
                shards: 1 + (i as usize / 2) % 3,
                eval_iterations: 6,
            })
        })
        .collect()
}

fn campaign_and_lint_matrix() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for suite in [SuiteName::Jamming, SuiteName::Ad08] {
        for seed in [0, 17] {
            jobs.push(JobSpec::Campaign(CampaignJob { suite, seed }));
        }
    }
    // The flood-heavy suites: AD20 (authenticated OBU_RSU flood) and
    // AD14 (BLE→CAN service flood) dominate their run time.
    for (suite, seed) in [
        (SuiteName::Full, 0),
        (SuiteName::Ad20, 17),
        (SuiteName::CanFlood, 17),
        (SuiteName::Ablation, 0),
    ] {
        jobs.push(JobSpec::Campaign(CampaignJob { suite, seed }));
    }
    for catalog in [CatalogName::UseCase1, CatalogName::UseCase2] {
        jobs.push(JobSpec::Lint(LintJob { catalog, suite: None, artifacts: 0 }));
    }
    jobs.push(JobSpec::Lint(LintJob {
        catalog: CatalogName::UseCase1,
        suite: Some(SuiteName::Ad20),
        artifacts: 0,
    }));
    jobs
}

/// Runs every job and compares `(spec, payload hash)` rows against the
/// golden table; on mismatch the panic message is the regenerated table.
/// Each payload's bytes must also equal the text of its `Value` tree.
fn check(rows: Vec<(String, JobSpec)>, golden: &[(&str, u64)]) {
    let actual: Vec<(String, u64)> = rows
        .into_iter()
        .map(|(label, spec)| {
            let payload = execute(spec, &Obs::noop());
            let bytes = payload.to_bytes();
            let tree = serde_json::to_value(&payload).expect("payloads build a tree");
            let via_tree = serde_json::to_string(&tree).expect("trees serialize");
            assert!(via_tree.as_bytes() == bytes, "{label}: tree text differs from to_bytes");
            (label, fnv1a64(&bytes))
        })
        .collect();
    let matches = actual.len() == golden.len()
        && actual.iter().zip(golden).all(|((label, hash), (want_label, want_hash))| {
            label == want_label && hash == want_hash
        });
    if !matches {
        let table: String = actual
            .iter()
            .map(|(label, hash)| format!("    (r#\"{label}\"#, 0x{hash:016x}),\n"))
            .collect();
        panic!("payload bytes differ from the golden table; actual rows:\n{table}");
    }
}

/// `(RESULT_CONTRACT, fingerprint of every golden table)`, oldest first.
/// A deliberate payload change regenerates the tables, bumps the
/// contract and appends the row this file's failure message prints.
const CONTRACT_FINGERPRINTS: &[(u32, u64)] = &[(3, 0xbdaf6b7b228abb83)];

#[test]
fn golden_tables_are_pinned_to_the_result_contract() {
    let mut text = String::new();
    for (label, hash) in [FUZZ_GOLDEN, SCENARIO_GOLDEN, CAMPAIGN_LINT_GOLDEN].concat() {
        text.push_str(&format!("{label}\t{hash:016x}\n"));
    }
    let fingerprint = fnv1a64(text.as_bytes());
    assert!(
        CONTRACT_FINGERPRINTS.windows(2).all(|w| w[0].0 < w[1].0),
        "contract fingerprints must be listed oldest first"
    );
    assert_eq!(
        CONTRACT_FINGERPRINTS.last().copied(),
        Some((RESULT_CONTRACT, fingerprint)),
        "the golden tables hash to 0x{fingerprint:016x}, which is not pinned to \
         RESULT_CONTRACT {RESULT_CONTRACT}; a deliberate payload change bumps the contract \
         and appends (<new contract>, 0x{fingerprint:016x})"
    );
}

#[test]
fn fuzz_payloads_match_golden() {
    check(fuzz_matrix(), FUZZ_GOLDEN);
}

#[test]
fn scenario_search_payloads_match_golden() {
    check(labelled(scenario_matrix()), SCENARIO_GOLDEN);
}

#[test]
fn campaign_and_lint_payloads_match_golden() {
    check(labelled(campaign_and_lint_matrix()), CAMPAIGN_LINT_GOLDEN);
}

const FUZZ_GOLDEN: &[(&str, u64)] = &[
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"All","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1000,"shards":1,"batch":1}}"#,
        0xe4dc6ad0a455a444,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"All","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1001,"shards":2,"batch":7}}"#,
        0x0749f74d774fc756,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"All","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1002,"shards":3,"batch":16}}"#,
        0x115f2f905c6357ec,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"All","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1003,"shards":1,"batch":1}}"#,
        0xdef893b45a4b613c,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"All","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1004,"shards":2,"batch":7}}"#,
        0xe93630a602e0829b,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"All","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1005,"shards":3,"batch":16}}"#,
        0x0749f74d774fc756,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"All","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1006,"shards":1,"batch":1}}"#,
        0x708ac34cd4680b2f,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"All","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1007,"shards":2,"batch":7}}"#,
        0xe4dc6ad0a455a444,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"All","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1008,"shards":3,"batch":16}}"#,
        0x0a52288dba9e68d9,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"None","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1009,"shards":1,"batch":1}}"#,
        0x1c00b2a06fb381b6,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"None","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1010,"shards":2,"batch":7}}"#,
        0xa07b89ff42f12643,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"None","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1011,"shards":3,"batch":16}}"#,
        0x22b3ec964c8aeff6,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"None","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1012,"shards":1,"batch":1}}"#,
        0x3ced058671e14711,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"None","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1013,"shards":2,"batch":7}}"#,
        0xeb9fe7cf7d091f69,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"None","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1014,"shards":3,"batch":16}}"#,
        0x9dcf6f5dc92c00f1,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"None","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1015,"shards":1,"batch":1}}"#,
        0xf3d1e171e688ae73,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"None","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1016,"shards":2,"batch":7}}"#,
        0x2aa32338d004fa64,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"None","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1017,"shards":3,"batch":16}}"#,
        0xcc5bcf80007aa357,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"AuthOnly","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1018,"shards":1,"batch":1}}"#,
        0x0749f74d774fc756,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"AuthOnly","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1019,"shards":2,"batch":7}}"#,
        0x2ec7bb0364e66d4d,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"AuthOnly","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1020,"shards":3,"batch":16}}"#,
        0xac09e78c2be2f412,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"AuthOnly","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1021,"shards":1,"batch":1}}"#,
        0x115f2f905c6357ec,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"AuthOnly","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1022,"shards":2,"batch":7}}"#,
        0x115f2f905c6357ec,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"AuthOnly","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1023,"shards":3,"batch":16}}"#,
        0xcdde6591ed8c588d,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"AuthOnly","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1024,"shards":1,"batch":1}}"#,
        0xdef893b45a4b613c,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"AuthOnly","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1025,"shards":2,"batch":7}}"#,
        0x2ec7bb0364e66d4d,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Keyless":{"controls":"AuthOnly","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1026,"shards":3,"batch":16}}"#,
        0x115f2f905c6357ec,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"All","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1027,"shards":1,"batch":1}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"All","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1028,"shards":2,"batch":7}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"All","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1029,"shards":3,"batch":16}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"All","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1030,"shards":1,"batch":1}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"All","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1031,"shards":2,"batch":7}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"All","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1032,"shards":3,"batch":16}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"All","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1033,"shards":1,"batch":1}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"All","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1034,"shards":2,"batch":7}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"All","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1035,"shards":3,"batch":16}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"None","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1036,"shards":1,"batch":1}}"#,
        0x56ea93df651a7322,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"None","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1037,"shards":2,"batch":7}}"#,
        0x33fad3cd8459819b,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"None","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1038,"shards":3,"batch":16}}"#,
        0x528463aca21bfe35,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"None","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1039,"shards":1,"batch":1}}"#,
        0x95eb10eba91f856d,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"None","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1040,"shards":2,"batch":7}}"#,
        0x0a88380216d0d932,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"None","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1041,"shards":3,"batch":16}}"#,
        0x7cde8a3d9152ac17,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"None","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1042,"shards":1,"batch":1}}"#,
        0xa6271da8916c46fe,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"None","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1043,"shards":2,"batch":7}}"#,
        0x789e505b58c166dd,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"None","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1044,"shards":3,"batch":16}}"#,
        0x052c6fc84d2f5246,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"AuthOnly","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1045,"shards":1,"batch":1}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"AuthOnly","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1046,"shards":2,"batch":7}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"AuthOnly","horizon_ms":2000,"attack_at_ms":100}},"iterations":64,"seed":1047,"shards":3,"batch":16}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"AuthOnly","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1048,"shards":1,"batch":1}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"AuthOnly","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1049,"shards":2,"batch":7}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"AuthOnly","horizon_ms":300,"attack_at_ms":50}},"iterations":64,"seed":1050,"shards":3,"batch":16}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"AuthOnly","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1051,"shards":1,"batch":1}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"AuthOnly","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1052,"shards":2,"batch":7}}"#,
        0x1efebf1deb885887,
    ),
    (
        r#"{"Fuzz":{"scenario":{"Construction":{"controls":"AuthOnly","horizon_ms":5000,"attack_at_ms":1200}},"iterations":64,"seed":1053,"shards":3,"batch":16}}"#,
        0x1efebf1deb885887,
    ),
];

const SCENARIO_GOLDEN: &[(&str, u64)] = &[
    (
        r#"{"Scenario":{"space":{"world":"Keyless","traffic_density":{"lo":0,"hi":0},"platoon_followers":{"lo":0,"hi":0},"platoon_spacing_m":{"lo":0,"hi":0},"rsu_count":{"lo":0,"hi":0},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":200,"hi":1800},"controls":{"lo":0,"hi":2}},"budget":8,"seed":500,"shards":1,"eval_iterations":6}}"#,
        0x70cfe26eae889209,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Construction","traffic_density":{"lo":0,"hi":8},"platoon_followers":{"lo":0,"hi":4},"platoon_spacing_m":{"lo":10,"hi":50},"rsu_count":{"lo":1,"hi":4},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":100,"hi":1900},"controls":{"lo":0,"hi":2}},"budget":8,"seed":501,"shards":1,"eval_iterations":6}}"#,
        0xbae03a6435c81e05,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Keyless","traffic_density":{"lo":0,"hi":0},"platoon_followers":{"lo":0,"hi":0},"platoon_spacing_m":{"lo":0,"hi":0},"rsu_count":{"lo":0,"hi":0},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":200,"hi":1800},"controls":{"lo":0,"hi":2}},"budget":8,"seed":502,"shards":2,"eval_iterations":6}}"#,
        0x24e88dad2a5540b0,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Construction","traffic_density":{"lo":0,"hi":8},"platoon_followers":{"lo":0,"hi":4},"platoon_spacing_m":{"lo":10,"hi":50},"rsu_count":{"lo":1,"hi":4},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":100,"hi":1900},"controls":{"lo":0,"hi":2}},"budget":8,"seed":503,"shards":2,"eval_iterations":6}}"#,
        0x9462c956fbbaf836,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Keyless","traffic_density":{"lo":0,"hi":0},"platoon_followers":{"lo":0,"hi":0},"platoon_spacing_m":{"lo":0,"hi":0},"rsu_count":{"lo":0,"hi":0},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":200,"hi":1800},"controls":{"lo":0,"hi":2}},"budget":8,"seed":504,"shards":3,"eval_iterations":6}}"#,
        0xcef390664e00d8fe,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Construction","traffic_density":{"lo":0,"hi":8},"platoon_followers":{"lo":0,"hi":4},"platoon_spacing_m":{"lo":10,"hi":50},"rsu_count":{"lo":1,"hi":4},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":100,"hi":1900},"controls":{"lo":0,"hi":2}},"budget":8,"seed":505,"shards":3,"eval_iterations":6}}"#,
        0xfa441548ed58a170,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Keyless","traffic_density":{"lo":0,"hi":0},"platoon_followers":{"lo":0,"hi":0},"platoon_spacing_m":{"lo":0,"hi":0},"rsu_count":{"lo":0,"hi":0},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":200,"hi":1800},"controls":{"lo":0,"hi":2}},"budget":8,"seed":506,"shards":1,"eval_iterations":6}}"#,
        0xcda72b1039b13430,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Construction","traffic_density":{"lo":0,"hi":8},"platoon_followers":{"lo":0,"hi":4},"platoon_spacing_m":{"lo":10,"hi":50},"rsu_count":{"lo":1,"hi":4},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":100,"hi":1900},"controls":{"lo":0,"hi":2}},"budget":8,"seed":507,"shards":1,"eval_iterations":6}}"#,
        0x5f452703b2f4c58f,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Keyless","traffic_density":{"lo":0,"hi":0},"platoon_followers":{"lo":0,"hi":0},"platoon_spacing_m":{"lo":0,"hi":0},"rsu_count":{"lo":0,"hi":0},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":200,"hi":1800},"controls":{"lo":0,"hi":2}},"budget":8,"seed":508,"shards":2,"eval_iterations":6}}"#,
        0xfd8533453b7106a8,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Construction","traffic_density":{"lo":0,"hi":8},"platoon_followers":{"lo":0,"hi":4},"platoon_spacing_m":{"lo":10,"hi":50},"rsu_count":{"lo":1,"hi":4},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":100,"hi":1900},"controls":{"lo":0,"hi":2}},"budget":8,"seed":509,"shards":2,"eval_iterations":6}}"#,
        0x4871b8a8a1f9622f,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Keyless","traffic_density":{"lo":0,"hi":0},"platoon_followers":{"lo":0,"hi":0},"platoon_spacing_m":{"lo":0,"hi":0},"rsu_count":{"lo":0,"hi":0},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":200,"hi":1800},"controls":{"lo":0,"hi":2}},"budget":8,"seed":510,"shards":3,"eval_iterations":6}}"#,
        0x1abd6fcff6dbf373,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Construction","traffic_density":{"lo":0,"hi":8},"platoon_followers":{"lo":0,"hi":4},"platoon_spacing_m":{"lo":10,"hi":50},"rsu_count":{"lo":1,"hi":4},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":100,"hi":1900},"controls":{"lo":0,"hi":2}},"budget":8,"seed":511,"shards":3,"eval_iterations":6}}"#,
        0x3fb958210c8dfa38,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Keyless","traffic_density":{"lo":0,"hi":0},"platoon_followers":{"lo":0,"hi":0},"platoon_spacing_m":{"lo":0,"hi":0},"rsu_count":{"lo":0,"hi":0},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":200,"hi":1800},"controls":{"lo":0,"hi":2}},"budget":8,"seed":512,"shards":1,"eval_iterations":6}}"#,
        0xea7f65cb4078507c,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Construction","traffic_density":{"lo":0,"hi":8},"platoon_followers":{"lo":0,"hi":4},"platoon_spacing_m":{"lo":10,"hi":50},"rsu_count":{"lo":1,"hi":4},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":100,"hi":1900},"controls":{"lo":0,"hi":2}},"budget":8,"seed":513,"shards":1,"eval_iterations":6}}"#,
        0x8105f466f1aee3b5,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Keyless","traffic_density":{"lo":0,"hi":0},"platoon_followers":{"lo":0,"hi":0},"platoon_spacing_m":{"lo":0,"hi":0},"rsu_count":{"lo":0,"hi":0},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":200,"hi":1800},"controls":{"lo":0,"hi":2}},"budget":8,"seed":514,"shards":2,"eval_iterations":6}}"#,
        0x5911f461a6578060,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Construction","traffic_density":{"lo":0,"hi":8},"platoon_followers":{"lo":0,"hi":4},"platoon_spacing_m":{"lo":10,"hi":50},"rsu_count":{"lo":1,"hi":4},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":100,"hi":1900},"controls":{"lo":0,"hi":2}},"budget":8,"seed":515,"shards":2,"eval_iterations":6}}"#,
        0xccfc63953f3be017,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Keyless","traffic_density":{"lo":0,"hi":0},"platoon_followers":{"lo":0,"hi":0},"platoon_spacing_m":{"lo":0,"hi":0},"rsu_count":{"lo":0,"hi":0},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":200,"hi":1800},"controls":{"lo":0,"hi":2}},"budget":8,"seed":516,"shards":3,"eval_iterations":6}}"#,
        0x0b983c776b9e020b,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Construction","traffic_density":{"lo":0,"hi":8},"platoon_followers":{"lo":0,"hi":4},"platoon_spacing_m":{"lo":10,"hi":50},"rsu_count":{"lo":1,"hi":4},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":100,"hi":1900},"controls":{"lo":0,"hi":2}},"budget":8,"seed":517,"shards":3,"eval_iterations":6}}"#,
        0xc554a549e9e5e696,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Keyless","traffic_density":{"lo":0,"hi":0},"platoon_followers":{"lo":0,"hi":0},"platoon_spacing_m":{"lo":0,"hi":0},"rsu_count":{"lo":0,"hi":0},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":200,"hi":1800},"controls":{"lo":0,"hi":2}},"budget":8,"seed":518,"shards":1,"eval_iterations":6}}"#,
        0x99fd0b65d88f6a93,
    ),
    (
        r#"{"Scenario":{"space":{"world":"Construction","traffic_density":{"lo":0,"hi":8},"platoon_followers":{"lo":0,"hi":4},"platoon_spacing_m":{"lo":10,"hi":50},"rsu_count":{"lo":1,"hi":4},"channel":{"lo":0,"hi":2},"attacker":{"lo":0,"hi":2},"ftti_ms":{"lo":100,"hi":1900},"controls":{"lo":0,"hi":2}},"budget":8,"seed":519,"shards":1,"eval_iterations":6}}"#,
        0x28c9efe08149b473,
    ),
];

const CAMPAIGN_LINT_GOLDEN: &[(&str, u64)] = &[
    (r#"{"Campaign":{"suite":"Jamming","seed":0}}"#, 0x7e8dbda6d12bbbaa),
    (r#"{"Campaign":{"suite":"Jamming","seed":17}}"#, 0x7e8dbda6d12bbbaa),
    (r#"{"Campaign":{"suite":"Ad08","seed":0}}"#, 0xb9142ed8bb21840e),
    (r#"{"Campaign":{"suite":"Ad08","seed":17}}"#, 0xb9142ed8bb21840e),
    (r#"{"Campaign":{"suite":"Full","seed":0}}"#, 0xbc07c168d2a03c1a),
    (r#"{"Campaign":{"suite":"Ad20","seed":17}}"#, 0x652738687167b34c),
    (r#"{"Campaign":{"suite":"CanFlood","seed":17}}"#, 0x9c117a682352464c),
    (r#"{"Campaign":{"suite":"Ablation","seed":0}}"#, 0x6a6ba33185b8836e),
    (r#"{"Lint":{"catalog":"UseCase1","suite":null,"artifacts":0}}"#, 0xffcc494c71b9fa78),
    (r#"{"Lint":{"catalog":"UseCase2","suite":null,"artifacts":0}}"#, 0x5db56d4bfcb35bf0),
    (r#"{"Lint":{"catalog":"UseCase1","suite":"Ad20","artifacts":0}}"#, 0x91f9096d9ae05bfa),
];

//! Job specifications, canonicalization and content-addressed cache keys.
//!
//! A job is a pure function of its specification: PRs 3–6 made every
//! stage of the validation pipeline deterministic, so the same
//! [`JobSpec`] always produces the same [`JobPayload`] on the same code
//! version. The cache key exploits that:
//!
//! ```text
//! key = fnv1a64(canonical_json(spec)) ⧺ 0x00 ⧺ code_version
//! ```
//!
//! *Canonicalization* is a round-trip through the typed spec: the wire
//! JSON is parsed into [`JobSpec`] (field order disappears, omitted
//! `#[serde(default)]` fields are filled in, unknown fields are
//! dropped), sentinel zeros are resolved to their documented defaults by
//! [`JobSpec::normalized`], execution-tuning knobs that provably cannot
//! change the payload are erased, and the result is re-serialized with
//! the deterministic (declaration-order) vendored `serde_json`. Two
//! requests that differ only in spelling therefore share one key, while
//! any semantic difference — scenario, iterations, seed, shard count,
//! suite — produces a different canonical string and hence a different
//! key.
//!
//! The *code-version fingerprint* ([`code_version`]) is chained into the
//! key so a cache written by one build can never serve results to a
//! build whose semantics changed: bump [`RESULT_CONTRACT`] whenever job
//! execution or the payload schema changes observable behaviour.

use attack_engine::builtin;
use attack_engine::campaign::CampaignReport;
use attack_engine::executor::TestCase;
use saseval_core::catalog::{use_case_1, use_case_2, UseCaseCatalog};
use saseval_lint::{Diagnostic, LintContext, TraceGraph};
use saseval_threat::builtin::automotive_library;
use saseval_types::hash::{fnv1a64, fnv1a64_extend};
use saseval_types::{Ftti, SimTime};
use serde::{Deserialize, Serialize};
use vehicle_sim::construction::ConstructionConfig;
use vehicle_sim::keyless::KeylessConfig;
use vehicle_sim::ControlSelection;

use saseval_fuzz::fuzzer::FuzzReport;
use saseval_fuzz::scenario::{ScenarioSearchReport, ScenarioSpace, DEFAULT_EVAL_ITERATIONS};

/// Version of the job-execution semantics and payload schema. Bump on
/// any change that can alter a payload for an unchanged spec — the
/// fingerprint is part of every cache key, so old entries become
/// unreachable instead of stale.
///
/// Contract 2: the `Lint` job type and its `LintOutcome` payload.
/// Contract 3: the `Scenario` job type and its search-report payload.
pub const RESULT_CONTRACT: u32 = 3;

/// The code-version fingerprint chained into every cache key: crate
/// version plus [`RESULT_CONTRACT`].
pub fn code_version() -> String {
    format!("{}+contract{}", env!("CARGO_PKG_VERSION"), RESULT_CONTRACT)
}

/// Horizon a scenario runs to when the spec leaves `horizon_ms` at 0.
pub const DEFAULT_HORIZON_MS: u64 = 2_000;

/// Attack-activation time when the spec leaves `attack_at_ms` at 0 —
/// the point the warm prefix is frozen at.
pub const DEFAULT_ATTACK_AT_MS: u64 = 100;

/// Largest shard count a `Fuzz` or `Scenario` job may request. Both
/// build their per-shard state before packing shards onto at most
/// `available_parallelism` threads, so an unbounded count is an
/// unbounded allocation; the server answers a larger request with an
/// `error` frame before it is keyed, coalesced or queued.
pub const MAX_SHARDS: usize = 64;

/// Security-control preset deployed in a fuzz scenario's world.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlsPreset {
    /// Every control from the paper's Table VII.
    #[default]
    All,
    /// No controls deployed (the unhardened baseline).
    None,
    /// Authentication-family controls only.
    AuthOnly,
}

impl ControlsPreset {
    /// The concrete control selection this preset names.
    pub fn selection(self) -> ControlSelection {
        match self {
            ControlsPreset::All => ControlSelection::all(),
            ControlsPreset::None => ControlSelection::none(),
            ControlsPreset::AuthOnly => ControlSelection::auth_only(),
        }
    }
}

/// Keyless-entry (Use Case II) fuzz scenario parameters. Zero means
/// "use the documented default" so an omitted field and an explicit
/// default canonicalize identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeylessScenario {
    /// Deployed controls.
    #[serde(default)]
    pub controls: ControlsPreset,
    /// Run horizon in milliseconds; 0 → [`DEFAULT_HORIZON_MS`].
    #[serde(default)]
    pub horizon_ms: u64,
    /// Warm-prefix freeze time in milliseconds; 0 →
    /// [`DEFAULT_ATTACK_AT_MS`].
    #[serde(default)]
    pub attack_at_ms: u64,
}

impl Default for KeylessScenario {
    fn default() -> Self {
        KeylessScenario { controls: ControlsPreset::All, horizon_ms: 0, attack_at_ms: 0 }
    }
}

/// Construction-site (Use Case I) fuzz scenario parameters; same zero
/// conventions as [`KeylessScenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstructionScenario {
    /// Deployed controls.
    #[serde(default)]
    pub controls: ControlsPreset,
    /// Run horizon in milliseconds; 0 → [`DEFAULT_HORIZON_MS`].
    #[serde(default)]
    pub horizon_ms: u64,
    /// Warm-prefix freeze time in milliseconds; 0 →
    /// [`DEFAULT_ATTACK_AT_MS`].
    #[serde(default)]
    pub attack_at_ms: u64,
}

impl Default for ConstructionScenario {
    fn default() -> Self {
        ConstructionScenario { controls: ControlsPreset::All, horizon_ms: 0, attack_at_ms: 0 }
    }
}

/// Which demonstrator world a fuzz job runs against, with its
/// scenario parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioSpec {
    /// Use Case II: BLE keyless entry.
    Keyless(KeylessScenario),
    /// Use Case I: construction-site V2X warnings.
    Construction(ConstructionScenario),
}

impl ScenarioSpec {
    /// The spec with zero sentinels resolved to their defaults.
    pub fn normalized(self) -> ScenarioSpec {
        fn resolve(ms: u64, fallback: u64) -> u64 {
            if ms == 0 {
                fallback
            } else {
                ms
            }
        }
        match self {
            ScenarioSpec::Keyless(s) => ScenarioSpec::Keyless(KeylessScenario {
                controls: s.controls,
                horizon_ms: resolve(s.horizon_ms, DEFAULT_HORIZON_MS),
                attack_at_ms: resolve(s.attack_at_ms, DEFAULT_ATTACK_AT_MS),
            }),
            ScenarioSpec::Construction(s) => ScenarioSpec::Construction(ConstructionScenario {
                controls: s.controls,
                horizon_ms: resolve(s.horizon_ms, DEFAULT_HORIZON_MS),
                attack_at_ms: resolve(s.attack_at_ms, DEFAULT_ATTACK_AT_MS),
            }),
        }
    }

    /// The world horizon, post-normalization.
    pub fn horizon(self) -> Ftti {
        let ms = match self.normalized() {
            ScenarioSpec::Keyless(s) => s.horizon_ms,
            ScenarioSpec::Construction(s) => s.horizon_ms,
        };
        Ftti::from_millis(ms)
    }

    /// The warm-prefix freeze time, post-normalization.
    pub fn attack_at(self) -> SimTime {
        let ms = match self.normalized() {
            ScenarioSpec::Keyless(s) => s.attack_at_ms,
            ScenarioSpec::Construction(s) => s.attack_at_ms,
        };
        SimTime::from_millis(ms)
    }

    /// The keyless world configuration (normalized), if this is a
    /// keyless scenario.
    pub fn keyless_config(self) -> Option<KeylessConfig> {
        match self.normalized() {
            ScenarioSpec::Keyless(s) => Some(KeylessConfig {
                horizon: Ftti::from_millis(s.horizon_ms),
                controls: s.controls.selection(),
                ..Default::default()
            }),
            ScenarioSpec::Construction(_) => None,
        }
    }

    /// The construction world configuration (normalized), if this is a
    /// construction scenario.
    pub fn construction_config(self) -> Option<ConstructionConfig> {
        match self.normalized() {
            ScenarioSpec::Construction(s) => Some(ConstructionConfig {
                horizon: Ftti::from_millis(s.horizon_ms),
                controls: s.controls.selection(),
                ..Default::default()
            }),
            ScenarioSpec::Keyless(_) => None,
        }
    }
}

/// A fuzzing job: attack-path-guided protocol fuzzing against a
/// demonstrator world forked from a warm prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuzzJob {
    /// Which world, with scenario parameters.
    pub scenario: ScenarioSpec,
    /// Number of inputs to execute.
    pub iterations: usize,
    /// Base fuzzer seed.
    pub seed: u64,
    /// Shard count for the parallel merge; 0 → 1. Part of the cache
    /// key: different shard counts draw different input streams.
    #[serde(default)]
    pub shards: usize,
}

/// A built-in campaign suite, addressable over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuiteName {
    /// Every built-in attack description.
    Full,
    /// AD20 packet-flood cases.
    Ad20,
    /// AD08 forged-command cases.
    Ad08,
    /// Replay-attack cases.
    Replay,
    /// BLE→CAN flood cases.
    CanFlood,
    /// Warning-delay cases.
    Delay,
    /// Jamming cases.
    Jamming,
    /// The control-ablation grid.
    Ablation,
}

impl SuiteName {
    /// The suite's test cases, in canonical order.
    pub fn cases(self) -> Vec<TestCase> {
        match self {
            SuiteName::Full => builtin::full_campaign(),
            SuiteName::Ad20 => builtin::ad20_cases(),
            SuiteName::Ad08 => builtin::ad08_cases(),
            SuiteName::Replay => builtin::replay_cases(),
            SuiteName::CanFlood => builtin::can_flood_cases(),
            SuiteName::Delay => builtin::delay_cases(),
            SuiteName::Jamming => builtin::jamming_cases(),
            SuiteName::Ablation => builtin::ablation_grid(),
        }
    }
}

/// A campaign job: execute a built-in suite of attack test cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignJob {
    /// Which suite to run.
    pub suite: SuiteName,
    /// Seed override applied to every case; 0 → keep each case's
    /// built-in seed.
    #[serde(default)]
    pub seed: u64,
}

/// A built-in artifact catalog, addressable over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CatalogName {
    /// Use Case I: autonomous driving past a construction site.
    UseCase1,
    /// Use Case II: keyless car opener.
    UseCase2,
}

impl CatalogName {
    /// The test-case ID prefix tagging this catalog's campaign results.
    pub fn tag(self) -> &'static str {
        match self {
            CatalogName::UseCase1 => "UC1",
            CatalogName::UseCase2 => "UC2",
        }
    }

    /// Builds the catalog.
    pub fn catalog(self) -> UseCaseCatalog {
        match self {
            CatalogName::UseCase1 => use_case_1(),
            CatalogName::UseCase2 => use_case_2(),
        }
    }
}

/// A static-analysis job: run the full lint rule set — including the
/// trace-graph rules SASE016–024 — over a built-in catalog, optionally
/// executing a campaign suite first so the graph rules see real
/// verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintJob {
    /// Which built-in catalog to analyze.
    pub catalog: CatalogName,
    /// Campaign suite whose results feed the trace graph as executed
    /// verdicts; `None` runs the analysis purely statically.
    #[serde(default)]
    pub suite: Option<SuiteName>,
    /// Trace-graph fingerprint of the analyzed artifacts; 0 → computed
    /// from the built-in catalog during normalization. Chained into
    /// the cache key, so a change to the artifact *content* re-keys
    /// every lint job even within one code version — the incremental
    /// re-analysis contract.
    #[serde(default)]
    pub artifacts: u64,
}

impl LintJob {
    /// The job with the artifact fingerprint resolved.
    pub fn normalized(self) -> LintJob {
        if self.artifacts != 0 {
            return self;
        }
        LintJob { artifacts: self.artifact_fingerprint(), ..self }
    }

    /// The static trace-graph fingerprint of the catalog under the
    /// built-in threat library (no verdicts — those are covered by the
    /// `suite` field plus the code version).
    fn artifact_fingerprint(self) -> u64 {
        let library = automotive_library();
        let catalog = self.catalog.catalog();
        let ctx = LintContext::for_catalog(&library, &catalog);
        TraceGraph::build(&ctx).fingerprint()
    }
}

/// A scenario-search job: coverage-guided search over a declared
/// scenario space (ROADMAP item 2), reusing the fuzzer's sharded
/// determinism contract — a fixed `(space, budget, seed, shards,
/// eval_iterations)` tuple always produces the same report, which is
/// what makes the result cacheable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioJob {
    /// The scenario space to search; omitted → the stock keyless space
    /// ([`ScenarioSpace::keyless_default`]).
    #[serde(default)]
    pub space: ScenarioSpace,
    /// Evaluation budget: how many sampled/mutated specs to try.
    pub budget: usize,
    /// Base search seed.
    pub seed: u64,
    /// Shard count for the deterministic sharded merge; 0 → 1. Part of
    /// the cache key: different shard counts draw different sample
    /// streams.
    #[serde(default)]
    pub shards: usize,
    /// Fuzz inputs per scenario evaluation; 0 →
    /// [`DEFAULT_EVAL_ITERATIONS`]. Part of the cache key: it changes
    /// every verdict.
    #[serde(default)]
    pub eval_iterations: usize,
}

/// One validation job, as carried on the wire (externally tagged:
/// `{"Fuzz": {...}}`, `{"Campaign": {...}}`, `{"Lint": {...}}` or
/// `{"Scenario": {...}}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobSpec {
    /// Protocol fuzzing against a demonstrator world.
    Fuzz(FuzzJob),
    /// A built-in attack campaign suite.
    Campaign(CampaignJob),
    /// Trace-graph static analysis of a built-in catalog.
    Lint(LintJob),
    /// Coverage-guided scenario search over a declared space.
    Scenario(ScenarioJob),
}

impl JobSpec {
    /// The spec with every zero sentinel resolved — the form jobs
    /// execute under.
    pub fn normalized(self) -> JobSpec {
        match self {
            JobSpec::Fuzz(job) => JobSpec::Fuzz(FuzzJob {
                scenario: job.scenario.normalized(),
                iterations: job.iterations,
                seed: job.seed,
                shards: job.shards.max(1),
            }),
            JobSpec::Campaign(job) => JobSpec::Campaign(job),
            JobSpec::Lint(job) => JobSpec::Lint(job.normalized()),
            JobSpec::Scenario(job) => JobSpec::Scenario(ScenarioJob {
                space: job.space,
                budget: job.budget,
                seed: job.seed,
                shards: job.shards.max(1),
                eval_iterations: if job.eval_iterations == 0 {
                    DEFAULT_EVAL_ITERATIONS
                } else {
                    job.eval_iterations
                },
            }),
        }
    }

    /// Rejects a spec the server must not execute: a `Fuzz` or
    /// `Scenario` job asking for more than [`MAX_SHARDS`] shards.
    pub fn check_bounds(self) -> Result<(), String> {
        let shards = match self {
            JobSpec::Fuzz(job) => job.shards,
            JobSpec::Scenario(job) => job.shards,
            JobSpec::Campaign(_) | JobSpec::Lint(_) => return Ok(()),
        };
        if shards > MAX_SHARDS {
            return Err(format!("shards {shards} exceeds the maximum of {MAX_SHARDS}"));
        }
        Ok(())
    }

    /// The canonical spec string the cache key hashes: the normalized
    /// spec, serialized.
    pub fn canonical_json(self) -> String {
        serde_json::to_string(&self.normalized()).expect("job specs always serialize")
    }

    /// The content-addressed cache key under the given code-version
    /// fingerprint. Exposed for tests; production callers use
    /// [`JobSpec::cache_key`].
    pub fn cache_key_with_version(self, version: &str) -> u64 {
        let mut key = fnv1a64(self.canonical_json().as_bytes());
        // Domain separator: a spec string can never collide with a
        // (spec ⧺ version) string of a different split.
        key = fnv1a64_extend(key, &[0]);
        fnv1a64_extend(key, version.as_bytes())
    }

    /// The content-addressed cache key of this spec on the current code
    /// version.
    pub fn cache_key(self) -> u64 {
        self.cache_key_with_version(&code_version())
    }
}

/// The deterministic result of a [`JobSpec::Lint`] job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LintOutcome {
    /// 16-hex trace-graph fingerprint of the analyzed artifact graph,
    /// including executed verdicts when a suite ran.
    pub fingerprint: String,
    /// Error-severity findings.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// The findings, in the lint report's stable order.
    pub diagnostics: Vec<Diagnostic>,
}

/// The deterministic result of a job — exactly what the cache stores
/// (serialized) and what a `done` frame carries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JobPayload {
    /// Result of a [`JobSpec::Fuzz`] job.
    Fuzz(FuzzReport),
    /// Result of a [`JobSpec::Campaign`] job.
    Campaign(CampaignReport),
    /// Result of a [`JobSpec::Lint`] job.
    Lint(LintOutcome),
    /// Result of a [`JobSpec::Scenario`] job.
    Scenario(ScenarioSearchReport),
}

impl JobPayload {
    /// The canonical payload bytes: deterministic compact JSON. Equal
    /// payloads serialize to equal bytes — the byte-identity contract
    /// the cache and its proptest rely on.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self).expect("job payloads always serialize").into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyless_job() -> JobSpec {
        JobSpec::Fuzz(FuzzJob {
            scenario: ScenarioSpec::Keyless(KeylessScenario::default()),
            iterations: 64,
            seed: 9,
            shards: 0,
        })
    }

    #[test]
    fn wire_roundtrip_and_defaults() {
        let parsed: JobSpec = serde_json::from_str(
            r#"{"Fuzz":{"scenario":{"Keyless":{}},"iterations":64,"seed":9}}"#,
        )
        .unwrap();
        assert_eq!(parsed, keyless_job());
    }

    #[test]
    fn canonicalization_is_spelling_invariant() {
        // Shuffled field order, explicit defaults, unknown field.
        let spelled: JobSpec = serde_json::from_str(
            r#"{"Fuzz":{"seed":9,"batch":0,"shards":1,"iterations":64,"note":"x",
                "scenario":{"Keyless":{"attack_at_ms":100,"horizon_ms":2000,"controls":"All"}}}}"#,
        )
        .unwrap();
        assert_eq!(spelled.canonical_json(), keyless_job().canonical_json());
        assert_eq!(spelled.cache_key(), keyless_job().cache_key());
    }

    #[test]
    fn shards_are_part_of_the_key() {
        let base = keyless_job();
        let JobSpec::Fuzz(mut sharded) = base else { unreachable!() };
        sharded.shards = 2;
        assert_ne!(JobSpec::Fuzz(sharded).cache_key(), base.cache_key());
    }

    #[test]
    fn shard_counts_above_the_bound_are_rejected() {
        let JobSpec::Fuzz(fuzz) = keyless_job() else { unreachable!() };
        let scenario = ScenarioJob {
            space: ScenarioSpace::keyless_default(),
            budget: 4,
            seed: 1,
            shards: 0,
            eval_iterations: 0,
        };
        for shards in [0, 1, MAX_SHARDS] {
            assert!(JobSpec::Fuzz(FuzzJob { shards, ..fuzz }).check_bounds().is_ok());
            assert!(JobSpec::Scenario(ScenarioJob { shards, ..scenario }).check_bounds().is_ok());
        }
        for shards in [MAX_SHARDS + 1, usize::MAX] {
            let error = JobSpec::Fuzz(FuzzJob { shards, ..fuzz }).check_bounds().unwrap_err();
            assert!(error.contains(&shards.to_string()), "{error}");
            assert!(JobSpec::Scenario(ScenarioJob { shards, ..scenario }).check_bounds().is_err());
        }
        let campaign = JobSpec::Campaign(CampaignJob { suite: SuiteName::Ad20, seed: 0 });
        assert!(campaign.check_bounds().is_ok());
    }

    #[test]
    fn version_fingerprint_changes_the_key() {
        let job = keyless_job();
        assert_ne!(
            job.cache_key_with_version("0.1.0+contract1"),
            job.cache_key_with_version("0.1.0+contract2")
        );
    }

    #[test]
    fn campaign_suites_resolve_to_cases() {
        for suite in [
            SuiteName::Full,
            SuiteName::Ad20,
            SuiteName::Ad08,
            SuiteName::Replay,
            SuiteName::CanFlood,
            SuiteName::Delay,
            SuiteName::Jamming,
            SuiteName::Ablation,
        ] {
            assert!(!suite.cases().is_empty());
        }
    }

    #[test]
    fn lint_normalization_resolves_the_artifact_fingerprint() {
        let parsed: JobSpec = serde_json::from_str(r#"{"Lint":{"catalog":"UseCase2"}}"#).unwrap();
        let JobSpec::Lint(job) = parsed else { panic!("lint spec") };
        assert_eq!(job, LintJob { catalog: CatalogName::UseCase2, suite: None, artifacts: 0 });
        let JobSpec::Lint(normalized) = parsed.normalized() else { panic!("lint spec") };
        assert_ne!(normalized.artifacts, 0, "fingerprint is filled in");
        // Idempotent: a filled fingerprint is left alone.
        assert_eq!(normalized.normalized(), normalized);
        // A spelled-out fingerprint matching the computed one shares the key.
        let spelled = JobSpec::Lint(LintJob { artifacts: normalized.artifacts, ..job });
        assert_eq!(spelled.cache_key(), parsed.cache_key());
    }

    #[test]
    fn lint_keys_separate_catalogs_suites_and_artifacts() {
        let base =
            JobSpec::Lint(LintJob { catalog: CatalogName::UseCase1, suite: None, artifacts: 0 });
        let other_catalog =
            JobSpec::Lint(LintJob { catalog: CatalogName::UseCase2, suite: None, artifacts: 0 });
        assert_ne!(base.cache_key(), other_catalog.cache_key());
        let with_suite = JobSpec::Lint(LintJob {
            catalog: CatalogName::UseCase1,
            suite: Some(SuiteName::Ad20),
            artifacts: 0,
        });
        assert_ne!(base.cache_key(), with_suite.cache_key());
        // A different artifact fingerprint (changed catalog content)
        // re-keys the job within the same code version.
        let other_artifacts = JobSpec::Lint(LintJob {
            catalog: CatalogName::UseCase1,
            suite: None,
            artifacts: 0xDEAD_BEEF,
        });
        assert_ne!(base.cache_key(), other_artifacts.cache_key());
    }

    #[test]
    fn scenario_job_canonicalization_fills_the_space_and_sentinels() {
        // An omitted space means the stock keyless space; omitted
        // shards/eval_iterations resolve to their defaults. All three
        // spellings share one cache key.
        let terse: JobSpec =
            serde_json::from_str(r#"{"Scenario":{"budget":16,"seed":3}}"#).unwrap();
        let spelled = JobSpec::Scenario(ScenarioJob {
            space: ScenarioSpace::keyless_default(),
            budget: 16,
            seed: 3,
            shards: 1,
            eval_iterations: DEFAULT_EVAL_ITERATIONS,
        });
        assert_eq!(terse.canonical_json(), spelled.canonical_json());
        assert_eq!(terse.cache_key(), spelled.cache_key());
        // Idempotent normalization.
        assert_eq!(terse.normalized(), terse.normalized().normalized());
    }

    #[test]
    fn scenario_job_keys_separate_semantic_parameters() {
        let base = JobSpec::Scenario(ScenarioJob {
            space: ScenarioSpace::keyless_default(),
            budget: 16,
            seed: 3,
            shards: 0,
            eval_iterations: 0,
        });
        let JobSpec::Scenario(job) = base else { unreachable!() };
        let other_space =
            JobSpec::Scenario(ScenarioJob { space: ScenarioSpace::construction_default(), ..job });
        assert_ne!(base.cache_key(), other_space.cache_key());
        let sharded = JobSpec::Scenario(ScenarioJob { shards: 2, ..job });
        assert_ne!(base.cache_key(), sharded.cache_key());
        let deeper = JobSpec::Scenario(ScenarioJob { eval_iterations: 24, ..job });
        assert_ne!(base.cache_key(), deeper.cache_key());
        let other_seed = JobSpec::Scenario(ScenarioJob { seed: 4, ..job });
        assert_ne!(base.cache_key(), other_seed.cache_key());
    }
}

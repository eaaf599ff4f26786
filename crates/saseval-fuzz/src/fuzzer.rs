//! The attack-path-guided fuzzing loop.
//!
//! [`Fuzzer::run`] splits the iteration space into contiguous shards,
//! runs them through the crate's one shard executor (contiguous groups
//! on at most `available_parallelism` scoped threads, or the calling
//! thread when one suffices) and merges the shard reports
//! deterministically: findings are sorted by `(iteration, shard, input)`
//! and coverage maps are unioned, so a run at a fixed shard count is
//! bit-identical regardless of thread scheduling. Shard 0 fuzzes with
//! the base seed, so one shard is the plain serial loop.
//!
//! Targets are [`FuzzTarget`] oracles, executed one input at a time;
//! every `FnMut(&[u8]) -> TargetResponse` closure is one.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

use saseval_obs::Obs;
use serde::{Deserialize, Serialize};

use saseval_tara::AttackPath;
use saseval_types::hash::fnv1a64;

use crate::corpus::{content_hash, Corpus, EntryMeta};
use crate::coverage::CoverageMap;
use crate::minimize::{minimize, MinimizeConfig};
use crate::model::ProtocolModel;
use crate::mutate::{GeneratedInput, Mutator};

/// What the target did with one fuzz input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetResponse {
    /// Input accepted/processed normally.
    Accepted,
    /// Input rejected by validation.
    Rejected,
    /// The target crashed or violated an invariant — a finding.
    Crash,
}

/// A fuzz target oracle: executes inputs and reports the observed
/// behaviour. Every `FnMut(&[u8]) -> TargetResponse` closure is one;
/// concrete oracles such as [`crate::SimOracle`] implement it directly
/// (the `Fn*` traits are `#[fundamental]`, so the two impls never
/// overlap).
pub trait FuzzTarget {
    /// Executes one input.
    fn respond(&mut self, input: &[u8]) -> TargetResponse;
}

impl<F: FnMut(&[u8]) -> TargetResponse> FuzzTarget for F {
    fn respond(&mut self, input: &[u8]) -> TargetResponse {
        self(input)
    }
}

/// A crash/violation finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Index of the attack path whose session produced the input.
    pub path_index: usize,
    /// The goal of that path.
    pub path_goal: String,
    /// The crashing input bytes.
    pub input: Vec<u8>,
    /// Iteration number at which it was found.
    pub iteration: usize,
    /// Coverage cells newly exercised by this input when it ran (0 for
    /// inputs that only revisited known cells).
    pub coverage_delta: usize,
}

/// Result of a fuzzing run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzReport {
    /// Total inputs executed.
    pub iterations: usize,
    /// Inputs accepted by the target.
    pub accepted: usize,
    /// Inputs rejected by the target.
    pub rejected: usize,
    /// Crash findings (deduplicated by input bytes, in canonical
    /// `(iteration, shard, input)` order).
    pub crashes: Vec<Finding>,
    /// Field coverage in percent.
    field_coverage: f64,
    /// Path coverage in percent.
    path_coverage: f64,
}

impl FuzzReport {
    /// Field coverage in percent (0–100).
    pub fn field_coverage_percent(&self) -> f64 {
        self.field_coverage
    }

    /// Attack-path coverage in percent (0–100).
    pub fn path_coverage_percent(&self) -> f64 {
        self.path_coverage
    }
}

/// Crash-triage configuration: when attached via [`Fuzzer::with_triage`],
/// every deduplicated crash of the canonical merged report is minimized
/// (see [`mod@crate::minimize`]) and persisted — original and minimized form
/// — into the content-addressed corpus at
/// [`TriageConfig::corpus_dir`] (see [`crate::corpus`]).
///
/// Triage runs strictly *after* the merged [`FuzzReport`] is built, so
/// enabling it never perturbs the bit-identical merge contract of
/// [`Fuzzer::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriageConfig {
    /// Root directory of the on-disk regression corpus.
    pub corpus_dir: PathBuf,
    /// Step budget for the per-crash minimizer.
    pub minimize: MinimizeConfig,
}

impl TriageConfig {
    /// Creates a triage config persisting into `corpus_dir` with the
    /// default minimization budget.
    pub fn new(corpus_dir: impl Into<PathBuf>) -> Self {
        TriageConfig { corpus_dir: corpus_dir.into(), minimize: MinimizeConfig::default() }
    }
}

/// The protocol fuzzer. Sessions are scheduled round-robin over the
/// attack paths so every interface named by the TARA receives inputs.
pub struct Fuzzer {
    model: ProtocolModel,
    base_seed: u64,
    obs: Obs,
    triage: Option<TriageConfig>,
}

impl std::fmt::Debug for Fuzzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fuzzer").field("model", &self.model.name).finish()
    }
}

/// Inputs per throughput sample. Large enough that the per-input
/// hot loop stays free of recorder calls even when metrics are on.
const OBS_BATCH: usize = 256;

/// Derives shard `shard`'s RNG seed from the fuzzer's base seed. Shard 0
/// always fuzzes with the base seed itself, so a one-shard run is the
/// plain seeded input stream.
pub(crate) fn shard_seed(base_seed: u64, shard: usize) -> u64 {
    base_seed.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Contiguous iteration range of shard `shard` out of `shards` over
/// `iterations` total inputs.
pub(crate) fn shard_range(iterations: usize, shards: usize, shard: usize) -> Range<usize> {
    let chunk = iterations.div_ceil(shards);
    let start = (shard * chunk).min(iterations);
    let end = ((shard + 1) * chunk).min(iterations);
    start..end
}

/// The hardware threads the shard executor may use, read once per
/// process.
pub(crate) fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The crate's one shard executor, behind [`Fuzzer::run`] and the
/// scenario search: runs `run` over the shard indices `0..shards` and
/// returns the outcomes in shard order.
///
/// More shard threads than hardware threads is pure overhead (4-15 % on
/// a 1-core container, EXPERIMENTS.md), so shards are packed in
/// contiguous groups onto `min(shards, max_threads)` scoped threads, and
/// run on the calling thread when that is one. Contiguous groups keep
/// the joined outcomes in shard order, which the callers' merges rely
/// on. Everything deterministic — per-shard seeds, iteration ranges, the
/// merge — is keyed off the shard index, so the thread count never
/// changes a result. Whatever `run` builds for a shard lives only while
/// that shard runs, so live per-shard state grows with the thread count,
/// not the shard count.
pub(crate) fn run_shards<O>(
    shards: usize,
    max_threads: usize,
    run: impl Fn(usize) -> O + Sync,
) -> Vec<O>
where
    O: Send,
{
    let threads = shards.min(max_threads).max(1);
    if threads == 1 {
        return (0..shards).map(run).collect();
    }
    let chunk = shards.div_ceil(threads);
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|group| {
                let group = (group * chunk).min(shards)..((group + 1) * chunk).min(shards);
                scope.spawn(move || group.map(run).collect::<Vec<O>>())
            })
            .collect();
        handles.into_iter().flat_map(|handle| handle.join().expect("shard panicked")).collect()
    })
}

/// Everything one shard produced; merged by [`merge_shard_outcomes`].
struct ShardOutcome {
    shard: usize,
    accepted: usize,
    rejected: usize,
    findings: Vec<Finding>,
    coverage: CoverageMap,
}

/// The core fuzz loop over one shard's iteration range. With metrics on,
/// it samples the shard's throughput under `fuzz.shard.inputs_per_sec`
/// every [`OBS_BATCH`] inputs.
///
/// The loop is allocation-free per input: generation writes into one
/// reusable [`GeneratedInput`] scratch buffer and coverage recording is
/// bitset arithmetic; only a new unique crash allocates, once, for the
/// copy of its bytes its [`Finding`] owns.
fn run_shard(
    mutator: &mut Mutator,
    paths: &[AttackPath],
    range: Range<usize>,
    shard: usize,
    target: &mut dyn FuzzTarget,
    obs: &Obs,
) -> ShardOutcome {
    let mut coverage = CoverageMap::new(mutator.model(), paths.len());
    let mut first_by_hash: HashMap<u64, usize> = HashMap::new();
    let mut findings = Vec::new();
    let (mut accepted, mut rejected, mut executed) = (0, 0, 0usize);
    let mut batch_start = Instant::now();
    let mut input = GeneratedInput::empty();
    for i in range {
        let path_index = if paths.is_empty() { 0 } else { i % paths.len() };
        if i.is_multiple_of(10) {
            mutator.generate_valid_into(&mut input);
        } else {
            mutator.generate_into(&mut input);
        }
        let cells_before = coverage.cells();
        if !paths.is_empty() {
            coverage.record(path_index, &input);
        }
        let coverage_delta = coverage.cells() - cells_before;
        match target.respond(&input.bytes) {
            TargetResponse::Accepted => accepted += 1,
            TargetResponse::Rejected => rejected += 1,
            TargetResponse::Crash => {
                if is_new_crash(&findings, &mut first_by_hash, &input.bytes) {
                    findings.push(Finding {
                        path_index,
                        path_goal: paths
                            .get(path_index)
                            .map(|p| p.goal().to_owned())
                            .unwrap_or_default(),
                        input: input.bytes.clone(),
                        iteration: i,
                        coverage_delta,
                    });
                }
            }
        }
        executed += 1;
        if obs.is_enabled() && executed.is_multiple_of(OBS_BATCH) {
            let elapsed = batch_start.elapsed().as_secs_f64();
            if elapsed > 0.0 {
                obs.gauge("fuzz.shard.inputs_per_sec", OBS_BATCH as f64 / elapsed);
            }
            batch_start = Instant::now();
        }
    }
    ShardOutcome { shard, accepted, rejected, findings, coverage }
}

/// Whether no finding holds `input` yet. `first_by_hash` maps an input
/// hash to the first finding with that hash, so the findings own the
/// only copy of each crash's bytes; when a hash matches but the bytes
/// differ, every finding is compared.
fn is_new_crash(
    findings: &[Finding],
    first_by_hash: &mut HashMap<u64, usize>,
    input: &[u8],
) -> bool {
    match first_by_hash.entry(fnv1a64(input)) {
        Entry::Vacant(slot) => {
            slot.insert(findings.len());
            true
        }
        Entry::Occupied(slot) => {
            findings[*slot.get()].input != input && findings.iter().all(|f| f.input != input)
        }
    }
}

/// Merges shard outcomes into one report with a canonical ordering:
/// findings sorted by `(iteration, shard, input)` then deduplicated by
/// input bytes (first occurrence in that order wins), coverage maps
/// unioned. Deterministic for a fixed shard count regardless of thread
/// scheduling. Returns the report plus the merged coverage-cell and
/// out-of-range path-hit totals for the caller's metrics.
fn merge_shard_outcomes(
    outcomes: Vec<ShardOutcome>,
    iterations: usize,
) -> (FuzzReport, usize, usize) {
    let mut accepted = 0;
    let mut rejected = 0;
    let mut merged_coverage: Option<CoverageMap> = None;
    let mut tagged: Vec<(usize, usize, Finding)> = Vec::new();
    for outcome in outcomes {
        accepted += outcome.accepted;
        rejected += outcome.rejected;
        match &mut merged_coverage {
            None => merged_coverage = Some(outcome.coverage),
            Some(merged) => merged.merge(&outcome.coverage),
        }
        for finding in outcome.findings {
            tagged.push((finding.iteration, outcome.shard, finding));
        }
    }
    tagged.sort_by(|a, b| (a.0, a.1, &a.2.input).cmp(&(b.0, b.1, &b.2.input)));
    let first: Vec<bool> = {
        let mut seen: HashSet<&[u8]> = HashSet::new();
        tagged.iter().map(|(_, _, finding)| seen.insert(&finding.input)).collect()
    };
    let crashes: Vec<Finding> = tagged
        .into_iter()
        .zip(first)
        .filter_map(|((_, _, finding), first)| first.then_some(finding))
        .collect();
    let (field_coverage, path_coverage, cells, out_of_range) = merged_coverage
        .map(|c| {
            (
                c.field_coverage_percent(),
                c.path_coverage_percent(),
                c.cells(),
                c.out_of_range_paths(),
            )
        })
        .unwrap_or((100.0, 100.0, 0, 0));
    let report =
        FuzzReport { iterations, accepted, rejected, crashes, field_coverage, path_coverage };
    (report, cells, out_of_range)
}

impl Fuzzer {
    /// Creates a fuzzer over `model` with a deterministic seed.
    pub fn new(model: ProtocolModel, seed: u64) -> Self {
        Fuzzer { model, base_seed: seed, obs: Obs::noop(), triage: None }
    }

    /// Returns the fuzzer unchanged: inputs always run one at a time.
    ///
    /// Exists only because the `perfbench/` harness calls it; remove it
    /// in the next change that edits `perfbench/`.
    pub fn with_batch_size(self, _batch_size: usize) -> Self {
        self
    }

    /// Attaches crash triage: after the (merged) report is built, every
    /// deduplicated crash is minimized and persisted — as found and in
    /// minimized form — into the corpus at `config.corpus_dir`. The
    /// report itself is unaffected; persistence failures are counted
    /// under `fuzz.triage.io_errors` rather than failing the run.
    pub fn with_triage(mut self, config: TriageConfig) -> Self {
        self.triage = Some(config);
        self
    }

    /// Attaches a metrics handle: [`Fuzzer::run`] then samples each
    /// shard's throughput under the `fuzz.shard.inputs_per_sec` gauge
    /// every `OBS_BATCH` (256) inputs and records the merged totals
    /// after the merge.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Runs `iterations` inputs, cycling through the attack paths, split
    /// over `shards` contiguous shards (0 counts as 1). Every 10th input
    /// of the global iteration space is a fully valid baseline, to keep
    /// the target progressing past input validation.
    ///
    /// Shard `s` owns a private [`Mutator`] seeded from
    /// `(base_seed, s)` — shard 0 uses the base seed itself — a private
    /// [`CoverageMap`] and the target `target_factory(s)` builds just
    /// before the shard runs (and drops when it ends). Shards run on at
    /// most `available_parallelism` scoped threads; a run that needs one
    /// thread stays on the calling thread.
    ///
    /// Determinism contract (asserted by the test suite): for any fixed
    /// shard count the merged report is identical across repeated runs,
    /// regardless of thread scheduling or the thread count, because
    /// shard streams are independent and the merge orders findings by
    /// `(iteration, shard, input)` before deduplication.
    pub fn run<T, F>(
        &self,
        paths: &[AttackPath],
        iterations: usize,
        shards: usize,
        target_factory: F,
    ) -> FuzzReport
    where
        F: Fn(usize) -> T + Sync,
        T: FuzzTarget,
    {
        self.run_on(paths, iterations, shards, available_threads(), target_factory)
    }

    /// [`Fuzzer::run`] under its old name.
    ///
    /// Exists only because the `perfbench/` harness calls it; remove it
    /// in the next change that edits `perfbench/`.
    pub fn run_parallel_targets<T, F>(
        &self,
        paths: &[AttackPath],
        iterations: usize,
        shards: usize,
        target_factory: F,
    ) -> FuzzReport
    where
        F: Fn(usize) -> T + Sync,
        T: FuzzTarget,
    {
        self.run(paths, iterations, shards, target_factory)
    }

    /// [`Fuzzer::run`] on at most `max_threads` threads.
    fn run_on<T, F>(
        &self,
        paths: &[AttackPath],
        iterations: usize,
        shards: usize,
        max_threads: usize,
        target_factory: F,
    ) -> FuzzReport
    where
        F: Fn(usize) -> T + Sync,
        T: FuzzTarget,
    {
        let shards = shards.max(1);
        let clamped = shards.saturating_sub(max_threads.max(1));
        if clamped > 0 {
            self.obs.counter("fuzz.shards_clamped", clamped as u64);
        }
        let span = self.obs.span("fuzz.run_seconds");
        let outcomes = run_shards(shards, max_threads, |shard| {
            let mut target = target_factory(shard);
            let mut mutator = Mutator::new(self.model.clone(), shard_seed(self.base_seed, shard));
            let range = shard_range(iterations, shards, shard);
            run_shard(&mut mutator, paths, range, shard, &mut target, &self.obs)
        });
        let (report, cells, out_of_range) = merge_shard_outcomes(outcomes, iterations);
        self.obs.counter("fuzz.inputs", iterations as u64);
        self.obs.counter("fuzz.crashes", report.crashes.len() as u64);
        self.obs.counter("fuzz.coverage_cells", cells as u64);
        if out_of_range > 0 {
            self.obs.counter("fuzz.paths.out_of_range", out_of_range as u64);
        }
        self.obs.gauge("fuzz.shards", shards as f64);
        if let Some(config) = self.triage.as_ref().filter(|_| !report.crashes.is_empty()) {
            // The triage oracle is a dedicated instance built with index
            // `shards` (one past the last shard), so shard oracles are
            // never reused across threads.
            let mut oracle = target_factory(shards);
            self.run_triage(config, &report, shards, &mut oracle);
        }
        span.finish();
        report
    }

    /// Post-merge crash triage: minimizes every deduplicated crash of
    /// the canonical report against `oracle` and persists the original
    /// and minimized inputs into the corpus `config` names. The report is
    /// read-only here — triage can never change coverage, counts, or
    /// crash ordering.
    fn run_triage(
        &self,
        config: &TriageConfig,
        report: &FuzzReport,
        shards: usize,
        oracle: &mut dyn FuzzTarget,
    ) {
        let span = self.obs.span("fuzz.triage_seconds");
        let corpus = Corpus::open(&config.corpus_dir);
        let model = &self.model.name;
        // Shards own contiguous `div_ceil` chunks of the iteration
        // space, so the discovering shard is recoverable from the
        // iteration index.
        let chunk = report.iterations.div_ceil(shards).max(1);
        let mut new_entries = 0u64;
        let mut io_errors = 0u64;
        let mut store = |meta: &EntryMeta, bytes: &[u8]| match corpus.add(meta, bytes) {
            Ok(true) => new_entries += 1,
            Ok(false) => {}
            Err(_) => io_errors += 1,
        };
        for finding in &report.crashes {
            let minimized = minimize(
                &finding.input,
                |bytes| oracle.respond(bytes) == TargetResponse::Crash,
                &config.minimize,
                &self.obs,
            );
            let original = EntryMeta {
                model: model.clone(),
                hash: content_hash(&finding.input),
                len: finding.input.len(),
                seed: self.base_seed,
                shard: finding.iteration / chunk,
                iteration: finding.iteration,
                path_goal: finding.path_goal.clone(),
                expected: TargetResponse::Crash,
                coverage_delta: finding.coverage_delta,
                minimized_from: None,
            };
            store(&original, &finding.input);
            if minimized.output != finding.input {
                let reduced = EntryMeta {
                    hash: content_hash(&minimized.output),
                    len: minimized.output.len(),
                    minimized_from: Some(original.hash.clone()),
                    ..original
                };
                store(&reduced, &minimized.output);
            }
        }
        self.obs.counter("fuzz.triage.crashes", report.crashes.len() as u64);
        self.obs.counter("fuzz.triage.new_entries", new_entries);
        if io_errors > 0 {
            self.obs.counter("fuzz.triage.io_errors", io_errors);
        }
        span.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{keyless_command_model, v2x_warning_model};
    use crate::scenario::{ScenarioSearch, ScenarioSpace};
    use saseval_tara::tree::{AttackTree, TreeNode};

    fn paths() -> Vec<AttackPath> {
        AttackTree::new(
            "disrupt warnings",
            TreeNode::or(
                "ways",
                vec![
                    TreeNode::leaf_on("flood interface", "OBU_RSU"),
                    TreeNode::leaf_on("spoof signage", "OBU_RSU"),
                ],
            ),
        )
        .unwrap()
        .paths()
        .unwrap()
    }

    fn rejecting(_: &[u8]) -> TargetResponse {
        TargetResponse::Rejected
    }

    #[test]
    fn robust_target_yields_no_crashes_and_high_coverage() {
        let fuzzer = Fuzzer::new(v2x_warning_model(), 1);
        let report = fuzzer.run(&paths(), 1_000, 1, |_| {
            |input: &[u8]| {
                if input.len() == 2 && (1..=3).contains(&input[0]) {
                    TargetResponse::Accepted
                } else {
                    TargetResponse::Rejected
                }
            }
        });
        assert_eq!(report.crashes.len(), 0);
        assert_eq!(report.accepted + report.rejected, 1_000);
        assert_eq!(report.path_coverage_percent(), 100.0);
        assert!(report.field_coverage_percent() >= 87.5, "{}", report.field_coverage_percent());
    }

    #[test]
    fn fuzzer_finds_seeded_parser_bug() {
        // Seeded bug: the "decoder" crashes on a signage message whose
        // limit byte is zero — a classic missed boundary.
        let fuzzer = Fuzzer::new(v2x_warning_model(), 2);
        let report = fuzzer.run(&paths(), 2_000, 1, |_| {
            |input: &[u8]| match input {
                [2, 0, ..] => TargetResponse::Crash,
                [t, ..] if (1..=3).contains(t) => TargetResponse::Accepted,
                _ => TargetResponse::Rejected,
            }
        });
        assert!(!report.crashes.is_empty(), "boundary crash found");
        assert!(report.crashes.iter().all(|f| f.input[..2] == [2, 0]));
        assert!(report.crashes[0].path_goal.contains("disrupt"));
    }

    #[test]
    fn crashes_deduplicated_by_input() {
        let fuzzer = Fuzzer::new(v2x_warning_model(), 3);
        let report = fuzzer.run(&paths(), 2_000, 1, |_| {
            |input: &[u8]| {
                if input.is_empty() {
                    TargetResponse::Crash // every truncation-to-empty crashes
                } else {
                    TargetResponse::Rejected
                }
            }
        });
        assert_eq!(report.crashes.len(), 1, "identical inputs deduplicated");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            Fuzzer::new(keyless_command_model(), seed).run(&paths(), 500, 1, |_| {
                |input: &[u8]| {
                    if input.len() == 33 {
                        TargetResponse::Accepted
                    } else {
                        TargetResponse::Rejected
                    }
                }
            })
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn empty_paths_still_fuzzes() {
        let fuzzer = Fuzzer::new(v2x_warning_model(), 4);
        let report = fuzzer.run(&[], 100, 1, |_| rejecting);
        assert_eq!(report.iterations, 100);
        assert_eq!(report.rejected, 100);
        assert_eq!(report.path_coverage_percent(), 100.0);
    }

    fn crashy_target(input: &[u8]) -> TargetResponse {
        match input {
            [] => TargetResponse::Crash,
            [2, 0, ..] => TargetResponse::Crash,
            [t, ..] if (1..=3).contains(t) => TargetResponse::Accepted,
            _ => TargetResponse::Rejected,
        }
    }

    #[test]
    fn fixed_shard_count_is_deterministic_across_runs() {
        for shards in [2usize, 3, 4, 7] {
            let run = || {
                Fuzzer::new(v2x_warning_model(), 9).run(&paths(), 3_000, shards, |_| crashy_target)
            };
            assert_eq!(run(), run(), "{shards} shards");
        }
    }

    #[test]
    fn thread_clamp_never_changes_the_report_and_is_counted() {
        // The same 6-shard run on 1, 2 and 6 execution threads must be
        // bit-identical — shard seeds/ranges/merge key off the requested
        // shard count, the thread cap only packs shard jobs.
        let run = |max_threads: usize| {
            let (obs, recorder) = Obs::memory();
            let fuzzer = Fuzzer::new(v2x_warning_model(), 17).with_obs(obs);
            let report = fuzzer.run_on(&paths(), 3_000, 6, max_threads, |_| crashy_target);
            (report, recorder.snapshot())
        };
        let (on_one, clamped) = run(1);
        let (on_two, partially) = run(2);
        let (on_six, unclamped) = run(6);
        assert_eq!(on_one, on_two);
        assert_eq!(on_one, on_six);
        // The auto-degrade counter reports how many shard jobs were
        // packed onto already-busy threads.
        assert_eq!(clamped.counter("fuzz.shards_clamped"), Some(5));
        assert_eq!(partially.counter("fuzz.shards_clamped"), Some(4));
        assert_eq!(unclamped.counter("fuzz.shards_clamped"), None);
        // The merged gauge still reports the requested shard count.
        assert_eq!(clamped.gauge("fuzz.shards"), Some(6.0));

        // The scenario search runs on the same executor: one thread and
        // several give the same report bytes.
        let search =
            ScenarioSearch::new(ScenarioSpace::keyless_default(), 5).with_eval_iterations(1);
        let bytes = |max_threads| {
            serde_json::to_string(&search.search(6, 3, true, max_threads)).expect("serializes")
        };
        assert_eq!(bytes(1), bytes(3));
    }

    #[test]
    fn shard_targets_are_built_lazily_and_live_per_thread() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// A target that counts live instances: `built` on creation,
        /// `live` decremented on drop, `peak` the high-water mark.
        struct Counted<'a>(&'a (AtomicUsize, AtomicUsize, AtomicUsize));
        impl Counted<'_> {
            fn new(counts: &(AtomicUsize, AtomicUsize, AtomicUsize)) -> Counted<'_> {
                let (built, live, peak) = counts;
                built.fetch_add(1, Ordering::SeqCst);
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                Counted(counts)
            }
        }
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0 .1.fetch_sub(1, Ordering::SeqCst);
            }
        }
        impl FuzzTarget for Counted<'_> {
            fn respond(&mut self, input: &[u8]) -> TargetResponse {
                rejecting(input)
            }
        }

        for max_threads in [1, 2, 4] {
            let counts = (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
            let fuzzer = Fuzzer::new(v2x_warning_model(), 3);
            let report = fuzzer.run_on(&paths(), 640, 64, max_threads, |_| Counted::new(&counts));
            assert_eq!(report.rejected, 640);
            let (built, live, peak) = &counts;
            assert_eq!(built.load(Ordering::SeqCst), 64, "one target per shard");
            assert_eq!(live.load(Ordering::SeqCst), 0, "every target dropped");
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= max_threads, "{peak} live targets on {max_threads} threads");
        }
    }

    #[test]
    fn parallel_crashes_are_deduplicated_and_canonically_ordered() {
        let fuzzer = Fuzzer::new(v2x_warning_model(), 6);
        let report = fuzzer.run(&paths(), 4_000, 4, |_| crashy_target);
        assert!(!report.crashes.is_empty());
        let mut seen = std::collections::HashSet::new();
        for finding in &report.crashes {
            assert!(seen.insert(finding.input.clone()), "duplicate crash input in merged report");
        }
        for pair in report.crashes.windows(2) {
            assert!(pair[0].iteration <= pair[1].iteration, "crashes sorted by iteration");
        }
        // Every iteration accepted, rejected, or crashed (duplicate crash
        // inputs count toward neither bucket).
        assert!(report.accepted + report.rejected + report.crashes.len() <= 4_000);
        assert!(report.accepted > 0 && report.rejected > 0);
    }

    #[test]
    fn merged_coverage_equals_serial_recount_of_shard_inputs() {
        let model = v2x_warning_model();
        let attack_paths = paths();
        let (iterations, shards, seed) = (2_500usize, 4usize, 13u64);
        let fuzzer = Fuzzer::new(model.clone(), seed);
        let report = fuzzer.run(&attack_paths, iterations, shards, |_| crashy_target);

        // Regenerate every shard's input stream and record it into one
        // serial coverage map.
        let mut recount = CoverageMap::new(&model, attack_paths.len());
        let mut input = GeneratedInput::empty();
        for shard in 0..shards {
            let mut mutator = Mutator::new(model.clone(), shard_seed(seed, shard));
            for i in shard_range(iterations, shards, shard) {
                if i.is_multiple_of(10) {
                    mutator.generate_valid_into(&mut input);
                } else {
                    mutator.generate_into(&mut input);
                }
                recount.record(i % attack_paths.len(), &input);
            }
        }
        assert_eq!(report.field_coverage_percent(), recount.field_coverage_percent());
        assert_eq!(report.path_coverage_percent(), recount.path_coverage_percent());
    }

    #[test]
    fn obs_samples_shard_throughput_and_merged_totals() {
        let (obs, recorder) = Obs::memory();
        let fuzzer = Fuzzer::new(v2x_warning_model(), 5).with_obs(obs);
        let report = fuzzer.run(&paths(), 2_048, 2, |_| rejecting);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("fuzz.inputs"), Some(2_048));
        assert_eq!(snapshot.counter("fuzz.crashes"), Some(report.crashes.len() as u64));
        assert!(snapshot.gauge("fuzz.shard.inputs_per_sec").is_some(), "shard throughput sampled");
        assert_eq!(snapshot.gauge("fuzz.shards"), Some(2.0));
        assert_eq!(snapshot.histogram("fuzz.run_seconds").map(|h| h.count), Some(1));
        // The coverage counter carries exactly the merged total, not a
        // per-shard sum: cells is not exposed on the report, so recover
        // it from the coverage percent (2 fields × 4 classes = 8 cells).
        let expected_cells = (report.field_coverage_percent() / 100.0 * 8.0).round() as u64;
        assert!(expected_cells > 0, "cells recorded");
        assert_eq!(snapshot.counter("fuzz.coverage_cells"), Some(expected_cells));
        assert_eq!(report.iterations, 2_048);
        // The fuzzer only records path indices below the path count, so
        // the out-of-range counter stays silent here.
        assert_eq!(snapshot.counter("fuzz.paths.out_of_range"), None);
    }

    #[test]
    fn more_shards_than_iterations_still_covers_every_iteration() {
        let fuzzer = Fuzzer::new(v2x_warning_model(), 8);
        let report = fuzzer.run(&paths(), 5, 16, |_| rejecting);
        assert_eq!(report.iterations, 5);
        assert_eq!(report.accepted + report.rejected, 5);
    }

    #[test]
    fn parallel_with_empty_paths() {
        let fuzzer = Fuzzer::new(v2x_warning_model(), 4);
        let report = fuzzer.run(&[], 100, 3, |_| rejecting);
        assert_eq!(report.iterations, 100);
        assert_eq!(report.rejected, 100);
        assert_eq!(report.path_coverage_percent(), 100.0);
    }
}

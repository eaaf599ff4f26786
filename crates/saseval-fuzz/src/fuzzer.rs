//! The attack-path-guided fuzzing loop: serial and sharded-parallel.
//!
//! [`Fuzzer::run`] is the single-threaded loop; [`Fuzzer::run_parallel`]
//! splits the iteration space into contiguous shards executed on scoped
//! threads (the same no-dependency pattern as
//! `attack_engine::campaign::run_campaign_parallel`) and merges the shard
//! reports deterministically: findings are sorted by
//! `(iteration, shard, input)` and coverage maps are unioned, so a run at
//! a fixed shard count is bit-identical regardless of thread scheduling,
//! and one shard reproduces the serial output exactly.
//!
//! Targets are [`FuzzTarget`] oracles (closures adapt via
//! [`ClosureTarget`]). A target with a genuinely batched
//! [`FuzzTarget::respond_batch`] can be driven with
//! [`Fuzzer::with_batch_size`]: execution is batched, but generation,
//! coverage recording and response accounting stay in global iteration
//! order, so the report is bit-identical for every batch size. The
//! simulation oracle [`crate::sim_target::SimOracle`] keeps the default
//! per-input delegation: each input's world skips its own idle ticks,
//! which lockstep lanes could not.

use std::collections::HashSet;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use saseval_obs::Obs;
use serde::{Deserialize, Serialize};

use saseval_tara::AttackPath;

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
/// behaviour. Closures `FnMut(&[u8]) -> TargetResponse` are adapted via
/// [`ClosureTarget`]; a target may additionally override
/// [`FuzzTarget::respond_batch`] so one dispatch executes many inputs.
///
/// Contract: `respond_batch` must produce exactly the responses that
/// sequential [`FuzzTarget::respond`] calls over the same inputs would.
/// The fuzzer's bit-identical-report guarantee across batch sizes relies
/// on this; the default implementation delegates input by input, so it
/// holds trivially unless overridden.
pub trait FuzzTarget {
    /// Executes one input.
    fn respond(&mut self, input: &[u8]) -> TargetResponse;

    /// Executes a batch of inputs, writing one response per input — in
    /// input order — into `out`. Implementations must clear `out` first.
    fn respond_batch(&mut self, inputs: &[Vec<u8>], out: &mut Vec<TargetResponse>) {
        out.clear();
        for input in inputs {
            let response = self.respond(input);
            out.push(response);
        }
    }
}

/// Adapts a `FnMut(&[u8]) -> TargetResponse` closure as a [`FuzzTarget`].
/// A wrapper type rather than a blanket impl, so concrete oracles can
/// implement [`FuzzTarget`] directly without coherence conflicts.
#[derive(Debug, Clone)]
pub struct ClosureTarget<F>(pub F);

impl<F: FnMut(&[u8]) -> TargetResponse> FuzzTarget for ClosureTarget<F> {
    fn respond(&mut self, input: &[u8]) -> TargetResponse {
        (self.0)(input)
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
/// [`Fuzzer::run_parallel`].
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
    mutator: Mutator,
    base_seed: u64,
    obs: Obs,
    triage: Option<TriageConfig>,
    batch_size: usize,
}

impl std::fmt::Debug for Fuzzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fuzzer").field("model", &self.mutator.model().name).finish()
    }
}

/// Inputs per throughput/coverage sample. Large enough that the per-input
/// hot loop stays free of recorder calls even when metrics are on.
const OBS_BATCH: usize = 256;

/// Derives shard `shard`'s RNG seed from the fuzzer's base seed. Shard 0
/// always fuzzes with the base seed itself, so a one-shard parallel run
/// replays the serial input stream byte for byte.
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

/// Everything one shard produced; merged by [`merge_shard_outcomes`].
struct ShardOutcome {
    shard: usize,
    accepted: usize,
    rejected: usize,
    findings: Vec<Finding>,
    coverage: CoverageMap,
    /// Coverage cells already flushed to the `fuzz.coverage_cells`
    /// counter by in-loop batch sampling (serial mode only).
    reported_cells: usize,
}

/// How one shard samples metrics while it runs.
struct ShardObs<'a> {
    obs: &'a Obs,
    /// Gauge name for per-batch throughput samples
    /// (`fuzz.inputs_per_sec` serially, `fuzz.shard.inputs_per_sec` per
    /// parallel shard).
    throughput_gauge: &'static str,
    /// Whether to flush `fuzz.coverage_cells` deltas per batch (serial
    /// mode); parallel shards leave the counter to the merge so it
    /// carries the merged total, not a per-shard sum.
    emit_cell_batches: bool,
}

/// Generation-time record of one input awaiting its target response.
struct PendingMeta {
    iteration: usize,
    path_index: usize,
    coverage_delta: usize,
}

/// Mutable per-shard accounting shared by the sequential and batched
/// execution paths of [`run_shard`], so the two cannot drift apart.
struct ShardState {
    coverage: CoverageMap,
    seen_crashes: HashSet<Vec<u8>>,
    findings: Vec<Finding>,
    accepted: usize,
    rejected: usize,
    reported_cells: usize,
    executed: usize,
    batch_start: Instant,
}

impl ShardState {
    fn new(coverage: CoverageMap) -> Self {
        ShardState {
            coverage,
            seen_crashes: HashSet::new(),
            findings: Vec::new(),
            accepted: 0,
            rejected: 0,
            reported_cells: 0,
            executed: 0,
            batch_start: Instant::now(),
        }
    }

    /// Generates input `i` into the scratch buffer and records its
    /// coverage, returning the metadata later accounting needs. Strictly
    /// sequential in iteration order in both execution modes — the
    /// mutator's RNG stream and the coverage bitset never observe
    /// batching.
    fn generate_and_record(
        &mut self,
        mutator: &mut Mutator,
        paths: &[AttackPath],
        i: usize,
        input: &mut GeneratedInput,
    ) -> PendingMeta {
        let path_index = if paths.is_empty() { 0 } else { i % paths.len() };
        if i.is_multiple_of(10) {
            mutator.generate_valid_into(input);
        } else {
            mutator.generate_into(input);
        }
        let cells_before = self.coverage.cells();
        if !paths.is_empty() {
            self.coverage.record(path_index, input);
        }
        PendingMeta {
            iteration: i,
            path_index,
            coverage_delta: self.coverage.cells() - cells_before,
        }
    }

    /// Accounts one `(input, response)` pair, in global iteration order —
    /// identical bookkeeping whether the response arrived one by one or
    /// from a batched flush.
    fn account(
        &mut self,
        paths: &[AttackPath],
        shard_obs: &ShardObs<'_>,
        meta: &PendingMeta,
        bytes: &[u8],
        response: TargetResponse,
    ) {
        match response {
            TargetResponse::Accepted => self.accepted += 1,
            TargetResponse::Rejected => self.rejected += 1,
            TargetResponse::Crash => {
                if self.seen_crashes.insert(bytes.to_vec()) {
                    self.findings.push(Finding {
                        path_index: meta.path_index,
                        path_goal: paths
                            .get(meta.path_index)
                            .map(|p| p.goal().to_owned())
                            .unwrap_or_default(),
                        input: bytes.to_vec(),
                        iteration: meta.iteration,
                        coverage_delta: meta.coverage_delta,
                    });
                }
            }
        }
        self.executed += 1;
        if shard_obs.obs.is_enabled() && self.executed.is_multiple_of(OBS_BATCH) {
            let elapsed = self.batch_start.elapsed().as_secs_f64();
            if elapsed > 0.0 {
                shard_obs.obs.gauge(shard_obs.throughput_gauge, OBS_BATCH as f64 / elapsed);
            }
            if shard_obs.emit_cell_batches {
                let delta = (self.coverage.cells() - self.reported_cells) as u64;
                shard_obs.obs.counter("fuzz.coverage_cells", delta);
                self.reported_cells = self.coverage.cells();
            }
            self.batch_start = Instant::now();
        }
    }

    fn into_outcome(self, shard: usize) -> ShardOutcome {
        ShardOutcome {
            shard,
            accepted: self.accepted,
            rejected: self.rejected,
            findings: self.findings,
            coverage: self.coverage,
            reported_cells: self.reported_cells,
        }
    }
}

/// Hands the pending inputs to the target's batched dispatch and accounts
/// the responses in iteration order.
///
/// # Panics
///
/// Panics when the target's [`FuzzTarget::respond_batch`] violates its
/// contract by returning a different number of responses than inputs.
fn flush_pending(
    target: &mut dyn FuzzTarget,
    state: &mut ShardState,
    paths: &[AttackPath],
    shard_obs: &ShardObs<'_>,
    inputs: &mut Vec<Vec<u8>>,
    meta: &mut Vec<PendingMeta>,
    responses: &mut Vec<TargetResponse>,
) {
    if inputs.is_empty() {
        return;
    }
    target.respond_batch(inputs, responses);
    assert_eq!(responses.len(), inputs.len(), "respond_batch must return one response per input");
    for ((meta, bytes), response) in meta.drain(..).zip(inputs.drain(..)).zip(responses.drain(..)) {
        state.account(paths, shard_obs, &meta, &bytes, response);
    }
}

/// The core fuzz loop over one iteration range. Used by both the serial
/// run and every parallel shard, so a one-shard parallel run is the
/// serial run.
///
/// With `batch_size <= 1` (the default) the loop is allocation-free per
/// input: generation writes into one reusable [`GeneratedInput`] scratch
/// buffer and coverage recording is bitset arithmetic; only rare events
/// allocate (a new unique crash clones its input bytes). With a larger
/// batch size, generation and coverage recording stay strictly sequential
/// in iteration order while target execution is deferred into
/// [`FuzzTarget::respond_batch`] flushes (buffering one input clone per
/// pending slot) whose responses are accounted in iteration order — so
/// the shard outcome is bit-identical for every batch size.
fn run_shard(
    mutator: &mut Mutator,
    paths: &[AttackPath],
    range: Range<usize>,
    shard: usize,
    target: &mut dyn FuzzTarget,
    batch_size: usize,
    shard_obs: &ShardObs<'_>,
) -> ShardOutcome {
    let mut state = ShardState::new(CoverageMap::new(mutator.model(), paths.len()));
    let mut input = GeneratedInput::empty();
    if batch_size <= 1 {
        for i in range {
            let meta = state.generate_and_record(mutator, paths, i, &mut input);
            let response = target.respond(&input.bytes);
            state.account(paths, shard_obs, &meta, &input.bytes, response);
        }
    } else {
        let mut pending_inputs: Vec<Vec<u8>> = Vec::with_capacity(batch_size);
        let mut pending_meta: Vec<PendingMeta> = Vec::with_capacity(batch_size);
        let mut responses: Vec<TargetResponse> = Vec::with_capacity(batch_size);
        for i in range {
            let meta = state.generate_and_record(mutator, paths, i, &mut input);
            pending_inputs.push(input.bytes.clone());
            pending_meta.push(meta);
            if pending_inputs.len() == batch_size {
                flush_pending(
                    target,
                    &mut state,
                    paths,
                    shard_obs,
                    &mut pending_inputs,
                    &mut pending_meta,
                    &mut responses,
                );
            }
        }
        flush_pending(
            target,
            &mut state,
            paths,
            shard_obs,
            &mut pending_inputs,
            &mut pending_meta,
            &mut responses,
        );
    }
    state.into_outcome(shard)
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
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let crashes: Vec<Finding> = tagged
        .into_iter()
        .filter_map(|(_, _, finding)| seen.insert(finding.input.clone()).then_some(finding))
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
        Fuzzer {
            mutator: Mutator::new(model, seed),
            base_seed: seed,
            obs: Obs::noop(),
            triage: None,
            batch_size: 1,
        }
    }

    /// Sets how many pending inputs are handed to the target per
    /// [`FuzzTarget::respond_batch`] dispatch (clamped to at least 1; the
    /// default of 1 executes inputs one by one on the exact sequential
    /// code path).
    ///
    /// Batching never changes the report: input generation and coverage
    /// recording stay strictly sequential in iteration order and
    /// responses are accounted in iteration order, so for any batch size
    /// the merged [`FuzzReport`] is bit-identical to the sequential run —
    /// provided the target honours the [`FuzzTarget`] batching contract.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
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

    /// Attaches a metrics handle: [`Fuzzer::run`] then samples throughput
    /// (`fuzz.inputs_per_sec` gauge) and new coverage cells
    /// (`fuzz.coverage_cells` counter) every `OBS_BATCH` (256) inputs;
    /// [`Fuzzer::run_parallel`] samples per-shard throughput under
    /// `fuzz.shard.inputs_per_sec` and flushes the merged coverage after
    /// the join.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Runs `iterations` inputs against `target`, cycling through the
    /// attack paths. Every 10th input is a fully valid baseline (to keep
    /// the target progressing past input validation).
    ///
    /// The `target` oracle receives the raw input bytes and reports the
    /// observed behaviour.
    pub fn run(
        &mut self,
        paths: &[AttackPath],
        iterations: usize,
        target: impl FnMut(&[u8]) -> TargetResponse,
    ) -> FuzzReport {
        self.run_target(paths, iterations, &mut ClosureTarget(target))
    }

    /// [`Fuzzer::run`] over a [`FuzzTarget`] oracle. Honours
    /// [`Fuzzer::with_batch_size`]: pending inputs are executed through
    /// the target's [`FuzzTarget::respond_batch`] without changing the
    /// report.
    pub fn run_target(
        &mut self,
        paths: &[AttackPath],
        iterations: usize,
        target: &mut dyn FuzzTarget,
    ) -> FuzzReport {
        let span = self.obs.span("fuzz.run_seconds");
        let shard_obs = ShardObs {
            obs: &self.obs,
            throughput_gauge: "fuzz.inputs_per_sec",
            emit_cell_batches: true,
        };
        let outcome = run_shard(
            &mut self.mutator,
            paths,
            0..iterations,
            0,
            target,
            self.batch_size,
            &shard_obs,
        );
        let reported = outcome.reported_cells;
        let (report, cells, out_of_range) = merge_shard_outcomes(vec![outcome], iterations);
        self.obs.counter("fuzz.inputs", iterations as u64);
        self.obs.counter("fuzz.crashes", report.crashes.len() as u64);
        self.obs.counter("fuzz.coverage_cells", (cells - reported) as u64);
        if out_of_range > 0 {
            self.obs.counter("fuzz.paths.out_of_range", out_of_range as u64);
        }
        self.run_triage(&report, 1, target);
        span.finish();
        report
    }

    /// Runs `iterations` inputs split over `shards` contiguous shards on
    /// scoped threads. Shard `s` owns a private [`Mutator`] seeded
    /// deterministically from `(base_seed, s)` — shard 0 reuses the base
    /// seed itself — plus a private [`CoverageMap`], and fuzzes its slice
    /// of the global iteration space (so path round-robin and the
    /// every-10th valid baseline follow the global iteration index, as in
    /// the serial loop).
    ///
    /// `target_factory(s)` builds shard `s`'s private target oracle.
    ///
    /// Determinism contract (asserted by the test suite):
    /// * `shards == 1` is byte-identical to [`Fuzzer::run`] on a fresh
    ///   fuzzer with the same seed;
    /// * for any fixed shard count the merged report is identical across
    ///   repeated runs, regardless of thread scheduling, because shard
    ///   streams are independent and the merge orders findings by
    ///   `(iteration, shard, input)` before deduplication.
    pub fn run_parallel<T, F>(
        &self,
        paths: &[AttackPath],
        iterations: usize,
        shards: usize,
        mut target_factory: F,
    ) -> FuzzReport
    where
        F: FnMut(usize) -> T,
        T: FnMut(&[u8]) -> TargetResponse + Send,
    {
        self.run_parallel_targets(paths, iterations, shards, |shard| {
            ClosureTarget(target_factory(shard))
        })
    }

    /// [`Fuzzer::run_parallel`] over [`FuzzTarget`] oracles. Honours
    /// [`Fuzzer::with_batch_size`] inside every shard; the determinism
    /// contract is unchanged because batching never alters a shard's
    /// outcome.
    pub fn run_parallel_targets<T, F>(
        &self,
        paths: &[AttackPath],
        iterations: usize,
        shards: usize,
        target_factory: F,
    ) -> FuzzReport
    where
        F: FnMut(usize) -> T,
        T: FuzzTarget + Send,
    {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.run_parallel_targets_on(paths, iterations, shards, threads, target_factory)
    }

    /// [`Fuzzer::run_parallel_targets`] with an explicit execution-thread
    /// cap instead of the `available_parallelism` auto-degrade. Exposed
    /// so tests (and callers with their own scheduler) can pin the
    /// thread count; the report is identical for every cap because shard
    /// streams are keyed off the *requested* shard count, never the
    /// thread count.
    pub fn run_parallel_targets_on<T, F>(
        &self,
        paths: &[AttackPath],
        iterations: usize,
        shards: usize,
        max_threads: usize,
        mut target_factory: F,
    ) -> FuzzReport
    where
        F: FnMut(usize) -> T,
        T: FuzzTarget + Send,
    {
        let shards = shards.max(1);
        // Auto-degrade: more shard *threads* than hardware threads is
        // pure overhead (BENCH_fuzz.json measured 4-15% on a 1-core
        // container), so shard jobs are packed onto at most
        // `max_threads` scoped threads. Everything deterministic —
        // per-shard seeds, iteration ranges, the merge — stays keyed off
        // the requested shard count, so clamping can never change the
        // report.
        let threads = shards.min(max_threads.max(1));
        if threads < shards {
            self.obs.counter("fuzz.shards_clamped", (shards - threads) as u64);
        }
        let span = self.obs.span("fuzz.run_seconds");
        let jobs: Vec<(usize, Range<usize>, Mutator, T)> = (0..shards)
            .map(|shard| {
                (
                    shard,
                    shard_range(iterations, shards, shard),
                    Mutator::new(self.mutator.model().clone(), shard_seed(self.base_seed, shard)),
                    target_factory(shard),
                )
            })
            .collect();
        let mut outcomes: Vec<ShardOutcome> = Vec::with_capacity(shards);
        std::thread::scope(|scope| {
            // Contiguous groups keep the joined outcomes in shard order,
            // which the merge relies on for its (iteration, shard, input)
            // sort to be reproducible.
            let chunk = shards.div_ceil(threads);
            let mut jobs = jobs;
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let group: Vec<_> = jobs.drain(..chunk.min(jobs.len())).collect();
                    let obs = self.obs.clone();
                    scope.spawn(move || {
                        let shard_obs = ShardObs {
                            obs: &obs,
                            throughput_gauge: "fuzz.shard.inputs_per_sec",
                            emit_cell_batches: false,
                        };
                        group
                            .into_iter()
                            .map(|(shard, range, mut mutator, mut target)| {
                                run_shard(
                                    &mut mutator,
                                    paths,
                                    range,
                                    shard,
                                    &mut target,
                                    self.batch_size,
                                    &shard_obs,
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                outcomes.extend(handle.join().expect("fuzz shard panicked"));
            }
        });
        let (report, cells, out_of_range) = merge_shard_outcomes(outcomes, iterations);
        self.obs.counter("fuzz.inputs", iterations as u64);
        self.obs.counter("fuzz.crashes", report.crashes.len() as u64);
        self.obs.counter("fuzz.coverage_cells", cells as u64);
        if out_of_range > 0 {
            self.obs.counter("fuzz.paths.out_of_range", out_of_range as u64);
        }
        self.obs.gauge("fuzz.shards", shards as f64);
        if self.triage.is_some() && !report.crashes.is_empty() {
            // The triage oracle is a dedicated instance built with index
            // `shards` (one past the last shard), so shard oracles are
            // never reused across threads.
            let mut oracle = target_factory(shards);
            self.run_triage(&report, shards, &mut oracle);
        }
        span.finish();
        report
    }

    /// Post-merge crash triage: minimizes every deduplicated crash of
    /// the canonical report against `oracle` and persists the original
    /// and minimized inputs into the configured corpus. No-op without a
    /// [`TriageConfig`]. The report is read-only here — triage can never
    /// change coverage, counts, or crash ordering.
    fn run_triage(&self, report: &FuzzReport, shards: usize, oracle: &mut dyn FuzzTarget) {
        let Some(config) = &self.triage else { return };
        if report.crashes.is_empty() {
            return;
        }
        let span = self.obs.span("fuzz.triage_seconds");
        let corpus = Corpus::open(&config.corpus_dir);
        let model = &self.mutator.model().name;
        // Shards own contiguous `div_ceil` chunks of the iteration
        // space, so the discovering shard is recoverable from the
        // iteration index.
        let chunk = report.iterations.div_ceil(shards.max(1)).max(1);
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

    #[test]
    fn robust_target_yields_no_crashes_and_high_coverage() {
        let mut fuzzer = Fuzzer::new(v2x_warning_model(), 1);
        let report = fuzzer.run(&paths(), 1_000, |input| {
            if input.len() == 2 && (1..=3).contains(&input[0]) {
                TargetResponse::Accepted
            } else {
                TargetResponse::Rejected
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
        let mut fuzzer = Fuzzer::new(v2x_warning_model(), 2);
        let report = fuzzer.run(&paths(), 2_000, |input| match input {
            [2, 0, ..] => TargetResponse::Crash,
            [t, ..] if (1..=3).contains(t) => TargetResponse::Accepted,
            _ => TargetResponse::Rejected,
        });
        assert!(!report.crashes.is_empty(), "boundary crash found");
        assert!(report.crashes.iter().all(|f| f.input[..2] == [2, 0]));
        assert!(report.crashes[0].path_goal.contains("disrupt"));
    }

    #[test]
    fn crashes_deduplicated_by_input() {
        let mut fuzzer = Fuzzer::new(v2x_warning_model(), 3);
        let report = fuzzer.run(&paths(), 2_000, |input| {
            if input.is_empty() {
                TargetResponse::Crash // every truncation-to-empty crashes
            } else {
                TargetResponse::Rejected
            }
        });
        assert_eq!(report.crashes.len(), 1, "identical inputs deduplicated");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut fuzzer = Fuzzer::new(keyless_command_model(), seed);
            fuzzer.run(&paths(), 500, |input| {
                if input.len() == 33 {
                    TargetResponse::Accepted
                } else {
                    TargetResponse::Rejected
                }
            })
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn obs_samples_throughput_and_coverage() {
        let (obs, recorder) = Obs::memory();
        let mut fuzzer = Fuzzer::new(v2x_warning_model(), 5).with_obs(obs);
        let report = fuzzer.run(&paths(), 1_000, |_| TargetResponse::Rejected);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("fuzz.inputs"), Some(1_000));
        assert_eq!(snapshot.counter("fuzz.crashes"), Some(report.crashes.len() as u64));
        assert!(snapshot.counter("fuzz.coverage_cells").unwrap_or(0) > 0, "cells recorded");
        assert!(snapshot.gauge("fuzz.inputs_per_sec").is_some(), "throughput sampled");
        assert_eq!(snapshot.histogram("fuzz.run_seconds").map(|h| h.count), Some(1));
        // The fuzzer only records path indices below the path count, so
        // the out-of-range counter stays silent here.
        assert_eq!(snapshot.counter("fuzz.paths.out_of_range"), None);
    }

    #[test]
    fn empty_paths_still_fuzzes() {
        let mut fuzzer = Fuzzer::new(v2x_warning_model(), 4);
        let report = fuzzer.run(&[], 100, |_| TargetResponse::Rejected);
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
    fn one_shard_reproduces_serial_run_exactly() {
        for seed in [1u64, 7, 42] {
            let mut serial = Fuzzer::new(v2x_warning_model(), seed);
            let serial_report = serial.run(&paths(), 2_000, crashy_target);
            let parallel = Fuzzer::new(v2x_warning_model(), seed);
            let parallel_report = parallel.run_parallel(&paths(), 2_000, 1, |_| crashy_target);
            assert_eq!(serial_report, parallel_report, "seed {seed}");
        }
    }

    #[test]
    fn fixed_shard_count_is_deterministic_across_runs() {
        for shards in [2usize, 3, 4, 7] {
            let run = || {
                Fuzzer::new(v2x_warning_model(), 9)
                    .run_parallel(&paths(), 3_000, shards, |_| crashy_target)
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
            let report = fuzzer.run_parallel_targets_on(&paths(), 3_000, 6, max_threads, |_| {
                ClosureTarget(crashy_target)
            });
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
    }

    #[test]
    fn parallel_crashes_are_deduplicated_and_canonically_ordered() {
        let fuzzer = Fuzzer::new(v2x_warning_model(), 6);
        let report = fuzzer.run_parallel(&paths(), 4_000, 4, |_| crashy_target);
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
        let report = fuzzer.run_parallel(&attack_paths, iterations, shards, |_| crashy_target);

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
    fn parallel_obs_samples_shard_throughput_and_merged_coverage() {
        let (obs, recorder) = Obs::memory();
        let fuzzer = Fuzzer::new(v2x_warning_model(), 5).with_obs(obs);
        let report =
            fuzzer.run_parallel(&paths(), 2_048, 2, |_| |_: &[u8]| TargetResponse::Rejected);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("fuzz.inputs"), Some(2_048));
        assert_eq!(snapshot.counter("fuzz.crashes"), Some(0));
        assert!(snapshot.gauge("fuzz.shard.inputs_per_sec").is_some(), "shard throughput sampled");
        assert_eq!(snapshot.gauge("fuzz.shards"), Some(2.0));
        // The coverage counter carries exactly the merged total, not a
        // per-shard sum.
        let expected_cells = {
            let quiet = Fuzzer::new(v2x_warning_model(), 5);
            let quiet_report =
                quiet.run_parallel(&paths(), 2_048, 2, |_| |_: &[u8]| TargetResponse::Rejected);
            // cells is not exposed on the report; recover it from coverage
            // percent (2 fields × 4 classes = 8 cells).
            (quiet_report.field_coverage_percent() / 100.0 * 8.0).round() as u64
        };
        assert_eq!(snapshot.counter("fuzz.coverage_cells"), Some(expected_cells));
        assert_eq!(report.iterations, 2_048);
    }

    #[test]
    fn more_shards_than_iterations_still_covers_every_iteration() {
        let fuzzer = Fuzzer::new(v2x_warning_model(), 8);
        let report = fuzzer.run_parallel(&paths(), 5, 16, |_| |_: &[u8]| TargetResponse::Rejected);
        assert_eq!(report.iterations, 5);
        assert_eq!(report.accepted + report.rejected, 5);
    }

    /// A target whose `respond_batch` really is batched (computed over
    /// the whole slice in one call), exercising the flush path end to
    /// end.
    struct BatchyTarget {
        batched_calls: usize,
    }

    impl FuzzTarget for BatchyTarget {
        fn respond(&mut self, input: &[u8]) -> TargetResponse {
            crashy_target(input)
        }

        fn respond_batch(&mut self, inputs: &[Vec<u8>], out: &mut Vec<TargetResponse>) {
            self.batched_calls += 1;
            out.clear();
            out.extend(inputs.iter().map(|input| crashy_target(input)));
        }
    }

    #[test]
    fn batched_run_is_bit_identical_to_serial() {
        let mut serial = Fuzzer::new(v2x_warning_model(), 11);
        let serial_report = serial.run(&paths(), 2_000, crashy_target);
        // Batch sizes that divide the range, leave a remainder flush, and
        // exceed it entirely (one flush at the end).
        for batch_size in [2usize, 7, 64, 3_000] {
            let mut fuzzer = Fuzzer::new(v2x_warning_model(), 11).with_batch_size(batch_size);
            let mut target = BatchyTarget { batched_calls: 0 };
            let report = fuzzer.run_target(&paths(), 2_000, &mut target);
            assert_eq!(report, serial_report, "batch size {batch_size}");
            assert!(target.batched_calls > 0, "batched dispatch used");
        }
    }

    #[test]
    fn batched_parallel_matches_unbatched_parallel() {
        let unbatched =
            Fuzzer::new(v2x_warning_model(), 9).run_parallel(&paths(), 3_000, 3, |_| crashy_target);
        let batched = Fuzzer::new(v2x_warning_model(), 9).with_batch_size(16).run_parallel_targets(
            &paths(),
            3_000,
            3,
            |_| BatchyTarget { batched_calls: 0 },
        );
        assert_eq!(unbatched, batched);
    }

    #[test]
    fn zero_batch_size_clamps_to_sequential() {
        let mut sequential = Fuzzer::new(v2x_warning_model(), 12);
        let expected = sequential.run(&paths(), 500, crashy_target);
        let mut clamped = Fuzzer::new(v2x_warning_model(), 12).with_batch_size(0);
        assert_eq!(clamped.run(&paths(), 500, crashy_target), expected);
    }

    struct ShortBatch;

    impl FuzzTarget for ShortBatch {
        fn respond(&mut self, _: &[u8]) -> TargetResponse {
            TargetResponse::Rejected
        }

        fn respond_batch(&mut self, _inputs: &[Vec<u8>], out: &mut Vec<TargetResponse>) {
            out.clear(); // zero responses for a non-empty batch
        }
    }

    #[test]
    #[should_panic(expected = "one response per input")]
    fn respond_batch_length_mismatch_is_rejected() {
        let mut fuzzer = Fuzzer::new(v2x_warning_model(), 1).with_batch_size(8);
        fuzzer.run_target(&paths(), 100, &mut ShortBatch);
    }

    #[test]
    fn parallel_with_empty_paths() {
        let fuzzer = Fuzzer::new(v2x_warning_model(), 4);
        let report = fuzzer.run_parallel(&[], 100, 3, |_| |_: &[u8]| TargetResponse::Rejected);
        assert_eq!(report.iterations, 100);
        assert_eq!(report.rejected, 100);
        assert_eq!(report.path_coverage_percent(), 100.0);
    }
}

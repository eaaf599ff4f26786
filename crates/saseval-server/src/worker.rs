//! The worker pool: deterministic job execution and progress
//! forwarding.
//!
//! Workers reuse the fuzzing stack's two core optimizations end-to-end:
//! [`Fuzzer::run`]'s deterministic shard merge drives every fuzz job
//! (a one-shard job runs on the worker's own thread), and each shard's
//! oracle resets one scratch world, before every input, to a
//! [`vehicle_sim::WorldSnapshot`] warm prefix that the job builds
//! itself. An attacker-free prefix is reached by next-event jumps, so
//! building it costs about as much as looking a resident copy up would
//! (EXPERIMENTS "Warm-prefix store decision"); no prefix outlives its
//! job. Campaign jobs run the attack engine's serial campaign runner.
//!
//! [`execute`] is a pure function of the (normalized) spec: same spec,
//! same code version → byte-identical [`JobPayload`]. That purity is
//! what makes the result cache sound, and is pinned by the
//! cached-equals-fresh proptest.
//!
//! The pool talks to the event loop through one shared [`PoolEvent`]
//! channel. Every event is tagged with the job's cache key and the
//! single-flight *epoch* ([`crate::flight::InflightTable`]) so a
//! completion from a cancelled instance can never be mistaken for the
//! result of a newer resubmission of the same key. Cancellation is
//! cooperative via [`CancelToken`]: checked at dequeue time (a job
//! cancelled while queued never executes) and again before the cache
//! insert, so a job whose waiters all detached mid-run skips the cache
//! best-effort. A cancel landing in the narrow window between that
//! final check and the insert can still populate the cache; this is
//! harmless because payloads are deterministic — the cached bytes are
//! exactly what a fresh execution would produce.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use attack_engine::campaign::run_campaign_with_obs;
use saseval_fuzz::fuzzer::Fuzzer;
use saseval_fuzz::scenario::{attack_paths, protocol_model};
use saseval_fuzz::sim_target::SimOracle;
use saseval_obs::{FieldValue, Obs, Recorder};
use saseval_types::WorldKind;
use serde::Serialize;

use saseval_lint::graph::campaign_verdicts;
use saseval_lint::{run_lint, LintConfig, LintContext, TraceGraph, TraceInputs};
use saseval_threat::builtin::automotive_library;

use crate::cache::{CacheTier, FramedPayload, ResultCache};
use crate::flight::CancelToken;
use crate::job::{
    CampaignJob, FuzzJob, JobPayload, JobSpec, LintJob, LintOutcome, ScenarioJob, ScenarioSpec,
};

/// Stateless stand-in for the removed resident prefix store, kept so
/// `perfbench/` builds unchanged; remove with the next perfbench PR.
#[derive(Debug, Default)]
pub struct SnapshotStore;

impl SnapshotStore {
    /// A store. Holds nothing.
    pub fn new() -> Self {
        SnapshotStore
    }

    /// Does nothing: prefixes are built per job.
    pub fn prewarm_defaults(&self) {}

    /// A fresh fuzz oracle for `scenario`.
    pub fn oracle(&self, scenario: ScenarioSpec) -> SimOracle {
        oracle(scenario)
    }
}

/// [`execute`] behind the [`SnapshotStore`] stand-in, kept so
/// `perfbench/` builds unchanged; remove with the next perfbench PR.
pub fn run_job(spec: JobSpec, _snapshots: &SnapshotStore, obs: &Obs) -> JobPayload {
    execute(spec, obs)
}

/// A fuzz oracle for `scenario` over a warm prefix simulated to the
/// scenario's attack activation; each shard's clone runs its inputs in
/// a scratch world of its own.
fn oracle(scenario: ScenarioSpec) -> SimOracle {
    match scenario {
        ScenarioSpec::Keyless(_) => SimOracle::keyless(
            scenario.keyless_config().expect("keyless scenario"),
            scenario.attack_at(),
        ),
        ScenarioSpec::Construction(_) => SimOracle::construction(
            scenario.construction_config().expect("construction scenario"),
            scenario.attack_at(),
        ),
    }
}

fn run_fuzz_job(job: FuzzJob, obs: &Obs) -> JobPayload {
    let world = match job.scenario {
        ScenarioSpec::Keyless(_) => WorldKind::Keyless,
        ScenarioSpec::Construction(_) => WorldKind::Construction,
    };
    let oracle = oracle(job.scenario);
    let fuzzer = Fuzzer::new(protocol_model(world), job.seed).with_obs(obs.clone());
    let report = fuzzer.run(&attack_paths(world), job.iterations, job.shards, |_| oracle.clone());
    JobPayload::Fuzz(report)
}

fn run_campaign_job(job: CampaignJob, obs: &Obs) -> JobPayload {
    let mut cases = job.suite.cases();
    if job.seed != 0 {
        for case in &mut cases {
            case.seed = job.seed;
        }
    }
    JobPayload::Campaign(run_campaign_with_obs(&cases, obs))
}

fn run_lint_job(job: LintJob, obs: &Obs) -> JobPayload {
    let library = automotive_library();
    let catalog = job.catalog.catalog();
    // A suite, when given, is executed first so the trace-graph rules
    // see real verdicts; its results are mapped into catalog-local
    // attack IDs exactly as the lint CLI does.
    let trace = job.suite.map(|suite| {
        let results: Vec<_> = suite.cases().iter().map(attack_engine::execute).collect();
        TraceInputs {
            verdicts: campaign_verdicts(&results, job.catalog.tag()),
            evidence: Vec::new(),
        }
    });
    let mut ctx = LintContext::for_catalog(&library, &catalog);
    if let Some(trace) = &trace {
        ctx = ctx.with_trace(trace);
    }
    let report = run_lint(&ctx, &LintConfig::new(), obs);
    JobPayload::Lint(LintOutcome {
        fingerprint: format!("{:016x}", TraceGraph::build(&ctx).fingerprint()),
        errors: report.errors(),
        warnings: report.warnings(),
        diagnostics: report.diagnostics,
    })
}

/// Executes `spec` to its deterministic payload. Fuzz jobs run every
/// shard from one warm prefix; campaign jobs run the attack engine's
/// serial campaign runner; lint jobs run the trace-graph static
/// analysis. Metrics land on `obs`.
pub fn execute(spec: JobSpec, obs: &Obs) -> JobPayload {
    match spec.normalized() {
        JobSpec::Fuzz(job) => run_fuzz_job(job, obs),
        JobSpec::Campaign(job) => run_campaign_job(job, obs),
        JobSpec::Lint(job) => run_lint_job(job, obs),
        JobSpec::Scenario(job) => run_scenario_job(job, obs),
    }
}

/// Runs a coverage-guided scenario search. The search builds one world
/// prefix per evaluated spec and inherits the job's observability sink
/// for progress frames.
fn run_scenario_job(job: ScenarioJob, obs: &Obs) -> JobPayload {
    let search = saseval_fuzz::scenario::ScenarioSearch::new(job.space, job.seed)
        .with_eval_iterations(job.eval_iterations)
        .with_obs(obs.clone());
    JobPayload::Scenario(search.run_parallel(job.budget, job.shards))
}

/// Execution statistics of a freshly computed job, summarized from the
/// counters its worker-side job recorder keeps. Cache hits have none —
/// timings vary run to run, so they are deliberately *not* part of the
/// cached payload.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FreshStats {
    /// Wall-clock job duration in seconds.
    pub elapsed_seconds: f64,
    /// Average executed inputs per second, for fuzz jobs.
    pub inputs_per_sec: Option<f64>,
    /// `campaign.cases` counter, for campaign jobs.
    pub cases: Option<u64>,
}

/// A progress signal, completion or abort, sent from a worker to the
/// event loop over the shared pool channel. Every event carries the
/// job's cache key and single-flight epoch; the event loop routes it to
/// the in-flight entry's waiters and discards events whose epoch is
/// stale (a cancelled instance racing a resubmission).
#[derive(Debug)]
pub enum PoolEvent {
    /// A live metric sample (throughput gauge or case verdict).
    Progress {
        /// Cache key of the job the sample belongs to.
        key: u64,
        /// Single-flight epoch of the job instance.
        epoch: u64,
        /// Metric name.
        metric: String,
        /// Sampled value.
        value: f64,
    },
    /// The job finished; `tier` is `None` for a fresh computation,
    /// `Some` when the dequeue-time cache recheck answered it.
    Done {
        /// Cache key of the completed job.
        key: u64,
        /// Single-flight epoch of the job instance.
        epoch: u64,
        /// The pre-framed done-frame tail, shared with the cache entry.
        frame: FramedPayload,
        /// Cache tier that answered, if any.
        tier: Option<CacheTier>,
        /// Execution statistics, for fresh computations only.
        stats: Option<FreshStats>,
    },
    /// The job instance was cancelled: either while queued (never
    /// executed) or mid-run with every waiter detached (result
    /// discarded, cache untouched).
    Aborted {
        /// Cache key of the aborted job.
        key: u64,
        /// Single-flight epoch of the aborted instance.
        epoch: u64,
    },
}

/// The recorder a worker attaches to each job it executes.
///
/// It keeps the two counters [`FreshStats`] summarizes (`fuzz.inputs`
/// and `campaign.cases`) and forwards selected live metrics to the event
/// loop as [`PoolEvent::Progress`] messages: throughput gauges
/// (`fuzz.shard.inputs_per_sec`, `scenario.inputs_per_sec`), rate-limited to
/// one sample per 25 ms, and per-case campaign verdicts (unthrottled —
/// suites are small). Every other emit — the simulators' per-message
/// `net.*` counters among them — does nothing. Dropped receivers are
/// ignored: a disconnected client must not fail its job.
struct JobRecorder {
    key: u64,
    epoch: u64,
    events: Sender<PoolEvent>,
    last_gauge: Mutex<Option<Instant>>,
    fuzz_inputs: Mutex<Option<u64>>,
    campaign_cases: Mutex<Option<u64>>,
}

const GAUGE_INTERVAL: Duration = Duration::from_millis(25);

/// Locks `mutex`, recovering the data of a poisoned lock.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl JobRecorder {
    fn new(job: &QueuedJob) -> Self {
        JobRecorder {
            key: job.key,
            epoch: job.epoch,
            events: job.events.clone(),
            last_gauge: Mutex::new(None),
            fuzz_inputs: Mutex::new(None),
            campaign_cases: Mutex::new(None),
        }
    }

    /// The job's execution statistics, given its wall-clock duration.
    fn stats(&self, elapsed_seconds: f64) -> FreshStats {
        let inputs_per_sec = lock(&self.fuzz_inputs)
            .filter(|_| elapsed_seconds > 0.0)
            .map(|inputs| inputs as f64 / elapsed_seconds);
        FreshStats { elapsed_seconds, inputs_per_sec, cases: *lock(&self.campaign_cases) }
    }

    fn send(&self, metric: &str, value: f64) {
        let _ = self.events.send(PoolEvent::Progress {
            key: self.key,
            epoch: self.epoch,
            metric: metric.to_owned(),
            value,
        });
    }
}

impl Recorder for JobRecorder {
    fn counter(&self, name: &'static str, delta: u64) {
        let kept = match name {
            "fuzz.inputs" => &self.fuzz_inputs,
            "campaign.cases" => &self.campaign_cases,
            _ => return,
        };
        *lock(kept).get_or_insert(0) += delta;
    }

    fn gauge(&self, name: &'static str, value: f64) {
        if !name.ends_with("inputs_per_sec") {
            return;
        }
        let mut last = lock(&self.last_gauge);
        let now = Instant::now();
        if last.is_some_and(|t| now.duration_since(t) < GAUGE_INTERVAL) {
            return;
        }
        *last = Some(now);
        drop(last);
        self.send(name, value);
    }

    fn event(&self, name: &'static str, _fields: &[(&'static str, FieldValue)]) {
        if name == "case.verdict" {
            self.send(name, 1.0);
        }
    }
}

/// One job queued for the pool, with the shared channel its events go
/// back on.
#[derive(Debug)]
pub struct QueuedJob {
    /// The job to run.
    pub spec: JobSpec,
    /// Its cache key (computed by the enqueuer, reused for the insert).
    pub key: u64,
    /// Single-flight epoch tagging this instance's events.
    pub epoch: u64,
    /// Cooperative cancellation flag, shared with the event loop.
    pub token: CancelToken,
    /// Where progress and completion are delivered.
    pub events: Sender<PoolEvent>,
}

/// A fixed pool of worker threads draining a shared job queue.
///
/// Dropping the pool is a drain-and-join: the queue sender closes, each
/// worker finishes its in-flight job and exits.
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns worker threads sharing `queue` and `cache`.
    /// The requested count is clamped to `available_parallelism` (and
    /// to at least one): extra workers on an oversubscribed host only
    /// add context-switch overhead, and job *results* never depend on
    /// the worker count — only on the specs.
    pub fn spawn(workers: usize, queue: Receiver<QueuedJob>, cache: &Arc<ResultCache>) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = workers.clamp(1, cores.max(1));
        let queue = Arc::new(Mutex::new(queue));
        let handles = (0..workers)
            .map(|_| {
                let queue = queue.clone();
                let cache = cache.clone();
                std::thread::spawn(move || worker_loop(&queue, &cache))
            })
            .collect();
        WorkerPool { handles }
    }

    /// Joins every worker. Call after dropping all queue senders.
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(queue: &Mutex<Receiver<QueuedJob>>, cache: &ResultCache) {
    loop {
        let job = match lock(queue).recv() {
            Ok(job) => job,
            Err(_) => return, // all senders gone: shutdown
        };
        // A job cancelled while it sat in the queue is never executed.
        if job.token.is_cancelled() {
            let _ = job.events.send(PoolEvent::Aborted { key: job.key, epoch: job.epoch });
            continue;
        }
        // Recheck the cache at dequeue time: a concurrent identical job
        // may have landed while this one sat in the queue.
        if let Some((frame, tier)) = cache.get(job.key) {
            let _ = job.events.send(PoolEvent::Done {
                key: job.key,
                epoch: job.epoch,
                frame,
                tier: Some(tier),
                stats: None,
            });
            continue;
        }
        // The job recorder feeds the done frame's stats summary and
        // streams live progress.
        let recorder = Arc::new(JobRecorder::new(&job));
        let obs = Obs::recording(recorder.clone());
        let started = Instant::now();
        let payload = execute(job.spec, &obs).to_bytes();
        let elapsed_seconds = started.elapsed().as_secs_f64();
        // Every waiter detached mid-run: discard the result without
        // touching the cache. Best-effort — a cancel landing between
        // this check and the insert still caches the (deterministic,
        // so harmless) payload; see the module docs.
        if job.token.is_cancelled() {
            let _ = job.events.send(PoolEvent::Aborted { key: job.key, epoch: job.epoch });
            continue;
        }
        let frame = cache.insert(job.key, &payload);
        let _ = job.events.send(PoolEvent::Done {
            key: job.key,
            epoch: job.epoch,
            frame,
            tier: None,
            stats: Some(recorder.stats(elapsed_seconds)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{ControlsPreset, KeylessScenario, SuiteName};
    use std::sync::mpsc;

    fn small_fuzz_spec() -> JobSpec {
        JobSpec::Fuzz(FuzzJob {
            scenario: ScenarioSpec::Keyless(KeylessScenario {
                controls: ControlsPreset::None,
                horizon_ms: 300,
                attack_at_ms: 100,
            }),
            iterations: 24,
            seed: 21,
            shards: 2,
        })
    }

    #[test]
    fn execute_is_deterministic() {
        let first = execute(small_fuzz_spec(), &Obs::noop()).to_bytes();
        let second = execute(small_fuzz_spec(), &Obs::noop()).to_bytes();
        assert_eq!(first, second);
    }

    #[test]
    fn campaign_job_runs_suite_with_seed_override() {
        let spec = JobSpec::Campaign(CampaignJob { suite: SuiteName::Jamming, seed: 5 });
        let payload = execute(spec, &Obs::noop());
        let JobPayload::Campaign(ref report) = payload else { panic!("campaign payload") };
        assert_eq!(report.total(), SuiteName::Jamming.cases().len());
        let again = execute(spec, &Obs::noop());
        assert_eq!(payload.to_bytes(), again.to_bytes());
    }

    #[test]
    fn lint_job_is_deterministic_and_error_free_on_builtins() {
        use crate::job::{CatalogName, LintJob};
        let spec = JobSpec::Lint(LintJob {
            catalog: CatalogName::UseCase2,
            suite: Some(SuiteName::Ad08),
            artifacts: 0,
        });
        let payload = execute(spec, &Obs::noop());
        let JobPayload::Lint(ref outcome) = payload else { panic!("lint payload") };
        assert_eq!(outcome.errors, 0, "built-in catalogs analyze clean: {:?}", outcome.diagnostics);
        assert_eq!(outcome.fingerprint.len(), 16);
        let again = execute(spec, &Obs::noop());
        assert_eq!(payload.to_bytes(), again.to_bytes());
    }

    fn queue_job(
        job_tx: &mpsc::Sender<QueuedJob>,
        spec: JobSpec,
        epoch: u64,
        token: CancelToken,
    ) -> mpsc::Receiver<PoolEvent> {
        let (tx, rx) = mpsc::channel();
        let key = spec.cache_key();
        job_tx.send(QueuedJob { spec, key, epoch, token, events: tx }).unwrap();
        rx
    }

    fn wait_done(rx: &mpsc::Receiver<PoolEvent>) -> (FramedPayload, Option<CacheTier>, bool) {
        loop {
            match rx.recv().unwrap() {
                PoolEvent::Progress { .. } => continue,
                PoolEvent::Done { frame, tier, stats, .. } => {
                    return (frame, tier, stats.is_some())
                }
                PoolEvent::Aborted { .. } => panic!("job was not cancelled"),
            }
        }
    }

    #[test]
    fn pool_computes_then_serves_from_cache() {
        let cache = Arc::new(ResultCache::new(8, None));
        let (job_tx, job_rx) = mpsc::channel();
        let pool = WorkerPool::spawn(2, job_rx, &cache);

        let rx = queue_job(&job_tx, small_fuzz_spec(), 0, CancelToken::new());
        let (fresh, tier, has_stats) = wait_done(&rx);
        assert_eq!(tier, None, "first run computes");
        assert!(has_stats);

        // Identical job again: answered by the dequeue-time recheck,
        // sharing the cached allocation.
        let rx = queue_job(&job_tx, small_fuzz_spec(), 1, CancelToken::new());
        let (cached, tier, has_stats) = wait_done(&rx);
        assert_eq!(tier, Some(CacheTier::Memory));
        assert!(!has_stats, "cache hits carry no stats");
        assert_eq!(cached, fresh, "cached bytes are identical");
        assert!(Arc::ptr_eq(
            &cached.share(),
            &cache.get(small_fuzz_spec().cache_key()).unwrap().0.share()
        ));
        drop(job_tx);
        pool.join();
    }

    #[test]
    fn cancelled_queued_jobs_abort_without_touching_the_cache() {
        let cache = Arc::new(ResultCache::new(8, None));
        let (job_tx, job_rx) = mpsc::channel();
        // No workers yet: cancel strictly before dequeue.
        let token = CancelToken::new();
        let rx = queue_job(&job_tx, small_fuzz_spec(), 3, token.clone());
        token.cancel();
        let pool = WorkerPool::spawn(1, job_rx, &cache);
        match rx.recv().unwrap() {
            PoolEvent::Aborted { epoch, .. } => assert_eq!(epoch, 3),
            other => panic!("expected abort, got {other:?}"),
        }
        assert!(cache.get(small_fuzz_spec().cache_key()).is_none(), "cache stays empty");
        drop(job_tx);
        pool.join();
    }
}

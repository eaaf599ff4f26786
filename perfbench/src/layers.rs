//! The traced run's in-process half: the workload's requests replayed
//! through each layer's public functions, and micro rows that time one
//! layer call at a time on the workload's own seeded inputs.
//!
//! Every span is recorded here, around calls into the program; nothing
//! inside the program is instrumented. Where a request step has no
//! public entry of its own, the nearest public call that contains it is
//! timed instead:
//!
//! * the worker's private per-kind runners (`run_fuzz_job`, …) are
//!   timed through `worker::run_job`;
//! * the event loop's request handling is private, so a request is
//!   replayed as the public calls it makes: parse the line, look the
//!   spelling up in a `KeyMemo`, canonicalize and hash
//!   (`JobSpec::cache_key`), `ResultCache::get`, and on a miss
//!   `run_job`, `JobPayload::to_bytes` and `ResultCache::insert`, then
//!   frame the response (`protocol::done_head` plus the cached tail);
//! * a fuzz job's inner loop (generate, fork, inject and step, classify,
//!   record coverage) runs inside `Fuzzer::run_parallel_targets`, so
//!   its steps are micro rows: `Mutator::generate_into`,
//!   `WorldSnapshot::fork`, `SimOracle::respond`, `CoverageMap::record`,
//!   `BleLink`/`V2xChannel::poll_into` and `ControlStack::admit`.

use std::path::Path;
use std::time::{Duration, Instant};

use attack_engine::execute_batch;
use bytes::Bytes;
use saseval_core::catalog::{use_case_1, use_case_2};
use saseval_fuzz::fuzzer::{FuzzTarget, Fuzzer};
use saseval_fuzz::model::{keyless_command_model, v2x_warning_model};
use saseval_fuzz::scenario::ScenarioSearch;
use saseval_fuzz::{CoverageMap, GeneratedInput, Mutator, ProtocolModel};
use saseval_lint::{run_lint, LintConfig, LintContext, TraceGraph};
use saseval_obs::Obs;
use saseval_server::cache::ResultCache;
use saseval_server::job::{CatalogName, FuzzJob, JobSpec, ScenarioJob, ScenarioSpec, SuiteName};
use saseval_server::protocol::{done_head, map_field};
use saseval_server::worker::{run_job, SnapshotStore};
use saseval_server::KeyMemo;
use saseval_tara::tree::{AttackTree, TreeNode};
use saseval_tara::AttackPath;
use saseval_threat::builtin::automotive_library;
use saseval_types::{Ftti, SimTime};
use security_controls::controls::{
    ChallengeResponse, FreshnessWindow, IdAllowList, MacAuthenticator, ReplayDetector,
};
use security_controls::mac::MacKey;
use security_controls::{ControlStack, Envelope};
use serde_json::JsonValue;
use vehicle_net::ble::{BleConfig, BleLink};
use vehicle_net::v2x::{V2xChannel, V2xConfig, V2xMessage};
use vehicle_sim::construction::ConstructionWorld;
use vehicle_sim::keyless::{KeylessConfig, KeylessWorld};

use crate::frame;
use crate::spans::{SpanId, SpanRecorder};
use crate::workload::{Kind, MEMORY_TIER_ENTRIES};

/// Server-side state a replayed request touches, built as
/// `Server::start` builds it: a prewarmed snapshot store, a two-tier
/// cache with a disk tier, and an empty canonicalization memo.
#[derive(Debug)]
pub struct ReplayState {
    store: SnapshotStore,
    cache: ResultCache,
    memo: KeyMemo,
}

impl ReplayState {
    /// Fresh state with its disk tier in `dir`.
    pub fn new(dir: &Path) -> Self {
        let store = SnapshotStore::new();
        store.prewarm_defaults();
        let cache = ResultCache::new(MEMORY_TIER_ENTRIES, Some(dir.to_path_buf()));
        ReplayState { store, cache, memo: KeyMemo::default() }
    }

    /// Stores a payload as a completed job would.
    pub fn prefill(&self, key: u64, payload: &[u8]) {
        self.cache.insert(key, payload);
    }
}

/// What one replayed request produced.
#[derive(Debug)]
pub struct Replayed {
    /// The payload bytes of the response.
    pub payload: Vec<u8>,
    /// Payload size when the request executed, `None` on a cache hit.
    pub fresh_len: Option<usize>,
}

fn child(rec: &mut SpanRecorder, root: SpanId, request: u64, name: &'static str) -> SpanId {
    rec.start(name, Some(root), Some(request))
}

/// Replays one request, with a span around each layer call.
pub fn replay_request(
    state: &mut ReplayState,
    rec: &mut SpanRecorder,
    request: u64,
    job_line: &str,
) -> Replayed {
    // The request bytes stand in for what the event loop reads off the
    // socket; building them is the client's work, outside the request.
    let line = frame::request_line(request, job_line);
    let root = rec.start("request", None, Some(request));

    let span = child(rec, root, request, "protocol.parse");
    let text = std::str::from_utf8(&line).expect("request lines are UTF-8");
    let value: JsonValue = serde_json::from_str(text.trim_end()).expect("generated lines parse");
    let job_value = map_field(&value, "job").expect("request lines carry a job");
    let spec_text = serde_json::to_string(job_value).expect("parsed values serialize");
    rec.end(span);

    let span = child(rec, root, request, "flight.memo");
    let memoized = state.memo.lookup(&spec_text);
    rec.end(span);
    let (key, spec) = match memoized {
        Some(hit) => hit,
        None => {
            let span = child(rec, root, request, "job.cache_key");
            let spec: JobSpec = serde_json::from_str(&spec_text).expect("generated specs parse");
            let key = spec.cache_key();
            rec.end_with(span, 1, Kind::of(&spec).name());
            let span = child(rec, root, request, "flight.memo");
            state.memo.store(spec_text, key, spec);
            rec.end(span);
            (key, spec)
        }
    };

    let span = child(rec, root, request, "cache.get");
    let hit = state.cache.get(key);
    rec.end_with(span, 1, hit.as_ref().map_or("miss", |(_, tier)| tier.as_str()));
    let (framed, tier, fresh_len) = match hit {
        Some((framed, tier)) => (framed, tier.as_str(), None),
        None => {
            let span = child(rec, root, request, "worker.run_job");
            let payload = run_job(spec, &state.store, &Obs::noop());
            rec.end_with(span, 1, Kind::of(&spec).name());
            let span = child(rec, root, request, "worker.serialize");
            let bytes = payload.to_bytes();
            rec.end(span);
            let span = child(rec, root, request, "cache.insert");
            let framed = state.cache.insert(key, &bytes);
            rec.end(span);
            (framed, "miss", Some(bytes.len()))
        }
    };

    let span = child(rec, root, request, "protocol.frame");
    let mut response = done_head(&request.to_string(), key, tier, None);
    response.extend_from_slice(framed.tail());
    rec.end(span);
    rec.end(root);
    Replayed { payload: framed.payload().to_vec(), fresh_len }
}

/// Seeded inputs for the micro rows, drawn from the workload's own
/// sequence where it has jobs of a kind (see `main.rs`).
#[derive(Debug, Clone)]
pub struct Probes {
    /// Fuzz jobs.
    pub fuzz: Vec<FuzzJob>,
    /// Scenario-search jobs.
    pub scenario: Vec<ScenarioJob>,
    /// One job of every kind, for per-kind fallbacks.
    pub per_kind: Vec<JobSpec>,
    /// Seed override for the campaign suites.
    pub campaign_seed: u64,
}

/// The attack paths a fuzz job cycles through: the same single-leaf
/// trees the worker builds for each demonstrator.
pub fn attack_paths(scenario: ScenarioSpec) -> Vec<AttackPath> {
    let tree = match scenario {
        ScenarioSpec::Keyless(_) => AttackTree::new(
            "Open the vehicle",
            TreeNode::leaf_on("send forged open command", "BLE_PHONE"),
        ),
        ScenarioSpec::Construction(_) => {
            AttackTree::new("Disrupt warnings", TreeNode::leaf_on("spoof signage", "OBU_RSU"))
        }
    };
    tree.expect("built-in trees are well-formed").paths().expect("built-in trees have paths")
}

fn model(scenario: ScenarioSpec) -> ProtocolModel {
    match scenario {
        ScenarioSpec::Keyless(_) => keyless_command_model(),
        ScenarioSpec::Construction(_) => v2x_warning_model(),
    }
}

/// Times `reps` calls of `f` as one span.
fn micro<T>(
    rec: &mut SpanRecorder,
    name: &'static str,
    tag: &'static str,
    reps: u64,
    mut f: impl FnMut() -> T,
) {
    let span = rec.start(name, None, None);
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    rec.end_with(span, reps, tag);
}

/// Runs every micro row. Returns the fuzz findings and inputs executed
/// by the probe fuzz runs.
pub fn micro_rows(rec: &mut SpanRecorder, probes: &Probes, cache_dir: &Path) -> (usize, usize) {
    let store = SnapshotStore::new();
    store.prewarm_defaults();
    let (mut findings, mut inputs) = (0, 0);
    for job in &probes.fuzz {
        let (f, n) = fuzz_rows(rec, &store, job);
        findings += f;
        inputs += n;
    }
    for job in &probes.scenario {
        let search = ScenarioSearch::new(job.space, job.seed);
        let search = match job.eval_iterations {
            0 => search,
            n => search.with_eval_iterations(n),
        };
        let span = rec.start("scenario.run_parallel", None, None);
        let report = search.run_parallel(job.budget, job.shards.max(1));
        rec.end_with(span, report.evaluated as u64, "");
    }
    suite_rows(rec, probes.campaign_seed);
    lint_rows(rec);
    per_kind_rows(rec, &store, &probes.per_kind, cache_dir);
    (findings, inputs)
}

fn fuzz_rows(rec: &mut SpanRecorder, store: &SnapshotStore, job: &FuzzJob) -> (usize, usize) {
    let scenario = job.scenario;
    // First call may simulate a non-default prefix; the timed calls hit
    // the resident one.
    let oracle = store.oracle(scenario);
    micro(rec, "worker.oracle", "", 100, || store.oracle(scenario));

    let span = rec.start("fuzz.run_parallel_targets", None, None);
    let fuzzer = Fuzzer::new(model(scenario), job.seed).with_batch_size(16);
    let report = fuzzer.run_parallel_targets(
        &attack_paths(scenario),
        job.iterations,
        job.shards.max(1),
        |_| oracle.clone(),
    );
    rec.end_with(span, job.iterations as u64, "");

    let mut mutator = Mutator::new(model(scenario), job.seed);
    let inputs: Vec<GeneratedInput> = (0..4096).map(|_| mutator.generate()).collect();
    let mut scratch = GeneratedInput::empty();
    let mut mutator = Mutator::new(model(scenario), job.seed);
    micro(rec, "fuzz.generate_into", "", 20_000, || mutator.generate_into(&mut scratch));
    let paths = attack_paths(scenario).len();
    let mut coverage = CoverageMap::new(&model(scenario), paths);
    let span = rec.start("fuzz.coverage_record", None, None);
    for (i, input) in inputs.iter().enumerate() {
        coverage.record(i % paths, input);
    }
    rec.end_with(span, inputs.len() as u64, "");

    let mut responder = oracle.clone();
    let span = rec.start("sim.respond", None, None);
    for input in &inputs[..64] {
        std::hint::black_box(responder.respond(&input.bytes));
    }
    rec.end_with(span, 64, "");

    match scenario.normalized() {
        ScenarioSpec::Keyless(_) => {
            let config = scenario.keyless_config().expect("keyless scenario");
            let span = rec.start("sim.warm_snapshot", None, None);
            let snapshot = KeylessWorld::warm_snapshot(config.clone(), scenario.attack_at());
            rec.end_with(span, 1, "keyless");
            let mut forks = Vec::with_capacity(100);
            micro(rec, "sim.fork", "keyless", 100, || forks.push(snapshot.fork()));
            drop(forks);
            admit_rows(rec, &config, &inputs);
        }
        ScenarioSpec::Construction(_) => {
            let config = scenario.construction_config().expect("construction scenario");
            let span = rec.start("sim.warm_snapshot", None, None);
            let snapshot = ConstructionWorld::warm_snapshot(config, scenario.attack_at());
            rec.end_with(span, 1, "construction");
            let mut forks = Vec::with_capacity(100);
            micro(rec, "sim.fork", "construction", 100, || forks.push(snapshot.fork()));
            drop(forks);
        }
    }
    poll_rows(rec, job.seed, &inputs);
    (report.crashes.len(), job.iterations)
}

/// `ControlStack::admit` over the keyless gateway's stack (built as
/// `KeylessWorld::new` builds it for the job's control preset), one
/// fresh stack clone per input, as every fork starts from the prefix's.
fn admit_rows(rec: &mut SpanRecorder, config: &KeylessConfig, inputs: &[GeneratedInput]) {
    let command_key = MacKey::new(config.seed ^ 0x4B45_594C);
    let config_key = MacKey::new(config.seed ^ 0x434F_4E46);
    let mut stack = ControlStack::new("GW");
    let c = config.controls;
    if c.allow_list {
        stack.push(IdAllowList::new([config.owner_key_id], config_key));
    }
    if c.authentication {
        stack.push(MacAuthenticator::new(command_key));
    }
    if c.freshness {
        stack.push(FreshnessWindow::new(Ftti::from_millis(500)));
    }
    if c.replay_protection {
        stack.push(ReplayDetector::new(4_096));
    }
    if c.challenge_response {
        stack.push(ChallengeResponse::new(command_key));
    }
    let now = SimTime::from_millis(150);
    let envelopes: Vec<Envelope> = inputs
        .iter()
        .take(1024)
        .map(|input| Envelope::new(saseval_fuzz::FUZZ_SENDER, now, input.bytes.clone()))
        .collect();
    let mut stacks = vec![stack; envelopes.len()];
    let span = rec.start("controls.admit", None, None);
    for (stack, envelope) in stacks.iter_mut().zip(&envelopes) {
        std::hint::black_box(stack.admit(envelope, now));
    }
    rec.end_with(span, envelopes.len() as u64, "");
}

/// `poll_into` on a BLE link and a V2X channel carrying the inputs as
/// frames, one poll per millisecond of virtual time.
fn poll_rows(rec: &mut SpanRecorder, seed: u64, inputs: &[GeneratedInput]) {
    let polls = 1024u64;
    let mut link = BleLink::new(BleConfig::default(), seed);
    link.start_advertising(SimTime::ZERO);
    link.connect("PHONE", SimTime::ZERO).expect("an advertising link accepts a connection");
    let mut channel = V2xChannel::new(V2xConfig::default(), seed);
    for (i, input) in inputs.iter().take(polls as usize).enumerate() {
        let at = SimTime::from_millis(i as u64);
        let payload = Bytes::copy_from_slice(&input.bytes);
        link.send(saseval_fuzz::FUZZ_SENDER, payload.clone(), at).expect("the link is connected");
        channel.broadcast(V2xMessage::new(saseval_fuzz::FUZZ_SENDER, 1, payload, at), at);
    }
    let mut frames = Vec::new();
    let span = rec.start("net.poll_into", None, None);
    for i in 0..polls {
        link.poll_into(SimTime::from_millis(i + 1), &mut frames);
        frames.clear();
    }
    rec.end_with(span, polls, "ble");
    let mut messages = Vec::new();
    let span = rec.start("net.poll_into", None, None);
    for i in 0..polls {
        channel.poll_into(SimTime::from_millis(i + 1), &mut messages);
        messages.clear();
    }
    rec.end_with(span, polls, "v2x");
}

/// Every built-in suite through `attack_engine::execute_batch`, with the
/// probe seed override applied to each case.
fn suite_rows(rec: &mut SpanRecorder, seed: u64) {
    for (suite, tag) in SUITES {
        let mut cases = suite.cases();
        for case in &mut cases {
            case.seed = seed;
        }
        let span = rec.start("attack.execute_batch", None, None);
        std::hint::black_box(execute_batch(&cases));
        rec.end_with(span, cases.len() as u64, tag);
    }
}

/// The built-in suites with their metric suffixes.
pub const SUITES: [(SuiteName, &str); 8] = [
    (SuiteName::Full, "Full"),
    (SuiteName::Ad20, "Ad20"),
    (SuiteName::Ad08, "Ad08"),
    (SuiteName::Replay, "Replay"),
    (SuiteName::CanFlood, "CanFlood"),
    (SuiteName::Delay, "Delay"),
    (SuiteName::Jamming, "Jamming"),
    (SuiteName::Ablation, "Ablation"),
];

fn lint_rows(rec: &mut SpanRecorder) {
    for _ in 0..5 {
        let span = rec.start("catalog.build", None, None);
        std::hint::black_box((automotive_library(), use_case_1(), use_case_2()));
        rec.end(span);
    }
    let library = automotive_library();
    for catalog in [CatalogName::UseCase1, CatalogName::UseCase2] {
        let catalog = catalog.catalog();
        let ctx = LintContext::for_catalog(&library, &catalog);
        micro(rec, "lint.graph_build", "", 5, || TraceGraph::build(&ctx));
        micro(rec, "lint.run", "", 5, || run_lint(&ctx, &LintConfig::new(), &Obs::noop()));
    }
}

/// Per-kind rows the request replay may lack: `run_job`, serialization,
/// key computation and the cache tiers, on one probe of every kind. The
/// cache rows use a cache of the default shape filled past its memory
/// tier with the probes' payloads, so both tiers answer.
fn per_kind_rows(rec: &mut SpanRecorder, store: &SnapshotStore, specs: &[JobSpec], dir: &Path) {
    let mut payloads = Vec::new();
    for &spec in specs {
        let tag = Kind::of(&spec).name();
        let span = rec.start("worker.run_job", None, None);
        let payload = run_job(spec, store, &Obs::noop());
        rec.end_with(span, 1, tag);
        let span = rec.start("worker.serialize", None, None);
        let bytes = payload.to_bytes();
        rec.end(span);
        micro(rec, "job.cache_key", tag, 5, || spec.cache_key());
        payloads.push(bytes);
    }
    let cache = ResultCache::new(MEMORY_TIER_ENTRIES, Some(dir.to_path_buf()));
    let entries = 2 * MEMORY_TIER_ENTRIES as u64;
    for key in 0..entries {
        let span = rec.start("cache.insert", None, None);
        cache.insert(key, &payloads[key as usize % payloads.len()]);
        rec.end(span);
    }
    // Newest half first (memory), then the oldest entries (disk).
    for key in (entries - 64..entries).chain(0..64) {
        let span = rec.start("cache.get", None, None);
        let hit = cache.get(key);
        rec.end_with(span, 1, hit.map_or("miss", |(_, tier)| tier.as_str()));
    }
}

/// Elapsed time of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

//! Campaign-server benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fuzz-fresh|campaign-mix|replay-hits> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` starts an in-process server, drives it over TCP and
//! prints the end-to-end metrics; `--trace 1` prints the per-layer
//! metrics instead. Either way every response is checked, and the last
//! stdout line is one JSON object. The exit code is non-zero on any
//! payload, disposition or counter mismatch. See `README.md`.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use saseval_perfbench::layers::{self, Probes, ReplayState, SUITES};
use saseval_perfbench::load::{self, Counters, Expect, Phase};
use saseval_perfbench::spans::{self, Span, SpanRecorder};
use saseval_perfbench::stats::{self, median, percentile};
use saseval_perfbench::workload::{
    self, campaign_mix_job, fuzz_fresh_job, replay_request, Job, Kind, SplitMix, Workload,
    MEMORY_TIER_ENTRIES, ZIPF_EXPONENT,
};
use saseval_server::job::JobSpec;

/// Server start-ups per run for the fresh workloads, and start-ups with
/// working-set fills for replay-hits; `setup_s` is their median.
const SETUP_REPEATS_FRESH: usize = 51;
const SETUP_REPEATS_REPLAY: usize = 5;
const SETUP_SPACING: Duration = Duration::from_millis(10);

/// Fresh workloads keep one payload in this many, chosen by seed, among
/// the first [`SAMPLE_SPAN`] requests, and check it byte for byte
/// against an in-process reference after the measured phase. Bounding
/// the span keeps the kept bytes, which count towards `peak_rss_mb`,
/// the same however many requests a run completes.
const SAMPLE_EVERY: u64 = 8;
const SAMPLE_SPAN: usize = 1_280;

/// Completed requests a closed-loop phase needs so that at least
/// [`stats::MIN_BEYOND`] samples lie beyond the 99th percentile; the
/// phase runs past `--seconds` (up to twice as long) until it has them.
const MIN_SAMPLES: usize = 1_010;

/// Open-loop arrival rate of replay-hits, in requests per second over
/// both connections: about half of the highest rate seed 1 sustains on
/// a 2-core x86-64 host without a growing backlog (the median stays
/// near 0.03 ms up to 24k/s and reaches 0.08 ms at 44k/s; at 56k/s the
/// backlog grows without bound; see README.md).
const REPLAY_RATE: f64 = 20_000.0;

/// Share of `--seconds` the traced run spends driving the server over
/// TCP (for the counter deltas); the in-process replay gets the rest.
const TRACE_TCP_SHARE: f64 = 0.4;

/// Cap on in-process replayed requests, which bounds the span file of a
/// cache-hit workload (about a kilobyte of span lines per request).
const MAX_REPLAYED: usize = 4_096;

/// Workers the default server configuration runs.
const SERVER_WORKERS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fuzz-fresh|campaign-mix|replay-hits> --seed <n> \
                 [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let outcome = run(&args, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    // Only succeeds once no other run is using the directory.
    let _ = std::fs::remove_dir(".bench_tmp");
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the workload sends, fixed by the seed before anything is timed.
enum Plan {
    /// Never-seen jobs, generated per request index.
    Fresh,
    /// Zipf-skewed repeats over a working set, with every entry's
    /// reference payload and cache key.
    Replay { set: Vec<Job>, refs: Vec<Vec<u8>>, keys: Vec<u64>, cdf: Vec<f64> },
}

impl Plan {
    fn new(workload: Workload, seed: u64) -> Plan {
        match workload {
            Workload::ReplayHits => {
                let set = workload::replay_working_set(seed);
                let specs: Vec<JobSpec> = set.iter().map(|j| j.spec).collect();
                let refs = load::references(&specs);
                let keys = specs.iter().map(|s| s.cache_key()).collect();
                let cdf = workload::zipf_cdf(set.len(), ZIPF_EXPONENT);
                Plan::Replay { set, refs, keys, cdf }
            }
            _ => Plan::Fresh,
        }
    }
}

/// Job `index` of a fresh workload.
fn fresh_job(workload: Workload, seed: u64, index: usize) -> Job {
    match workload {
        Workload::CampaignMix => campaign_mix_job(seed, index),
        _ => fuzz_fresh_job(seed, index),
    }
}

/// Starts the server `repeats` times (for replay-hits, each time until
/// it holds the working set), checks it answers a ping, and keeps the
/// last one running. Returns it with every set-up time in seconds.
fn setup(
    plan: &Plan,
    tmp: &Path,
    repeats: usize,
) -> io::Result<(saseval_server::Server, Vec<f64>)> {
    let mut times = Vec::with_capacity(repeats);
    for rep in 0..repeats {
        let dir = load::fresh_dir(tmp, &format!("server-{rep}"))?;
        let started = Instant::now();
        let server = load::start_server(&dir)?;
        if let Plan::Replay { set, refs, .. } = plan {
            load::fill(&server.addr(), set, refs)?;
        }
        times.push(started.elapsed().as_secs_f64());
        load::ping(&server.addr())?;
        if rep + 1 == repeats {
            return Ok((server, times));
        }
        load::stop_server(server);
        // Spread the start-ups over time, so a short burst of host
        // contention lands on a few of them rather than all.
        std::thread::sleep(SETUP_SPACING);
    }
    Err(io::Error::other("set-up needs at least one repeat"))
}

/// One measured phase against a running server, with the counter deltas
/// taken around it.
fn drive(
    args: &Args,
    plan: &Plan,
    addr: &SocketAddr,
    seconds: f64,
    min_samples: usize,
) -> io::Result<(Phase, Counters)> {
    let before = load::stats(addr)?;
    let seed = args.seed;
    let phase = match plan {
        Plan::Fresh => {
            let workload = args.workload;
            let job = move |i| fresh_job(workload, seed, i);
            let keep = move |i: usize| {
                i < SAMPLE_SPAN && SplitMix::at(seed, 0x5A, i as u64).below(SAMPLE_EVERY) == 0
            };
            load::closed_loop(addr, seconds, min_samples, &job, Expect::Miss, &keep)
        }
        Plan::Replay { set, refs, cdf, .. } => {
            let request = |i| replay_request(seed, i, set, cdf);
            load::open_loop(addr, seconds, REPLAY_RATE, &request, refs)
        }
    };
    let after = load::stats(addr)?;
    Ok((phase, load::delta(&before, &after)))
}

/// Post-phase checks: kept payloads against references, and the
/// counter invariants. Returns the failure descriptions and the number
/// of requests that failed in all (in the phase or in this check).
fn verify(args: &Args, phase: &Phase, counts: &Counters) -> (Vec<String>, usize) {
    let mut problems = phase.failures.clone();
    let workload = args.workload;
    let seed = args.seed;
    let job = move |i| fresh_job(workload, seed, i);
    let mismatched = load::check_kept(&phase.kept, &job);
    for index in &mismatched {
        problems.push(format!("request {index}: payload differs from the reference"));
    }
    let executed = counts["executed"];
    let jobs = counts["jobs"];
    if jobs != phase.attempted as u64 {
        problems.push(format!("server saw {jobs} jobs, {} were sent", phase.attempted));
    }
    if workload.is_fresh() && executed != jobs {
        problems.push(format!("fresh workload: executed {executed} != jobs {jobs}"));
    }
    if !workload.is_fresh() && executed != 0 {
        problems.push(format!("replay workload: executed {executed} jobs in the measured phase"));
    }
    (problems, phase.failed + mismatched.len())
}

fn print_counts(counts: &Counters) {
    let line: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("stats deltas (exact): {}", line.join(" "));
}

fn run(args: &Args, tmp: &Path) -> io::Result<bool> {
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (available_parallelism {}, {} clients)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        load::clients(),
    );
    let plan = Plan::new(args.workload, args.seed);
    if args.trace {
        return run_traced(args, &plan, tmp);
    }
    let repeats = if args.workload.is_fresh() { SETUP_REPEATS_FRESH } else { SETUP_REPEATS_REPLAY };
    let (server, setup_times) = setup(&plan, tmp, repeats)?;
    let addr = server.addr();
    let cpu_before = load::host_cpu_ticks();
    let measured = drive(args, &plan, &addr, args.seconds, MIN_SAMPLES);
    let peak_rss_mb = load::peak_rss_mb();
    let steal = load::steal_share(cpu_before, load::host_cpu_ticks());
    load::stop_server(server);
    let (phase, counts) = measured?;
    let (problems, failed) = verify(args, &phase, &counts);

    let latencies = stats::sorted(&phase.latencies_ms);
    let n = latencies.len();
    if !stats::supports(n, 99.0) {
        println!("error: {n} latency samples leave fewer than {} beyond p99", stats::MIN_BEYOND);
        return Ok(false);
    }
    let metrics = vec![
        ("setup_s", median(&setup_times).unwrap_or(0.0), "s", setup_times.len()),
        ("jobs_per_s", stats::windowed_rate(&phase.completed_s), "1/s", n),
        (
            "latency_p50_ms",
            stats::windowed_percentile(&phase.latencies_ms, &phase.completed_s, 50.0),
            "ms",
            n,
        ),
        (
            "latency_p99_ms",
            stats::windowed_percentile(&phase.latencies_ms, &phase.completed_s, 99.0),
            "ms",
            n,
        ),
        (
            "success_share",
            1.0 - phase.failed as f64 / phase.attempted.max(1) as f64,
            "share",
            phase.attempted,
        ),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
    ];
    for (name, value, unit, samples) in &metrics {
        println!("{name:>16} = {value:>12.4} {unit:<6} (n={samples})");
    }
    println!(
        "failed_share = {}/{} = {:.6}; whole-run jobs/s {:.4}, p50 {:.4} ms, p99 {:.4} ms; tiers {:?}",
        phase.failed,
        phase.attempted,
        phase.failed as f64 / phase.attempted.max(1) as f64,
        n as f64 / phase.wall_s,
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
        phase.tiers,
    );
    if args.workload.is_fresh() {
        println!(
            "payload check: {} of {} responses compared byte for byte (seeded 1-in-{SAMPLE_EVERY} sample of the first {SAMPLE_SPAN})",
            phase.kept.len(),
            phase.attempted
        );
    } else {
        println!("payload check: every response compared byte for byte");
    }
    let setup_sorted = stats::sorted(&setup_times);
    println!(
        "setup_s over {} start-ups: min {:.6} median {:.6} max {:.6}",
        setup_sorted.len(),
        setup_sorted[0],
        percentile(&setup_sorted, 50.0),
        setup_sorted[setup_sorted.len() - 1]
    );
    if let Some(steal) = steal {
        println!("host steal time during the phase: {:.1} % of CPU time", steal * 100.0);
    }
    print_counts(&counts);
    for problem in &problems {
        println!("MISMATCH: {problem}");
    }
    let correct = problems.is_empty();
    print_result(
        correct,
        phase.attempted,
        failed,
        metrics.iter().map(|(n, v, u, _)| (n.to_string(), *v, *u)),
    );
    Ok(correct)
}

fn print_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: impl Iterator<Item = (String, f64, &'static str)>,
) {
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
}

/// Per-call samples of the spans named `name` whose tag passes `tag`,
/// in the unit `scale` nanoseconds: request spans when the replay
/// produced any, micro rows otherwise.
fn layer_samples(spans: &[Span], name: &str, tag: impl Fn(&str) -> bool, scale: f64) -> Vec<f64> {
    let matching = |request: bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && tag(s.tag) && s.request.is_some() == request)
            .map(|s| s.per_item_ns() / scale)
            .collect()
    };
    let from_requests = matching(true);
    if from_requests.is_empty() {
        matching(false)
    } else {
        from_requests
    }
}

/// Accepts every tag.
fn any(_: &str) -> bool {
    true
}

/// Items per second over every span named `name`.
fn rate(spans: &[Span], name: &str) -> f64 {
    let (items, ns) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(i, n), s| (i + s.items, n + s.duration_ns()));
    items as f64 / (ns.max(1) as f64 / 1e9)
}

/// The probes for the micro rows: the first jobs of each kind in the
/// workload's own sequence, falling back to the other generators (same
/// seed) for kinds the workload lacks.
fn probes(args: &Args, plan: &Plan) -> Probes {
    let seed = args.seed;
    let own: Vec<Job> = match plan {
        Plan::Fresh => (0..200).map(|i| fresh_job(args.workload, seed, i)).collect(),
        Plan::Replay { set, .. } => set.clone(),
    };
    let fallback: Vec<Job> = (0..200)
        .map(|i| fuzz_fresh_job(seed, i))
        .chain((0..200).map(|i| campaign_mix_job(seed, i)))
        .collect();
    let first = |kind: Kind, count: usize| -> Vec<JobSpec> {
        let mine: Vec<JobSpec> =
            own.iter().filter(|j| j.kind() == kind).map(|j| j.spec).take(count).collect();
        if mine.is_empty() {
            fallback.iter().filter(|j| j.kind() == kind).map(|j| j.spec).take(count).collect()
        } else {
            mine
        }
    };
    let fuzz = first(Kind::Fuzz, 4)
        .into_iter()
        .filter_map(|s| if let JobSpec::Fuzz(j) = s { Some(j) } else { None })
        .collect();
    let scenario = first(Kind::Scenario, 2)
        .into_iter()
        .filter_map(|s| if let JobSpec::Scenario(j) = s { Some(j) } else { None })
        .collect();
    let per_kind = Kind::ALL.iter().flat_map(|&k| first(k, 1)).collect();
    let campaign_seed = first(Kind::Campaign, 1)
        .into_iter()
        .find_map(|s| if let JobSpec::Campaign(j) = s { Some(j.seed) } else { None })
        .unwrap_or(seed);
    Probes { fuzz, scenario, per_kind, campaign_seed }
}

/// The in-process replay: each request of the workload's sequence is
/// replayed twice, first against an untraced copy of the server state,
/// then against a traced copy, until `budget` has elapsed. Pairing the
/// two per request keeps drift in the host's speed out of the tracing
/// overhead. Returns the requests replayed and the untraced and traced
/// totals in seconds.
fn replay_pass(
    args: &Args,
    plan: &Plan,
    tmp: &Path,
    rec: &mut SpanRecorder,
    budget: Duration,
    payload_kb: &mut Vec<f64>,
) -> io::Result<(usize, f64, f64)> {
    let mut untraced_rec = SpanRecorder::new(false);
    let mut untraced = ReplayState::new(&load::fresh_dir(tmp, "replay-untraced")?);
    let mut traced = ReplayState::new(&load::fresh_dir(tmp, "replay-traced")?);
    if let Plan::Replay { keys, refs, .. } = plan {
        for (key, payload) in keys.iter().zip(refs) {
            untraced.prefill(*key, payload);
            traced.prefill(*key, payload);
        }
    }
    let started = Instant::now();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut done = 0;
    while done == 0 || (done < MAX_REPLAYED && started.elapsed() < budget) {
        let (line, reference) = match plan {
            Plan::Fresh => (fresh_job(args.workload, args.seed, done).line, None),
            Plan::Replay { set, refs, cdf, .. } => {
                let req = replay_request(args.seed, done, set, cdf);
                (req.line, Some(&refs[req.entry]))
            }
        };
        let (_, plain) = layers::timed(|| {
            layers::replay_request(&mut untraced, &mut untraced_rec, done as u64, &line)
        });
        let (replayed, with_spans) =
            layers::timed(|| layers::replay_request(&mut traced, rec, done as u64, &line));
        untraced_s += plain.as_secs_f64();
        traced_s += with_spans.as_secs_f64();
        if reference.is_some_and(|r| *r != replayed.payload) {
            return Err(io::Error::other(format!("replayed request {done}: payload differs")));
        }
        if let Some(len) = replayed.fresh_len {
            payload_kb.push(len as f64 / 1024.0);
        }
        done += 1;
    }
    Ok((done, untraced_s, traced_s))
}

fn run_traced(args: &Args, plan: &Plan, tmp: &Path) -> io::Result<bool> {
    // TCP phase: counter deltas, server overhead, busy share, lag.
    let (server, _) = setup(plan, tmp, 1)?;
    let addr = server.addr();
    let measured = drive(args, plan, &addr, args.seconds * TRACE_TCP_SHARE, 0);
    let rtt = load::stats_rtt_us(&addr, 200);
    load::stop_server(server);
    let (phase, counts) = measured?;
    let rtt = rtt?;
    let (problems, failed) = verify(args, &phase, &counts);

    // In-process replay, untraced and traced over the same requests.
    let budget = Duration::from_secs_f64(args.seconds * (1.0 - TRACE_TCP_SHARE));
    let mut rec = SpanRecorder::new(true);
    let mut sizes = Vec::new();
    let (count, untraced_s, traced_s) = replay_pass(args, plan, tmp, &mut rec, budget, &mut sizes)?;
    let (findings, fuzz_inputs) =
        layers::micro_rows(&mut rec, &probes(args, plan), &load::fresh_dir(tmp, "micro")?);
    let spans = rec.spans();
    let out_dir = Path::new(".bench_out");
    std::fs::create_dir_all(out_dir)?;
    rec.write_jsonl(&out_dir.join(format!("spans-{}-{}.jsonl", args.workload.name(), args.seed)))?;

    let self_ns = spans::self_times(spans);
    let (unaccounted, request_ns) = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "request")
        .fold((0u64, 0u64), |(u, t), (s, own)| (u + own, t + s.duration_ns()));

    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    let jobs = counts["jobs"].max(1) as f64;
    let resident_before =
        if matches!(plan, Plan::Replay { .. }) { MEMORY_TIER_ENTRIES as u64 } else { 0 };
    let memory_evicted = (resident_before + counts["executed"] + counts["cache_disk_hits"])
        .saturating_sub(MEMORY_TIER_ENTRIES as u64);
    let workers = SERVER_WORKERS.min(load::clients().max(1)) as f64;
    let mut metrics: Vec<(String, f64, &'static str)> = vec![
        ("server.overhead_ms".into(), med(phase.overheads_ms.clone()), "ms"),
        ("protocol.stats_rtt_us".into(), med(rtt), "us"),
        ("server.backpressure_stalls".into(), counts["backpressure_stalls"] as f64, "count"),
        ("flight.memo_hit_ratio".into(), counts["memo_hits"] as f64 / jobs, "ratio"),
        ("server.executed_per_job".into(), counts["executed"] as f64 / jobs, "ratio"),
        // Lint keys include the artifact-fingerprint walk and are
        // reported apart.
        (
            "job.cache_key_us".into(),
            med(layer_samples(spans, "job.cache_key", |t| t != "lint", 1e3)),
            "us",
        ),
        (
            "job.lint_normalize_ms".into(),
            med(layer_samples(spans, "job.cache_key", |t| t == "lint", 1e6)),
            "ms",
        ),
        ("cache.memory_hit_ratio".into(), counts["cache_memory_hits"] as f64 / jobs, "ratio"),
        ("cache.disk_hit_ratio".into(), counts["cache_disk_hits"] as f64 / jobs, "ratio"),
        ("cache.evicted".into(), (memory_evicted + counts["cache_evicted"]) as f64, "count"),
        (
            "cache.get_memory_us".into(),
            med(layer_samples(spans, "cache.get", |t| t == "memory", 1e3)),
            "us",
        ),
        (
            "cache.get_disk_us".into(),
            med(layer_samples(spans, "cache.get", |t| t == "disk", 1e3)),
            "us",
        ),
        ("cache.insert_us".into(), med(layer_samples(spans, "cache.insert", any, 1e3)), "us"),
    ];
    for kind in Kind::ALL {
        metrics.push((
            format!("worker.run_job_ms.{}", kind.name()),
            med(layer_samples(spans, "worker.run_job", |t| t == kind.name(), 1e6)),
            "ms",
        ));
    }
    let payload_kb = if sizes.is_empty() {
        // No request executed (replay-hits): the working set's payloads.
        match plan {
            Plan::Replay { refs, .. } => refs.iter().map(|r| r.len() as f64 / 1024.0).collect(),
            Plan::Fresh => Vec::new(),
        }
    } else {
        sizes
    };
    metrics.extend([
        ("worker.busy_share".into(), phase.busy_s / (workers * phase.wall_s), "share"),
        ("worker.oracle_us".into(), med(layer_samples(spans, "worker.oracle", any, 1e3)), "us"),
        (
            "worker.serialize_ms".into(),
            med(layer_samples(spans, "worker.serialize", any, 1e6)),
            "ms",
        ),
        ("worker.payload_kb".into(), med(payload_kb), "KB"),
        ("fuzz.inputs_per_s".into(), rate(spans, "fuzz.run_parallel_targets"), "1/s"),
        (
            "fuzz.generate_ns".into(),
            med(layer_samples(spans, "fuzz.generate_into", any, 1.0)),
            "ns",
        ),
        (
            "fuzz.coverage_record_ns".into(),
            med(layer_samples(spans, "fuzz.coverage_record", any, 1.0)),
            "ns",
        ),
        (
            "fuzz.findings_per_kinput".into(),
            findings as f64 * 1000.0 / fuzz_inputs.max(1) as f64,
            "1/kinput",
        ),
        ("scenario.evals_per_s".into(), rate(spans, "scenario.run_parallel"), "1/s"),
        ("sim.fork_us".into(), med(layer_samples(spans, "sim.fork", any, 1e3)), "us"),
        ("sim.respond_us".into(), med(layer_samples(spans, "sim.respond", any, 1e3)), "us"),
        (
            "sim.warm_snapshot_ms".into(),
            med(layer_samples(spans, "sim.warm_snapshot", any, 1e6)),
            "ms",
        ),
        ("net.poll_ns".into(), med(layer_samples(spans, "net.poll_into", any, 1.0)), "ns"),
        ("controls.admit_ns".into(), med(layer_samples(spans, "controls.admit", any, 1.0)), "ns"),
        ("attack.cases_per_s".into(), rate(spans, "attack.execute_batch"), "1/s"),
    ]);
    for (_, suite) in SUITES {
        metrics.push((
            format!("attack.batch_ms.{suite}"),
            med(spans
                .iter()
                .filter(|s| s.name == "attack.execute_batch" && s.tag == suite)
                .map(|s| s.duration_ns() as f64 / 1e6)
                .collect()),
            "ms",
        ));
    }
    metrics.extend([
        (
            "lint.graph_build_ms".into(),
            med(layer_samples(spans, "lint.graph_build", any, 1e6)),
            "ms",
        ),
        ("lint.run_ms".into(), med(layer_samples(spans, "lint.run", any, 1e6)), "ms"),
        ("catalog.build_ms".into(), med(layer_samples(spans, "catalog.build", any, 1e6)), "ms"),
        (
            "bench.lag_ms".into(),
            if phase.lag_ms.is_empty() {
                0.0
            } else {
                percentile(&stats::sorted(&phase.lag_ms), 99.0)
            },
            "ms",
        ),
        ("trace.overhead_share".into(), traced_s / untraced_s.max(1e-9) - 1.0, "share"),
        ("trace.unaccounted_share".into(), unaccounted as f64 / request_ns.max(1) as f64, "share"),
    ]);
    for (name, value) in &counts {
        metrics.push((format!("stats.{name}"), *value as f64, "count"));
    }

    for (name, value, unit) in &metrics {
        println!("{name:>28} = {value:>14.4} {unit}");
    }
    println!(
        "replayed {count} requests in-process: untraced {untraced_s:.3} s, traced {traced_s:.3} s; {} spans",
        spans.len()
    );
    print_counts(&counts);
    for problem in &problems {
        println!("MISMATCH: {problem}");
    }
    let correct = problems.is_empty();
    print_result(correct, phase.attempted, failed, metrics.into_iter());
    Ok(correct)
}

//! Campaign-server latency and throughput measurement backing the
//! `BENCH_server.json` export and EXPERIMENTS.md's "Campaign server"
//! section: cold vs warm vs cached request latency over the TCP
//! protocol, a concurrent-client sweep (1/4/16/64 connections, serial
//! round trips vs pipelined batches) over the cached fast path, and a
//! coalescing burst measuring executions-per-request under concurrent
//! identical fresh submissions.
//!
//! Terminology:
//!
//! * **cold** — first request on a fresh server: pays world
//!   construction, the warm-prefix freeze and the fuzz run.
//! * **warm** — same scenario, different seed, on the same server. A
//!   fuzz job builds its own prefix, so this row pays the same stages as
//!   the cold one; the two differ only by seed (and by whatever the
//!   first request on a server warms up in the process).
//! * **cached (memory)** — exact repeat: answered from the in-memory
//!   LRU without touching the worker pool.
//! * **cached (disk)** — exact repeat against a restarted server over
//!   the same cache directory: answered from the verified on-disk tier.
//! * **serial vs pipelined** — serial clients wait for each `done`
//!   before the next request; pipelined clients write their whole batch
//!   in one flush and then reassemble responses by id, which is where
//!   the multiplexed event loop's zero-copy cached path shows up.

use std::path::PathBuf;
use std::time::Instant;

use saseval_server::job::KeylessScenario;
use saseval_server::protocol::map_field;
use saseval_server::{
    Client, ControlsPreset, FuzzJob, JobSpec, ScenarioSpec, Server, ServerConfig,
};
use serde::{Deserialize, Serialize};
use serde_json::JsonValue;

/// One measured request latency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerLatencyRow {
    /// Which path the request took (`cold` / `warm` / `cached-memory` /
    /// `cached-disk`).
    pub label: String,
    /// The cache disposition the server reported (`miss` / `memory` /
    /// `disk`).
    pub cache: String,
    /// Round-trip wall-clock seconds, connect to `done`.
    pub seconds: f64,
    /// Latency improvement over the cold request (cold = 1.0).
    pub speedup_vs_cold: f64,
}

/// One concurrent-client throughput measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerThroughputRow {
    /// Concurrent client connections.
    pub clients: usize,
    /// Total jobs submitted across all clients.
    pub jobs: usize,
    /// Whether every job was a repeat of an already-cached spec
    /// (`true`) or a distinct fresh computation (`false`).
    pub repeat: bool,
    /// Whether each client pipelined its whole batch in one write
    /// (`true`) or waited for each `done` before the next request
    /// (`false`).
    pub pipelined: bool,
    /// Wall-clock seconds for the whole burst.
    pub seconds: f64,
    /// Aggregate jobs per second.
    pub jobs_per_sec: f64,
}

/// The single-flight measurement: N concurrent identical fresh
/// submissions, counted against the server's own `stats` frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoalescingBurst {
    /// Concurrent client connections, each submitting the same spec.
    pub clients: usize,
    /// Requests submitted (one per client).
    pub requests: u64,
    /// Fresh executions the burst actually caused (from the server's
    /// `executed` counter delta; 1 when single-flight holds).
    pub executions: u64,
    /// `executions / requests` — the ISSUE 9 burst target is ≤ 1/16 at
    /// 16 clients.
    pub executions_per_request: f64,
}

/// The JSON document written to `BENCH_server.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerBenchExport {
    /// Fuzz iterations in the latency-measurement job.
    pub job_iterations: usize,
    /// Hardware parallelism available to the pool.
    pub available_parallelism: usize,
    /// Latency rows: cold, warm, cached-memory, cached-disk.
    pub latency: Vec<ServerLatencyRow>,
    /// The headline number: cached-memory speedup over cold (the ISSUE 7
    /// acceptance floor is 100x).
    pub cached_speedup_vs_cold: f64,
    /// Throughput rows: the cached 1/4/16/64-client sweep, serial and
    /// pipelined, plus a fresh-jobs scheduling row.
    pub throughput: Vec<ServerThroughputRow>,
    /// The single-flight burst (16 concurrent identical fresh
    /// submissions).
    pub coalescing: CoalescingBurst,
}

impl ServerBenchExport {
    /// The cached-memory latency row's seconds, if present — the number
    /// the `repro_tables --server-floor` regression guard compares
    /// against.
    pub fn cached_memory_seconds(&self) -> Option<f64> {
        self.latency.iter().find(|row| row.label == "cached-memory").map(|row| row.seconds)
    }
}

// The hardened preset: deployed controls reject forged commands, so the
// report stays compact (an undefended world turns most inputs into
// safety-violation findings, and the payload — not the fuzz run —
// dominates every latency row).
fn bench_job(seed: u64, iterations: usize) -> JobSpec {
    JobSpec::Fuzz(FuzzJob {
        scenario: ScenarioSpec::Keyless(KeylessScenario {
            controls: ControlsPreset::All,
            horizon_ms: 300,
            attack_at_ms: 100,
        }),
        iterations,
        seed,
        shards: 0,
    })
}

fn job_json(spec: JobSpec) -> String {
    serde_json::to_string(&spec).expect("specs serialize")
}

fn timed_submit(addr: &std::net::SocketAddr, id: &str, spec: JobSpec) -> (f64, String) {
    let start = Instant::now();
    let mut client = Client::connect(addr).expect("connect");
    let outcome = client.submit(id, &job_json(spec)).expect("submit");
    (start.elapsed().as_secs_f64(), outcome.cache)
}

fn stat_u64(frame: &JsonValue, name: &str) -> u64 {
    match map_field(frame, name) {
        Some(JsonValue::U64(value)) => *value,
        _ => 0,
    }
}

fn throughput_burst(
    addr: std::net::SocketAddr,
    clients: usize,
    jobs_per_client: usize,
    specs: impl Fn(usize, usize) -> JobSpec + Sync,
    repeat: bool,
    pipelined: bool,
) -> ServerThroughputRow {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client_index in 0..clients {
            let specs = &specs;
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                if pipelined {
                    let batch: Vec<(String, String)> = (0..jobs_per_client)
                        .map(|job_index| {
                            (
                                format!("t{client_index}-{job_index}"),
                                job_json(specs(client_index, job_index)),
                            )
                        })
                        .collect();
                    let pairs: Vec<(&str, &str)> =
                        batch.iter().map(|(id, job)| (id.as_str(), job.as_str())).collect();
                    client.submit_many(&pairs).expect("pipelined submit");
                } else {
                    for job_index in 0..jobs_per_client {
                        client
                            .submit(
                                &format!("t{client_index}-{job_index}"),
                                &job_json(specs(client_index, job_index)),
                            )
                            .expect("submit");
                    }
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let jobs = clients * jobs_per_client;
    ServerThroughputRow {
        clients,
        jobs,
        repeat,
        pipelined,
        seconds,
        jobs_per_sec: if seconds > 0.0 { jobs as f64 / seconds } else { f64::INFINITY },
    }
}

/// Submits the same fresh spec from `clients` concurrent connections
/// and reads how many executions the burst cost off the server's
/// `executed` counter. Late arrivals are answered from the cache the
/// single execution populated, so the count stays 1 whichever way the
/// race falls.
fn coalescing_burst(addr: std::net::SocketAddr, clients: usize, spec: JobSpec) -> CoalescingBurst {
    let mut stats_client = Client::connect(&addr).expect("connect");
    let before = stats_client.stats().expect("stats");
    std::thread::scope(|scope| {
        for client_index in 0..clients {
            let job = job_json(spec);
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                client.submit(&format!("b{client_index}"), &job).expect("submit");
            });
        }
    });
    let after = stats_client.stats().expect("stats");
    let executions = stat_u64(&after, "executed") - stat_u64(&before, "executed");
    CoalescingBurst {
        clients,
        requests: clients as u64,
        executions,
        executions_per_request: executions as f64 / clients as f64,
    }
}

/// Measures the current cached-memory round-trip latency in seconds:
/// one fresh run populates the cache, then the fastest of `samples`
/// timed repeats is returned (the min filters scheduler noise). The
/// `repro_tables --server-floor` regression guard compares this
/// against the committed export's cached-memory row.
pub fn current_cached_memory_latency(job_iterations: usize, samples: usize) -> f64 {
    let server = Server::start(ServerConfig::default()).expect("bind");
    let addr = server.addr();
    let mut client = Client::connect(&addr).expect("connect");
    client.submit("seed", &job_json(bench_job(11, job_iterations))).expect("fresh run");
    let mut best = f64::INFINITY;
    for i in 0..samples.max(1) {
        let start = Instant::now();
        client.submit(&format!("r{i}"), &job_json(bench_job(11, job_iterations))).expect("repeat");
        best = best.min(start.elapsed().as_secs_f64());
    }
    server.shutdown();
    server.join();
    best
}

/// Measures the full latency + throughput grid against in-process
/// servers over a private temp cache directory. `job_iterations` sizes
/// the latency job (the committed export uses 65536); throughput bursts
/// use smaller fresh jobs so the bench stays bounded.
pub fn measure_server(job_iterations: usize) -> ServerBenchExport {
    let cache_dir: PathBuf =
        std::env::temp_dir().join(format!("saseval-server-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    // The first request pays world construction and the prefix freeze
    // on top of the fuzz run; so does every later fuzz job.
    let config = || ServerConfig { cache_dir: Some(cache_dir.clone()), ..Default::default() };
    let server = Server::start(config()).expect("bind");
    let addr = server.addr();

    let (cold_seconds, cold_cache) = timed_submit(&addr, "cold", bench_job(11, job_iterations));
    let (warm_seconds, warm_cache) = timed_submit(&addr, "warm", bench_job(12, job_iterations));
    let (memory_seconds, memory_cache) =
        timed_submit(&addr, "cached-memory", bench_job(11, job_iterations));

    // Restart over the same cache directory: the memory tier is gone,
    // the repeat must be answered from verified disk.
    server.shutdown();
    server.join();
    let server = Server::start(config()).expect("rebind");
    let addr = server.addr();
    let (disk_seconds, disk_cache) =
        timed_submit(&addr, "cached-disk", bench_job(11, job_iterations));

    // The concurrent-client sweep over the cached fast path: serial vs
    // pipelined at 1/4/16/64 connections, all repeats of the spec the
    // latency rows already cached.
    let repeat_spec = |_c: usize, _j: usize| bench_job(11, job_iterations);
    let mut throughput = Vec::new();
    for clients in [1usize, 4, 16, 64] {
        throughput.push(throughput_burst(addr, clients, 32, repeat_spec, true, false));
        throughput.push(throughput_burst(addr, clients, 32, repeat_spec, true, true));
    }
    // A small fresh burst keeps pool scheduling on the chart without
    // dominating the bench's runtime.
    let fresh_iterations = (job_iterations / 64).max(16);
    let fresh_spec =
        move |c: usize, j: usize| bench_job(1_000 + (c * 100 + j) as u64, fresh_iterations);
    throughput.push(throughput_burst(addr, 2, 4, fresh_spec, false, false));

    // Single-flight: 16 concurrent submissions of one never-seen spec.
    let coalescing = coalescing_burst(addr, 16, bench_job(9_999, job_iterations));

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&cache_dir);

    let speedup = |seconds: f64| if seconds > 0.0 { cold_seconds / seconds } else { f64::INFINITY };
    let latency = vec![
        ServerLatencyRow {
            label: "cold".into(),
            cache: cold_cache,
            seconds: cold_seconds,
            speedup_vs_cold: 1.0,
        },
        ServerLatencyRow {
            label: "warm".into(),
            cache: warm_cache,
            seconds: warm_seconds,
            speedup_vs_cold: speedup(warm_seconds),
        },
        ServerLatencyRow {
            label: "cached-memory".into(),
            cache: memory_cache,
            seconds: memory_seconds,
            speedup_vs_cold: speedup(memory_seconds),
        },
        ServerLatencyRow {
            label: "cached-disk".into(),
            cache: disk_cache,
            seconds: disk_seconds,
            speedup_vs_cold: speedup(disk_seconds),
        },
    ];
    ServerBenchExport {
        job_iterations,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cached_speedup_vs_cold: speedup(memory_seconds),
        latency,
        throughput,
        coalescing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_grid_has_expected_shape_and_cache_dispositions() {
        let export = measure_server(512);
        assert_eq!(export.latency.len(), 4);
        assert_eq!(export.latency[0].cache, "miss");
        assert_eq!(export.latency[1].cache, "miss");
        assert_eq!(export.latency[2].cache, "memory");
        assert_eq!(export.latency[3].cache, "disk");
        // Loose bound here (unit tests run tiny jobs on loaded machines);
        // the committed export demonstrates the 100x acceptance floor.
        assert!(export.cached_speedup_vs_cold > 1.0, "cached must beat cold: {export:?}");
        // The sweep: serial + pipelined at each of 1/4/16/64 clients,
        // plus the fresh scheduling row.
        assert_eq!(export.throughput.len(), 9);
        for row in &export.throughput {
            assert!(row.jobs_per_sec > 0.0, "{row:?}");
        }
        let serial: Vec<_> = export.throughput.iter().filter(|r| !r.pipelined).collect();
        let pipelined: Vec<_> = export.throughput.iter().filter(|r| r.pipelined).collect();
        assert_eq!(serial.len(), 5);
        assert_eq!(pipelined.len(), 4);
        // Single-flight held: the 16-client identical burst cost exactly
        // one execution.
        assert_eq!(export.coalescing.executions, 1, "{:?}", export.coalescing);
        assert!(export.coalescing.executions_per_request <= 1.0 / 16.0 + f64::EPSILON);
        assert_eq!(export.cached_memory_seconds(), Some(export.latency[2].seconds));
        let json = serde_json::to_string(&export).expect("serializable");
        assert!(json.contains("cached_speedup_vs_cold"));
        assert!(json.contains("executions_per_request"));
    }
}

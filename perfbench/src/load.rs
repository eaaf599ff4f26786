//! The end-to-end load generator: starts the server, fills what the workload
//! needs, drives it over TCP and checks every response.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use saseval_obs::Obs;
use saseval_server::job::JobSpec;
use saseval_server::protocol::map_field;
use saseval_server::worker::{run_job, SnapshotStore};
use saseval_server::{Client, Server, ServerConfig};
use serde_json::JsonValue;

use crate::frame::{self, Conn, Frame};
use crate::workload::{Job, ReplayRequest};

/// Connections and load-generator threads: one per core the host
/// reports, at most two.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 2)
}

/// The `stats` counters the benchmark records as exact deltas.
pub const COUNTERS: [&str; 9] = [
    "jobs",
    "executed",
    "coalesced",
    "memo_hits",
    "backpressure_stalls",
    "cache_memory_hits",
    "cache_disk_hits",
    "cache_misses",
    "cache_evicted",
];

/// A snapshot (or delta) of the server's `stats` counters.
pub type Counters = BTreeMap<&'static str, u64>;

/// Reads the live `stats` frame.
///
/// # Errors
///
/// Propagates transport failures.
pub fn stats(addr: &SocketAddr) -> io::Result<Counters> {
    let frame = Client::connect(addr)?.stats()?;
    Ok(COUNTERS
        .iter()
        .map(|&name| {
            let value = match map_field(&frame, name) {
                Some(JsonValue::U64(v)) => *v,
                _ => 0,
            };
            (name, value)
        })
        .collect())
}

/// `after - before`, per counter.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(&k, &v)| (k, v.saturating_sub(before.get(k).copied().unwrap_or(0))))
        .collect()
}

/// One `ping` round trip: the server is up and serving.
///
/// # Errors
///
/// Propagates transport failures and an unexpected answer.
pub fn ping(addr: &SocketAddr) -> io::Result<()> {
    let mut client = Client::connect(addr)?;
    client.send_line("{\"control\":\"ping\"}")?;
    match client.read_frame()? {
        Some(frame) if saseval_server::protocol::str_field(&frame, "event") == Some("pong") => {
            Ok(())
        }
        other => Err(io::Error::other(format!("unexpected ping answer {other:?}"))),
    }
}

/// Median round trip of a `stats` line on an idle server, in µs.
///
/// # Errors
///
/// Propagates transport failures.
pub fn stats_rtt_us(addr: &SocketAddr, rounds: usize) -> io::Result<Vec<f64>> {
    let mut client = Client::connect(addr)?;
    (0..rounds)
        .map(|_| {
            let started = Instant::now();
            client.stats()?;
            Ok(started.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

/// Starts a server with the default configuration and a disk tier in
/// `dir`.
///
/// # Errors
///
/// Propagates bind failures.
pub fn start_server(dir: &Path) -> io::Result<Server> {
    Server::start(ServerConfig { cache_dir: Some(dir.to_path_buf()), ..Default::default() })
}

/// Stops a server and waits for its threads.
pub fn stop_server(server: Server) {
    server.shutdown();
    server.join();
}

/// The canonical payload bytes of `spec`, computed in-process: the
/// reference every response is checked against.
fn reference(spec: JobSpec, store: &SnapshotStore) -> Vec<u8> {
    run_job(spec, store, &Obs::noop()).to_bytes()
}

/// References for many specs, computed on [`clients`] threads.
pub fn references(specs: &[JobSpec]) -> Vec<Vec<u8>> {
    let store = SnapshotStore::new();
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Vec<u8>>>> = Mutex::new(vec![None; specs.len()]);
    std::thread::scope(|scope| {
        for _ in 0..clients() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&spec) = specs.get(i) else { break };
                let bytes = reference(spec, &store);
                out.lock().expect("no reference thread panics")[i] = Some(bytes);
            });
        }
    });
    out.into_inner()
        .expect("no reference thread panics")
        .into_iter()
        .map(|r| r.expect("every reference computed"))
        .collect()
}

/// Submits every job once, pipelined over [`clients`] connections, and
/// checks each result is a fresh execution equal to its reference.
///
/// # Errors
///
/// Fails on a transport error or any unexpected response.
pub fn fill(addr: &SocketAddr, jobs: &[Job], refs: &[Vec<u8>]) -> io::Result<()> {
    let lanes = clients();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                scope.spawn(move || -> io::Result<()> {
                    let mut conn = Conn::connect(addr)?;
                    let mine: Vec<usize> = (lane..jobs.len()).step_by(lanes).collect();
                    let mut batch = Vec::new();
                    for &i in &mine {
                        batch.extend(frame::request_line(i as u64, &jobs[i].line));
                    }
                    conn.send(&batch)?;
                    let mut remaining = mine.len();
                    while remaining > 0 {
                        let line = conn.next_line()?.expect("blocking reads never time out");
                        match frame::parse(line) {
                            Frame::Interim => {}
                            Frame::Done { id, cache: "miss", payload, .. }
                                if payload == refs[id as usize].as_slice() =>
                            {
                                remaining -= 1;
                            }
                            other => {
                                return Err(io::Error::other(format!("fill failed: {other:?}")))
                            }
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().expect("fill threads do not panic"))
    })
}

/// The cache disposition a workload's responses must carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every request is a fresh execution.
    Miss,
    /// Every request is answered by the memory or the disk tier.
    Hit,
}

impl Expect {
    fn allows(self, cache: &str) -> bool {
        match self {
            Expect::Miss => cache == "miss",
            Expect::Hit => cache == "memory" || cache == "disk",
        }
    }
}

/// Everything one measured phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent.
    pub attempted: usize,
    /// Requests that failed: error frame, disconnect, wrong payload or
    /// wrong disposition.
    pub failed: usize,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Latency of each completed request, in ms.
    pub latencies_ms: Vec<f64>,
    /// When each completed request finished, in s since the phase began
    /// (parallel to `latencies_ms`).
    pub completed_s: Vec<f64>,
    /// Latency minus the server-reported execution time (zero for cache
    /// hits), in ms.
    pub overheads_ms: Vec<f64>,
    /// Sum of server-reported execution times, in s.
    pub busy_s: f64,
    /// Open loop: how late each request was sent, in ms.
    pub lag_ms: Vec<f64>,
    /// Wall time of the phase, in s.
    pub wall_s: f64,
    /// Payloads kept for the post-phase reference check, by request
    /// index.
    pub kept: Vec<(usize, Vec<u8>)>,
    /// Requests answered per tier.
    pub tiers: BTreeMap<String, usize>,
}

impl Phase {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    fn merge(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
        self.latencies_ms.extend(other.latencies_ms);
        self.completed_s.extend(other.completed_s);
        self.overheads_ms.extend(other.overheads_ms);
        self.busy_s += other.busy_s;
        self.lag_ms.extend(other.lag_ms);
        self.kept.extend(other.kept);
        for (tier, n) in other.tiers {
            *self.tiers.entry(tier).or_default() += n;
        }
    }

    /// Records one response; `reference` is checked when given, and the
    /// payload kept when `keep` is set.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        frame: Frame<'_>,
        index: usize,
        completed_s: f64,
        latency: Duration,
        expect: Expect,
        reference: Option<&[u8]>,
        keep: bool,
    ) {
        match frame {
            Frame::Done { cache, elapsed_s, payload, .. } => {
                let latency_ms = latency.as_secs_f64() * 1e3;
                self.latencies_ms.push(latency_ms);
                self.completed_s.push(completed_s);
                *self.tiers.entry(cache.to_owned()).or_default() += 1;
                let elapsed = elapsed_s.unwrap_or(0.0);
                self.busy_s += elapsed;
                self.overheads_ms.push(latency_ms - elapsed * 1e3);
                if !expect.allows(cache) {
                    self.fail(format!("request {index}: disposition {cache:?}"));
                } else if reference.is_some_and(|r| r != payload) {
                    self.fail(format!("request {index}: payload differs from the reference"));
                } else if keep {
                    self.kept.push((index, payload.to_vec()));
                }
            }
            Frame::Error { message, .. } => self.fail(format!("request {index}: error {message}")),
            other => self.fail(format!("request {index}: unexpected frame {other:?}")),
        }
    }
}

/// Reads frames until the terminal one for request `id`.
fn await_terminal(conn: &mut Conn, id: u64) -> io::Result<Frame<'_>> {
    loop {
        let line = conn.next_line()?.expect("blocking reads never time out");
        match frame::parse(line) {
            Frame::Interim => {}
            Frame::Done { id: got, .. } | Frame::Error { id: Some(got), .. } if got != id => {
                return Err(io::Error::other(format!("response for {got} while awaiting {id}")))
            }
            _ => break,
        }
    }
    // The terminal line stays the connection's current line until the
    // next read.
    Ok(frame::parse(conn.current_line()))
}

/// Closed loop: each of [`clients`] connections sends its next job only
/// after the previous one's `done` frame, until `seconds` have passed
/// and `min_samples` requests completed (or twice `seconds` passed).
/// Latency runs from send to `done`. Payloads of requests for which
/// `keep(index)` holds are kept for the post-phase reference check.
pub fn closed_loop(
    addr: &SocketAddr,
    seconds: f64,
    min_samples: usize,
    job: &(dyn Fn(usize) -> Job + Sync),
    expect: Expect,
    keep: &(dyn Fn(usize) -> bool + Sync),
) -> Phase {
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let hard_deadline = started + Duration::from_secs_f64(2.0 * seconds);
    let more = || {
        let now = Instant::now();
        now < deadline || (now < hard_deadline && completed.load(Ordering::Relaxed) < min_samples)
    };
    let mut total = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients())
            .map(|_| {
                scope.spawn(|| {
                    let mut phase = Phase::default();
                    let mut conn = match Conn::connect(addr) {
                        Ok(conn) => conn,
                        Err(e) => {
                            phase.attempted += 1;
                            phase.fail(format!("connect: {e}"));
                            return phase;
                        }
                    };
                    while more() {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let line = frame::request_line(index as u64, &job(index).line);
                        phase.attempted += 1;
                        let sent = Instant::now();
                        let outcome =
                            conn.send(&line).and_then(|()| await_terminal(&mut conn, index as u64));
                        completed.fetch_add(1, Ordering::Relaxed);
                        match outcome {
                            Ok(frame) => phase.record(
                                frame,
                                index,
                                started.elapsed().as_secs_f64(),
                                sent.elapsed(),
                                expect,
                                None,
                                keep(index),
                            ),
                            Err(e) => {
                                phase.fail(format!("request {index}: {e}"));
                                break;
                            }
                        }
                    }
                    phase
                })
            })
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("load threads do not panic"));
        }
    });
    total.wall_s = started.elapsed().as_secs_f64();
    total
}

/// Open loop: requests are due at a fixed `rate` (per second, over all
/// connections) for `seconds`, whatever the server's progress. One
/// thread drives [`clients`] non-blocking connections, request `k` going
/// out on connection `k mod clients`, and busy-polls them between sends:
/// with the server's event loop that makes two busy threads on a
/// two-core host, so the generator never competes with the server for a
/// core. Latency runs from the due time,
/// so a stall also counts against the requests queued behind it;
/// `lag_ms` records how late each was sent. Every payload is checked
/// against `refs[request.entry]`.
pub fn open_loop(
    addr: &SocketAddr,
    seconds: f64,
    rate: f64,
    request: &dyn Fn(usize) -> ReplayRequest,
    refs: &[Vec<u8>],
) -> Phase {
    let total_requests = (seconds * rate).ceil() as usize;
    let started = Instant::now();
    let due = |k: usize| started + Duration::from_secs_f64(k as f64 / rate);
    let mut phase = Phase::default();
    if let Err(e) = drive_open(addr, total_requests, &due, request, refs, &mut phase) {
        phase.fail(format!("open loop: {e}"));
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase
}

fn drive_open(
    addr: &SocketAddr,
    total_requests: usize,
    due: &dyn Fn(usize) -> Instant,
    request: &dyn Fn(usize) -> ReplayRequest,
    refs: &[Vec<u8>],
    phase: &mut Phase,
) -> io::Result<()> {
    let mut conns = (0..clients())
        .map(|_| {
            let mut conn = Conn::connect(addr)?;
            conn.set_nonblocking()?;
            Ok(conn)
        })
        .collect::<io::Result<Vec<Conn>>>()?;
    let mut pending: HashMap<u64, (Instant, usize)> = HashMap::new();
    let mut next = 0;
    // Prepare the next line ahead of its due time, so generation cost
    // never shows as lag.
    let mut prepared = (next < total_requests).then(|| request(next));
    let mut idle_since = Instant::now();
    loop {
        while let Some(req) = prepared.as_ref() {
            let due_at = due(next);
            let now = Instant::now();
            if due_at > now {
                break;
            }
            phase.attempted += 1;
            phase.lag_ms.push(now.duration_since(due_at).as_secs_f64() * 1e3);
            let lane = next % conns.len();
            conns[lane].queue(&frame::request_line(next as u64, &req.line))?;
            pending.insert(next as u64, (due_at, req.entry));
            next += 1;
            prepared = (next < total_requests).then(|| request(next));
        }
        if prepared.is_none() && pending.is_empty() {
            return Ok(());
        }
        let mut progressed = false;
        for conn in &mut conns {
            conn.flush_some()?;
            while let Some(line) = conn.next_line()? {
                let received = Instant::now();
                progressed = true;
                let parsed = frame::parse(line);
                let id = match &parsed {
                    Frame::Interim => continue,
                    Frame::Done { id, .. } | Frame::Error { id: Some(id), .. } => *id,
                    other => return Err(io::Error::other(format!("unexpected frame {other:?}"))),
                };
                let Some((due_at, entry)) = pending.remove(&id) else {
                    return Err(io::Error::other(format!("response for unknown request {id}")));
                };
                phase.record(
                    parsed,
                    id as usize,
                    received.duration_since(due(0)).as_secs_f64(),
                    received.duration_since(due_at),
                    Expect::Hit,
                    Some(&refs[entry]),
                    false,
                );
            }
        }
        if progressed {
            idle_since = Instant::now();
            continue;
        }
        if prepared.is_none() && idle_since.elapsed() > Duration::from_secs(10) {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "responses stopped"));
        }
        // Spin rather than sleep: socket read timeouts round up to the
        // kernel tick, and even a 20 µs sleep woke about 0.1 ms late on
        // a 2-vCPU virtual machine, which added that much to every
        // latency and hid the server's own hit path behind it.
        std::hint::spin_loop();
    }
}

/// Checks kept payloads against references computed now (outside the
/// measured phase); returns the indices that differ.
pub fn check_kept(kept: &[(usize, Vec<u8>)], job: &(dyn Fn(usize) -> Job + Sync)) -> Vec<usize> {
    let specs: Vec<JobSpec> = kept.iter().map(|(i, _)| job(*i).spec).collect();
    let refs = references(&specs);
    kept.iter().zip(refs).filter(|((_, got), want)| got != want).map(|((i, _), _)| *i).collect()
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide `(total, steal)` CPU ticks from `/proc/stat`, when readable.
pub fn host_cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Share of CPU time the hypervisor took from this host between two
/// [`host_cpu_ticks`] readings: a run with a large share measured a
/// contended host.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((total0, steal0), (total1, steal1)) = (before?, after?);
    let total = total1.checked_sub(total0).filter(|&t| t > 0)?;
    Some(steal1.saturating_sub(steal0) as f64 / total as f64)
}

/// A fresh private directory for one server's disk tier.
pub fn fresh_dir(root: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

//! The multiplexed event loop: one thread, non-blocking sockets, every
//! connection pipelined.
//!
//! The loop owns all connections and the single-flight table. Each
//! iteration drains four readiness sources in a fixed order — accepts,
//! socket reads (parsing and dispatching any complete request lines),
//! pool events from the workers, and write-queue flushes. Everything is
//! std-only: sockets are switched to non-blocking mode and polled; a
//! *readiness wheel* keeps the hot path spinning (`yield_now`) while
//! traffic flows and escalates to short `recv_timeout` sleeps on the
//! pool-event channel when idle — so a worker completion wakes the loop
//! instantly, and an idle server costs ~0 CPU without `epoll`/`libc`.
//!
//! **Write path.** Frames are queued per connection as [`Chunk`]s:
//! `Owned` buffers for per-request heads and small frames, `Shared`
//! (`Arc<[u8]>`) slices for cached done-frame tails — the same
//! allocation the cache holds, spliced into every interested socket
//! with `write_vectored`, never copied. A connection whose queue
//! exceeds [`WRITE_CAP`] bytes stops being *read* (its buffered
//! requests stay buffered) until the queue drains below half — bounded
//! backpressure instead of unbounded buffering, counted under
//! `server.backpressure_stalls`.
//!
//! **Single-flight.** A job request misses the cache → it joins the
//! [`InflightTable`]. The first submission dispatches to the worker
//! pool; concurrent identical submissions (any connection) attach as
//! waiters and are counted under `server.coalesced`. One completion
//! fans the same framed payload out to every waiter — byte-identical
//! responses modulo the request id. Canonicalization itself is memoized
//! per unique spec text ([`KeyMemo`], `server.memo_hits`).

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use saseval_obs::{MemoryRecorder, Recorder};
use serde_json::JsonValue;

use crate::cache::ResultCache;
use crate::flight::{Detached, InflightTable, Joined, KeyMemo, Waiter};
use crate::job::JobSpec;
use crate::protocol::{
    accepted_frame, cancelled_frame, done_head, error_frame, frame, map_field, progress_frame,
    str_field,
};
use crate::worker::{PoolEvent, QueuedJob, WorkerPool};

/// Write-queue byte cap per connection: past it the connection is no
/// longer read until the queue drains below half.
pub(crate) const WRITE_CAP: usize = 256 * 1024;

/// Read-buffer guard: a connection sending this much without a newline
/// is dropped (a line protocol peer gone wrong, not a real request).
const READ_CAP: usize = 16 * 1024 * 1024;

/// One queued piece of outbound bytes.
#[derive(Debug)]
enum Chunk {
    /// Connection-private bytes (frame heads, control responses).
    Owned(Vec<u8>),
    /// A shared done-frame tail — the cache entry's own allocation.
    Shared(Arc<[u8]>),
}

impl Chunk {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Chunk::Owned(bytes) => bytes,
            Chunk::Shared(bytes) => bytes,
        }
    }
}

/// Per-connection outbound queue, flushed with `write_vectored`.
#[derive(Debug, Default)]
struct WriteQueue {
    chunks: VecDeque<Chunk>,
    /// Bytes of the front chunk already written.
    front_offset: usize,
    queued_bytes: usize,
}

impl WriteQueue {
    fn push(&mut self, chunk: Chunk) {
        self.queued_bytes += chunk.as_bytes().len();
        self.chunks.push_back(chunk);
    }

    fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    fn bytes(&self) -> usize {
        self.queued_bytes - self.front_offset
    }

    /// Writes as much as the socket accepts; `Ok(n)` is the byte count
    /// moved this call.
    fn flush(&mut self, stream: &mut TcpStream) -> io::Result<usize> {
        let mut total = 0;
        while !self.chunks.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.chunks.len().min(16));
            for (index, chunk) in self.chunks.iter().take(16).enumerate() {
                let bytes = chunk.as_bytes();
                slices.push(IoSlice::new(if index == 0 {
                    &bytes[self.front_offset..]
                } else {
                    bytes
                }));
            }
            match stream.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    total += n;
                    self.consume(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }

    fn consume(&mut self, mut n: usize) {
        self.queued_bytes = self.queued_bytes.saturating_sub(n + self.front_offset);
        n += std::mem::take(&mut self.front_offset);
        while n > 0 {
            let front_len = self.chunks.front().expect("bytes imply a chunk").as_bytes().len();
            if n >= front_len {
                self.chunks.pop_front();
                n -= front_len;
            } else {
                // Partially consumed front chunk: its full length stays
                // in `queued_bytes` (the invariant is queued_bytes =
                // sum of resident chunk lengths), so add back the `n`
                // bytes the blanket subtraction above took off for it.
                self.front_offset = n;
                self.queued_bytes += n;
                break;
            }
        }
    }
}

/// One client connection owned by the loop.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write: WriteQueue,
    /// Reading paused: the write queue crossed [`WRITE_CAP`].
    paused: bool,
    /// Peer closed its write side; the connection dies once the write
    /// queue drains.
    eof: bool,
    /// In-flight request ids on this connection → cache key, for
    /// `cancel` routing and disconnect cleanup.
    inflight_ids: HashMap<String, u64>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            write: WriteQueue::default(),
            paused: false,
            eof: false,
            inflight_ids: HashMap::new(),
        }
    }

    /// Queues one frame line (appends the newline).
    fn queue_line(&mut self, frame: String) {
        let mut bytes = frame.into_bytes();
        bytes.push(b'\n');
        self.write.push(Chunk::Owned(bytes));
    }

    /// Pops the next complete line off the read buffer.
    fn take_line(&mut self) -> Option<String> {
        let end = self.read_buf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.read_buf.drain(..=end).collect();
        Some(String::from_utf8_lossy(&line[..end]).into_owned())
    }
}

/// The readiness wheel: yields while traffic is recent, then escalates
/// to short sleeps on the pool-event channel (50 µs doubling to 800 µs)
/// so an idle loop costs ~0 CPU yet a worker completion still wakes it
/// instantly.
#[derive(Debug, Default)]
struct IdleWheel {
    spins: u32,
}

impl IdleWheel {
    const YIELD_SPINS: u32 = 256;

    fn reset(&mut self) {
        self.spins = 0;
    }

    /// Waits for the next wake signal; returns a pool event if one
    /// arrived during the sleep.
    fn wait(&mut self, pool: &Receiver<PoolEvent>) -> Option<PoolEvent> {
        self.spins = self.spins.saturating_add(1);
        if self.spins < Self::YIELD_SPINS {
            std::thread::yield_now();
            return None;
        }
        let step = ((self.spins - Self::YIELD_SPINS) / 64).min(4);
        pool.recv_timeout(Duration::from_micros(50 << step)).ok()
    }
}

/// The event loop's whole state. Constructed by [`crate::server::Server`],
/// consumed by [`Mux::run`] on the loop thread.
pub(crate) struct Mux {
    listener: TcpListener,
    cache: Arc<ResultCache>,
    /// The `server.*` counters, read live by the `stats` control frame.
    metrics: MemoryRecorder,
    /// External shutdown request ([`crate::server::Server::shutdown`]).
    shutdown: Arc<AtomicBool>,
    job_tx: Option<Sender<QueuedJob>>,
    pool_tx: Sender<PoolEvent>,
    pool_rx: Receiver<PoolEvent>,
    conns: HashMap<usize, Conn>,
    next_conn: usize,
    inflight: InflightTable,
    memo: KeyMemo,
    shutting_down: bool,
}

impl Mux {
    pub(crate) fn new(
        listener: TcpListener,
        cache: Arc<ResultCache>,
        shutdown: Arc<AtomicBool>,
        job_tx: Sender<QueuedJob>,
        pool_tx: Sender<PoolEvent>,
        pool_rx: Receiver<PoolEvent>,
    ) -> Self {
        Mux {
            listener,
            cache,
            metrics: MemoryRecorder::default(),
            shutdown,
            job_tx: Some(job_tx),
            pool_tx,
            pool_rx,
            conns: HashMap::new(),
            next_conn: 0,
            inflight: InflightTable::new(),
            memo: KeyMemo::default(),
            shutting_down: false,
        }
    }

    /// Runs the loop to completion (shutdown requested, in-flight work
    /// drained, responses flushed), then closes the job queue and joins
    /// the worker pool.
    pub(crate) fn run(mut self, pool: WorkerPool) {
        let mut scratch = vec![0u8; 64 * 1024];
        let mut wheel = IdleWheel::default();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                self.shutting_down = true;
            }
            let mut activity = self.accept();
            activity += self.pump_reads(&mut scratch);
            activity += self.drain_pool_events();
            activity += self.flush_writes();
            if self.shutting_down
                && self.inflight.is_empty()
                && self.conns.values().all(|c| c.write.is_empty())
            {
                break;
            }
            if activity == 0 {
                if let Some(event) = wheel.wait(&self.pool_rx) {
                    self.handle_pool_event(event);
                    wheel.reset();
                }
            } else {
                wheel.reset();
            }
        }
        // Close the queue: workers finish in-flight jobs and exit.
        drop(self.job_tx.take());
        pool.join();
    }

    /// Accepts until the listener would block. Connections arriving
    /// after shutdown began are dropped unanswered (this also swallows
    /// the wake-up connection [`crate::server::Server::shutdown`] makes).
    fn accept(&mut self) -> usize {
        let mut accepted = 0;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shutting_down {
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns.insert(id, Conn::new(stream));
                    accepted += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        accepted
    }

    /// Reads every unpaused connection and processes any complete
    /// request lines. Returns the number of lines processed plus reads
    /// that moved bytes.
    fn pump_reads(&mut self, scratch: &mut [u8]) -> usize {
        let ids: Vec<usize> = self.conns.keys().copied().collect();
        let mut activity = 0;
        for id in ids {
            let mut close = false;
            if let Some(conn) = self.conns.get_mut(&id) {
                if !conn.paused && !conn.eof {
                    loop {
                        match conn.stream.read(scratch) {
                            Ok(0) => {
                                conn.eof = true;
                                break;
                            }
                            Ok(n) => {
                                activity += 1;
                                conn.read_buf.extend_from_slice(&scratch[..n]);
                                if conn.read_buf.len() > READ_CAP {
                                    // Over the cap with complete lines
                                    // buffered is a fast pipelining
                                    // client, not a violation: stop
                                    // reading so line processing drains
                                    // the buffer first. Only a capful
                                    // of bytes with no newline at all
                                    // means a peer gone wrong.
                                    if conn.read_buf.contains(&b'\n') {
                                        break;
                                    }
                                    close = true;
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                close = true;
                                break;
                            }
                        }
                        if close {
                            break;
                        }
                    }
                }
            }
            // Process buffered lines (also after EOF: a client may pipe
            // requests and half-close before reading the responses).
            if !close {
                loop {
                    let line = match self.conns.get_mut(&id) {
                        Some(conn) if !conn.paused => conn.take_line(),
                        _ => None,
                    };
                    match line {
                        Some(line) => {
                            activity += 1;
                            self.process_line(id, &line);
                        }
                        None => break,
                    }
                }
            }
            let drained = self
                .conns
                .get(&id)
                .is_some_and(|c| c.eof && c.write.is_empty() && c.take_line_peek_none());
            if close || drained {
                self.close_conn(id);
            }
        }
        activity
    }

    fn process_line(&mut self, conn_id: usize, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        let value: JsonValue = match serde_json::from_str(line) {
            Ok(value) => value,
            Err(e) => {
                self.queue_frame(conn_id, error_frame(None, &format!("unparseable line: {e}")));
                return;
            }
        };
        if let Some(control) = str_field(&value, "control") {
            let control = control.to_owned();
            let id = str_field(&value, "id").map(str::to_owned);
            self.process_control(conn_id, &control, id.as_deref());
            return;
        }
        self.process_job(conn_id, &value);
    }

    fn process_control(&mut self, conn_id: usize, control: &str, id: Option<&str>) {
        match control {
            "ping" => {
                self.queue_frame(conn_id, frame(vec![("event", JsonValue::Str("pong".into()))]));
            }
            "stats" => {
                let stats = self.stats_frame();
                self.queue_frame(conn_id, stats);
            }
            "shutdown" => {
                self.queue_frame(
                    conn_id,
                    frame(vec![("event", JsonValue::Str("shutting-down".into()))]),
                );
                self.shutting_down = true;
            }
            "cancel" => self.process_cancel(conn_id, id),
            other => {
                self.queue_frame(conn_id, error_frame(None, &format!("unknown control {other:?}")));
            }
        }
    }

    /// Handles `{"control":"cancel","id":...}`: detaches this
    /// connection's waiter from the job. The last waiter to leave
    /// orphans the job, whose execution is then cancelled cooperatively;
    /// other waiters keep the job alive and still get their result.
    fn process_cancel(&mut self, conn_id: usize, id: Option<&str>) {
        let Some(id) = id else {
            self.queue_frame(conn_id, error_frame(None, "cancel requires an id"));
            return;
        };
        let key = self.conns.get(&conn_id).and_then(|conn| conn.inflight_ids.get(id).copied());
        let Some(key) = key else {
            self.queue_frame(conn_id, error_frame(Some(id), "no in-flight job with this id"));
            return;
        };
        match self.inflight.detach(key, conn_id, id) {
            Detached::Orphaned(token) => token.cancel(),
            Detached::Remaining => {}
            Detached::NotFound => {
                // inflight_ids said otherwise; keep the mapping intact
                // (the tables disagree — destroying the id→key entry
                // would only paper over it) and report as already done.
                self.queue_frame(conn_id, error_frame(Some(id), "no in-flight job with this id"));
                return;
            }
        }
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.inflight_ids.remove(id);
        }
        self.metrics.counter("server.cancelled", 1);
        self.queue_frame(conn_id, cancelled_frame(id));
    }

    fn process_job(&mut self, conn_id: usize, value: &JsonValue) {
        let Some(id) = str_field(value, "id").map(str::to_owned) else {
            self.queue_frame(
                conn_id,
                error_frame(None, "invalid job request: missing string field `id`"),
            );
            return;
        };
        let Some(job_value) = map_field(value, "job") else {
            self.queue_frame(
                conn_id,
                error_frame(Some(&id), "invalid job request: missing field `job`"),
            );
            return;
        };
        // The memo is keyed on the job's serialized spelling: repeat
        // spec bytes skip normalization + canonical JSON + hashing (for
        // lint jobs that includes the artifact-fingerprint walk).
        let spec_text = serde_json::to_string(job_value).expect("parsed values always serialize");
        let (key, spec) = match self.memo.lookup(&spec_text) {
            Some(hit) => {
                self.metrics.counter("server.memo_hits", 1);
                hit
            }
            None => {
                let spec: JobSpec = match serde_json::from_str(&spec_text) {
                    Ok(spec) => spec,
                    Err(e) => {
                        self.queue_frame(
                            conn_id,
                            error_frame(Some(&id), &format!("invalid job request: {e}")),
                        );
                        return;
                    }
                };
                let key = spec.cache_key();
                self.memo.store(spec_text, key, spec);
                (key, spec)
            }
        };
        if self.conns.get(&conn_id).is_some_and(|c| c.inflight_ids.contains_key(&id)) {
            self.queue_frame(
                conn_id,
                error_frame(Some(&id), "duplicate in-flight request id on this connection"),
            );
            return;
        }
        self.metrics.counter("server.jobs", 1);
        self.queue_frame(conn_id, accepted_frame(&id, key));
        // Fast path: answer straight from the cache — the done frame
        // splices the cached allocation, no copy, no queue.
        if let Some((frame, tier)) = self.cache.get(key) {
            self.queue_done(conn_id, &id, key, tier.as_str(), None, frame.share());
            return;
        }
        if self.shutting_down || self.job_tx.is_none() {
            self.queue_frame(conn_id, error_frame(Some(&id), "server is shutting down"));
            return;
        }
        match self.inflight.join(key, Waiter { conn: conn_id, id: id.clone() }) {
            Joined::First { epoch, token } => {
                let queued = QueuedJob { spec, key, epoch, token, events: self.pool_tx.clone() };
                let sent = self.job_tx.as_ref().is_some_and(|tx| tx.send(queued).is_ok());
                if !sent {
                    self.inflight.abandon(key);
                    self.queue_frame(conn_id, error_frame(Some(&id), "server is shutting down"));
                    return;
                }
            }
            Joined::Coalesced => self.metrics.counter("server.coalesced", 1),
        }
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            conn.inflight_ids.insert(id, key);
        }
    }

    fn drain_pool_events(&mut self) -> usize {
        let mut drained = 0;
        while let Ok(event) = self.pool_rx.try_recv() {
            self.handle_pool_event(event);
            drained += 1;
        }
        drained
    }

    fn handle_pool_event(&mut self, event: PoolEvent) {
        match event {
            PoolEvent::Progress { key, epoch, metric, value } => {
                let waiters: Vec<Waiter> = self.inflight.waiters(key, epoch).to_vec();
                for waiter in waiters {
                    let line = progress_frame(&waiter.id, &metric, value);
                    self.queue_frame(waiter.conn, line);
                }
            }
            PoolEvent::Done { key, epoch, frame, tier, stats } => {
                if tier.is_none() {
                    // A fresh execution happened whether or not anyone
                    // is still waiting for it.
                    self.metrics.counter("server.executed", 1);
                }
                let Some(waiters) = self.inflight.complete(key, epoch) else {
                    return; // stale instance (cancelled then resubmitted)
                };
                let cache_name = tier.map_or("miss", |tier| tier.as_str());
                for waiter in waiters {
                    if let Some(conn) = self.conns.get_mut(&waiter.conn) {
                        conn.inflight_ids.remove(&waiter.id);
                    }
                    self.queue_done(
                        waiter.conn,
                        &waiter.id,
                        key,
                        cache_name,
                        stats.as_ref(),
                        frame.share(),
                    );
                }
            }
            PoolEvent::Aborted { key, epoch } => {
                // The entry is normally already gone (removed when its
                // last waiter detached); completing is a no-op guard.
                let _ = self.inflight.complete(key, epoch);
            }
        }
    }

    /// Queues one head + shared-tail done frame, then applies
    /// backpressure accounting.
    fn queue_done(
        &mut self,
        conn_id: usize,
        id: &str,
        key: u64,
        cache: &str,
        stats: Option<&crate::worker::FreshStats>,
        tail: Arc<[u8]>,
    ) {
        let Some(conn) = self.conns.get_mut(&conn_id) else { return };
        conn.write.push(Chunk::Owned(done_head(id, key, cache, stats)));
        conn.write.push(Chunk::Shared(tail));
        self.check_backpressure(conn_id);
    }

    fn queue_frame(&mut self, conn_id: usize, frame: String) {
        let Some(conn) = self.conns.get_mut(&conn_id) else { return };
        conn.queue_line(frame);
        self.check_backpressure(conn_id);
    }

    fn check_backpressure(&mut self, conn_id: usize) {
        let Some(conn) = self.conns.get_mut(&conn_id) else { return };
        if !conn.paused && conn.write.bytes() > WRITE_CAP {
            conn.paused = true;
            self.metrics.counter("server.backpressure_stalls", 1);
        }
    }

    /// Flushes every pending write queue; unpauses connections that
    /// drained below half the cap; closes connections whose peer is
    /// gone.
    fn flush_writes(&mut self) -> usize {
        let mut moved = 0;
        let mut dead = Vec::new();
        for (&id, conn) in &mut self.conns {
            if conn.write.is_empty() {
                conn.paused = false;
                continue;
            }
            match conn.write.flush(&mut conn.stream) {
                Ok(n) => {
                    moved += usize::from(n > 0);
                    if conn.paused && conn.write.bytes() <= WRITE_CAP / 2 {
                        conn.paused = false;
                    }
                }
                Err(_) => dead.push(id),
            }
        }
        for id in dead {
            self.close_conn(id);
        }
        moved
    }

    /// Removes a connection, detaching its waiters everywhere. Jobs
    /// left without any waiter are cancelled — a disconnected client
    /// must not keep burning worker time, and nobody is left to pay for
    /// the cache entry.
    fn close_conn(&mut self, conn_id: usize) {
        if self.conns.remove(&conn_id).is_none() {
            return;
        }
        let orphaned = self.inflight.drop_conn(conn_id);
        if orphaned > 0 {
            self.metrics.counter("server.cancelled", orphaned as u64);
        }
    }

    fn stats_frame(&self) -> String {
        let cache = &self.cache.stats;
        let m = |name| JsonValue::U64(self.metrics.counter_value(name).unwrap_or(0));
        frame(vec![
            ("event", JsonValue::Str("stats".into())),
            ("jobs", m("server.jobs")),
            ("executed", m("server.executed")),
            ("coalesced", m("server.coalesced")),
            ("memo_hits", m("server.memo_hits")),
            ("cancelled", m("server.cancelled")),
            ("backpressure_stalls", m("server.backpressure_stalls")),
            ("inflight", JsonValue::U64(self.inflight.len() as u64)),
            ("cache_memory_hits", JsonValue::U64(cache.memory_hits.load(Ordering::Relaxed))),
            ("cache_disk_hits", JsonValue::U64(cache.disk_hits.load(Ordering::Relaxed))),
            ("cache_misses", JsonValue::U64(cache.misses.load(Ordering::Relaxed))),
            ("cache_corrupt", JsonValue::U64(cache.corrupt.load(Ordering::Relaxed))),
            ("cache_evicted", JsonValue::U64(cache.evicted.load(Ordering::Relaxed))),
        ])
    }
}

impl Conn {
    /// Whether no complete line is buffered (EOF-drain check) without
    /// consuming anything.
    fn take_line_peek_none(&self) -> bool {
        !self.read_buf.contains(&b'\n')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_queue_tracks_partial_consumption_across_chunks() {
        let mut queue = WriteQueue::default();
        queue.push(Chunk::Owned(b"hello ".to_vec()));
        queue.push(Chunk::Shared(Arc::from(&b"world"[..])));
        assert_eq!(queue.bytes(), 11);
        queue.consume(3);
        assert_eq!(queue.bytes(), 8);
        queue.consume(3); // crosses the chunk boundary
        assert_eq!(queue.bytes(), 5);
        queue.consume(5);
        assert!(queue.is_empty());
        assert_eq!(queue.bytes(), 0);
    }

    #[test]
    fn write_queue_tracks_uneven_partial_consumption() {
        // Regression: a partial write that is not exactly half the
        // front chunk must leave bytes() = remaining unwritten bytes
        // (the old accounting added back front_len - n instead of n,
        // underflowing queued_bytes on the next boundary crossing).
        let mut queue = WriteQueue::default();
        queue.push(Chunk::Owned(b"0123456789".to_vec()));
        assert_eq!(queue.bytes(), 10);
        queue.consume(7);
        assert_eq!(queue.bytes(), 3);
        queue.push(Chunk::Shared(Arc::from(&b"abcd"[..])));
        assert_eq!(queue.bytes(), 7);
        queue.consume(4); // finishes the front chunk, 1 into the next
        assert_eq!(queue.bytes(), 3);
        queue.consume(3);
        assert!(queue.is_empty());
        assert_eq!(queue.bytes(), 0);
    }

    #[test]
    fn idle_wheel_yields_before_sleeping() {
        let mut wheel = IdleWheel::default();
        let (_tx, rx) = std::sync::mpsc::channel::<PoolEvent>();
        for _ in 0..IdleWheel::YIELD_SPINS - 1 {
            assert!(wheel.wait(&rx).is_none());
        }
        // Past the yield budget it sleeps on the channel (and returns
        // nothing, since nothing was sent).
        assert!(wheel.wait(&rx).is_none());
        wheel.reset();
        assert_eq!(wheel.spins, 0);
    }
}

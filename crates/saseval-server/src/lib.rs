//! Campaign server: a long-running validation service over the SaSeVAL
//! stack.
//!
//! The paper's workflow culminates in campaigns — suites of
//! safety/security test cases executed against simulated systems. Runs
//! are deterministic by construction, which makes repeat requests pure
//! waste: the same spec, seed and code always reproduce the same bytes.
//! This crate turns that determinism into a service:
//!
//! * [`job`] — wire-level job specs ([`job::JobSpec`]) with a
//!   canonicalization pipeline: spelling differences (field order,
//!   explicitly-spelled defaults, unknown fields) are erased before
//!   hashing, and the fnv1a64 key
//!   is chained with a code-version fingerprint so a stale result can
//!   never be served across code changes.
//! * [`cache`] — a two-tier content-addressed store
//!   ([`cache::ResultCache`]): in-memory LRU in front of an optional
//!   verified on-disk tier (append-only segment files behind an
//!   in-memory index) and an optional byte cap evicting whole segments
//!   oldest-first. Memory
//!   entries are pre-framed done-frame tails ([`cache::FramedPayload`],
//!   shared `Arc<[u8]>` allocations), so a cached response is spliced
//!   into the socket without copying the payload.
//! * [`flight`] — single-flight bookkeeping
//!   ([`flight::InflightTable`]): concurrent identical submissions
//!   coalesce onto one execution whose framed result fans out to every
//!   waiter; [`flight::CancelToken`] carries cooperative cancellation
//!   and [`flight::KeyMemo`] memoizes canonicalization per unique spec
//!   text.
//! * [`worker`] — a worker pool ([`worker::WorkerPool`]) running
//!   [`worker::execute`]; a fuzz job freezes its scenario's world at
//!   attack activation once ([`vehicle_sim::WorldSnapshot`]) and every
//!   shard forks from that frozen pre-attack state instead of
//!   re-stepping the world; progress streams out of `saseval-obs`
//!   recorders as [`worker::PoolEvent`]s tagged with cache key and
//!   single-flight epoch.
//! * [`protocol`] + [`server`] — a std-only TCP line protocol (one
//!   JSON value per line) served by a single multiplexed event-loop
//!   thread over non-blocking sockets (pipelined requests, bounded
//!   write backpressure — see the crate-private `mux` module), plus a
//!   minimal blocking [`server::Client`].
//!
//! See `DESIGN.md` §10 for the architecture and the
//! determinism/caching contract, and `scripts/check.sh` for the smoke
//! gates that exercise a live server end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod flight;
pub mod job;
mod mux;
pub mod protocol;
pub mod server;
pub mod worker;

pub use cache::{CacheStats, CacheTier, FramedPayload, ResultCache};
pub use flight::{CancelToken, Detached, InflightTable, Joined, KeyMemo, Waiter};
pub use job::{
    code_version, CampaignJob, CatalogName, ControlsPreset, FuzzJob, JobPayload, JobSpec, LintJob,
    LintOutcome, ScenarioSpec, SuiteName,
};
pub use server::{Client, JobOutcome, Server, ServerConfig};
pub use worker::{FreshStats, PoolEvent, QueuedJob, WorkerPool};
